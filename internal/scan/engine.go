package scan

import (
	"context"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"mxmap/internal/dataset"
)

// lane is one unit of private collection machinery: a collector with
// its run state (retry budget, breakers) and resolver cache, one record
// sink and an optional journal. The goroutines of a lane share all of
// it; mu serializes what they commit.
type lane struct {
	c       *Collector
	run     *collectRun
	dr      *domainResolver
	journal Journal
	sink

	mu           sync.Mutex
	addrs        map[netip.Addr]bool
	domains, ips int
}

// sink is where a lane's records land: putDomain receives target i's
// record, putIP one address's observation. The lane serializes calls.
type sink struct {
	putDomain func(i int, rec dataset.DomainRecord) error
	putIP     func(info dataset.IPInfo) error
}

// memorySink stores target i's record at slot i of snap.Domains, which
// the caller has sized to the target list, so domains come out in
// target order whatever the schedule.
func memorySink(snap *dataset.Snapshot) sink {
	return sink{
		putDomain: func(i int, rec dataset.DomainRecord) error { snap.Domains[i] = rec; return nil },
		putIP:     func(info dataset.IPInfo) error { snap.AddIP(info); return nil },
	}
}

// shardSink buffers into w, which spills sorted shard files as it fills;
// the caller closes w once the run has succeeded.
func shardSink(w *dataset.ShardWriter) sink {
	return sink{
		putDomain: func(_ int, rec dataset.DomainRecord) error { return w.AddDomain(rec) },
		putIP:     w.AddIP,
	}
}

func newLane(c *Collector, journal Journal, s sink) *lane {
	run := &collectRun{
		retry:    newRetryState(c.Retry),
		breakers: newBreakerSet(breakerThreshold),
	}
	return &lane{
		c: c, run: run, dr: c.newDomainResolver(run), journal: journal, sink: s,
		addrs: make(map[netip.Addr]bool),
	}
}

// engine is one collection run: the (domain → MX → A) join, then one
// port-25 observation per distinct address, on perLane goroutines of
// every lane.
type engine struct {
	lanes   []*lane
	perLane int
	targets []Target

	// Records recovered from a crashed run's journals are spliced in
	// instead of re-measured, and not re-journaled.
	seen        map[string]bool
	priorDomain map[string]*dataset.DomainRecord
	priorIPs    map[string]dataset.IPInfo
}

// collect runs the engine and reports what it wrote. Each domain is
// measured by exactly one goroutine and each distinct address scanned
// by exactly one, whatever the layout. On error the run is abandoned
// as it stands: nothing buffered in a sink is flushed.
func collect(ctx context.Context, lanes []*lane, perLane int, targets []Target, prior *dataset.Snapshot, seen map[string]bool) (*FleetStats, error) {
	e := &engine{lanes: lanes, perLane: perLane, targets: targets, seen: seen}
	if prior != nil {
		e.priorDomain = make(map[string]*dataset.DomainRecord, len(prior.Domains))
		for i := range prior.Domains {
			e.priorDomain[prior.Domains[i].Domain] = &prior.Domains[i]
		}
		e.priorIPs = prior.IPs
	}
	goroutines := len(lanes) * perLane

	// Phase 1: DNS, work-stealing over target slices, so one slow slice
	// (a stalled resolver, a cluster of timeouts) cannot serialize the
	// run.
	d := newDispatcher(len(targets), goroutines)
	err := e.fanOut(ctx, func(ctx context.Context, l *lane) error {
		for s := d.acquire(); s != nil; s = d.acquire() {
			for lo, hi := s.claim(d.chunk); lo < hi; lo, hi = s.claim(d.chunk) {
				for i := lo; i < hi; i++ {
					if err := e.domain(ctx, l, i); err != nil {
						return err // the run is over; s stays in flight
					}
				}
			}
			d.release(s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: SMTP over the globally deduplicated address set, claimed
	// off a cursor. The union and sort are tiny next to the domain
	// corpus — provider concentration keeps distinct MX addresses orders
	// of magnitude below the domain count.
	addrSet := make(map[netip.Addr]bool)
	for _, l := range lanes {
		for a := range l.addrs {
			addrSet[a] = true
		}
	}
	addrs := make([]netip.Addr, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })

	batch := claimSize(len(addrs), 4*goroutines, 16)
	var cursor atomic.Int64
	err = e.fanOut(ctx, func(ctx context.Context, l *lane) error {
		for {
			lo := int(cursor.Add(int64(batch))) - batch
			if lo >= len(addrs) {
				return nil
			}
			for _, a := range addrs[lo:min(lo+batch, len(addrs))] {
				if err := e.addr(ctx, l, a); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	stats := &FleetStats{Workers: len(lanes), WorkShards: d.shards, Steals: d.steals}
	for _, l := range lanes {
		stats.Domains += l.domains
		stats.IPs += l.ips
		stats.Collection.DNSRetries += int(l.run.dnsRetries.Load())
		stats.Collection.ScanRetries += int(l.run.scanRetries.Load())
		stats.Collection.BudgetExhausted = stats.Collection.BudgetExhausted || l.run.retry.exhausted.Load()
		stats.Collection.BreakerOpens += int(l.run.breakers.opens.Load())
		stats.Collection.BreakerSkips += int(l.run.breakers.skips.Load())
	}
	return stats, nil
}

// fanOut runs work on every goroutine of every lane and waits for all
// of them. The first failure cancels the rest and is the error
// returned, so the caller's own cancellation comes ahead of whatever it
// went on to cause.
func (e *engine) fanOut(ctx context.Context, work func(context.Context, *lane) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for _, l := range e.lanes {
		for g := 0; g < e.perLane; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := work(ctx, l); err != nil {
					cancel(err)
				}
			}()
		}
	}
	wg.Wait()
	return context.Cause(ctx)
}

// domain settles target i on lane l: spliced from the prior run or
// measured, journaled, handed to the sink, its addresses noted for
// phase 2.
func (e *engine) domain(ctx context.Context, l *lane, i int) error {
	t := e.targets[i]
	prior, spliced := e.priorDomain[t.Name]
	spliced = spliced && e.seen[t.Name]
	var rec dataset.DomainRecord
	if spliced {
		rec = *prior
	} else {
		rec = l.dr.collectDomain(ctx, t)
	}
	// A record finished under a cancelled context carries cancellation
	// artifacts; journaling it would freeze them into the resumed run.
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !spliced && l.journal != nil {
		if err := l.journal.AddDomain(&rec); err != nil {
			return err
		}
	}
	for _, mx := range rec.MX {
		for _, a := range mx.Addrs {
			l.addrs[a] = true
		}
	}
	l.domains++
	return l.putDomain(i, rec)
}

// addr is domain's counterpart for one address of phase 2.
func (e *engine) addr(ctx context.Context, l *lane, a netip.Addr) error {
	info, spliced := e.priorIPs[a.String()]
	if !spliced {
		info = l.c.scanIP(ctx, l.run, a)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !spliced && l.journal != nil {
		if err := l.journal.AddIP(&info); err != nil {
			return err
		}
	}
	l.ips++
	return l.putIP(info)
}

// claimSize is how many of n items a goroutine takes at a time: large
// enough to amortize the claim (up to limit), small enough that the run
// is at least parts claims and no goroutine idles while work remains.
func claimSize(n, parts, limit int) int {
	return max(1, min(limit, n/parts))
}

// fleetShard is one contiguous slice of the target list. Workers claim
// chunks from the front; thieves cut off the back half.
type fleetShard struct {
	mu        sync.Mutex
	next, end int
}

// claim takes up to n targets, returning a half-open index range
// (lo == hi once the shard is drained).
func (s *fleetShard) claim(n int) (lo, hi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo = s.next
	hi = lo + n
	if hi > s.end {
		hi = s.end
	}
	s.next = hi
	return lo, hi
}

func (s *fleetShard) remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end - s.next
}

// stealHalf cuts the back half off the shard for a thief, or returns
// nil when fewer than min targets remain (not worth splitting).
func (s *fleetShard) stealHalf(min int) *fleetShard {
	s.mu.Lock()
	defer s.mu.Unlock()
	rem := s.end - s.next
	if rem < min {
		return nil
	}
	cut := s.end - rem/2
	stolen := &fleetShard{next: cut, end: s.end}
	s.end = cut
	return stolen
}

// dispatcher hands shards to workers: queued shards first, in target
// order, then halves stolen from the largest in-flight shard.
type dispatcher struct {
	// chunk is how many targets a worker claims from its shard at a
	// time. A shard is stealable only while at least two chunks remain,
	// so the chunk also bounds steal churn.
	chunk  int
	shards int

	mu       sync.Mutex
	queue    []*fleetShard
	inflight map[*fleetShard]bool
	steals   int
}

// newDispatcher cuts n targets into four contiguous shards per
// goroutine — an idle one finds queued work before it has to steal —
// each claimed a quarter at a time.
func newDispatcher(n, goroutines int) *dispatcher {
	d := &dispatcher{
		chunk:    claimSize(n, 16*goroutines, 64),
		shards:   min(4*goroutines, n),
		inflight: make(map[*fleetShard]bool),
	}
	for i := 0; i < d.shards; i++ {
		d.queue = append(d.queue, &fleetShard{next: i * n / d.shards, end: (i + 1) * n / d.shards})
	}
	return d
}

// acquire returns the next shard to work on, or nil when no queued
// shard remains and no in-flight shard is worth splitting. Lock order
// is d.mu then shard.mu.
func (d *dispatcher) acquire() *fleetShard {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.queue) > 0 {
		s := d.queue[0]
		d.queue = d.queue[1:]
		d.inflight[s] = true
		return s
	}
	var victim *fleetShard
	most := 0
	for s := range d.inflight {
		if rem := s.remaining(); rem > most {
			victim, most = s, rem
		}
	}
	if victim == nil {
		return nil
	}
	// Only split when at least two chunks remain: stealing less leaves
	// the thief a sliver and doubles the bookkeeping for nothing.
	stolen := victim.stealHalf(2 * d.chunk)
	if stolen == nil {
		return nil
	}
	d.steals++
	d.inflight[stolen] = true
	return stolen
}

func (d *dispatcher) release(s *fleetShard) {
	d.mu.Lock()
	delete(d.inflight, s)
	d.mu.Unlock()
}
