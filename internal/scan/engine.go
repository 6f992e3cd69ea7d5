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

	// Phase 1: DNS, the (domain → MX → A) join of every target.
	err := e.claimLoop(ctx, len(targets), claimSize(len(targets), 16*goroutines, 64), e.domain)
	if err != nil {
		return nil, err
	}

	// Phase 2: SMTP over the globally deduplicated address set. The
	// union and sort are tiny next to the domain corpus — provider
	// concentration keeps distinct MX addresses orders of magnitude below
	// the domain count.
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
	err = e.claimLoop(ctx, len(addrs), claimSize(len(addrs), 4*goroutines, 16),
		func(ctx context.Context, l *lane, i int) error { return e.addr(ctx, l, addrs[i]) })
	if err != nil {
		return nil, err
	}

	stats := &FleetStats{Workers: len(lanes)}
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

// claimLoop settles items 0..n-1, each exactly once, on every goroutine
// of every lane: a goroutine claims the next size items off a shared
// cursor, so one slow stretch (a stalled resolver, a cluster of
// timeouts) holds up one claim, not a share of the run fixed in
// advance. It waits for all of them; the first failure cancels the rest
// and is the error returned, so the caller's own cancellation comes
// ahead of whatever it went on to cause.
func (e *engine) claimLoop(ctx context.Context, n, size int, settle func(context.Context, *lane, int) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, l := range e.lanes {
		for g := 0; g < e.perLane; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					lo := int(cursor.Add(int64(size))) - size
					if lo >= n {
						return
					}
					for i, hi := lo, min(lo+size, n); i < hi; i++ {
						if err := settle(ctx, l, i); err != nil {
							cancel(err)
							return
						}
					}
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
