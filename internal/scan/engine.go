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
// its run state (retry budget, breakers) and resolver cache, and one
// record sink. The goroutines of a lane share all of it; mu serializes
// what they commit, and the failure class of each record committed is
// counted beside it. The chain-verdict memo is the run's, shared by
// every lane.
type lane struct {
	c   *Collector
	run *collectRun
	dr  *domainResolver
	sink

	mu           sync.Mutex
	domains, ips map[dataset.FailureClass]int
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
// the caller closes w once the run has succeeded or been cancelled.
func shardSink(w *dataset.ShardWriter) sink {
	return sink{
		putDomain: func(_ int, rec dataset.DomainRecord) error { return w.AddDomain(rec) },
		putIP:     w.AddIP,
	}
}

func newLane(c *Collector, s sink) *lane {
	run := &collectRun{
		retry:    newRetryState(c.Retry),
		breakers: newBreakerSet(breakerThreshold),
	}
	return &lane{
		c: c, run: run, dr: c.newDomainResolver(run), sink: s,
		domains: make(map[dataset.FailureClass]int),
		ips:     make(map[dataset.FailureClass]int),
	}
}

// engine is one collection run: the (domain → MX → A) join, then one
// port-25 observation per distinct address, on perLane goroutines of
// every lane.
type engine struct {
	lanes   []*lane
	perLane int
	targets []Target

	// What the shards of the run a resume continues hold, which Merge
	// reads where they lie: not measured or written again.
	heldDomains map[string][]netip.Addr
	heldIPs     map[netip.Addr]bool
}

// collect runs the engine and reports what it wrote, with the run's
// Health: the classes its lanes counted, and one vote per distinct
// exchange off their resolution memos (exchangeVotes). Each domain is
// measured by exactly one goroutine and each distinct address scanned
// by exactly one, whatever the layout. On error the run is abandoned
// as it stands: what a sink holds then is every record that was
// completed, and the caller decides whether to keep it. What out, the
// run's shard set (nil for a memory sink), holds is skipped.
func collect(ctx context.Context, lanes []*lane, perLane int, targets []Target, out *dataset.ShardSet) (*FleetStats, error) {
	e := &engine{lanes: lanes, perLane: perLane, targets: targets}
	if out != nil {
		e.heldDomains, e.heldIPs = out.Held()
	}
	verdicts := &chainVerdicts{m: make(map[string]*chainVerdict)}
	for _, l := range lanes {
		l.run.verdicts = verdicts
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
		for a := range l.dr.addrs {
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

	h := &dataset.Health{
		Domains:   make(map[dataset.FailureClass]int),
		Exchanges: exchangeVotes(lanes),
		IPs:       make(map[dataset.FailureClass]int),
	}
	stats := &FleetStats{Workers: len(lanes), Health: h}
	for _, l := range lanes {
		for c, n := range l.domains {
			h.Domains[c] += n
			stats.Domains += n
		}
		for c, n := range l.ips {
			h.IPs[c] += n
			stats.IPs += n
		}
		h.Stats.DNSRetries += int(l.run.dnsRetries.Load())
		h.Stats.ScanRetries += int(l.run.scanRetries.Load())
		h.Stats.BudgetExhausted = h.Stats.BudgetExhausted || l.run.retry.exhausted.Load()
		h.Stats.BreakerOpens += int(l.run.breakers.opens.Load())
		h.Stats.BreakerSkips += int(l.run.breakers.skips.Load())
	}
	if stats.IPs > 0 {
		h.Coverage = float64(stats.IPs-h.IPs[dataset.FailNotCovered]) / float64(stats.IPs)
	}
	return stats, nil
}

// exchangeVotes counts one outcome per distinct exchange the lanes
// resolved, read off their resolution memos once phase 1 is over: the
// exchange's definitive outcome if any lane reached one (aCache), else
// the transient class its last flight ended with (aFlights keeps a
// transiently failed flight until a later one replaces it), the first
// lane's where several hold one.
func exchangeVotes(lanes []*lane) map[dataset.FailureClass]int {
	vote := make(map[string]dataset.FailureClass)
	for _, l := range lanes {
		for host, res := range l.dr.aCache {
			vote[host] = res.class
		}
	}
	for _, l := range lanes {
		for host, f := range l.dr.aFlights {
			if _, ok := vote[host]; !ok {
				vote[host] = f.res.class
			}
		}
	}
	votes := make(map[dataset.FailureClass]int)
	for _, c := range vote {
		votes[c]++
	}
	return votes
}

// claimLoop settles items 0..n-1, each exactly once, on every goroutine
// of every lane: a goroutine claims the next size items off a shared
// cursor, so one slow stretch (a stalled resolver, a cluster of
// timeouts) holds up one claim, not a share of the run fixed in
// advance. It waits for all of them; the first failure cancels the rest
// and is the error returned, so the caller's own cancellation comes
// ahead of whatever it went on to cause.
//
// The goroutines settle under a claimCtx of the loop's context: the
// settle functions ask it for Err several times an item, from every
// goroutine at once.
func (e *engine) claimLoop(ctx context.Context, n, size int, settle func(context.Context, *lane, int) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	settleCtx := &claimCtx{Context: ctx, done: ctx.Done()}
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
						if err := settle(settleCtx, l, i); err != nil {
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

// claimCtx is a context whose Err reads its done channel before it
// asks the context: a cancelCtx's Err takes the context's mutex (Go
// 1.24), so an Err asked by every goroutine of a claim loop is one
// contended lock, while a receive that finds the channel open only
// reads it. Done, Deadline and Value are the context's, so contexts
// derived from a claimCtx hang off the loop's, and cancelling the loop
// still reaches every goroutine at the one moment its channel closes.
type claimCtx struct {
	context.Context
	done <-chan struct{}
}

func (c *claimCtx) Err() error {
	select {
	case <-c.done:
		return c.Context.Err()
	default:
		return nil
	}
}

// domain settles target i on lane l: measured and handed to the sink,
// or skipped when the checkpoint holds it. Either way its addresses are
// noted for phase 2: a measured domain's by the resolutions that found
// them (domainResolver.resolveA), a held one's here.
func (e *engine) domain(ctx context.Context, l *lane, i int) error {
	t := e.targets[i]
	if len(e.heldDomains) > 0 {
		if addrs, held := e.heldDomains[t.Name]; held {
			l.dr.mu.Lock()
			for _, a := range addrs {
				l.dr.addrs[a] = true
			}
			l.dr.mu.Unlock()
			return nil
		}
	}
	rec, class := l.dr.collectDomain(ctx, t)
	// A record finished under a cancelled context carries cancellation
	// artifacts; spilling it would freeze them into the resumed run.
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.domains[class]++
	return l.putDomain(i, rec)
}

// addr is domain's counterpart for one address of phase 2.
func (e *engine) addr(ctx context.Context, l *lane, a netip.Addr) error {
	if e.heldIPs[a] {
		return nil
	}
	info, class := l.c.scanIP(ctx, l.run, a)
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ips[class]++
	return l.putIP(info)
}

// claimSize is how many of n items a goroutine takes at a time: large
// enough to amortize the claim (up to limit), small enough that the run
// is at least parts claims and no goroutine idles while work remains.
func claimSize(n, parts, limit int) int {
	return max(1, min(limit, n/parts))
}
