package ha

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"time"

	"mxmap/internal/overload"
	"mxmap/internal/serve"
)

// Pool owns the replica set: round-robin selection over available
// members, active /healthz + /readyz probing on the configured clock,
// and the ejection breaker's re-probe schedule. Balancer builds it and
// adds the forwarding tier on top.
type Pool struct {
	cfg      *Config
	replicas []*Replica
	rr       atomic.Uint64
	c        *counters
}

// newPool builds a pool over cfg.Replicas, counting into the balancer's
// ledger c. Replicas start unprobed and therefore unavailable: run Run
// (or call ProbeOnce) to admit them.
func newPool(cfg *Config, c *counters) (*Pool, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errNoReplicas
	}
	p := &Pool{cfg: cfg, c: c}
	for i := range cfg.Replicas {
		rc := cfg.Replicas[i]
		if rc.Name == "" {
			rc.Name = rc.Addr
		}
		p.replicas = append(p.replicas, &Replica{cfg: rc, c: c})
	}
	return p, nil
}

// Stats snapshots the ledger the pool shares with its Balancer, whose
// Stats returns it too.
func (p *Pool) Stats() BalancerStats { return p.c.snapshot() }

// Replicas snapshots every member's reportable state.
func (p *Pool) Replicas() []ReplicaInfo {
	out := make([]ReplicaInfo, 0, len(p.replicas))
	for _, r := range p.replicas {
		out = append(out, r.info())
	}
	return out
}

// reprobeDelay is the breaker's n-th re-probe wait: exponential from
// ReprobeBase, capped at ReprobeMax, jittered into [d/2, d] by the
// configured source (a zero-jitter source pins it exactly).
func (p *Pool) reprobeDelay(n int) time.Duration {
	return overload.Delay(n, p.cfg.reprobeBase(), p.cfg.reprobeMax(), p.cfg.jitter())
}

// pick selects the next available replica round-robin, skipping the
// tried set (so retries and hedges land elsewhere). nil means the
// request has nowhere left to go.
func (p *Pool) pick(tried map[*Replica]bool) *Replica {
	n := len(p.replicas)
	start := int(p.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		r := p.replicas[(start+i)%n]
		if tried[r] {
			continue
		}
		if r.available() {
			return r
		}
	}
	return nil
}

// counts tallies the fleet for the degradation ladder: how many
// replicas are routable, how many of those are stale, how many sit
// behind a tripped breaker.
func (p *Pool) counts() (avail, stale, ejected int) {
	for _, r := range p.replicas {
		r.mu.Lock()
		switch {
		case r.ejected:
			ejected++
		case r.ready:
			avail++
			if r.stale {
				stale++
			}
		}
		r.mu.Unlock()
	}
	return avail, stale, ejected
}

// ProbeOnce probes every replica that is due on the configured clock —
// healthy members on the probe interval, ejected members on their
// breaker schedule — and returns how many were probed. Tests drive the
// whole probe state machine deterministically by stepping a frozen
// clock and calling this directly; Run wraps it in a ticker.
func (p *Pool) ProbeOnce(ctx context.Context) int {
	now := p.cfg.now()
	probed := 0
	for _, r := range p.replicas {
		r.mu.Lock()
		due := !r.probed || !now.Before(r.nextProbe)
		ejected := r.ejected
		r.mu.Unlock()
		if !due {
			continue
		}
		if ejected {
			p.c.reprobes.Add(1)
		}
		p.probeReplica(ctx, r)
		probed++
	}
	return probed
}

// probeReplica runs one probe round against r: GET /healthz for
// state/staleness/epoch, then GET /readyz for routability. A transport
// failure or non-200 /healthz is a probe failure and feeds the breaker;
// a 503 /readyz just marks the replica not ready (it is alive, merely
// loading or draining). Returns whether the replica is ready.
func (p *Pool) probeReplica(ctx context.Context, r *Replica) bool {
	p.c.probes.Add(1)
	now := p.cfg.now()
	timeout := p.cfg.probeTimeout()

	hr, err := r.do(ctx, "GET", "/healthz", timeout, false)
	if err != nil || hr.Status != 200 {
		p.probeFailed(r, now)
		return false
	}
	var health serve.HealthResponse
	if err := json.Unmarshal(hr.Body, &health); err != nil {
		p.probeFailed(r, now)
		return false
	}
	rr, err := r.do(ctx, "GET", "/readyz", timeout, false)
	if err != nil {
		p.probeFailed(r, now)
		return false
	}
	ready := rr.Status == 200

	p.recordSuccess(r)
	r.mu.Lock()
	r.probed = true
	r.ready = ready
	r.stale = health.Stale
	r.epoch = health.Epoch
	r.nextProbe = now.Add(p.cfg.probeInterval())
	r.mu.Unlock()
	return ready
}

// probeFailed books one failed probe round: the breaker advances (or
// trips), and a still-healthy replica keeps its regular probe cadence
// so the next round retries it.
func (p *Pool) probeFailed(r *Replica, now time.Time) {
	p.c.probeFails.Add(1)
	r.mu.Lock()
	r.probed = true
	r.ready = false
	wasEjected := r.ejected
	r.mu.Unlock()
	p.recordFailure(r)
	r.mu.Lock()
	if !r.ejected && !wasEjected {
		// Breaker not tripped yet: stay on the regular cadence.
		r.nextProbe = now.Add(p.cfg.probeInterval())
	}
	r.mu.Unlock()
}

// Run probes in a loop until ctx is done. The tick is a quarter of the
// probe interval (floor 5ms) so ejected-replica re-probe deadlines are
// honored reasonably promptly without a timer per replica. The same
// tick retires upstream connections parked longer than maxIdleAge, and
// every parked connection is closed when ctx ends.
func (p *Pool) Run(ctx context.Context) {
	tick := p.cfg.probeInterval() / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	defer p.closeIdle()
	for {
		p.ProbeOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			for _, r := range p.replicas {
				r.closeIdle(now.Add(-maxIdleAge))
			}
		}
	}
}

// closeIdle closes every parked upstream connection in the fleet.
func (p *Pool) closeIdle() {
	for _, r := range p.replicas {
		r.closeIdle(time.Time{})
	}
}

// upstream sums the replicas' connection counters.
func (p *Pool) upstream() UpstreamStats {
	var u UpstreamStats
	for _, r := range p.replicas {
		u.Dials += r.dials.Load()
		u.Reuses += r.reuses.Load()
		u.StaleRedials += r.staleRedials.Load()
		r.idleMu.Lock()
		u.Idle += len(r.idle)
		r.idleMu.Unlock()
	}
	return u
}
