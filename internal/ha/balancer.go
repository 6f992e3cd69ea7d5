package ha

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/serve"
)

// Balancer fronts the replica pool as a serve.Handler: plug it into a
// serve.Server's Config.Handler and the whole admission/drain/stats kit
// guards the fleet. Forwarding is retry-on-failure for idempotent GETs
// within one deadline budget, with tail-latency hedging against a
// second replica.
type Balancer struct {
	cfg   Config
	pool  *Pool
	c     counters
	front atomic.Pointer[serve.Server]
	// rolloutMu serializes rollouts: two concurrent rollouts
	// interleaving swaps would fork the fleet across three epochs.
	rolloutMu sync.Mutex
}

// New builds a balancer (and its pool) over cfg.
func New(cfg Config) (*Balancer, error) {
	b := &Balancer{cfg: cfg}
	pool, err := newPool(&b.cfg, &b.c)
	if err != nil {
		return nil, err
	}
	b.pool = pool
	return b, nil
}

// Pool exposes the replica pool (probing, membership state).
func (b *Balancer) Pool() *Pool { return b.pool }

// Run drives the probe loop until ctx is done.
func (b *Balancer) Run(ctx context.Context) { b.pool.Run(ctx) }

// Close closes every parked upstream connection. Call it once the front
// has drained; a forward after Close still works, it just dials again.
func (b *Balancer) Close() { b.pool.closeIdle() }

// AttachFront hands the balancer the serve.Server it runs behind, so a
// derived hedge threshold can read that server's per-endpoint latency
// histograms and /v1/stats can merge the front's counters.
func (b *Balancer) AttachFront(s *serve.Server) { b.front.Store(s) }

// Stats snapshots the balancer's exact counters.
func (b *Balancer) Stats() BalancerStats { return b.c.snapshot() }

// hedgeDelay resolves the tail-latency hedge threshold for one request
// path: a fixed positive Config.HedgeDelay wins; a negative one
// disables hedging; otherwise the front server's endpoint histogram is
// consulted at the hedge quantile, floored (and, below the sample
// gate, replaced) by HedgeFloor.
func (b *Balancer) hedgeDelay(path string) time.Duration {
	if d := b.cfg.HedgeDelay; d != 0 {
		if d < 0 {
			return 0
		}
		return d
	}
	floor := b.cfg.hedgeFloor()
	front := b.front.Load()
	if front == nil {
		return floor
	}
	q, n := front.LatencyQuantile(path, hedgeQuantile)
	if n < b.cfg.hedgeMinSamples() || q < floor {
		return floor
	}
	return q
}

// Handle implements serve.Handler: balancer-local control endpoints are
// answered here, everything else is forwarded to the fleet.
func (b *Balancer) Handle(ctx context.Context, req *serve.Request) serve.Response {
	switch req.Path {
	case "/healthz":
		if req.Method != "GET" {
			return serve.ErrorResponse(405, "method not allowed")
		}
		return serve.JSONResponse(200, b.Health())
	case "/readyz":
		if req.Method != "GET" {
			return serve.ErrorResponse(405, "method not allowed")
		}
		return b.handleReadyz()
	case "/v1/stats":
		if req.Method != "GET" {
			return serve.ErrorResponse(405, "method not allowed")
		}
		return serve.JSONResponse(200, b.FleetStats())
	case "/v1/rollout":
		return b.handleRollout(ctx, req)
	case "/v1/swap":
		// Swapping one replica out from under the balancer would fork
		// the fleet's epochs silently; rollouts own that transition.
		return serve.ErrorResponse(403, "swap is managed by the balancer: use /v1/rollout")
	}
	if req.Method != "GET" {
		return serve.ErrorResponse(405, "method not allowed")
	}
	return b.forward(ctx, req)
}

// Health reports the fleet's degradation rung and per-replica state.
func (b *Balancer) Health() FleetHealth {
	avail, stale, ejected := b.pool.counts()
	state := "serving"
	switch {
	case avail == 0:
		state = "down"
	case stale == avail:
		state = "degraded"
	}
	return FleetHealth{
		State:           state,
		ReadyReplicas:   avail,
		StaleReplicas:   stale,
		EjectedReplicas: ejected,
		Replicas:        b.pool.Replicas(),
	}
}

func (b *Balancer) handleReadyz() serve.Response {
	h := b.Health()
	resp := serve.JSONResponse(200, h)
	if h.ReadyReplicas == 0 {
		resp.Status = 503
		resp.RetryAfter = true
	}
	return resp
}

// FleetStats merges the balancer counters with the attached front
// server's and the per-replica routing view.
func (b *Balancer) FleetStats() FleetStats {
	fs := FleetStats{Balancer: b.c.snapshot(), Upstream: b.pool.upstream(), Replicas: b.pool.Replicas()}
	if front := b.front.Load(); front != nil {
		st := front.Stats()
		fs.Front = &st
		fs.Latency = front.LatencySnapshot()
	}
	return fs
}

// attemptResult is one upstream attempt's outcome in the race.
type attemptResult struct {
	rep    *Replica
	resp   serve.Response
	err    error
	hedged bool
}

// forward proxies one request through the fleet.
//
// The ladder, top to bottom: a healthy replica answers; a failed
// attempt on an idempotent GET retries on a different replica inside
// the retry budget; an attempt outliving the hedge threshold races a
// second replica, first response wins and the loser's connection is
// severed, never parked for reuse; when every available replica is
// stale the answer still goes out (the stale markers in the body
// stand, StaleForwards counts it);
// when no replica is available the request sheds 503 + Retry-After and
// DownSheds counts it exactly.
func (b *Balancer) forward(ctx context.Context, req *serve.Request) serve.Response {
	b.c.requests.Add(1)

	target := req.Path
	if len(req.Query) > 0 {
		target += "?" + req.Query.Encode()
	}
	idempotent := req.Method == "GET"

	ctx, cancel := context.WithTimeout(ctx, b.cfg.retryBudget())
	defer cancel()

	maxAttempts := b.cfg.maxAttempts(len(b.pool.replicas))
	results := make(chan attemptResult, maxAttempts)
	tried := make(map[*Replica]bool, maxAttempts)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	inflight := 0

	launch := func(hedged bool) bool {
		if len(tried) >= maxAttempts {
			return false
		}
		rep := b.pool.pick(tried)
		if rep == nil {
			return false
		}
		tried[rep] = true
		b.c.attempts.Add(1)
		rep.attempts.Add(1)
		if rep.isStale() {
			b.c.staleForwards.Add(1)
		}
		actx, acancel := context.WithCancel(ctx)
		cancels = append(cancels, acancel)
		inflight++
		go func() {
			resp, err := rep.do(actx, req.Method, target, 0, true)
			results <- attemptResult{rep: rep, resp: resp, err: err, hedged: hedged}
		}()
		return true
	}

	if !launch(false) {
		b.c.downSheds.Add(1)
		return b.shed(503, "no replica available")
	}

	var hedgeC <-chan time.Time
	if idempotent {
		if d := b.hedgeDelay(req.Path); d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}

	var last *attemptResult
	for {
		select {
		case res := <-results:
			inflight--
			if res.err == nil && res.resp.Status < 500 {
				// Success — 4xx included: the replica answered, the
				// client just asked something malformed or missing.
				b.pool.recordSuccess(res.rep)
				if res.hedged {
					b.c.hedgeWins.Add(1)
				}
				return passthrough(res.resp)
			}
			if res.err != errAttemptCancelled {
				b.c.upstreamErrs.Add(1)
				b.pool.recordFailure(res.rep)
			}
			cur := res
			last = &cur
			if idempotent && ctx.Err() == nil && launch(false) {
				b.c.retries.Add(1)
				continue
			}
			if inflight > 0 {
				// A hedge twin is still running; let the race finish.
				continue
			}
			b.c.proxyFails.Add(1)
			if last.err == nil {
				// Every attempt failed but the last one failed with an
				// actual upstream response: relay it rather than
				// flattening the cause into a generic 502.
				return passthrough(last.resp)
			}
			return b.shed(502, "all replicas failed")
		case <-hedgeC:
			hedgeC = nil
			if inflight > 0 && launch(true) {
				b.c.hedges.Add(1)
			}
		case <-ctx.Done():
			b.c.budgetExceeded.Add(1)
			return b.shed(504, "retry budget exceeded")
		}
	}
}

// passthrough relays an upstream response to the client, preserving the
// back-off hint on shed-class statuses. Close is hop-by-hop: a replica
// ending its upstream connection must not end the client's.
func passthrough(u serve.Response) serve.Response {
	u.Close = false
	u.RetryAfter = u.RetryAfter || u.Status == 429 || u.Status == 503 || u.Status == 504
	return u
}

// shed answers for the balancer itself when the fleet cannot:
// Retry-After always rides along so clients back off instead of
// hammering a down fleet.
func (b *Balancer) shed(status int, msg string) serve.Response {
	resp := serve.ErrorResponse(status, msg)
	resp.RetryAfter = true
	return resp
}
