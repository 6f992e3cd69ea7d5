package ha

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/serve"
)

// Balancer fronts the replica pool as a serve.Handler: plug it into a
// serve.Server's Config.Handler and the whole connection-cap/drain/stats
// kit guards the fleet. Forwarding is sequential fail-over: one attempt at a
// time, each on a replica not yet tried and under an equal share of one
// retry budget.
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

// AttachFront hands the balancer the serve.Server it runs behind, so
// /v1/stats can merge the front's counters and latency histograms.
func (b *Balancer) AttachFront(s *serve.Server) { b.front.Store(s) }

// Stats snapshots the balancer's exact counters.
func (b *Balancer) Stats() BalancerStats { return b.c.snapshot() }

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

// forward proxies one request through the fleet the way a sender walks
// an MX list: one attempt at a time on the request goroutine, each on a
// replica not yet tried, and the next only when the one before it failed
// or outlived its deadline — the retry budget split evenly over the
// attempts, so the whole request fits in the budget.
//
// The ladder, top to bottom: a healthy replica answers; a failed or
// timed-out attempt counts against its replica and moves on to the next
// one; when every available replica is stale the answer still goes out
// (the stale markers in the body stand, StaleForwards counts it); when
// no replica is available the request sheds 503 + Retry-After and
// DownSheds counts it exactly. Only the caller's context ending — the
// front's hard stop — abandons a request without blaming the replica.
func (b *Balancer) forward(ctx context.Context, req *serve.Request) serve.Response {
	b.c.requests.Add(1)

	target := req.Path
	if len(req.Query) > 0 {
		target += "?" + req.Query.Encode()
	}

	attempts := min(maxAttempts, len(b.pool.replicas))
	deadline := b.cfg.retryBudget() / time.Duration(attempts)
	var tried [maxAttempts]*Replica
	var last serve.Response
	var lastErr error
	n := 0
	for ; n < attempts; n++ {
		rep := b.pool.pick(tried[:n])
		if rep == nil {
			break
		}
		tried[n] = rep
		if n > 0 {
			b.c.retries.Add(1)
		}
		b.c.attempts.Add(1)
		rep.attempts.Add(1)
		if rep.isStale() {
			b.c.staleForwards.Add(1)
		}
		resp, err := rep.do(ctx, req.Method, target, deadline, true)
		if err == nil && resp.Status < 500 {
			// Success — 4xx included: the replica answered, the client
			// just asked something malformed or missing.
			b.pool.recordSuccess(rep)
			return passthrough(resp)
		}
		if err == errAttemptCancelled {
			b.c.budgetExceeded.Add(1)
			return b.shed(504, "request cancelled")
		}
		b.c.upstreamErrs.Add(1)
		b.pool.recordFailure(rep)
		last, lastErr = resp, err
	}
	if n == 0 {
		b.c.downSheds.Add(1)
		return b.shed(503, "no replica available")
	}
	b.c.proxyFails.Add(1)
	if lastErr == nil {
		// Every attempt failed but the last one failed with an actual
		// upstream response: relay it rather than flattening the cause
		// into a generic 502.
		return passthrough(last)
	}
	return b.shed(502, "all replicas failed")
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
