package serve

import (
	"sync/atomic"

	"mxmap/internal/overload"
)

// ServerStats is a point-in-time snapshot of the query server's serving
// counters. Every counter is exact — tests and benchmarks assert whole
// ServerStats values, so each request accounts for precisely one
// increment on each path it touches.
type ServerStats struct {
	// Accepted counts connections admitted to a serving goroutine;
	// Rejected counts connections shed at the door (MaxConns) with a
	// 429 before any request was read.
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	// Requests counts request lines read off admitted connections
	// (malformed ones included); Responses counts responses written
	// back. After a clean drain the two are equal: no in-flight query
	// is ever dropped.
	Requests  uint64 `json:"requests"`
	Responses uint64 `json:"responses"`
	// Queued counts requests that waited for an inflight slot; Shed
	// counts requests answered 429 because the queue was full or the
	// wait expired.
	Queued uint64 `json:"queued"`
	Shed   uint64 `json:"shed"`
	// Timeouts counts requests answered 503 at the request deadline.
	Timeouts uint64 `json:"timeouts"`
	// BadRequests counts malformed requests answered 400;
	// ReadTimeouts counts connections closed by the slowloris read
	// deadline; BudgetCloses counts connections closed for exhausting
	// their per-connection request budget.
	BadRequests  uint64 `json:"bad_requests"`
	ReadTimeouts uint64 `json:"read_timeouts"`
	BudgetCloses uint64 `json:"budget_closes"`
	// Lookups counts /v1/domain queries served from an epoch;
	// LookupMisses counts the subset naming an unknown domain.
	// StaleServes counts data responses answered while the service was
	// in degraded stale mode.
	Lookups      uint64 `json:"lookups"`
	LookupMisses uint64 `json:"lookup_misses"`
	StaleServes  uint64 `json:"stale_serves"`
	// AcceptRetries counts transient accept errors absorbed with
	// backoff; Drains and DrainTimeouts count graceful shutdowns and
	// drains that fell back to a hard close.
	AcceptRetries uint64 `json:"accept_retries"`
	Drains        uint64 `json:"drains"`
	DrainTimeouts uint64 `json:"drain_timeouts"`
}

// Lost reports requests read but never answered. It is the zero-loss
// contract: after a drain completes it must be zero.
func (st ServerStats) Lost() uint64 { return st.Requests - st.Responses }

// serverCounters is the live atomic mirror of ServerStats, less the
// lifecycle counters the overload core keeps.
type serverCounters struct {
	requests, responses       atomic.Uint64
	queued, shed, timeouts    atomic.Uint64
	badRequests, readTimeouts atomic.Uint64
	budgetCloses              atomic.Uint64
	lookups, lookupMisses     atomic.Uint64
	staleServes               atomic.Uint64
}

func (c *serverCounters) snapshot(core overload.Stats) ServerStats {
	return ServerStats{
		Accepted:      core.Accepted,
		Rejected:      core.Rejected,
		Requests:      c.requests.Load(),
		Responses:     c.responses.Load(),
		Queued:        c.queued.Load(),
		Shed:          c.shed.Load(),
		Timeouts:      c.timeouts.Load(),
		BadRequests:   c.badRequests.Load(),
		ReadTimeouts:  c.readTimeouts.Load(),
		BudgetCloses:  c.budgetCloses.Load(),
		Lookups:       c.lookups.Load(),
		LookupMisses:  c.lookupMisses.Load(),
		StaleServes:   c.staleServes.Load(),
		AcceptRetries: core.AcceptRetries,
		Drains:        core.Drains,
		DrainTimeouts: core.DrainTimeouts,
	}
}
