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
	// Shed and Timeouts are always 0: a handler runs on its
	// connection's goroutine, so nothing is shed per request and no
	// request deadline answers for it. They are declared only because
	// bench/ reads them (serve.shed and its run gate); they go when
	// bench/ drops those reads (ROADMAP item 6).
	Shed     uint64 `json:"shed"`
	Timeouts uint64 `json:"timeouts"`
	// BadRequests counts malformed requests answered 400;
	// ReadTimeouts counts connections closed by the slowloris read
	// deadline.
	BadRequests  uint64 `json:"bad_requests"`
	ReadTimeouts uint64 `json:"read_timeouts"`
	// Lookups counts /v1/domain queries served from a store;
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
	badRequests, readTimeouts atomic.Uint64
	lookups, lookupMisses     atomic.Uint64
	staleServes               atomic.Uint64
}

func (c *serverCounters) snapshot(core overload.Stats) ServerStats {
	return ServerStats{
		Accepted:      core.Accepted,
		Rejected:      core.Rejected,
		Requests:      c.requests.Load(),
		Responses:     c.responses.Load(),
		BadRequests:   c.badRequests.Load(),
		ReadTimeouts:  c.readTimeouts.Load(),
		Lookups:       c.lookups.Load(),
		LookupMisses:  c.lookupMisses.Load(),
		StaleServes:   c.staleServes.Load(),
		AcceptRetries: core.AcceptRetries,
		Drains:        core.Drains,
		DrainTimeouts: core.DrainTimeouts,
	}
}
