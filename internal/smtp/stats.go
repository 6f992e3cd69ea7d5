package smtp

import (
	"sync/atomic"

	"mxmap/internal/overload"
)

// ServerStats is a point-in-time snapshot of a Server's serving
// counters, the observable surface chaos tests assert against.
type ServerStats struct {
	// Accepted counts connections admitted below MaxConns.
	Accepted uint64
	// Rejected counts connections shed at the admission cap with a 421.
	Rejected uint64
	// Commands counts dispatched SMTP commands across all sessions.
	Commands uint64
	// BudgetCloses counts sessions closed for exhausting the
	// per-session command budget.
	BudgetCloses uint64
	// AcceptRetries counts transient Accept errors survived by backoff
	// instead of killing the accept loop.
	AcceptRetries uint64
	// Drains counts graceful Shutdown calls that completed within their
	// deadline; DrainTimeouts counts those that fell back to hard close.
	Drains        uint64
	DrainTimeouts uint64
}

// serverCounters is the live atomic counterpart of ServerStats, less
// the lifecycle counters the overload core keeps.
type serverCounters struct {
	commands, budgetCloses atomic.Uint64
}

func (c *serverCounters) snapshot(core overload.Stats) ServerStats {
	return ServerStats{
		Accepted:      core.Accepted,
		Rejected:      core.Rejected,
		Commands:      c.commands.Load(),
		BudgetCloses:  c.budgetCloses.Load(),
		AcceptRetries: core.AcceptRetries,
		Drains:        core.Drains,
		DrainTimeouts: core.DrainTimeouts,
	}
}
