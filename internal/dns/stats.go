package dns

import (
	"sync/atomic"

	"mxmap/internal/overload"
)

// ServerStats is a point-in-time snapshot of a Server's serving
// counters. Chaos tests assert these exactly against injected load, and
// operators read them to see whether overload protection is engaging.
//
// Accounting invariants (steady state, after in-flight work settles):
//
//	UDPQueries == UDPResponses + UDPDropped + UDPWriteErrors + RRLDrops
//	TCPQueries == TCPResponses + TCPDropped + TCPWriteErrors
//
// RRL slips are counted in both RRLSlips and UDPResponses (a slipped
// reply is still a datagram sent).
type ServerStats struct {
	// UDPQueries counts datagrams received by UDP workers.
	UDPQueries uint64
	// UDPResponses counts datagrams written, including slipped TC
	// replies.
	UDPResponses uint64
	// UDPDropped counts datagrams that produced no response at all
	// (unparseable beyond salvage).
	UDPDropped uint64
	// UDPWriteErrors counts failed response writes.
	UDPWriteErrors uint64
	// UDPReadRetries counts transient ReadFrom errors survived by
	// worker backoff instead of worker death.
	UDPReadRetries uint64

	// RRLDrops counts responses suppressed by response-rate limiting.
	RRLDrops uint64
	// RRLSlips counts rate-limited responses sent as truncated TC=1
	// replies instead of dropped.
	RRLSlips uint64

	// TCPAccepted counts connections admitted below MaxTCPConns.
	TCPAccepted uint64
	// TCPRejected counts connections shed at the admission cap.
	TCPRejected uint64
	// TCPQueries counts fully received TCP query frames.
	TCPQueries uint64
	// TCPResponses counts TCP responses written.
	TCPResponses uint64
	// TCPDropped counts TCP frames that produced no response.
	TCPDropped uint64
	// TCPWriteErrors counts failed TCP response writes.
	TCPWriteErrors uint64
	// TCPBudgetCloses counts connections closed for exhausting the
	// per-connection query budget.
	TCPBudgetCloses uint64
	// AcceptRetries counts transient Accept errors survived by backoff.
	AcceptRetries uint64

	// Drains counts graceful Shutdown calls that completed within their
	// deadline; DrainTimeouts counts those that fell back to hard close.
	Drains        uint64
	DrainTimeouts uint64
}

// Merge accumulates another server's counters into st, for aggregating
// a fleet of authorities into one view.
func (st *ServerStats) Merge(o ServerStats) {
	st.UDPQueries += o.UDPQueries
	st.UDPResponses += o.UDPResponses
	st.UDPDropped += o.UDPDropped
	st.UDPWriteErrors += o.UDPWriteErrors
	st.UDPReadRetries += o.UDPReadRetries
	st.RRLDrops += o.RRLDrops
	st.RRLSlips += o.RRLSlips
	st.TCPAccepted += o.TCPAccepted
	st.TCPRejected += o.TCPRejected
	st.TCPQueries += o.TCPQueries
	st.TCPResponses += o.TCPResponses
	st.TCPDropped += o.TCPDropped
	st.TCPWriteErrors += o.TCPWriteErrors
	st.TCPBudgetCloses += o.TCPBudgetCloses
	st.AcceptRetries += o.AcceptRetries
	st.Drains += o.Drains
	st.DrainTimeouts += o.DrainTimeouts
}

// Lost reports queries that were fully received but never answered,
// shed, or dropped-by-policy — the number a graceful drain must keep at
// zero.
func (st ServerStats) Lost() uint64 {
	lost := int64(st.UDPQueries) - int64(st.UDPResponses+st.UDPDropped+st.UDPWriteErrors+st.RRLDrops)
	lost += int64(st.TCPQueries) - int64(st.TCPResponses+st.TCPDropped+st.TCPWriteErrors)
	if lost < 0 {
		return 0
	}
	return uint64(lost)
}

// ResolverStats is a point-in-time snapshot of an IterativeResolver's
// caching and coalescing counters. Cache-tier tests assert these
// exactly against injected query sequences.
//
// Accounting invariants (steady state, Cache attached):
//
//	Queries == CacheHits + CacheMisses
//	WireQueries counts individual server exchange attempts, so with
//	healthy upstreams it equals the number of non-coalesced misses
//	times the referral-chain length.
type ResolverStats struct {
	// Queries counts Query calls (every cache consultation).
	Queries uint64
	// CacheHits counts queries answered from a fresh cache entry.
	CacheHits uint64
	// CacheMisses counts queries that had to go to the wire.
	CacheMisses uint64
	// StaleServed counts queries answered from an expired entry under
	// RFC 8767 after the wire attempt failed.
	StaleServed uint64
	// Coalesced counts queries that attached to an identical in-flight
	// question instead of launching their own iteration.
	Coalesced uint64
	// WireQueries counts individual exchange attempts against servers.
	WireQueries uint64
	// Prefetches counts successful near-expiry background refreshes;
	// PrefetchFailures counts refresh attempts that errored.
	Prefetches       uint64
	PrefetchFailures uint64
}

// resolverCounters is the live atomic counterpart of ResolverStats.
type resolverCounters struct {
	queries, cacheHits, cacheMisses, staleServed atomic.Uint64
	coalesced, wireQueries                       atomic.Uint64
	prefetches, prefetchFailures                 atomic.Uint64
}

// snapshot captures the counters into a ResolverStats.
func (c *resolverCounters) snapshot() ResolverStats {
	return ResolverStats{
		Queries:          c.queries.Load(),
		CacheHits:        c.cacheHits.Load(),
		CacheMisses:      c.cacheMisses.Load(),
		StaleServed:      c.staleServed.Load(),
		Coalesced:        c.coalesced.Load(),
		WireQueries:      c.wireQueries.Load(),
		Prefetches:       c.prefetches.Load(),
		PrefetchFailures: c.prefetchFailures.Load(),
	}
}

// serverCounters is the live atomic counterpart of ServerStats.
type serverCounters struct {
	udpQueries, udpResponses, udpDropped, udpWriteErrors, udpReadRetries atomic.Uint64
	rrlDrops, rrlSlips                                                   atomic.Uint64
	tcpQueries, tcpResponses, tcpDropped, tcpWriteErrors                 atomic.Uint64
	tcpBudgetCloses                                                      atomic.Uint64
}

// snapshot captures the counters, and the lifecycle counters the
// overload core keeps, into a ServerStats.
func (c *serverCounters) snapshot(core overload.Stats) ServerStats {
	return ServerStats{
		UDPQueries:      c.udpQueries.Load(),
		UDPResponses:    c.udpResponses.Load(),
		UDPDropped:      c.udpDropped.Load(),
		UDPWriteErrors:  c.udpWriteErrors.Load(),
		UDPReadRetries:  c.udpReadRetries.Load(),
		RRLDrops:        c.rrlDrops.Load(),
		RRLSlips:        c.rrlSlips.Load(),
		TCPAccepted:     core.Accepted,
		TCPRejected:     core.Rejected,
		TCPQueries:      c.tcpQueries.Load(),
		TCPResponses:    c.tcpResponses.Load(),
		TCPDropped:      c.tcpDropped.Load(),
		TCPWriteErrors:  c.tcpWriteErrors.Load(),
		TCPBudgetCloses: c.tcpBudgetCloses.Load(),
		AcceptRetries:   core.AcceptRetries,
		Drains:          core.Drains,
		DrainTimeouts:   core.DrainTimeouts,
	}
}
