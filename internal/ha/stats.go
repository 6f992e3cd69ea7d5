package ha

import (
	"sync/atomic"

	"mxmap/internal/serve"
)

// BalancerStats is the balancer's exact counter set. Comparable —
// fixed-width integers only — so chaos tests can reconstruct the whole
// struct after a run and assert equality, not inequalities.
type BalancerStats struct {
	// Requests counts client requests entering the forwarding path.
	Requests uint64 `json:"requests"`
	// Attempts counts upstream tries (first attempts and retries).
	Attempts uint64 `json:"attempts"`
	// Retries counts failed attempts relaunched on another replica.
	Retries uint64 `json:"retries"`
	// Hedges and HedgeWins are always 0: the balancer tries one replica
	// at a time and hedges nothing. They are declared only because
	// bench/ reads them as ha.hedges and ha.hedge_wins; they go when
	// bench/ drops those metrics (ROADMAP item 6).
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// UpstreamErrs counts attempt failures (transport error, 5xx, or
	// the attempt's deadline passing).
	UpstreamErrs uint64 `json:"upstream_errs"`
	// StaleForwards counts attempts routed to a known-stale replica —
	// the degraded rung of the ladder, where answers carry markers.
	StaleForwards uint64 `json:"stale_forwards"`
	// DownSheds counts requests answered 503+Retry-After because no
	// replica was available — the bottom rung, with exact accounting.
	DownSheds uint64 `json:"down_sheds"`
	// ProxyFails counts requests where every attempt failed.
	ProxyFails uint64 `json:"proxy_fails"`
	// BudgetExceeded counts requests abandoned mid-attempt because the
	// caller's context ended (the front's hard stop: Close, or a drain
	// past its deadline).
	BudgetExceeded uint64 `json:"budget_exceeded"`
	// Probes counts replica probe rounds; ProbeFails the failed ones.
	Probes     uint64 `json:"probes"`
	ProbeFails uint64 `json:"probe_fails"`
	// Ejections, Reprobes and Recoveries track the outlier breaker:
	// trips, scheduled re-probe attempts while ejected, and resets.
	Ejections  uint64 `json:"ejections"`
	Reprobes   uint64 `json:"reprobes"`
	Recoveries uint64 `json:"recoveries"`
	// Rollouts counts rolling snapshot rollouts started; RolloutSwaps
	// individual replica swaps completed and verified; RolloutAborts
	// rollouts halted by a failed swap; Rollbacks already-advanced
	// replicas swapped back to the previous snapshot after an abort.
	Rollouts      uint64 `json:"rollouts"`
	RolloutSwaps  uint64 `json:"rollout_swaps"`
	RolloutAborts uint64 `json:"rollout_aborts"`
	Rollbacks     uint64 `json:"rollbacks"`
}

// counters is the live atomic mirror of BalancerStats, shared by the
// pool (probe/ejection side) and the balancer (forwarding side).
type counters struct {
	requests       atomic.Uint64
	attempts       atomic.Uint64
	retries        atomic.Uint64
	upstreamErrs   atomic.Uint64
	staleForwards  atomic.Uint64
	downSheds      atomic.Uint64
	proxyFails     atomic.Uint64
	budgetExceeded atomic.Uint64
	probes         atomic.Uint64
	probeFails     atomic.Uint64
	ejections      atomic.Uint64
	reprobes       atomic.Uint64
	recoveries     atomic.Uint64
	rollouts       atomic.Uint64
	rolloutSwaps   atomic.Uint64
	rolloutAborts  atomic.Uint64
	rollbacks      atomic.Uint64
}

func (c *counters) snapshot() BalancerStats {
	return BalancerStats{
		Requests:       c.requests.Load(),
		Attempts:       c.attempts.Load(),
		Retries:        c.retries.Load(),
		UpstreamErrs:   c.upstreamErrs.Load(),
		StaleForwards:  c.staleForwards.Load(),
		DownSheds:      c.downSheds.Load(),
		ProxyFails:     c.proxyFails.Load(),
		BudgetExceeded: c.budgetExceeded.Load(),
		Probes:         c.probes.Load(),
		ProbeFails:     c.probeFails.Load(),
		Ejections:      c.ejections.Load(),
		Reprobes:       c.reprobes.Load(),
		Recoveries:     c.recoveries.Load(),
		Rollouts:       c.rollouts.Load(),
		RolloutSwaps:   c.rolloutSwaps.Load(),
		RolloutAborts:  c.rolloutAborts.Load(),
		Rollbacks:      c.rollbacks.Load(),
	}
}

// ReplicaInfo is one replica's state as reported by /healthz and
// /v1/stats on the balancer.
type ReplicaInfo struct {
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
	// State is "healthy" or "ejected".
	State string `json:"state"`
	// Ready and Stale mirror the replica's last probed /readyz and
	// /healthz; Epoch is its last probed snapshot epoch.
	Ready bool   `json:"ready"`
	Stale bool   `json:"stale,omitempty"`
	Epoch uint64 `json:"epoch"`
	// ConsecFails is the live failure streak feeding the breaker.
	ConsecFails int `json:"consec_fails,omitempty"`
	// Attempts and Failures count forwarded attempts routed here;
	// Ejections counts this replica's breaker trips.
	Attempts  uint64 `json:"attempts"`
	Failures  uint64 `json:"failures"`
	Ejections uint64 `json:"ejections"`
}

// FleetHealth answers /healthz on the balancer: always 200 (liveness),
// with the degradation rung spelled out in State.
type FleetHealth struct {
	// State is "serving", "degraded" (every available replica is
	// stale), or "down" (no replica available).
	State           string        `json:"state"`
	ReadyReplicas   int           `json:"ready_replicas"`
	StaleReplicas   int           `json:"stale_replicas"`
	EjectedReplicas int           `json:"ejected_replicas"`
	Replicas        []ReplicaInfo `json:"replicas"`
}

// UpstreamStats is the balancer-to-replica connection view, summed over
// the fleet. It lives beside BalancerStats, not in it: connection reuse
// depends on timing, and that ledger is reconstructed exactly by tests.
type UpstreamStats struct {
	// Dials counts connections opened (forwards, probes and swaps);
	// Reuses forwarded exchanges started on a parked connection.
	Dials  uint64 `json:"dials"`
	Reuses uint64 `json:"reuses"`
	// StaleRedials counts reuses that found the connection closed by
	// the replica and were replaced by a fresh dial in the same attempt.
	StaleRedials uint64 `json:"stale_redials"`
	// Idle is how many connections are parked right now.
	Idle int `json:"idle"`
}

// FleetStats answers /v1/stats on the balancer: its own exact counters
// merged with the front server's (when attached), the upstream
// connection view and every replica's routing view.
type FleetStats struct {
	Balancer BalancerStats      `json:"balancer"`
	Front    *serve.ServerStats `json:"front,omitempty"`
	// Latency carries the front server's per-endpoint histograms when
	// it observes latency.
	Latency  map[string]serve.EndpointLatency `json:"latency,omitempty"`
	Upstream UpstreamStats                    `json:"upstream"`
	Replicas []ReplicaInfo                    `json:"replicas"`
}
