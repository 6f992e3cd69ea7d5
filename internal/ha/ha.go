// Package ha is the high-availability serving tier: a replica pool and
// balancer that front N query-service replicas (serve.Service +
// serve.Server instances, in-process over the netsim fabric or across
// real sockets) so that one crashed, wedged, or stale replica never
// takes the answer service down.
//
// The moving parts mirror the fail-over structure the world generator
// models for mail itself (priority MX tiers, backup exchanges):
//
//   - Active health probing: every replica's /healthz and /readyz are
//     polled on an interval; probe results drive readiness, staleness
//     and epoch tracking.
//   - Passive outlier ejection: consecutive forward or probe failures
//     (timeouts, transport errors, 5xx) eject a replica behind an
//     exponential, jittered re-probe schedule (the circuit-breaker
//     idiom from internal/scan, built on overload.Delay); a probe
//     success snaps it back instantly.
//   - Sequential fail-over inside one retry budget, the way a sender
//     walks an MX list: one attempt at a time, the next replica only
//     when the one before it failed or outlived its share of the budget
//     (RetryBudget split evenly over at most three attempts). An attempt
//     that times out counts against its replica like any other failure,
//     so a replica wedged on data is ejected, not waited on forever.
//   - Persistent upstream connections: each replica keeps a small LIFO
//     stack of idle HTTP/1.1 keep-alive connections and forwarded GETs
//     ride them instead of dialing per attempt. A connection is parked
//     again only after a provably clean exchange (see
//     Replica.roundTrip); a severed or errored one never is, and one the
//     replica closed while parked is redialed once inside the same
//     attempt without touching the ledger or the breaker. Probes and
//     swaps stay one-shot dials through the same exchange code.
//   - A graceful degradation ladder: all replicas stale still serves
//     (answers carry their stale markers); all replicas down answers
//     503 with Retry-After and exact shed accounting.
//   - A rolling snapshot rollout: replicas are hot-swapped one at a
//     time through POST /v1/swap, each verified ready on the new epoch
//     before the next advances; a failed load aborts the rollout with
//     the fleet still answering from the old epoch (already-advanced
//     replicas are swapped back when the previous snapshot is known).
//
// The Balancer is a serve.Handler, so the whole overload kit — the
// connection cap, slowloris deadlines, graceful zero-loss drain, exact
// counters — fronts the fleet unchanged. It bounds its own requests: a
// forward by RetryBudget, a rollout by each replica's swap timeout.
package ha

import (
	"errors"
	"log/slog"
	"math/rand/v2"
	"time"
)

// Defaults for Config's zero values.
const (
	// DefaultProbeInterval is how often a healthy replica is probed.
	DefaultProbeInterval = time.Second
	// DefaultProbeTimeout bounds one probe round-trip.
	DefaultProbeTimeout = time.Second
	// DefaultEjectThreshold is how many consecutive failures eject.
	DefaultEjectThreshold = 3
	// DefaultReprobeBase is the first ejected re-probe delay (doubling,
	// jittered to [d/2, d], up to DefaultReprobeMax).
	DefaultReprobeBase = 250 * time.Millisecond
	// DefaultReprobeMax caps the re-probe delay.
	DefaultReprobeMax = 8 * time.Second
	// DefaultRetryBudget bounds one client request's total time across
	// every attempt.
	DefaultRetryBudget = 2 * time.Second
)

const (
	// maxAttempts caps the replicas one request tries (first try plus
	// retries), additionally bounded by the replica count; each attempt
	// gets an equal share of the retry budget.
	maxAttempts = 3
	// swapTimeout bounds one replica's swap request during a rolling
	// rollout.
	swapTimeout = 2 * time.Minute
)

// Config parameterizes the pool and balancer. Replicas is required;
// every other zero value takes the default above.
type Config struct {
	// Replicas is the fleet being fronted.
	Replicas []ReplicaConfig
	// ProbeInterval is the healthy-replica probe period.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip.
	ProbeTimeout time.Duration
	// EjectThreshold ejects a replica after that many consecutive
	// failures (probe or forward); negative disables ejection.
	EjectThreshold int
	// ReprobeBase and ReprobeMax shape the ejected re-probe schedule:
	// overload.Delay(n, ReprobeBase, ReprobeMax, Jitter).
	ReprobeBase time.Duration
	ReprobeMax  time.Duration
	// RetryBudget bounds one request across all attempts; each attempt
	// runs under an equal share of it.
	RetryBudget time.Duration
	// AllowRollout enables POST /v1/rollout. Off by default: rollouts
	// load files replica-side and belong behind an operator listener.
	AllowRollout bool
	// Now supplies the scheduling clock (probe due times, re-probe
	// schedule); nil means time.Now. Frozen test clocks make the whole
	// probe/eject/re-probe state machine deterministic.
	Now func() time.Time
	// Jitter draws the re-probe jitter in [0, bound); nil uses the
	// global rng. Deterministic sources pin the schedule exactly.
	Jitter func(bound int64) int64
	// Logger receives probe/ejection/rollout records; nil disables.
	Logger *slog.Logger
}

func (c *Config) probeInterval() time.Duration {
	if c.ProbeInterval <= 0 {
		return DefaultProbeInterval
	}
	return c.ProbeInterval
}

func (c *Config) probeTimeout() time.Duration {
	if c.ProbeTimeout <= 0 {
		return DefaultProbeTimeout
	}
	return c.ProbeTimeout
}

func (c *Config) ejectThreshold() int {
	if c.EjectThreshold == 0 {
		return DefaultEjectThreshold
	}
	return c.EjectThreshold
}

func (c *Config) reprobeBase() time.Duration {
	if c.ReprobeBase <= 0 {
		return DefaultReprobeBase
	}
	return c.ReprobeBase
}

func (c *Config) reprobeMax() time.Duration {
	if c.ReprobeMax <= 0 {
		return DefaultReprobeMax
	}
	return c.ReprobeMax
}

func (c *Config) retryBudget() time.Duration {
	if c.RetryBudget <= 0 {
		return DefaultRetryBudget
	}
	return c.RetryBudget
}

func (c *Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Config) jitter() func(int64) int64 {
	if c.Jitter != nil {
		return c.Jitter
	}
	return rand.Int64N
}

var errNoReplicas = errors.New("ha: config requires at least one replica")
