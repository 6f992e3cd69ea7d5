package scan

// This file implements retry and circuit-breaking for the collection
// pipeline. Transient failures (timeouts, resets, SERVFAILs) get bounded,
// jittered-backoff retries so momentary faults do not bias the snapshot;
// consecutive hard failures against one destination open a circuit
// breaker so the collector stops hammering a host that is down for good.

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/overload"
)

// RetryPolicy bounds how the collector retries transient-classed
// operations (MX/A/AAAA lookups and SMTP scans).
type RetryPolicy struct {
	// Attempts is the maximum number of tries per operation, including
	// the first (default 3; 1 disables retries).
	Attempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it, jittered to [d/2, d] (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay (default 1s).
	MaxBackoff time.Duration
	// Budget caps the total number of retries across one collection run,
	// so a widely faulty world cannot multiply wall-clock time by
	// Attempts (default 1000; negative means unlimited).
	Budget int
}

// DefaultRetryPolicy returns the collector's standard policy.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{Attempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Budget: 1000}
}

func (p *RetryPolicy) attempts() int {
	if p.Attempts <= 0 {
		return 3
	}
	return p.Attempts
}

// retryState is the runtime of one collection run's policy: the shared
// budget and retry counters.
type retryState struct {
	policy    *RetryPolicy
	budget    atomic.Int64
	unlimited bool
	exhausted atomic.Bool
}

func newRetryState(p *RetryPolicy) *retryState {
	if p == nil {
		p = DefaultRetryPolicy()
	}
	rs := &retryState{policy: p}
	budget := p.Budget
	if budget == 0 {
		budget = 1000
	}
	if budget < 0 {
		rs.unlimited = true
	} else {
		rs.budget.Store(int64(budget))
	}
	return rs
}

// spend takes one retry from the budget, reporting false when none left.
func (rs *retryState) spend() bool {
	if rs.unlimited {
		return true
	}
	for {
		cur := rs.budget.Load()
		if cur <= 0 {
			rs.exhausted.Store(true)
			return false
		}
		if rs.budget.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// backoff returns the jittered delay before retry attempt n (n >= 1).
func (rs *retryState) backoff(n int) time.Duration {
	base := rs.policy.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := rs.policy.MaxBackoff
	if maxd <= 0 {
		maxd = time.Second
	}
	return overload.Delay(n, min(base, maxd), maxd, nil)
}

// do runs op up to the policy's attempt bound, retrying while op's class
// is retryable, op permits another try (the circuit-breaker veto), the
// budget grants one, and ctx is alive. It returns the final class and
// how many retries it spent.
func (rs *retryState) do(ctx context.Context, op func() (class dataset.FailureClass, more bool)) (dataset.FailureClass, int) {
	class, more := op()
	retries := 0
	for n := 1; n < rs.policy.attempts(); n++ {
		if !more || !class.Transient() || ctx.Err() != nil {
			break
		}
		if !rs.spend() {
			break
		}
		t := time.NewTimer(rs.backoff(n))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return class, retries
		}
		retries++
		class, more = op()
	}
	return class, retries
}

// breakerSet holds one circuit breaker per destination address. After
// `threshold` consecutive hard connection failures the circuit opens and
// further scans of that address are skipped — matching how careful
// scanning studies stop re-probing hosts that consistently refuse or
// drop connections.
type breakerSet struct {
	threshold int

	mu sync.Mutex
	m  map[netip.Addr]*breakerState

	opens atomic.Int64
	skips atomic.Int64
}

type breakerState struct {
	consecutive int
	open        bool
	lastClass   dataset.FailureClass
}

// hardFailure reports whether the class counts toward opening a circuit:
// transport-level failures only, not protocol oddities.
func hardFailure(c dataset.FailureClass) bool {
	switch c {
	case dataset.FailConnRefused, dataset.FailConnTimeout, dataset.FailConnReset:
		return true
	}
	return false
}

// breakerThreshold is the number of consecutive hard connection
// failures that opens a destination's circuit breaker in a collection.
const breakerThreshold = 3

// newBreakerSet returns a set opening at threshold; negative disables
// breaking.
func newBreakerSet(threshold int) *breakerSet {
	return &breakerSet{threshold: threshold, m: make(map[netip.Addr]*breakerState)}
}

// allow reports whether addr's circuit is closed. When open it records
// the skip and returns the class that tripped the breaker.
func (b *breakerSet) allow(addr netip.Addr) (bool, dataset.FailureClass) {
	if b.threshold < 0 {
		return true, ""
	}
	b.mu.Lock()
	st := b.m[addr]
	var open bool
	var last dataset.FailureClass
	if st != nil {
		open, last = st.open, st.lastClass
	}
	b.mu.Unlock()
	if open {
		b.skips.Add(1)
		return false, last
	}
	return true, ""
}

// record feeds one scan outcome into addr's circuit, opening it on the
// threshold-th consecutive hard failure. It reports whether the circuit
// is now open.
func (b *breakerSet) record(addr netip.Addr, class dataset.FailureClass) bool {
	if b.threshold < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.m[addr]
	if st == nil {
		st = &breakerState{}
		b.m[addr] = st
	}
	if !hardFailure(class) {
		st.consecutive = 0
		return st.open
	}
	st.consecutive++
	st.lastClass = class
	if !st.open && st.consecutive >= b.threshold {
		st.open = true
		b.opens.Add(1)
	}
	return st.open
}
