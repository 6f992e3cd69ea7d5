// Package overload is the one owner of connection-server lifecycle in
// the serving fabric. Server is the core: it runs the accept loop
// (transient errors retried with jittered backoff, connections beyond
// the cap shed), tracks live connections with a busy flag, drains
// gracefully — close the listeners, wake only idle connections, wait,
// fall back to a hard close at the deadline — and counts what it did.
// The DNS-over-TCP, SMTP and HTTP query servers are protocol handlers
// on it: each supplies the session it runs per connection and, through
// Config, Conn.Swap and Attach, the few places their lifecycles really
// differ. Per-protocol budgets (DNS-over-TCP's query budget, SMTP's
// session cap) stay with the protocols. The HTTP query server adds no
// admission of its own: it runs one handler per connection, inline on
// the session, so the connection cap bounds its handlers too; it has no
// per-request deadline (handlers bound themselves), and Close cancels
// its handlers' context.
//
// The package also holds the vocabulary those loops share: which
// network errors are worth surviving (TransientNetErr, Retry) and the
// jittered backoff curve (Delay, Backoff), which the DNS client, the
// collector's retries and the HA replica re-probe schedule reuse.
package overload

import (
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"syscall"
	"time"
)

// TransientNetErr reports whether a serve-loop error (UDP ReadFrom, TCP
// Accept) is worth retrying: deadline expiry, and the errno family a
// socket surfaces transiently — ECONNREFUSED/ECONNRESET from ICMP
// feedback after answering a vanished client, ECONNABORTED for a
// connection that died in the accept queue, EINTR, and ENOBUFS under
// memory pressure. Closed-socket errors and EOF are never transient: the
// socket is gone and retrying can only spin.
func TransientNetErr(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNABORTED) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.ENOBUFS)
}

// Delay computes the jittered exponential delay for the n-th
// consecutive failure (n >= 1): base doubling up to cap, jittered to
// [d/2, d] through the supplied source so a pool of workers does not
// retry in lockstep. jitter receives an exclusive upper bound and must
// return a value in [0, bound); nil jitter uses the global rng. It is
// the pure core of Backoff and the one backoff formula in the tree: the
// DNS client and the collector's retries sleep on it under their
// contexts, and the HA replica re-probe schedule needs the same curve
// without the sleep (and with a deterministic jitter source under
// frozen-clock tests). A base above maxd lifts the cap to the base;
// callers that want the delay clamped pass min(base, maxd).
func Delay(n int, base, maxd time.Duration, jitter func(bound int64) int64) time.Duration {
	if n < 1 {
		n = 1
	}
	if base <= 0 {
		base = time.Millisecond
	}
	if maxd < base {
		maxd = base
	}
	d := base << min(n-1, 30)
	if d > maxd || d <= 0 {
		d = maxd
	}
	if jitter == nil {
		jitter = rand.Int64N
	}
	return d/2 + time.Duration(jitter(int64(d/2)+1))
}

// Backoff sleeps a jittered exponential delay for the n-th consecutive
// serve-loop error (n >= 1): base 1ms doubling to a 100ms cap, jittered
// to [d/2, d] so a pool of workers does not retry in lockstep.
func Backoff(n int) {
	time.Sleep(Delay(n, time.Millisecond, 100*time.Millisecond, nil))
}
