package ha

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/serve"
)

// ReplicaConfig names one backend and says how to reach it. Dial is the
// only transport hook: a netsim dialer keeps whole fleets in-process
// and deterministic, a net.Dialer crosses real sockets (cmd/mxlb).
type ReplicaConfig struct {
	// Name labels the replica in stats and reports.
	Name string
	// Addr is advertised in ReplicaInfo (informational; Dial decides
	// where connections actually go).
	Addr string
	// Dial opens one connection to the replica.
	Dial func(ctx context.Context) (net.Conn, error)
}

// Replica is one pool member's live state: what probing last saw, the
// failure streak, the breaker/re-probe schedule, and the idle keep-alive
// connections forwarding reuses. Mutable fields are guarded by mu; the
// per-replica routing counters are atomics so the forwarding hot path
// never takes the lock. The idle stack has its own lock so parking a
// connection never contends with a probe updating state.
type Replica struct {
	cfg ReplicaConfig
	c   *counters

	attempts atomic.Uint64
	failures atomic.Uint64
	ejectHis atomic.Uint64

	dials        atomic.Uint64
	reuses       atomic.Uint64
	staleRedials atomic.Uint64

	idleMu sync.Mutex
	idle   []*upstreamConn // LIFO: the warmest connection is last

	mu          sync.Mutex
	ejected     bool
	ready       bool
	stale       bool
	epoch       uint64
	consecFails int
	reprobeN    int       // ejected re-probe attempt number (1-based)
	nextProbe   time.Time // when this replica is next due a probe
	probed      bool      // at least one probe round has completed
}

// available reports whether the router may pick this replica: not
// ejected, and last seen ready.
func (r *Replica) available() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.ejected && r.ready
}

// isStale reports the last probed staleness (degradation accounting).
func (r *Replica) isStale() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stale
}

// info snapshots the replica's reportable state.
func (r *Replica) info() ReplicaInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	state := "healthy"
	if r.ejected {
		state = "ejected"
	}
	return ReplicaInfo{
		Name:        r.cfg.Name,
		Addr:        r.cfg.Addr,
		State:       state,
		Ready:       r.ready,
		Stale:       r.stale,
		Epoch:       r.epoch,
		ConsecFails: r.consecFails,
		Attempts:    r.attempts.Load(),
		Failures:    r.failures.Load(),
		Ejections:   r.ejectHis.Load(),
	}
}

// recordFailure advances the failure streak and trips the breaker at
// the threshold: the replica stops receiving traffic and is re-probed
// on an exponential, jittered schedule. Called from both the forward
// path (passive ejection) and the prober (active ejection).
func (p *Pool) recordFailure(r *Replica) {
	threshold := p.cfg.ejectThreshold()
	r.failures.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails++
	if r.ejected {
		// Already tripped: push the next re-probe out exponentially.
		r.reprobeN++
		r.nextProbe = p.cfg.now().Add(p.reprobeDelay(r.reprobeN))
		return
	}
	if threshold > 0 && r.consecFails >= threshold {
		r.ejected = true
		r.ready = false
		r.reprobeN = 1
		r.nextProbe = p.cfg.now().Add(p.reprobeDelay(1))
		r.ejectHis.Add(1)
		p.c.ejections.Add(1)
		if p.cfg.Logger != nil {
			p.cfg.Logger.Warn("ha: replica ejected",
				"replica", r.cfg.Name, "consec_fails", r.consecFails)
		}
	}
}

// recordSuccess resets the streak; a success on an ejected replica
// (necessarily a probe — ejected replicas get no traffic) closes the
// breaker immediately.
func (p *Pool) recordSuccess(r *Replica) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails = 0
	if r.ejected {
		r.ejected = false
		r.reprobeN = 0
		p.c.recoveries.Add(1)
		if p.cfg.Logger != nil {
			p.cfg.Logger.Info("ha: replica recovered", "replica", r.cfg.Name)
		}
	}
}

// errAttemptCancelled marks an attempt that lost a hedge race or was
// abandoned by the budget — the transport error it died with says
// nothing about the replica's health.
var errAttemptCancelled = errors.New("ha: attempt cancelled")

// errStaleIdle marks a parked connection the replica closed before the
// exchange drew a single response byte (read timeout, restart, drain):
// nothing about the replica's health either, and safe to replay.
var errStaleIdle = errors.New("ha: idle connection closed by replica")

const (
	// maxIdleConns caps one replica's parked connections: the front's
	// default 64 in-flight requests spread over the smallest fleet worth
	// balancing (two replicas).
	maxIdleConns = 32
	// maxIdleAge closes a parked connection well before the replica's
	// 30s serve.DefaultReadTimeout would, so a quiet fleet never ticks
	// the replicas' read_timeouts.
	maxIdleAge = 15 * time.Second
)

// upstreamConn is one connection to a replica together with the reader
// that may hold bytes already taken off it: the two are parked and
// reused as a pair.
type upstreamConn struct {
	conn   net.Conn
	br     *bufio.Reader
	parked time.Time // when it went idle
	reused bool      // taken from the idle stack, not freshly dialed
}

// takeIdle pops the most recently parked connection, nil when none.
func (r *Replica) takeIdle() *upstreamConn {
	r.idleMu.Lock()
	defer r.idleMu.Unlock()
	n := len(r.idle)
	if n == 0 {
		return nil
	}
	uc := r.idle[n-1]
	r.idle[n-1] = nil
	r.idle = r.idle[:n-1]
	uc.reused = true
	return uc
}

// park pushes a connection whose exchange ended clean; over the cap it
// is closed instead.
func (r *Replica) park(uc *upstreamConn) {
	r.idleMu.Lock()
	full := len(r.idle) >= maxIdleConns
	if !full {
		uc.parked = time.Now() // under the lock: the stack stays in time order
		r.idle = append(r.idle, uc)
	}
	r.idleMu.Unlock()
	if full {
		uc.conn.Close()
	}
}

// closeIdle closes the connections parked before cutoff (the stack is
// in parking order, so those are a prefix), or all of them when cutoff
// is the zero time.
func (r *Replica) closeIdle(cutoff time.Time) {
	r.idleMu.Lock()
	n := len(r.idle)
	if !cutoff.IsZero() {
		n = 0
		for n < len(r.idle) && r.idle[n].parked.Before(cutoff) {
			n++
		}
	}
	expired := append([]*upstreamConn(nil), r.idle[:n]...)
	kept := copy(r.idle, r.idle[n:])
	clear(r.idle[kept:])
	r.idle = r.idle[:kept]
	r.idleMu.Unlock()
	for _, uc := range expired {
		uc.conn.Close()
	}
}

// do runs one HTTP/1.1 exchange against the replica. A forwarded GET
// (keepAlive) rides a parked connection when there is one and parks it
// again after a clean exchange; a parked connection the replica closed
// in the meantime is replaced by one fresh dial inside the same attempt
// and the caller never hears of it. Probes and swaps (keepAlive false)
// always dial and send Connection: close: a probe that rides a warm
// socket does not test the accept path.
func (r *Replica) do(ctx context.Context, method, target string, timeout time.Duration, keepAlive bool) (serve.Response, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if keepAlive {
		if uc := r.takeIdle(); uc != nil {
			r.reuses.Add(1)
			resp, err := r.roundTrip(ctx, uc, method, target, keepAlive)
			if err != errStaleIdle {
				return resp, err
			}
			r.staleRedials.Add(1)
		}
	}
	r.dials.Add(1)
	conn, err := r.cfg.Dial(ctx)
	if err != nil {
		return serve.Response{}, r.attemptErr(ctx, "dial", err)
	}
	uc := &upstreamConn{conn: conn, br: bufio.NewReader(conn)}
	return r.roundTrip(ctx, uc, method, target, keepAlive)
}

// roundTrip writes one request on uc and reads one response: the only
// exchange implementation, shared by forwards, probes and swaps.
// Cancellation (hedge loss, budget expiry, timeout) closes the
// connection out from under the exchange via context.AfterFunc, so a
// wedged replica cannot hold an attempt hostage. The connection is
// parked only when the exchange is provably clean — the whole
// Content-Length body read, no Connection: close in the reply, nothing
// left buffered, and the cancel hook never ran — and closed otherwise.
func (r *Replica) roundTrip(ctx context.Context, uc *upstreamConn, method, target string, keepAlive bool) (serve.Response, error) {
	stop := context.AfterFunc(ctx, func() { uc.conn.Close() })
	kept := false
	defer func() {
		if !kept {
			stop()
			uc.conn.Close()
		}
	}()

	oneShot := ""
	if !keepAlive {
		oneShot = "Connection: close\r\n"
	}
	req := method + " " + target + " HTTP/1.1\r\nHost: ha\r\n" + oneShot + "\r\n"
	if _, err := io.WriteString(uc.conn, req); err != nil {
		return serve.Response{}, r.exchangeErr(ctx, uc, "write", err)
	}
	if _, err := uc.br.Peek(1); err != nil {
		return serve.Response{}, r.exchangeErr(ctx, uc, "read", err)
	}
	resp, err := serve.ReadResponse(uc.br)
	if err != nil {
		return serve.Response{}, r.attemptErr(ctx, "read", err)
	}
	if keepAlive && !resp.Close && uc.br.Buffered() == 0 && stop() {
		r.park(uc)
		kept = true
	}
	return resp, nil
}

// exchangeErr classifies a failure before the first response byte: on a
// reused connection of a live attempt that is the replica having closed
// it while parked, not an upstream error.
func (r *Replica) exchangeErr(ctx context.Context, uc *upstreamConn, op string, err error) error {
	if uc.reused && ctx.Err() == nil {
		return errStaleIdle
	}
	return r.attemptErr(ctx, op, err)
}

// attemptErr collapses I/O errors on a cancelled attempt into
// errAttemptCancelled so the caller never blames the replica for a
// race the balancer itself decided.
func (r *Replica) attemptErr(ctx context.Context, op string, err error) error {
	if ctx.Err() != nil {
		return errAttemptCancelled
	}
	return fmt.Errorf("%s %s: %w", op, r.cfg.Name, err)
}
