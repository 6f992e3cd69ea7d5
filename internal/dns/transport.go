package dns

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// Transport errors.
var (
	// ErrTransportClosed reports a round trip attempted on a closed
	// transport.
	ErrTransportClosed = errors.New("dns: transport closed")
	// ErrTooManyInFlight reports that the transport's in-flight bound was
	// reached and the context expired before a slot freed up.
	ErrTooManyInFlight = errors.New("dns: too many in-flight queries")
)

// A Transport multiplexes DNS queries from many goroutines over a small
// set of long-lived UDP sockets to one server. Query IDs are drawn at
// random among those not in flight on the socket, and a reader goroutine
// per socket parses each response once, verifies it against the original
// question (anti-spoofing) and hands the message to the caller waiting
// on its ID. Compared to dialing a socket per query, this removes the
// connect/close syscall pair, the 64 KiB read buffer allocation, and the
// ephemeral-port pressure from every exchange — which is what made
// 32-way scan fan-out socket-bound.
//
// A Transport is safe for concurrent use. The zero value is not usable:
// set Server.
type Transport struct {
	// Server is the resolver address, host:port.
	Server string
	// Conns is the number of UDP sockets to spread queries over
	// (default 4).
	Conns int
	// DialContext substitutes the socket factory; nil uses net.Dialer.
	// The network argument is "udp" or (for Client's truncation
	// fallback) "tcp".
	DialContext func(ctx context.Context, network, address string) (net.Conn, error)

	inflight chan struct{} // semaphore, lazily built

	mu     sync.Mutex
	conns  []*transportConn
	next   int // round-robin cursor
	closed bool
	once   sync.Once
}

// maxInFlight bounds the outstanding queries of one transport across all
// its sockets. Callers beyond the bound wait for a slot, their context
// or the attempt's timeout, whichever first. It is a sixteenth of the ID
// space, so a random ID is free on the first draw fifteen times in
// sixteen even with every slot taken on one socket.
const maxInFlight = 4096

func (t *Transport) init() {
	t.once.Do(func() {
		if t.Conns <= 0 {
			t.Conns = 4
		}
		t.inflight = make(chan struct{}, maxInFlight)
		t.conns = make([]*transportConn, t.Conns)
	})
}

// call is one outstanding query: the reader goroutine delivers the
// parsed, verified response through ch.
type call struct {
	q  Question
	ch chan *Message
}

// transportConn is one UDP socket plus its demux state.
type transportConn struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // write scratch for ID patching

	mu      sync.Mutex
	pending map[uint16]*call
	err     error // set once the read loop exits; conn is dead
}

func newTransportConn(conn net.Conn) *transportConn {
	c := &transportConn{conn: conn, pending: make(map[uint16]*call)}
	go c.readLoop()
	return c
}

// take registers a call under an unpredictable ID that no other call in
// flight on this socket wears. A late response to a recycled ID can meet
// a new query wearing it; the question check catches that. The bound,
// which the transport's semaphore already keeps, is restated here
// because it is what keeps the redraw loop short.
func (c *transportConn) take(cl *call) (uint16, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	if len(c.pending) >= maxInFlight {
		return 0, ErrTooManyInFlight
	}
	id := uint16(rand.Uint32())
	for c.pending[id] != nil {
		id = uint16(rand.Uint32())
	}
	c.pending[id] = cl
	return id, nil
}

// release removes the call, freeing its ID.
func (c *transportConn) release(id uint16) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// readLoop demultiplexes response datagrams to pending calls until the
// socket dies. Datagrams that are not a well-formed response to an
// outstanding query — wrong ID, wrong question, malformed — are
// discarded, never fatal: under a shared socket they are either stray
// late responses or spoofing attempts.
func (c *transportConn) readLoop() {
	buf := make([]byte, 64*1024)
	scratch := new(UnpackScratch)
	m := new(Message) // reused until a delivery gives it away
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			c.fail(err)
			return
		}
		if n < 2 {
			continue
		}
		id := uint16(buf[0])<<8 | uint16(buf[1])
		c.mu.Lock()
		cl := c.pending[id]
		c.mu.Unlock()
		if cl == nil {
			continue
		}
		// Parse and verify the question before delivering, so a spoofed
		// datagram that merely guesses the ID is ignored. This is the
		// only parse of the response: the caller gets the message.
		if err := scratch.Unpack(buf[:n], m); err != nil {
			continue
		}
		if !m.Header.Response || len(m.Questions) != 1 || m.Questions[0] != cl.q {
			continue
		}
		select {
		case cl.ch <- m:
			m = new(Message)
		default:
			// Caller already gone (deadline); drop.
		}
	}
}

// fail marks the conn dead and wakes every pending caller.
func (c *transportConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint16]*call)
	c.mu.Unlock()
	for _, cl := range pending {
		close(cl.ch)
	}
}

func (c *transportConn) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// pickConn returns a live socket, dialing lazily and replacing dead
// ones. Only a dial is bounded by timeout here; the caller's timer
// covers the rest of the attempt.
func (t *Transport) pickConn(ctx context.Context, timeout time.Duration) (*transportConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrTransportClosed
	}
	i := t.next % len(t.conns)
	t.next++
	c := t.conns[i]
	t.mu.Unlock()
	if c != nil && !c.dead() {
		return c, nil
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	conn, err := t.dial(dctx, "udp")
	cancel()
	if err != nil {
		return nil, err
	}
	nc := newTransportConn(conn)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrTransportClosed
	}
	// Another goroutine may have replaced the slot meanwhile; prefer the
	// winner and fold our socket in only if the slot is still dead.
	if cur := t.conns[i]; cur != nil && !cur.dead() {
		t.mu.Unlock()
		conn.Close()
		return cur, nil
	}
	t.conns[i] = nc
	t.mu.Unlock()
	return nc, nil
}

func (t *Transport) dial(ctx context.Context, network string) (net.Conn, error) {
	if t.DialContext != nil {
		return t.DialContext(ctx, network, t.Server)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, t.Server)
}

// attemptTimers recycles the per-attempt timers of RoundTrip. Every
// timer in the pool is stopped and its channel empty.
var attemptTimers sync.Pool

// startTimer returns a timer that fires after d.
func startTimer(d time.Duration) *time.Timer {
	if tm, _ := attemptTimers.Get().(*time.Timer); tm != nil {
		tm.Reset(d)
		return tm
	}
	return time.NewTimer(d)
}

// stopTimer ends tm's use by one attempt; received says the attempt took
// the value off tm.C. The timer is pooled only when its channel is
// known to be empty — stopped before it fired, or fired and received —
// so a fire that belongs to one attempt can never time out the next. One
// that fired unreceived (the response won the race) is left to the
// collector instead of drained: under go.mod's pre-1.23 timer semantics
// the value may still be on its way into the channel.
func stopTimer(tm *time.Timer, received bool) {
	if tm.Stop() || received {
		attemptTimers.Put(tm)
	}
}

// RoundTrip sends the packed query (whose ID bytes are patched in place
// on the wire copy, not on wire itself) and returns the response to the
// matching (ID, question) pair, parsed once by the socket's reader; the
// message is the caller's. An attempt that outlives timeout fails with
// context.DeadlineExceeded, whatever ctx says. Truncation handling,
// retries and TCP fallback are the caller's concern (see
// Client.Exchange).
func (t *Transport) RoundTrip(ctx context.Context, wire []byte, q Question, timeout time.Duration) (*Message, error) {
	t.init()
	if len(wire) < 2 {
		return nil, ErrTruncatedMessage
	}
	tm := startTimer(timeout)
	expired := false // this attempt received tm's fire
	defer func() { stopTimer(tm, expired) }()
	select {
	case t.inflight <- struct{}{}:
	default:
		select {
		case t.inflight <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", ErrTooManyInFlight, ctx.Err())
		case <-tm.C:
			expired = true
			return nil, fmt.Errorf("%w: %w", ErrTooManyInFlight, context.DeadlineExceeded)
		}
	}
	defer func() { <-t.inflight }()
	c, err := t.pickConn(ctx, timeout)
	if err != nil {
		return nil, err
	}
	cl := &call{q: q, ch: make(chan *Message, 1)}
	id, err := c.take(cl)
	if err != nil {
		return nil, err
	}
	defer c.release(id)
	c.wmu.Lock()
	c.wbuf = append(c.wbuf[:0], wire...)
	c.wbuf[0], c.wbuf[1] = byte(id>>8), byte(id)
	_, err = c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	select {
	case resp, ok := <-cl.ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrTransportClosed
			}
			return nil, err
		}
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-tm.C:
		expired = true
		return nil, context.DeadlineExceeded
	}
}

// Close shuts down all sockets and fails outstanding queries. The
// transport is unusable afterwards.
func (t *Transport) Close() error {
	t.init()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := append([]*transportConn(nil), t.conns...)
	t.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.conn.Close() // readLoop exits and fails pending calls
		}
	}
	return nil
}
