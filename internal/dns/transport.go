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
// set of long-lived UDP sockets to one server. Query IDs are assigned
// from a per-socket free list, and a reader goroutine per socket
// demultiplexes responses back to waiting callers by ID, verified
// against the original question (anti-spoofing). Compared to dialing a
// socket per query, this removes the connect/close syscall pair, the
// 64 KiB read buffer allocation, and the ephemeral-port pressure from
// every exchange — which is what made 32-way scan fan-out socket-bound.
//
// A Transport is safe for concurrent use. The zero value is not usable;
// call NewTransport.
type Transport struct {
	// Server is the resolver address, host:port.
	Server string
	// Conns is the number of UDP sockets to spread queries over
	// (default 4). Each socket can have up to 65536 queries in flight.
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

// NewTransport returns a Transport for the given server with defaults.
func NewTransport(server string) *Transport {
	return &Transport{Server: server}
}

// maxInFlight bounds the outstanding queries of one transport across all
// its sockets. Callers beyond the bound wait for a slot or their
// context, whichever first.
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

// call is one outstanding query: the reader goroutine delivers the raw
// response datagram through ch.
type call struct {
	q  Question
	ch chan []byte
}

// transportConn is one UDP socket plus its demux state.
type transportConn struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // write scratch for ID patching

	mu      sync.Mutex
	pending map[uint16]*call
	ids     []uint16 // shuffled free-ID FIFO ring
	idHead  int
	idTail  int
	idFree  int
	err     error // set once the read loop exits; conn is dead
}

func newTransportConn(conn net.Conn) *transportConn {
	c := &transportConn{
		conn:    conn,
		pending: make(map[uint16]*call),
		ids:     make([]uint16, 65536),
		idFree:  65536,
	}
	for i := range c.ids {
		c.ids[i] = uint16(i)
	}
	// Shuffle so IDs are unpredictable; the FIFO ring then maximizes
	// reuse distance, so a late response to a recycled ID is unlikely to
	// find a new query wearing it (and the question check catches it if
	// it does).
	rand.Shuffle(len(c.ids), func(i, j int) { c.ids[i], c.ids[j] = c.ids[j], c.ids[i] })
	go c.readLoop()
	return c
}

// take registers a call under a fresh ID.
func (c *transportConn) take(cl *call) (uint16, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	if c.idFree == 0 {
		return 0, ErrTooManyInFlight
	}
	id := c.ids[c.idHead]
	c.idHead = (c.idHead + 1) % len(c.ids)
	c.idFree--
	c.pending[id] = cl
	return id, nil
}

// release removes the call and returns its ID to the free ring.
func (c *transportConn) release(id uint16) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; !ok {
		return
	}
	delete(c.pending, id)
	c.ids[c.idTail] = id
	c.idTail = (c.idTail + 1) % len(c.ids)
	c.idFree++
}

// readLoop demultiplexes response datagrams to pending calls until the
// socket dies. Datagrams that are not a well-formed response to an
// outstanding query — wrong ID, wrong question, malformed — are
// discarded, never fatal: under a shared socket they are either stray
// late responses or spoofing attempts.
func (c *transportConn) readLoop() {
	buf := make([]byte, 64*1024)
	scratch := new(UnpackScratch)
	var m Message
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
		// datagram that merely guesses the ID is ignored.
		if err := scratch.Unpack(buf[:n], &m); err != nil {
			continue
		}
		if !m.Header.Response || len(m.Questions) != 1 || m.Questions[0] != cl.q {
			continue
		}
		resp := append([]byte(nil), buf[:n]...)
		select {
		case cl.ch <- resp:
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

// pickConn returns a live socket, dialing lazily and replacing dead ones.
func (t *Transport) pickConn(ctx context.Context) (*transportConn, error) {
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
	conn, err := t.dial(ctx, "udp")
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

// RoundTrip sends the packed query (whose ID bytes are patched in place
// on the wire copy, not on wire itself) and returns the raw response
// datagram for the matching (ID, question) pair. The caller owns the
// returned slice. Truncation handling, retries and TCP fallback are the
// caller's concern (see Client.Exchange).
func (t *Transport) RoundTrip(ctx context.Context, wire []byte, q Question, timeout time.Duration) ([]byte, error) {
	t.init()
	if len(wire) < 2 {
		return nil, ErrTruncatedMessage
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	select {
	case t.inflight <- struct{}{}:
		defer func() { <-t.inflight }()
	default:
		select {
		case t.inflight <- struct{}{}:
			defer func() { <-t.inflight }()
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", ErrTooManyInFlight, ctx.Err())
		}
	}
	c, err := t.pickConn(ctx)
	if err != nil {
		return nil, err
	}
	cl := &call{q: q, ch: make(chan []byte, 1)}
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
