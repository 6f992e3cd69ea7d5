// Package netsim provides an in-memory IPv4 network fabric with the same
// Dial/Listen surface as package net. It lets the repository host tens of
// thousands of simulated SMTP endpoints in one process — the substitute
// for the public Internet that Censys scans — while keeping full net.Conn
// semantics (deadlines, concurrent accepts, TLS handshakes over the
// connection).
//
// Fault injection mirrors the failure modes the paper's data pipeline
// observes in the wild: unreachable hosts (no Censys data), closed port
// 25, and connection timeouts.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"time"
)

// Fault simulates a network-level failure mode for an address.
type Fault int

// Fault modes.
const (
	// FaultNone means connections proceed normally.
	FaultNone Fault = iota
	// FaultRefuse simulates a closed port: dials fail fast.
	FaultRefuse
	// FaultBlackhole simulates packet loss: dials hang until the context
	// expires, like an unresponsive or firewalled host.
	FaultBlackhole
	// FaultReset simulates a host that accepts the TCP handshake and then
	// sends RST: dials succeed but every subsequent read or write fails
	// with a connection-reset error.
	FaultReset
	// FaultFlaky simulates a transiently failing host: the first N dials
	// (configured with SetFlaky) fail with a connection reset, later
	// dials proceed normally. This is the fault retry logic must beat.
	FaultFlaky
)

// sysError is a fabric error that also matches the equivalent syscall
// errno under errors.Is, so protocol clients can classify simulated and
// real network failures with one code path.
type sysError struct {
	msg string
	sys error
}

func (e *sysError) Error() string { return e.msg }

// Is reports a match against the equivalent real-network error.
func (e *sysError) Is(target error) bool { return target == e.sys }

// Errors returned by the fabric.
var (
	// ErrConnRefused reports a dial to a port with no listener. It
	// matches syscall.ECONNREFUSED under errors.Is.
	ErrConnRefused error = &sysError{"netsim: connection refused", syscall.ECONNREFUSED}
	// ErrConnReset reports a connection torn down mid-session (FaultReset,
	// FaultFlaky). It matches syscall.ECONNRESET under errors.Is.
	ErrConnReset error = &sysError{"netsim: connection reset by peer", syscall.ECONNRESET}
	// ErrAddrInUse reports a duplicate Listen.
	ErrAddrInUse = errors.New("netsim: address in use")
	// ErrNetClosed reports use of a closed listener.
	ErrNetClosed = errors.New("netsim: listener closed")
)

// linkState is the per-address fault and link-quality configuration.
type linkState struct {
	mode      Fault
	flakyLeft int           // FaultFlaky: failing dials remaining
	latency   time.Duration // extra one-way setup delay for this address
	jitter    time.Duration // uniform random addition to latency
	udpLoss   float64       // probability a datagram to/from addr is dropped
}

// A Network is a fabric of listeners addressable by IPv4 address and port.
// The zero value is not usable; call New.
type Network struct {
	// Latency is the simulated one-way connection setup delay.
	Latency time.Duration

	mu        sync.RWMutex
	listeners map[netip.AddrPort]*Listener
	links     map[netip.Addr]*linkState

	rngMu sync.Mutex
	rng   *rand.Rand

	udpMu    sync.Mutex
	udpConns map[netip.AddrPort]*PacketConn
}

// New creates an empty network.
func New() *Network {
	return &Network{
		listeners: make(map[netip.AddrPort]*Listener),
		links:     make(map[netip.Addr]*linkState),
	}
}

// Seed makes the fabric's randomness (latency jitter, UDP loss)
// deterministic, so chaos tests are reproducible. Without it the fabric
// seeds itself randomly on first use.
func (n *Network) Seed(seed uint64) {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	n.rng = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// random returns a uniform float64 in [0,1) from the fabric's rng.
func (n *Network) random() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	if n.rng == nil {
		n.rng = rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
	}
	return n.rng.Float64()
}

// link returns the linkState for addr, creating it when make is set.
// Callers must hold n.mu.
func (n *Network) link(addr netip.Addr, create bool) *linkState {
	st := n.links[addr]
	if st == nil && create {
		st = &linkState{}
		n.links[addr] = st
	}
	return st
}

// SetFault configures the failure mode for every port of addr.
func (n *Network) SetFault(addr netip.Addr, f Fault) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.link(addr, true)
	st.mode = f
	if f != FaultFlaky {
		st.flakyLeft = 0
	}
}

// SetFlaky makes the first `failures` dials to addr fail with a
// connection reset; subsequent dials proceed normally. It models the
// transient faults a retry policy is meant to absorb.
func (n *Network) SetFlaky(addr netip.Addr, failures int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.link(addr, true)
	st.mode = FaultFlaky
	st.flakyLeft = failures
}

// SetLinkLatency adds a per-address connection setup delay of
// latency + U[0,jitter), on top of the fabric-wide Latency.
func (n *Network) SetLinkLatency(addr netip.Addr, latency, jitter time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.link(addr, true)
	st.latency, st.jitter = latency, jitter
}

// SetUDPLoss sets the probability in [0,1] that any datagram sent to or
// from addr is silently dropped.
func (n *Network) SetUDPLoss(addr netip.Addr, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.link(addr, true).udpLoss = p
}

// fault returns the effective failure mode for one dial to addr,
// consuming a flaky-failure token when one applies.
func (n *Network) dialFault(addr netip.Addr) Fault {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.link(addr, false)
	if st == nil {
		return FaultNone
	}
	if st.mode == FaultFlaky {
		if st.flakyLeft > 0 {
			st.flakyLeft--
			return FaultFlaky
		}
		return FaultNone
	}
	return st.mode
}

// fault returns the configured (non-consuming) failure mode for addr.
func (n *Network) fault(addr netip.Addr) Fault {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if st := n.links[addr]; st != nil {
		return st.mode
	}
	return FaultNone
}

// setupDelay returns the total simulated connection setup delay for addr.
func (n *Network) setupDelay(addr netip.Addr) time.Duration {
	d := n.Latency
	n.mu.RLock()
	st := n.links[addr]
	var extra, jitter time.Duration
	if st != nil {
		extra, jitter = st.latency, st.jitter
	}
	n.mu.RUnlock()
	d += extra
	if jitter > 0 {
		d += time.Duration(n.random() * float64(jitter))
	}
	return d
}

// udpLoss returns the drop probability configured for addr.
func (n *Network) udpLoss(addr netip.Addr) float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if st := n.links[addr]; st != nil {
		return st.udpLoss
	}
	return 0
}

// Listen binds a listener to ip:port. Unlike net.Listen, port 0 is not
// auto-assigned; simulated services live at fixed well-known ports.
func (n *Network) Listen(ap netip.AddrPort) (*Listener, error) {
	if !ap.Addr().IsValid() {
		return nil, fmt.Errorf("netsim: invalid address %s", ap)
	}
	if ap.Port() == 0 {
		return nil, errors.New("netsim: explicit port required")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[ap]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, ap)
	}
	l := &Listener{
		network: n,
		addr:    ap,
		pending: make(chan net.Conn, 64),
		done:    make(chan struct{}),
	}
	n.listeners[ap] = l
	return l, nil
}

// Dial connects to ip:port on the fabric, honoring ctx for cancellation
// and simulated faults for the destination address.
func (n *Network) Dial(ctx context.Context, ap netip.AddrPort) (net.Conn, error) {
	switch n.dialFault(ap.Addr()) {
	case FaultRefuse:
		return nil, fmt.Errorf("%w: %s (fault)", ErrConnRefused, ap)
	case FaultBlackhole:
		<-ctx.Done()
		return nil, fmt.Errorf("netsim: dial %s: %w", ap, ctx.Err())
	case FaultFlaky:
		return nil, fmt.Errorf("%w: dial %s (flaky)", ErrConnReset, ap)
	case FaultReset:
		// The handshake completes; the connection is dead on arrival.
		return newResetConn(ap), nil
	}
	if d := n.setupDelay(ap.Addr()); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	n.mu.RLock()
	l := n.listeners[ap]
	n.mu.RUnlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, ap)
	}
	client, server := Pipe()
	cw := &conn{Conn: client, local: ephemeralAddr(), remote: tcpAddr(ap)}
	sw := &conn{Conn: server, local: tcpAddr(ap), remote: cw.local}
	select {
	case l.pending <- sw:
		return cw, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, ap)
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

// DialContext adapts Dial to the three-argument form used by net.Dialer
// consumers, so the same client code runs against the fabric and the real
// network. The network argument must be "tcp".
func (n *Network) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
	ap, err := netip.ParseAddrPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	return n.Dial(ctx, ap)
}

// A Listener accepts fabric connections. It implements net.Listener.
type Listener struct {
	network *Network
	addr    netip.AddrPort
	pending chan net.Conn

	closeOnce sync.Once
	done      chan struct{}
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.pending:
		return c, nil
	case <-l.done:
		return nil, ErrNetClosed
	}
}

// Close unbinds the listener. Pending, unaccepted connections are dropped.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.network.mu.Lock()
		delete(l.network.listeners, l.addr)
		l.network.mu.Unlock()
	})
	return nil
}

// Addr reports the bound address.
func (l *Listener) Addr() net.Addr { return tcpAddr(l.addr) }

// conn decorates a pipe end with proper addresses.
type conn struct {
	net.Conn
	local, remote net.Addr
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func tcpAddr(ap netip.AddrPort) net.Addr {
	return &net.TCPAddr{IP: ap.Addr().AsSlice(), Port: int(ap.Port())}
}

var ephemeral struct {
	mu   sync.Mutex
	next uint16
}

// resetConn is the client end of a FaultReset dial: the TCP handshake
// "succeeded", but the peer RSTs everything after it. Every read and
// write fails with a connection-reset error.
type resetConn struct {
	local, remote net.Addr
	closeOnce     sync.Once
	done          chan struct{}
}

func newResetConn(ap netip.AddrPort) *resetConn {
	return &resetConn{local: ephemeralAddr(), remote: tcpAddr(ap), done: make(chan struct{})}
}

func (c *resetConn) Read(p []byte) (int, error)  { return 0, c.err("read") }
func (c *resetConn) Write(p []byte) (int, error) { return 0, c.err("write") }

func (c *resetConn) err(op string) error {
	select {
	case <-c.done:
		return net.ErrClosed
	default:
		return fmt.Errorf("netsim: %s %s: %w", op, c.remote, ErrConnReset)
	}
}

func (c *resetConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

func (c *resetConn) LocalAddr() net.Addr              { return c.local }
func (c *resetConn) RemoteAddr() net.Addr             { return c.remote }
func (c *resetConn) SetDeadline(time.Time) error      { return nil }
func (c *resetConn) SetReadDeadline(time.Time) error  { return nil }
func (c *resetConn) SetWriteDeadline(time.Time) error { return nil }

// ephemeralAddr fabricates a unique client-side address for connection
// identity in logs.
func ephemeralAddr() net.Addr {
	ephemeral.mu.Lock()
	defer ephemeral.mu.Unlock()
	ephemeral.next++
	port := 32768 + int(ephemeral.next%28000)
	return &net.TCPAddr{IP: net.IPv4(100, 64, 0, 1), Port: port}
}
