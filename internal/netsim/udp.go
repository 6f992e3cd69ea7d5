package netsim

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// UDP support: the fabric can also carry datagrams, which the DNS
// substrate uses for wire-faithful resolution. A PacketConn bound with
// ListenPacket receives datagrams sent by other PacketConns on the same
// Network; unbound senders get an ephemeral address on first use.

// ErrUDPPortInUse reports a duplicate ListenPacket.
var ErrUDPPortInUse = errors.New("netsim: udp address in use")

// maxDatagram bounds a single datagram's size, mirroring typical MTU
// limits loosely (DNS over UDP relies on truncation far below this).
const maxDatagram = 64 * 1024

type datagram struct {
	from netip.AddrPort
	data []byte
}

// PacketConn is an in-memory net.PacketConn bound to a fabric address.
type PacketConn struct {
	network *Network
	addr    netip.AddrPort
	queue   chan datagram
	// done signals Close to blocked readers and writers. The queue
	// channel itself is never closed: a sender racing Close must get a
	// clean drop, not a send-on-closed-channel panic.
	done chan struct{}

	mu            sync.Mutex
	closed        bool
	readDeadline  time.Time
	writeDeadline time.Time
	// rdChanged is closed and replaced whenever the read deadline moves,
	// waking blocked ReadFrom calls to re-evaluate — kernel sockets
	// interrupt blocked reads on SetReadDeadline, and graceful drains
	// rely on exactly that.
	rdChanged chan struct{}
}

// ListenPacket binds a datagram endpoint at ap. Port 0 allocates an
// ephemeral port.
func (n *Network) ListenPacket(ap netip.AddrPort) (*PacketConn, error) {
	if !ap.Addr().Is4() && !ap.Addr().Is6() {
		return nil, fmt.Errorf("netsim: invalid address %s", ap)
	}
	n.udpMu.Lock()
	defer n.udpMu.Unlock()
	if n.udpConns == nil {
		n.udpConns = make(map[netip.AddrPort]*PacketConn)
	}
	if ap.Port() == 0 {
		for port := uint16(33000); ; port++ {
			cand := netip.AddrPortFrom(ap.Addr(), port)
			if _, ok := n.udpConns[cand]; !ok {
				ap = cand
				break
			}
			if port == 65535 {
				return nil, errors.New("netsim: no free udp ports")
			}
		}
	}
	if _, ok := n.udpConns[ap]; ok {
		return nil, fmt.Errorf("%w: %s", ErrUDPPortInUse, ap)
	}
	pc := &PacketConn{
		network:   n,
		addr:      ap,
		queue:     make(chan datagram, 128),
		done:      make(chan struct{}),
		rdChanged: make(chan struct{}),
	}
	n.udpConns[ap] = pc
	return pc, nil
}

// ReadFrom implements net.PacketConn over ReadFromUDPAddrPort.
func (pc *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := pc.ReadFromUDPAddrPort(p)
	if err != nil {
		return 0, nil, err
	}
	return n, net.UDPAddrFromAddrPort(from), nil
}

// ReadFromUDPAddrPort reads one datagram and returns its source, as the
// method of the same name on *net.UDPConn does: no address is boxed per
// datagram. A SetReadDeadline from another goroutine interrupts a
// blocked call, as it does on a kernel socket.
func (pc *PacketConn) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	for {
		pc.mu.Lock()
		deadline := pc.readDeadline
		closed := pc.closed
		rdChanged := pc.rdChanged
		pc.mu.Unlock()
		if closed {
			return 0, netip.AddrPort{}, net.ErrClosed
		}
		var timer *time.Timer
		var timeout <-chan time.Time
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return 0, netip.AddrPort{}, timeoutError{}
			}
			timer = time.NewTimer(d)
			timeout = timer.C
		}
		select {
		case dg := <-pc.queue:
			if timer != nil {
				timer.Stop()
			}
			return copy(p, dg.data), dg.from, nil
		case <-pc.done:
			if timer != nil {
				timer.Stop()
			}
			return 0, netip.AddrPort{}, net.ErrClosed
		case <-timeout:
			return 0, netip.AddrPort{}, timeoutError{}
		case <-rdChanged:
			// Deadline moved under us; re-evaluate from scratch.
			if timer != nil {
				timer.Stop()
			}
		}
	}
}

// WriteTo implements net.PacketConn over WriteToUDPAddrPort.
func (pc *PacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	dst, err := toAddrPort(addr)
	if err != nil {
		return 0, err
	}
	return pc.WriteToUDPAddrPort(p, dst)
}

// WriteToUDPAddrPort sends one datagram to dst, the twin of the
// *net.UDPConn method. Datagrams to blackholed or absent destinations
// are silently dropped, as on a real network.
func (pc *PacketConn) WriteToUDPAddrPort(p []byte, dst netip.AddrPort) (int, error) {
	pc.mu.Lock()
	closed := pc.closed
	deadline := pc.writeDeadline
	pc.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return 0, timeoutError{}
	}
	if len(p) > maxDatagram {
		return 0, fmt.Errorf("netsim: datagram exceeds %d bytes", maxDatagram)
	}
	switch pc.network.fault(dst.Addr()) {
	case FaultBlackhole, FaultRefuse:
		return len(p), nil // dropped on the floor (no ICMP in this fabric)
	}
	// Probabilistic loss on either endpoint's link.
	if p1 := pc.network.udpLoss(dst.Addr()); p1 > 0 && pc.network.random() < p1 {
		return len(p), nil
	}
	if p2 := pc.network.udpLoss(pc.addr.Addr()); p2 > 0 && pc.network.random() < p2 {
		return len(p), nil
	}
	pc.network.udpMu.Lock()
	peer := pc.network.udpConns[dst]
	pc.network.udpMu.Unlock()
	if peer == nil {
		return len(p), nil // no listener: dropped (no ICMP in this fabric)
	}
	dg := datagram{from: pc.addr, data: append([]byte(nil), p...)}
	select {
	case peer.queue <- dg:
	case <-peer.done:
		// Receiver closed while we held its reference: dropped.
	default:
		// Receiver queue full: drop, like a kernel socket buffer.
	}
	return len(p), nil
}

// Close implements net.PacketConn.
func (pc *PacketConn) Close() error {
	pc.mu.Lock()
	if pc.closed {
		pc.mu.Unlock()
		return nil
	}
	pc.closed = true
	pc.mu.Unlock()
	pc.network.udpMu.Lock()
	delete(pc.network.udpConns, pc.addr)
	pc.network.udpMu.Unlock()
	close(pc.done)
	return nil
}

// LocalAddr implements net.PacketConn.
func (pc *PacketConn) LocalAddr() net.Addr {
	return &net.UDPAddr{IP: pc.addr.Addr().AsSlice(), Port: int(pc.addr.Port())}
}

// SetDeadline implements net.PacketConn.
func (pc *PacketConn) SetDeadline(t time.Time) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.readDeadline, pc.writeDeadline = t, t
	pc.wakeReaders()
	return nil
}

// SetReadDeadline implements net.PacketConn.
func (pc *PacketConn) SetReadDeadline(t time.Time) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.readDeadline = t
	pc.wakeReaders()
	return nil
}

// wakeReaders nudges blocked ReadFrom calls after a deadline change.
// Called with pc.mu held.
func (pc *PacketConn) wakeReaders() {
	close(pc.rdChanged)
	pc.rdChanged = make(chan struct{})
}

// SetWriteDeadline implements net.PacketConn.
func (pc *PacketConn) SetWriteDeadline(t time.Time) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.writeDeadline = t
	return nil
}

// udpClientConn adapts a PacketConn pair-wise to net.Conn for dialers
// that expect connected-UDP semantics (like the DNS stub resolver).
type udpClientConn struct {
	*PacketConn
	remote netip.AddrPort
}

// DialUDP creates a connected-UDP-style net.Conn from an ephemeral local
// port to dst.
func (n *Network) DialUDP(dst netip.AddrPort) (net.Conn, error) {
	local, err := n.ListenPacket(netip.AddrPortFrom(clientSrcAddr(), 0))
	if err != nil {
		return nil, err
	}
	return &udpClientConn{PacketConn: local, remote: dst}, nil
}

// clientSrcAddr is the fabric-wide client source address for
// connected-UDP dials.
func clientSrcAddr() netip.Addr { return netip.AddrFrom4([4]byte{100, 64, 0, 1}) }

// Read implements net.Conn, accepting datagrams only from the connected
// peer.
func (c *udpClientConn) Read(p []byte) (int, error) {
	for {
		n, from, err := c.ReadFromUDPAddrPort(p)
		if err != nil {
			return 0, err
		}
		if from == c.remote {
			return n, nil
		}
	}
}

// Write implements net.Conn.
func (c *udpClientConn) Write(p []byte) (int, error) {
	return c.WriteToUDPAddrPort(p, c.remote)
}

// RemoteAddr implements net.Conn.
func (c *udpClientConn) RemoteAddr() net.Addr {
	return &net.UDPAddr{IP: c.remote.Addr().AsSlice(), Port: int(c.remote.Port())}
}

func toAddrPort(addr net.Addr) (netip.AddrPort, error) {
	switch a := addr.(type) {
	case *net.UDPAddr:
		ip, ok := netip.AddrFromSlice(a.IP)
		if !ok {
			return netip.AddrPort{}, fmt.Errorf("netsim: bad address %v", addr)
		}
		return netip.AddrPortFrom(ip.Unmap(), uint16(a.Port)), nil
	default:
		ap, err := netip.ParseAddrPort(addr.String())
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("netsim: bad address %v: %w", addr, err)
		}
		return ap, nil
	}
}

// timeoutError satisfies net.Error for deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netsim: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
