package netsim

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"
)

func TestUDPRoundTrip(t *testing.T) {
	n := New()
	server, err := n.ListenPacket(ap("10.0.0.1:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() {
		buf := make([]byte, 512)
		nr, from, err := server.ReadFrom(buf)
		if err != nil {
			return
		}
		server.WriteTo(append([]byte("re:"), buf[:nr]...), from)
	}()

	client, err := n.DialUDP(ap("10.0.0.1:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("query")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	nr, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nr]) != "re:query" {
		t.Errorf("reply = %q", buf[:nr])
	}
}

func TestUDPPortConflictAndEphemeral(t *testing.T) {
	n := New()
	a, err := n.ListenPacket(ap("10.0.0.1:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := n.ListenPacket(ap("10.0.0.1:53")); !errors.Is(err, ErrUDPPortInUse) {
		t.Errorf("dup bind err = %v", err)
	}
	e1, err := n.ListenPacket(netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e2, err := n.ListenPacket(netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e1.LocalAddr().String() == e2.LocalAddr().String() {
		t.Error("ephemeral ports collide")
	}
}

func TestUDPDropsToNowhere(t *testing.T) {
	n := New()
	client, err := n.DialUDP(ap("10.9.9.9:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Writes succeed (fire-and-forget), reads time out.
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := client.Read(make([]byte, 16)); err == nil {
		t.Error("read from nowhere succeeded")
	} else {
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("err = %v, want timeout", err)
		}
	}
}

func TestUDPBlackholeDropsDatagrams(t *testing.T) {
	n := New()
	server, _ := n.ListenPacket(ap("10.0.0.2:53"))
	defer server.Close()
	n.SetFault(netip.MustParseAddr("10.0.0.2"), FaultBlackhole)
	client, err := n.DialUDP(ap("10.0.0.2:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Write([]byte("x"))
	server.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, _, err := server.ReadFrom(make([]byte, 16)); err == nil {
		t.Error("blackholed datagram delivered")
	}
}

func TestUDPCloseUnblocksAndUnbinds(t *testing.T) {
	n := New()
	pc, _ := n.ListenPacket(ap("10.0.0.3:53"))
	done := make(chan error, 1)
	go func() {
		_, _, err := pc.ReadFrom(make([]byte, 16))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	pc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("read after close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock reader")
	}
	// Port is free again.
	pc2, err := n.ListenPacket(ap("10.0.0.3:53"))
	if err != nil {
		t.Fatal(err)
	}
	pc2.Close()
	// Operations on closed conns fail cleanly.
	if _, err := pc.WriteTo([]byte("x"), pc2.LocalAddr()); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write on closed = %v", err)
	}
}

func TestUDPFiltersForeignPeers(t *testing.T) {
	n := New()
	server, _ := n.ListenPacket(ap("10.0.0.4:53"))
	defer server.Close()
	intruder, _ := n.ListenPacket(ap("10.0.0.5:1000"))
	defer intruder.Close()

	client, err := n.DialUDP(ap("10.0.0.4:53"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	clientAddr := client.LocalAddr()

	// The intruder sends first; then the real server replies.
	intruder.WriteTo([]byte("spoof"), clientAddr)
	go func() {
		time.Sleep(20 * time.Millisecond)
		server.WriteTo([]byte("real"), clientAddr)
	}()
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	nr, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nr]) != "real" {
		t.Errorf("connected UDP accepted foreign datagram: %q", buf[:nr])
	}
}

// udpAPI is one of the two ways to move datagrams through a PacketConn.
type udpAPI struct {
	name string
	send func(pc *PacketConn, p []byte, dst netip.AddrPort) (int, error)
	recv func(pc *PacketConn, p []byte) (int, netip.AddrPort, error)
}

var udpAPIs = []udpAPI{
	{
		name: "net.Addr", // ReadFrom, WriteTo
		send: func(pc *PacketConn, p []byte, dst netip.AddrPort) (int, error) {
			return pc.WriteTo(p, net.UDPAddrFromAddrPort(dst))
		},
		recv: func(pc *PacketConn, p []byte) (int, netip.AddrPort, error) {
			n, from, err := pc.ReadFrom(p)
			if err != nil {
				return n, netip.AddrPort{}, err
			}
			return n, from.(*net.UDPAddr).AddrPort(), nil
		},
	},
	{
		name: "netip.AddrPort", // ReadFromUDPAddrPort, WriteToUDPAddrPort
		send: (*PacketConn).WriteToUDPAddrPort,
		recv: (*PacketConn).ReadFromUDPAddrPort,
	},
}

// udpTranscript drives one fabric through every delivery and drop rule
// with one API and returns what the API let its caller observe.
func udpTranscript(t *testing.T, api udpAPI) []string {
	t.Helper()
	var out []string
	logf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	errKind := func(err error) string {
		var ne net.Error
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, net.ErrClosed):
			return "closed"
		case errors.As(err, &ne) && ne.Timeout():
			return "timeout"
		}
		return "error: " + err.Error()
	}
	n := New()
	listen := func(s string) *PacketConn {
		pc, err := n.ListenPacket(ap(s))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	a, b := listen("10.0.1.1:1000"), listen("10.0.1.2:53")
	send := func(from *PacketConn, payload string, dst netip.AddrPort) {
		nw, err := api.send(from, []byte(payload), dst)
		logf("send %q to %s: n=%d %s", payload, dst, nw, errKind(err))
	}
	buf := make([]byte, 64)
	recv := func(pc *PacketConn) {
		nr, from, err := api.recv(pc, buf)
		logf("recv: %q from %s %s", buf[:nr], from, errKind(err))
	}
	// blocked starts a read that has nothing to read and returns the
	// channel its outcome arrives on.
	blocked := func(pc *PacketConn) <-chan string {
		done := make(chan string, 1)
		go func() {
			nr, _, err := api.recv(pc, make([]byte, 16))
			done <- fmt.Sprintf("n=%d %s", nr, errKind(err))
		}()
		runtime.Gosched()
		return done
	}

	// Delivery, with the sender's address.
	send(a, "one", b.addr)
	recv(b)

	// Blackhole: the write succeeds, nothing is queued; the marker sent
	// once the fault is lifted is the next datagram b sees.
	n.SetFault(b.addr.Addr(), FaultBlackhole)
	send(a, "lost", b.addr)
	logf("queued behind a blackhole: %d", len(b.queue))
	n.SetFault(b.addr.Addr(), FaultNone)
	send(a, "after blackhole", b.addr)
	recv(b)

	// No listener: dropped, and the write still succeeds.
	send(a, "nobody", ap("10.0.1.9:53"))

	// Full queue: the overflow is dropped, order is kept.
	for i := 0; i < cap(b.queue)+2; i++ {
		if nw, err := api.send(a, []byte(fmt.Sprintf("q%03d", i)), b.addr); nw != 4 || err != nil {
			t.Fatalf("send %d into a filling queue: n=%d err=%v", i, nw, err)
		}
	}
	logf("queued of %d sent: %d", cap(b.queue)+2, len(b.queue))
	for i := 0; i < cap(b.queue); i++ {
		nr, _, err := api.recv(b, buf)
		if want := fmt.Sprintf("q%03d", i); err != nil || string(buf[:nr]) != want {
			t.Fatalf("drain %d: %q, %v; want %q", i, buf[:nr], err, want)
		}
	}
	send(a, "after overflow", b.addr)
	recv(b)

	// Oversized datagram.
	nw, err := api.send(a, make([]byte, maxDatagram+1), b.addr)
	logf("oversized: n=%d failed=%v", nw, err != nil)

	// Foreign-peer filter of a connected socket: a's datagram is skipped.
	conn, err := n.DialUDP(b.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	local := conn.(*udpClientConn).addr
	send(a, "spoof", local)
	send(b, "real", local)
	nr, err := conn.Read(buf)
	logf("connected read: %q %s", buf[:nr], errKind(err))

	// Deadlines: a read deadline wakes a blocked reader; a passed write
	// deadline fails the write.
	done := blocked(b)
	b.SetReadDeadline(time.Now())
	logf("read woken by deadline: %s", <-done)
	b.SetReadDeadline(time.Time{})
	a.SetWriteDeadline(time.Now().Add(-time.Second))
	send(a, "late", b.addr)
	a.SetWriteDeadline(time.Time{})

	// Close wakes a blocked reader and fails later calls.
	done = blocked(b)
	b.Close()
	logf("read woken by close: %s", <-done)
	recv(b)
	send(b, "from the grave", a.addr)
	send(a, "to the grave", b.addr) // unbound now: dropped like any absent listener
	return out
}

// TestUDPAddrPortParity holds the netip.AddrPort method pair to the
// net.PacketConn one: the same datagrams, sources, drops and wake-ups.
func TestUDPAddrPortParity(t *testing.T) {
	want := []string{
		`send "one" to 10.0.1.2:53: n=3 ok`,
		`recv: "one" from 10.0.1.1:1000 ok`,
		`send "lost" to 10.0.1.2:53: n=4 ok`,
		`queued behind a blackhole: 0`,
		`send "after blackhole" to 10.0.1.2:53: n=15 ok`,
		`recv: "after blackhole" from 10.0.1.1:1000 ok`,
		`send "nobody" to 10.0.1.9:53: n=6 ok`,
		`queued of 130 sent: 128`,
		`send "after overflow" to 10.0.1.2:53: n=14 ok`,
		`recv: "after overflow" from 10.0.1.1:1000 ok`,
		`oversized: n=0 failed=true`,
		`send "spoof" to 100.64.0.1:33000: n=5 ok`,
		`send "real" to 100.64.0.1:33000: n=4 ok`,
		`connected read: "real" ok`,
		`read woken by deadline: n=0 timeout`,
		`send "late" to 10.0.1.2:53: n=0 timeout`,
		`read woken by close: n=0 closed`,
		`recv: "" from invalid AddrPort closed`,
		`send "from the grave" to 10.0.1.1:1000: n=0 closed`,
		`send "to the grave" to 10.0.1.2:53: n=12 ok`,
	}
	for _, api := range udpAPIs {
		t.Run(api.name, func(t *testing.T) {
			got := udpTranscript(t, api)
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Errorf("step %d:\n got %s\nwant %s", i, g, w)
				}
			}
		})
	}
}
