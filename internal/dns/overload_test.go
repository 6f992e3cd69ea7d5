package dns

// Unit tests for the overload-protection layer: the resilient serve
// loops (a transient ReadFrom error must not kill a UDP worker); TCP
// admission control, per-connection query budgets and frame edge cases.

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// The two sockets ServeUDP meets outside tests take the worker loop's
// allocation-free path; any other net.PacketConn, flakyPacketConn below
// among them, is served through packetConnSocket.
var (
	_ udpSocket = (*net.UDPConn)(nil)
	_ udpSocket = (*netsim.PacketConn)(nil)
)

// flakyPacketConn fails the first `failures` ReadFrom calls with a
// transient errno, then delegates. It reproduces the ICMP-feedback
// errors a UDP socket surfaces after answering a vanished client. It
// embeds the interface, not the socket, so it has no AddrPort methods
// that would let the server bypass its ReadFrom.
type flakyPacketConn struct {
	net.PacketConn
	mu       sync.Mutex
	failures int
}

func (f *flakyPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	f.mu.Lock()
	if f.failures > 0 {
		f.failures--
		f.mu.Unlock()
		return 0, nil, &net.OpError{Op: "read", Net: "udp", Err: syscall.ECONNREFUSED}
	}
	f.mu.Unlock()
	return f.PacketConn.ReadFrom(p)
}

// TestServeUDPSurvivesTransientReadErrors is the regression test for the
// lost-worker bug: a transient ReadFrom error used to kill the worker
// goroutine, silently shrinking the pool until the server went deaf.
func TestServeUDPSurvivesTransientReadErrors(t *testing.T) {
	n := netsim.New()
	const server = "10.7.0.1"
	srv, err := NewServer(ServerConfig{Catalog: chaosCatalog(t, 2), UDPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := n.ListenPacket(netip.MustParseAddrPort(server + ":53"))
	if err != nil {
		t.Fatal(err)
	}
	const failures = 5
	fpc := &flakyPacketConn{PacketConn: pc, failures: failures}
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(fpc) }()
	t.Cleanup(func() { srv.Close(); <-done })

	client := testClient(t, &Client{Timeout: time.Second, Retries: 2,
		Transport: &Transport{Server: server + ":53", DialContext: lossyFabricDial(n)}})
	// The single worker must eat all 5 errors and still answer.
	resp, err := client.Exchange(context.Background(), "d00.chaos.example.", TypeMX)
	if err != nil {
		t.Fatalf("exchange after transient read errors: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(resp.Answers))
	}
	if got := srv.Stats().UDPReadRetries; got != failures {
		t.Errorf("UDPReadRetries = %d, want %d", got, failures)
	}
}

// dialTCP opens a raw fabric connection to the server for frame-level
// tests.
func dialTCP(t *testing.T, n *netsim.Network, addr string) net.Conn {
	t.Helper()
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// startTCPServer serves DNS-over-TCP on the fabric and returns the
// server plus the Serve error channel.
func startTCPServer(t *testing.T, n *netsim.Network, addr string, cfg ServerConfig) (*Server, chan error) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeTCP(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
	})
	return srv, errc
}

func frameQuery(t *testing.T, name string) []byte {
	t.Helper()
	q := NewQuery(0x1234, name, TypeMX)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 2+len(wire))
	binary.BigEndian.PutUint16(out, uint16(len(wire)))
	copy(out[2:], wire)
	return out
}

func readFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatalf("read frame length: %v", err)
	}
	resp := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	return resp
}

// tcpQuery asks conn one framed MX question and returns the answer.
func tcpQuery(t *testing.T, conn net.Conn, name string) *Message {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frameQuery(t, name)); err != nil {
		t.Fatal(err)
	}
	m, err := Unpack(readFrame(t, conn))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServeTCPZeroLengthFrame(t *testing.T) {
	n := netsim.New()
	srv, _ := startTCPServer(t, n, "10.7.1.1:53", ServerConfig{Catalog: chaosCatalog(t, 1)})
	conn := dialTCP(t, n, "10.7.1.1:53")
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	// A zero-length frame is unanswerable (not even an ID to echo); the
	// server must drop it and close, not hang or crash.
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("read after zero-length frame: err = %v, want EOF", err)
	}
	st := srv.Stats()
	if st.TCPQueries != 1 || st.TCPDropped != 1 {
		t.Errorf("stats = %+v, want TCPQueries=1 TCPDropped=1", st)
	}
}

func TestServeTCPMaxFrame(t *testing.T) {
	n := netsim.New()
	srv, _ := startTCPServer(t, n, "10.7.1.2:53", ServerConfig{Catalog: chaosCatalog(t, 1)})
	conn := dialTCP(t, n, "10.7.1.2:53")
	// The largest possible frame: 65535 bytes of garbage behind a valid
	// length prefix. The server must read it all on its grow-only buffer
	// and answer FORMERR with the echoed ID.
	frame := make([]byte, 2+65535)
	binary.BigEndian.PutUint16(frame, 65535)
	frame[2], frame[3] = 0xAB, 0xCD // the would-be ID
	go conn.Write(frame)            // pipe writes are synchronous; server reads as we write
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := Unpack(readFrame(t, conn))
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if resp.Header.ID != 0xABCD || resp.Header.RCode != RCodeFormat {
		t.Errorf("got ID=%#x rcode=%v, want ID=0xabcd FORMERR", resp.Header.ID, resp.Header.RCode)
	}
	// The counter lands after the server's Write returns, which on the
	// synchronous pipe fabric is after our read — poll briefly.
	waitStats(t, func(st ServerStats) bool { return st.TCPResponses == 1 }, srv)
}

// waitStats polls the server's counters until cond holds, failing after
// a generous deadline.
func waitStats(t *testing.T, cond func(ServerStats) bool, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cond(srv.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeTCPStalledFrameHitsIdleDeadline(t *testing.T) {
	n := netsim.New()
	srv, _ := startTCPServer(t, n, "10.7.1.3:53",
		ServerConfig{Catalog: chaosCatalog(t, 1), ReadTimeout: 100 * time.Millisecond})
	conn := dialTCP(t, n, "10.7.1.3:53")
	// Classic slowloris: a length prefix promising 28 bytes, then silence.
	if _, err := conn.Write([]byte{0, 28}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("read on stalled conn: err = %v, want EOF (server evicted us)", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("eviction took %v, idle deadline is 100ms", elapsed)
	}
	st := srv.Stats()
	if st.TCPQueries != 0 {
		t.Errorf("TCPQueries = %d, want 0 (frame never completed)", st.TCPQueries)
	}
	// The worker must be free again: a well-formed query still answers.
	conn2 := dialTCP(t, n, "10.7.1.3:53")
	if _, err := conn2.Write(frameQuery(t, "d00.chaos.example.")); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := Unpack(readFrame(t, conn2))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("query after eviction: resp=%+v err=%v", resp, err)
	}
}

func TestServeTCPQueryBudget(t *testing.T) {
	n := netsim.New()
	srv, _ := startTCPServer(t, n, "10.7.1.4:53",
		ServerConfig{Catalog: chaosCatalog(t, 1), TCPQueryBudget: 3})
	conn := dialTCP(t, n, "10.7.1.4:53")
	frame := frameQuery(t, "d00.chaos.example.")
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := Unpack(readFrame(t, conn)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// The 4th query on this connection is never read: budget exhausted.
	conn.Write(frame)
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("read past budget: err = %v, want EOF", err)
	}
	st := srv.Stats()
	if st.TCPBudgetCloses != 1 || st.TCPQueries != 3 {
		t.Errorf("stats = %+v, want TCPBudgetCloses=1 TCPQueries=3", st)
	}
}

func TestServeTCPAdmissionControl(t *testing.T) {
	n := netsim.New()
	srv, _ := startTCPServer(t, n, "10.7.1.5:53",
		ServerConfig{Catalog: chaosCatalog(t, 1), MaxTCPConns: 2, ReadTimeout: 100 * time.Millisecond})
	// Two slowloris connections pin both admission slots...
	c1 := dialTCP(t, n, "10.7.1.5:53")
	c2 := dialTCP(t, n, "10.7.1.5:53")
	_, _ = c1, c2
	// ...so the third is shed at accept time: closed without a byte.
	c3 := dialTCP(t, n, "10.7.1.5:53")
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := c3.Read(buf); err != io.EOF {
		t.Fatalf("read on rejected conn: err = %v, want EOF", err)
	}
	st := srv.Stats()
	if st.TCPAccepted != 2 || st.TCPRejected != 1 {
		t.Fatalf("stats = %+v, want TCPAccepted=2 TCPRejected=1", st)
	}
	// The idle deadline evicts the stalled pair, so the cap is not
	// exhausted forever: a fresh client gets a slot and an answer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := dialTCP(t, n, "10.7.1.5:53")
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Write(frameQuery(t, "d00.chaos.example.")); err == nil {
			var lenBuf [2]byte
			if _, err := io.ReadFull(c, lenBuf[:]); err == nil {
				resp := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
				if _, err := io.ReadFull(c, resp); err == nil {
					m, err := Unpack(resp)
					if err != nil || len(m.Answers) != 1 {
						t.Fatalf("post-eviction answer: resp=%+v err=%v", m, err)
					}
					break
				}
			}
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("admission slots never freed after slowloris eviction")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkServeTCP measures the steady-state per-query cost of one TCP
// connection, the path the reused read/write buffers optimize.
func BenchmarkServeTCP(b *testing.B) {
	n := netsim.New()
	cat := NewCatalog()
	z := NewZone("bench.example")
	z.MustAdd(RR{Name: "bench.example.", Type: TypeMX, TTL: 60,
		Data: MXData{Preference: 10, Exchange: "mx.bench.example."}})
	cat.AddZone(z)
	srv, err := NewServer(ServerConfig{Catalog: cat, TCPQueryBudget: -1})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort("10.7.2.1:53"))
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeTCP(ln)
	defer srv.Close()
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort("10.7.2.1:53"))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	q := NewQuery(1, "bench.example.", TypeMX)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, 2+len(wire))
	binary.BigEndian.PutUint16(frame, uint16(len(wire)))
	copy(frame[2:], wire)
	var lenBuf [2]byte
	resp := make([]byte, 512)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			b.Fatal(err)
		}
		m := int(binary.BigEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(conn, resp[:m]); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(resp[:2], []byte{0, 1}) {
		b.Fatalf("last response carries ID %x, want 0001", resp[:2])
	}
}
