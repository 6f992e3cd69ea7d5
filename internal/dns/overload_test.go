package dns

// Unit tests for the overload-protection layer: the RRL limiter's token
// buckets, slip arithmetic and prefix aggregation; the resilient serve
// loops (a transient ReadFrom error must not kill a UDP worker); TCP
// admission control, per-connection query budgets and frame edge cases.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// frozenClock returns an RRL clock stuck at a fixed instant (no refill)
// plus a function to advance it.
func frozenClock() (func() time.Time, func(time.Duration)) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	return func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}, func(d time.Duration) {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
		}
}

func udpSrc(ip string) netip.Addr { return netip.MustParseAddr(ip) }

func TestRRLBurstThenSlipCadence(t *testing.T) {
	now, _ := frozenClock()
	l := newRRLLimiter(RRLConfig{ResponsesPerSecond: 10, Burst: 3, Slip: 2, Now: now})
	src := udpSrc("192.0.2.7")
	for i := 0; i < 3; i++ {
		if got := l.decide(src, rrlKindAnswer); got != rrlSend {
			t.Fatalf("burst response %d: got %v, want rrlSend", i, got)
		}
	}
	// With Slip=2 every 2nd limited response slips: drop, slip, drop, slip.
	want := []rrlAction{rrlDrop, rrlSlip, rrlDrop, rrlSlip}
	for i, w := range want {
		if got := l.decide(src, rrlKindAnswer); got != w {
			t.Fatalf("limited response %d: got %v, want %v", i, got, w)
		}
	}
}

func TestRRLSlipOneAndNever(t *testing.T) {
	now, _ := frozenClock()
	always := newRRLLimiter(RRLConfig{Burst: 1, Slip: 1, Now: now})
	src := udpSrc("192.0.2.8")
	always.decide(src, rrlKindAnswer) // burn the burst
	for i := 0; i < 4; i++ {
		if got := always.decide(src, rrlKindAnswer); got != rrlSlip {
			t.Fatalf("slip=1 limited %d: got %v, want rrlSlip", i, got)
		}
	}
	never := newRRLLimiter(RRLConfig{Burst: 1, Slip: -1, Now: now})
	never.decide(src, rrlKindAnswer)
	for i := 0; i < 4; i++ {
		if got := never.decide(src, rrlKindAnswer); got != rrlDrop {
			t.Fatalf("slip=-1 limited %d: got %v, want rrlDrop", i, got)
		}
	}
}

func TestRRLRefill(t *testing.T) {
	now, advance := frozenClock()
	l := newRRLLimiter(RRLConfig{ResponsesPerSecond: 5, Burst: 3, Slip: 2, Now: now})
	src := udpSrc("192.0.2.9")
	for i := 0; i < 3; i++ {
		l.decide(src, rrlKindAnswer)
	}
	if got := l.decide(src, rrlKindAnswer); got != rrlDrop {
		t.Fatalf("exhausted bucket: got %v, want rrlDrop", got)
	}
	// 600ms at 5 rps refills exactly 3 tokens, capped at burst.
	advance(600 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if got := l.decide(src, rrlKindAnswer); got != rrlSend {
			t.Fatalf("refilled response %d: got %v, want rrlSend", i, got)
		}
	}
	if got := l.decide(src, rrlKindAnswer); got == rrlSend {
		t.Fatal("bucket refilled beyond the elapsed-time entitlement")
	}
	// Sub-token refill must accumulate, not round away: 2×100ms at 5 rps
	// is one token even though each step alone is half a token.
	advance(100 * time.Millisecond)
	if got := l.decide(src, rrlKindAnswer); got == rrlSend {
		t.Fatal("half a token refilled a whole response")
	}
	advance(100 * time.Millisecond)
	if got := l.decide(src, rrlKindAnswer); got != rrlSend {
		t.Fatalf("accumulated fractional refill: got %v, want rrlSend", got)
	}
}

func TestRRLPrefixAggregation(t *testing.T) {
	now, _ := frozenClock()
	l := newRRLLimiter(RRLConfig{Burst: 1, Slip: 1, Now: now})
	// Hosts within one /24 share a bucket.
	if got := l.decide(udpSrc("198.51.100.1"), rrlKindAnswer); got != rrlSend {
		t.Fatalf("first host: got %v, want rrlSend", got)
	}
	if got := l.decide(udpSrc("198.51.100.250"), rrlKindAnswer); got != rrlSlip {
		t.Fatalf("sibling host in /24: got %v, want rrlSlip (shared bucket)", got)
	}
	// A different /24 has its own bucket.
	if got := l.decide(udpSrc("198.51.101.1"), rrlKindAnswer); got != rrlSend {
		t.Fatalf("different /24: got %v, want rrlSend", got)
	}
	// IPv6 aggregates to /56: same /56, shared; different /56, fresh.
	if got := l.decide(udpSrc("2001:db8:0:a00::1"), rrlKindAnswer); got != rrlSend {
		t.Fatalf("first v6 host: got %v, want rrlSend", got)
	}
	if got := l.decide(udpSrc("2001:db8:0:aff::9"), rrlKindAnswer); got != rrlSlip {
		t.Fatalf("sibling v6 host in /56: got %v, want rrlSlip", got)
	}
	if got := l.decide(udpSrc("2001:db8:0:b00::1"), rrlKindAnswer); got != rrlSend {
		t.Fatalf("different v6 /56: got %v, want rrlSend", got)
	}
}

func TestRRLKindsLimitedIndependently(t *testing.T) {
	now, _ := frozenClock()
	l := newRRLLimiter(RRLConfig{Burst: 1, Slip: 1, Now: now})
	src := udpSrc("203.0.113.5")
	// An NXDOMAIN flood must not consume the answer bucket.
	l.decide(src, rrlKindNXDomain)
	if got := l.decide(src, rrlKindNXDomain); got != rrlSlip {
		t.Fatalf("second nxdomain: got %v, want rrlSlip", got)
	}
	if got := l.decide(src, rrlKindAnswer); got != rrlSend {
		t.Fatalf("answer after nxdomain flood: got %v, want rrlSend", got)
	}
}

func TestRRLLoopbackExemption(t *testing.T) {
	now, _ := frozenClock()
	l := newRRLLimiter(RRLConfig{Burst: 1, Slip: 1, Now: now})
	lo := udpSrc("127.0.0.1")
	for i := 0; i < 10; i++ {
		if got := l.decide(lo, rrlKindAnswer); got != rrlSend {
			t.Fatalf("loopback response %d: got %v, want rrlSend (exempt)", i, got)
		}
	}
	inc := newRRLLimiter(RRLConfig{Burst: 1, Slip: 1, IncludeLoopback: true, Now: now})
	inc.decide(lo, rrlKindAnswer)
	if got := inc.decide(lo, rrlKindAnswer); got != rrlSlip {
		t.Fatalf("IncludeLoopback second response: got %v, want rrlSlip", got)
	}
}

func TestRRLBucketEviction(t *testing.T) {
	now, advance := frozenClock()
	l := newRRLLimiter(RRLConfig{Burst: 1, Slip: 1, Now: now})
	// Overflow every shard: far more prefixes than shards*maxBuckets would
	// take too long, so drive one shard directly via decide on distinct
	// /24s and just assert the bound holds.
	for i := 0; i < rrlShards*maxBucketsPerShard/4; i++ {
		l.decide(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), rrlKindAnswer)
		advance(time.Microsecond) // distinct lastNano so eviction is ordered
	}
	for i := range l.shards {
		l.shards[i].mu.Lock()
		n := len(l.shards[i].m)
		l.shards[i].mu.Unlock()
		if n > maxBucketsPerShard {
			t.Fatalf("shard %d holds %d buckets, bound is %d", i, n, maxBucketsPerShard)
		}
	}
}

func TestRespKindClassification(t *testing.T) {
	pack := func(rcode RCode, answers int) []byte {
		m := &Message{Header: Header{ID: 7, Response: true, RCode: rcode},
			Questions: []Question{{Name: "a.example.", Type: TypeA, Class: ClassIN}}}
		for i := 0; i < answers; i++ {
			m.Answers = append(m.Answers, RR{Name: "a.example.", Type: TypeA, TTL: 60,
				Data: AData{Addr: netip.MustParseAddr("192.0.2.1")}})
		}
		b, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		resp []byte
		want rrlKind
	}{
		{pack(RCodeSuccess, 1), rrlKindAnswer},
		{pack(RCodeSuccess, 0), rrlKindEmpty},
		{pack(RCodeNXDomain, 0), rrlKindNXDomain},
		{pack(RCodeServFail, 0), rrlKindError},
		{pack(RCodeRefused, 0), rrlKindError},
		{[]byte{0, 1}, rrlKindError}, // short garbage
	}
	for i, c := range cases {
		if got := respKind(c.resp); got != c.want {
			t.Errorf("case %d: respKind = %v, want %v", i, got, c.want)
		}
	}
}

func TestSlipResponseRewrite(t *testing.T) {
	m := &Message{Header: Header{ID: 0xBEEF, Response: true, Authoritative: true},
		Questions: []Question{{Name: "mx.slip.example.", Type: TypeMX, Class: ClassIN}}}
	for i := 0; i < 4; i++ {
		m.Answers = append(m.Answers, RR{Name: "mx.slip.example.", Type: TypeMX, TTL: 60,
			Data: MXData{Preference: uint16(i), Exchange: fmt.Sprintf("m%d.slip.example.", i)}})
	}
	full, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	slipped := slipResponse(append([]byte(nil), full...))
	if len(slipped) >= len(full) {
		t.Errorf("slipped reply is %d bytes, full answer %d: no amplification allowed", len(slipped), len(full))
	}
	resp, err := Unpack(slipped)
	if err != nil {
		t.Fatalf("slipped reply does not parse: %v", err)
	}
	if !resp.Header.Truncated {
		t.Error("slipped reply lacks TC bit")
	}
	if resp.Header.ID != 0xBEEF {
		t.Errorf("slipped reply ID = %#x, want 0xBEEF", resp.Header.ID)
	}
	if len(resp.Answers) != 0 || len(resp.Authority) != 0 || len(resp.Additional) != 0 {
		t.Error("slipped reply carries records")
	}
	if len(resp.Questions) != 1 || resp.Questions[0].Name != "mx.slip.example." {
		t.Errorf("slipped reply question = %+v, want the echoed question", resp.Questions)
	}
	// Garbage that defeats the question walk must degrade to header-only.
	bad := append([]byte(nil), full[:12]...)
	binary.BigEndian.PutUint16(bad[4:6], 1) // claims a question it doesn't carry
	out := slipResponse(bad)
	if len(out) != 12 {
		t.Fatalf("anomalous reply slipped to %d bytes, want header-only 12", len(out))
	}
	if out[2]&0x02 == 0 {
		t.Error("header-only fallback lacks TC bit")
	}
}

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

	client := testClient(t, &Client{Server: server + ":53", Timeout: time.Second, Retries: 2,
		DialContext: lossyFabricDial(n)})
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
