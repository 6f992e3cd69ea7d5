package dns

// Flood chaos tests for the overload-protection layer. These run in the
// race tier (go test -race -run Chaos) and assert *exact* counters: the
// RRL clock is frozen so refill never muddies the token arithmetic, and
// the fabric's SpoofUDP is blocking so every injected datagram is
// provably read by the server.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/ledger"
	"mxmap/internal/netsim"
)

// servePhase is one element of results/BENCH_serve.json: a server's
// whole counter snapshot once the phase's exact arithmetic has been
// reached, plus the client-side observables.
type servePhase struct {
	Phase          string      `json:"phase"`
	Detail         string      `json:"detail"`
	Stats          ServerStats `json:"stats"`
	Lost           uint64      `json:"lost"`
	ClientAnswered int         `json:"client_answered"`
	ClientRetries  int64       `json:"client_retries"`
}

// checkServePhase waits for srv's counters to equal want and compares
// the phase they make with its committed ledger entry.
func checkServePhase(t *testing.T, phase, detail string, srv *Server, want ServerStats, answered int, retries int64) {
	t.Helper()
	waitStats(t, func(st ServerStats) bool { return st == want }, srv)
	ledger.CheckPhase(t, "BENCH_serve.json", servePhase{Phase: phase, Detail: detail,
		Stats: want, Lost: want.Lost(), ClientAnswered: answered, ClientRetries: retries})
}

// floodWire packs the spoofed query a flood repeats.
func floodWire(t *testing.T, name string) []byte {
	t.Helper()
	wire, err := NewQuery(0x4242, name, TypeMX).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// startOverloadServer runs a UDP+TCP DNS server on the fabric at addr
// and registers cleanup that also verifies both serve loops exited nil.
func startOverloadServer(t *testing.T, n *netsim.Network, addr string, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ap := netip.MustParseAddrPort(addr)
	pc, err := n.ListenPacket(ap)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(ap)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	go func() { errc <- srv.ServeUDP(pc) }()
	go func() { errc <- srv.ServeTCP(ln) }()
	// Wait until both serve loops have registered their sockets: a
	// Shutdown racing ahead of a not-yet-scheduled ServeTCP would trip
	// its entry guard and surface net.ErrClosed as a loop failure.
	for {
		if lns, socks, _ := srv.core.Open(); lns == 1 && socks == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Cleanup(func() {
		srv.Close()
		for i := 0; i < 2; i++ {
			if err := <-errc; err != nil {
				t.Errorf("serve loop: %v", err)
			}
		}
	})
	return srv
}

// TestChaosFloodRRLExactCounters drives a 3000-query spoofed-source
// flood from one /24 into an RRL-protected server and checks the token
// arithmetic to the last packet: burst answers, then a strict
// drop/slip/drop/slip cadence.
func TestChaosFloodRRLExactCounters(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.1:53"
	const flood = 3000
	const burst = 20
	now, _ := frozenClock()
	srv := startOverloadServer(t, n, server, ServerConfig{
		Catalog:    chaosCatalog(t, 1),
		UDPWorkers: 1,
		RRL:        &RRLConfig{ResponsesPerSecond: 1000, Burst: burst, Slip: 2, Now: now},
	})

	wire := floodWire(t, "d00.chaos.example.")
	delivered := n.FloodUDP(netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParseAddrPort(server), wire, flood)
	if delivered != flood {
		t.Fatalf("flood delivered %d/%d datagrams", delivered, flood)
	}
	// SpoofUDP is blocking, so all 3000 are in (or through) the server's
	// queue; wait for the worker to drain them.
	waitStats(t, func(st ServerStats) bool { return st.UDPQueries == flood }, srv)

	// Frozen clock: the bucket starts at burst tokens and never refills.
	// 20 answered; of the 2980 limited, every 2nd slips (1490) and the
	// rest drop (1490).
	const limited = flood - burst
	want := ServerStats{
		UDPQueries:   flood,
		UDPResponses: burst + limited/2, // full answers + slipped TC replies
		RRLSlips:     limited / 2,
		RRLDrops:     limited - limited/2,
	}
	checkServePhase(t, "flood_rrl", fmt.Sprintf("%d spoofed queries: %d answered, %d slipped, %d dropped",
		flood, burst, want.RRLSlips, want.RRLDrops), srv, want, 0, 0)
}

// TestChaosFloodVictimIsolation proves the point of prefix-keyed RRL
// with slip: a spoofed flood from one /24 saturates its own bucket, and
// a well-behaved client on another prefix still gets 100% of its
// queries answered — directly from its own burst while it lasts, then
// via slipped TC=1 replies that the client retries over TCP, the path a
// spoofer cannot follow.
func TestChaosFloodVictimIsolation(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.2:53"
	const flood = 3000
	const burst = 20
	const victimQueries = 40
	now, _ := frozenClock()
	// Slip=1: every rate-limited answer becomes a TC reply, so the victim
	// never waits out a dropped datagram — failure is impossible, not
	// merely unlikely, and the test is timing-independent.
	srv := startOverloadServer(t, n, server, ServerConfig{
		Catalog:    chaosCatalog(t, victimQueries),
		UDPWorkers: 1,
		RRL:        &RRLConfig{ResponsesPerSecond: 1000, Burst: burst, Slip: 1, Now: now},
	})

	wire := floodWire(t, "d00.chaos.example.")
	if delivered := n.FloodUDP(netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParseAddrPort(server), wire, flood); delivered != flood {
		t.Fatalf("flood delivered %d/%d datagrams", delivered, flood)
	}
	waitStats(t, func(st ServerStats) bool { return st.UDPQueries == flood }, srv)

	// The victim dials from the fabric's client address (100.64.0.1), a
	// different /24 than the flood — its bucket is untouched.
	client := testClient(t, &Client{Server: server, Timeout: 5 * time.Second, Retries: 0,
		DialContext: lossyFabricDial(n)})
	answered := 0
	for i := 0; i < victimQueries; i++ {
		name := fmt.Sprintf("d%02d.chaos.example.", i)
		resp, err := client.Exchange(context.Background(), name, TypeMX)
		if err != nil {
			t.Fatalf("victim query %d (%s): %v", i, name, err)
		}
		if len(resp.Answers) == 1 {
			answered++
		}
	}
	if answered != victimQueries {
		t.Fatalf("victim answered %d/%d queries, want all", answered, victimQueries)
	}

	// Exact accounting: the flood burned its burst then slipped all 2980;
	// the victim got burst UDP answers, then 20 slips each retried over
	// TCP. RetryCount stays 0 — TC fallback is not a retry.
	want := ServerStats{
		UDPQueries:   flood + victimQueries,
		UDPResponses: flood + victimQueries, // slip=1: everything is answered or slipped
		RRLSlips:     (flood - burst) + (victimQueries - burst),
		TCPAccepted:  victimQueries - burst,
		TCPQueries:   victimQueries - burst,
		TCPResponses: victimQueries - burst,
	}
	if got := client.RetryCount(); got != 0 {
		t.Errorf("victim retries = %d, want 0 (slips must answer first attempts)", got)
	}
	checkServePhase(t, "victim_isolation", fmt.Sprintf("flooded prefix throttled, victim answered %d/%d with 0 retries",
		answered, victimQueries), srv, want, answered, client.RetryCount())
}

// TestChaosSlowlorisAdmissionHolds fills the TCP admission cap with
// stalled connections: further dials are shed at the door while an
// admitted connection stays fully serviceable. (Slot reuse after the
// idle deadline evicts a stall is TestServeTCPAdmissionControl's; it is
// inherently racy to count, so the exact ledger stops here.)
func TestChaosSlowlorisAdmissionHolds(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.5:53"
	const connCap, rejects = 2, 5
	srv := startOverloadServer(t, n, server, ServerConfig{
		Catalog:     chaosCatalog(t, 1),
		MaxTCPConns: connCap,
		ReadTimeout: time.Minute, // stalls must outlive the test, not the server
	})
	var stalls []net.Conn
	for i := 0; i < connCap; i++ {
		stalls = append(stalls, dialTCP(t, n, server))
	}
	waitStats(t, func(st ServerStats) bool { return st.TCPAccepted == connCap }, srv)
	for i := 0; i < rejects; i++ {
		// A shed connection is closed without a byte.
		c := dialTCP(t, n, server)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("rejected conn %d: read = %v, want EOF", i, err)
		}
	}
	// A held slot still serves while rejects pile up.
	if m := tcpQuery(t, stalls[0], "d00.chaos.example."); len(m.Answers) != 1 {
		t.Fatalf("admitted conn answer has %d records, want 1", len(m.Answers))
	}
	checkServePhase(t, "slowloris_admission", fmt.Sprintf("cap %d held: %d shed, admitted conns stayed live", connCap, rejects),
		srv, ServerStats{TCPAccepted: connCap, TCPRejected: rejects, TCPQueries: 1, TCPResponses: 1}, 1, 0)
}

// TestChaosDrainAfterLoadExactCounters serves sequential UDP and TCP
// load, then shuts down gracefully: the drain completes inside its
// deadline with every received query answered.
func TestChaosDrainAfterLoadExactCounters(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.6:53"
	const udpQueries, tcpQueries = 32, 8
	srv := startOverloadServer(t, n, server, ServerConfig{Catalog: chaosCatalog(t, 8)})

	client := testClient(t, &Client{Server: server, Timeout: 5 * time.Second, Retries: 0,
		DialContext: lossyFabricDial(n)})
	answered := 0
	for i := 0; i < udpQueries; i++ {
		resp, err := client.Exchange(context.Background(), fmt.Sprintf("d%02d.chaos.example.", i%8), TypeMX)
		if err != nil {
			t.Fatalf("udp query %d: %v", i, err)
		}
		answered += len(resp.Answers)
	}
	conn := dialTCP(t, n, server)
	for i := 0; i < tcpQueries; i++ {
		answered += len(tcpQuery(t, conn, fmt.Sprintf("d%02d.chaos.example.", i%8)).Answers)
	}
	conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	checkServePhase(t, "graceful_drain", fmt.Sprintf("drained clean after %d queries, 0 lost", udpQueries+tcpQueries), srv,
		ServerStats{UDPQueries: udpQueries, UDPResponses: udpQueries,
			TCPAccepted: 1, TCPQueries: tcpQueries, TCPResponses: tcpQueries, Drains: 1},
		answered, client.RetryCount())
}

// TestChaosDrainUnderLoadZeroLoss shuts a server down gracefully while
// concurrent clients are mid-query and checks that the books balance:
// every query the server read was answered — Lost() == 0 — and both
// serve loops exited clean.
func TestChaosDrainUnderLoadZeroLoss(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.3:53"
	const workers = 4
	srv := startOverloadServer(t, n, server, ServerConfig{
		Catalog:    chaosCatalog(t, 8),
		UDPWorkers: 2,
	})

	var stop atomic.Bool
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := testClient(t, &Client{Server: server, Timeout: 300 * time.Millisecond,
				Retries: 0, DialContext: lossyFabricDial(n)})
			for i := 0; !stop.Load(); i++ {
				name := fmt.Sprintf("d%02d.chaos.example.", (w+i)%8)
				if _, err := client.Exchange(context.Background(), name, TypeMX); err == nil {
					answered.Add(1)
				}
				// Queries racing the drain may time out unanswered; those
				// were never read by the server and are the client's loss,
				// not the server's.
			}
		}(w)
	}
	// Let real load build before pulling the plug.
	waitStats(t, func(st ServerStats) bool { return st.UDPQueries >= 20 }, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	st := srv.Stats()
	if st.Lost() != 0 {
		t.Errorf("Lost() = %d after drain, want 0 (stats: %+v)", st.Lost(), st)
	}
	if st.Drains != 1 || st.DrainTimeouts != 0 {
		t.Errorf("Drains=%d DrainTimeouts=%d, want 1/0", st.Drains, st.DrainTimeouts)
	}
	if answered.Load() == 0 {
		t.Error("no queries completed before the drain; test exercised nothing")
	}
	// Draining twice is idempotent and still nil.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestChaosDrainCompletesInFlightTCP freezes a TCP response mid-write
// (the pipe fabric's writes are synchronous) and calls Shutdown: the
// drain must wait for that in-flight answer to reach the client rather
// than cutting the connection.
func TestChaosDrainCompletesInFlightTCP(t *testing.T) {
	n := netsim.New()
	const server = "203.0.113.4:53"
	srv := startOverloadServer(t, n, server, ServerConfig{Catalog: chaosCatalog(t, 1)})

	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort(server))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameQuery(t, "d00.chaos.example.")); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has read the query; its answer is now
	// in-flight (blocked in Write until we read it).
	waitStats(t, func(st ServerStats) bool { return st.TCPQueries == 1 }, srv)

	got := make(chan *Message, 1)
	readErr := make(chan error, 1)
	go func() {
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			readErr <- err
			return
		}
		buf := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(conn, buf); err != nil {
			readErr <- err
			return
		}
		m, err := Unpack(buf)
		if err != nil {
			readErr <- err
			return
		}
		got <- m
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case m := <-got:
		if len(m.Answers) != 1 {
			t.Errorf("in-flight answer has %d records, want 1", len(m.Answers))
		}
	case err := <-readErr:
		t.Fatalf("in-flight response lost to drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight response never arrived")
	}
	st := srv.Stats()
	if st.TCPResponses != 1 || st.Lost() != 0 {
		t.Errorf("stats = %+v, want TCPResponses=1 Lost=0", st)
	}
}
