package ha

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/netip"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/netsim"
	"mxmap/internal/serve"
)

// countingDialer wraps replica dialers so a test can count dials and
// see which of the dialed connections the balancer has closed.
type countingDialer struct {
	mu    sync.Mutex
	conns []*trackedConn
}

type trackedConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (d *countingDialer) wrap(dial func(context.Context) (net.Conn, error)) func(context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		tc := &trackedConn{Conn: conn}
		d.mu.Lock()
		d.conns = append(d.conns, tc)
		d.mu.Unlock()
		return tc, nil
	}
}

// dials is how many connections were opened; open how many of them the
// balancer has not closed.
func (d *countingDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func (d *countingDialer) open() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.conns {
		if !c.closed.Load() {
			n++
		}
	}
	return n
}

// awaitOpen polls until exactly want dialed connections remain open
// (a severed connection is closed from the cancel hook's goroutine).
func (d *countingDialer) awaitOpen(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.open() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d dialed connections open, want %d", d.open(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// countedBalancer builds a probed balancer over the fabric addresses
// with every upstream dial counted. Tests drive Handle directly: the
// front server adds nothing to what is asserted here.
func countedBalancer(t *testing.T, n *netsim.Network, cfg Config, addrs ...string) (*Balancer, *countingDialer) {
	t.Helper()
	d := &countingDialer{}
	for i, addr := range addrs {
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{
			Name: fmt.Sprintf("r%d", i), Addr: addr, Dial: d.wrap(fabricDialer(n, addr)),
		})
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	b.Pool().ProbeOnce(context.Background())
	return b, d
}

// lookup forwards one GET /v1/domain through the balancer.
func lookup(b *Balancer) serve.Response {
	return b.Handle(context.Background(), &serve.Request{
		Method: "GET", Path: "/v1/domain", Query: url.Values{"name": {"one.example"}},
	})
}

func mustLookup(t *testing.T, b *Balancer, want int) {
	t.Helper()
	if resp := lookup(b); resp.Status != want {
		t.Fatalf("lookup = %d (%s), want %d", resp.Status, resp.Body, want)
	}
}

func idleCount(r *Replica) int {
	r.idleMu.Lock()
	defer r.idleMu.Unlock()
	return len(r.idle)
}

// TestUpstreamReuseAndLifecycle: sequential forwards ride one
// connection per replica, /v1/stats shows the reuse, idle expiry closes
// by age, and Close (or Run's ctx ending) leaves no dialed connection
// open — after which a forward simply dials again.
func TestUpstreamReuseAndLifecycle(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	n := netsim.New()
	startReplica(t, n, replicaAddr(0), oldPath, serve.Config{})
	startReplica(t, n, replicaAddr(1), oldPath, serve.Config{})
	b, d := countedBalancer(t, n, Config{HedgeDelay: noHedge}, replicaAddr(0), replicaAddr(1))

	probeDials := d.dials() // /healthz + /readyz per replica, one-shot
	if probeDials != 4 || d.open() != 0 {
		t.Fatalf("probe round: %d dials, %d left open, want 4 one-shot dials", probeDials, d.open())
	}
	for i := 0; i < 10; i++ {
		mustLookup(t, b, 200)
	}
	if got := d.dials() - probeDials; got != 2 {
		t.Fatalf("10 sequential forwards cost %d dials, want one per replica", got)
	}
	want := BalancerStats{Requests: 10, Attempts: 10, Probes: 2}
	if got := b.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}

	resp := b.Handle(context.Background(), &serve.Request{Method: "GET", Path: "/v1/stats"})
	var fs struct {
		Upstream *UpstreamStats `json:"upstream"`
	}
	if err := json.Unmarshal(resp.Body, &fs); err != nil || fs.Upstream == nil {
		t.Fatalf("/v1/stats carries no upstream object: %s (%v)", resp.Body, err)
	}
	if want := (UpstreamStats{Dials: 6, Reuses: 8, Idle: 2}); *fs.Upstream != want {
		t.Fatalf("upstream = %+v, want %+v", *fs.Upstream, want)
	}

	// Expiry is by parking age: nothing is older than maxIdleAge yet,
	// everything is older than "now".
	for _, r := range b.pool.replicas {
		r.closeIdle(time.Now().Add(-maxIdleAge))
	}
	if d.open() != 2 {
		t.Fatalf("fresh idle connections expired: %d open, want 2", d.open())
	}
	b.pool.replicas[0].closeIdle(time.Now())
	if d.open() != 1 || idleCount(b.pool.replicas[0]) != 0 || idleCount(b.pool.replicas[1]) != 1 {
		t.Fatalf("aged-out replica 0: %d open, want only replica 1's connection", d.open())
	}

	b.Close()
	if d.open() != 0 || b.pool.upstream().Idle != 0 {
		t.Fatalf("after Close: %d dialed connections open, %d idle", d.open(), b.pool.upstream().Idle)
	}
	before := d.dials()
	mustLookup(t, b, 200)
	if d.dials() != before+1 || d.open() != 1 {
		t.Fatalf("forward after Close: %d new dials, %d open, want 1 and 1", d.dials()-before, d.open())
	}

	// Run's ctx ending is the same close-all.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); b.Run(ctx) }()
	cancel()
	<-done
	if d.open() != 0 {
		t.Fatalf("after Run returned: %d dialed connections open", d.open())
	}
}

// TestUpstreamHonoursConnectionClose: the replica's per-connection
// request budget ends every third exchange with Connection: close; the
// balancer retires that connection instead of parking it, so the close
// never surfaces as an upstream error or a stale redial.
func TestUpstreamHonoursConnectionClose(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	n := netsim.New()
	_, srv := startReplica(t, n, replicaAddr(0), oldPath, serve.Config{MaxRequests: 3})
	b, d := countedBalancer(t, n, Config{HedgeDelay: noHedge}, replicaAddr(0))
	probeDials := d.dials()

	for i := 0; i < 7; i++ {
		mustLookup(t, b, 200)
	}
	if got := d.dials() - probeDials; got != 3 {
		t.Fatalf("7 forwards on a 3-request budget cost %d dials, want 3", got)
	}
	if st := b.Stats(); st.UpstreamErrs != 0 || st.Retries != 0 || st.Attempts != 7 {
		t.Fatalf("stats = %+v, want 7 clean attempts", st)
	}
	if u := b.pool.upstream(); u.StaleRedials != 0 || u.Idle != 1 {
		t.Fatalf("upstream = %+v, want no stale redials and the third connection parked", u)
	}
	if bc := srv.Stats().BudgetCloses; bc != 2 {
		t.Fatalf("replica budget closes = %d, want 2", bc)
	}
	d.awaitOpen(t, 1)
}

// TestUpstreamStaleIdleRedial: a parked connection the replica closed
// (restart on the same address, or its read timeout) is replaced by one
// fresh dial inside the same attempt and never reaches the ledger or
// the breaker; a replica that is really gone still books exactly one
// upstream error per attempt.
func TestUpstreamStaleIdleRedial(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	clean := func(t *testing.T, b *Balancer, attempts uint64) {
		t.Helper()
		want := BalancerStats{Requests: attempts, Attempts: attempts, Probes: 1}
		if got := b.Stats(); got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
		if u := b.pool.upstream(); u.StaleRedials != 1 || u.Reuses != 1 {
			t.Fatalf("upstream = %+v, want one reuse that went stale", u)
		}
		if info := b.Pool().Replicas()[0]; info.ConsecFails != 0 || info.Failures != 0 {
			t.Fatalf("replica info = %+v, want no failure booked", info)
		}
	}

	t.Run("restart", func(t *testing.T) {
		n := netsim.New()
		service := loadedService(t, oldPath)
		_, stop := serveOn(t, n, replicaAddr(0), serve.Config{Service: service})
		b, d := countedBalancer(t, n, Config{HedgeDelay: noHedge}, replicaAddr(0))
		mustLookup(t, b, 200)
		stop()
		serveOn(t, n, replicaAddr(0), serve.Config{Service: service})
		before := d.dials()
		mustLookup(t, b, 200)
		if d.dials() != before+1 {
			t.Fatalf("stale connection cost %d dials, want exactly one redial", d.dials()-before)
		}
		clean(t, b, 2)
	})

	t.Run("read timeout", func(t *testing.T) {
		n := netsim.New()
		srv, _ := serveOn(t, n, replicaAddr(0), serve.Config{
			Service: loadedService(t, oldPath), ReadTimeout: 20 * time.Millisecond,
		})
		b, _ := countedBalancer(t, n, Config{HedgeDelay: noHedge}, replicaAddr(0))
		mustLookup(t, b, 200)
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().ReadTimeouts == 0 {
			if time.Now().After(deadline) {
				t.Fatal("replica never timed the parked connection out")
			}
			time.Sleep(time.Millisecond)
		}
		mustLookup(t, b, 200)
		clean(t, b, 2)
	})

	t.Run("dead replica", func(t *testing.T) {
		n := netsim.New()
		_, stop := serveOn(t, n, replicaAddr(0), serve.Config{Service: loadedService(t, oldPath)})
		b, _ := countedBalancer(t, n, Config{HedgeDelay: noHedge}, replicaAddr(0))
		mustLookup(t, b, 200)
		stop()
		// The parked connection is stale and the redial is refused: one
		// attempt, one upstream error. Then a plain refused dial: one more.
		mustLookup(t, b, 502)
		mustLookup(t, b, 502)
		want := BalancerStats{Requests: 3, Attempts: 3, UpstreamErrs: 2, ProxyFails: 2, Probes: 1}
		if got := b.Stats(); got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
		if info := b.Pool().Replicas()[0]; info.ConsecFails != 2 || info.Failures != 2 {
			t.Fatalf("replica info = %+v, want two failures booked", info)
		}
		if u := b.pool.upstream(); u.StaleRedials != 1 {
			t.Fatalf("upstream = %+v, want the one stale redial", u)
		}
	})
}

// loadedService is a Service serving path.
func loadedService(t *testing.T, path string) *serve.Service {
	t.Helper()
	svc := serve.NewService(core.ApproachMXOnly, serve.ServiceConfig{})
	if _, err := svc.Load(path); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestUpstreamSeveredNeverParked: the connection of an attempt the
// balancer gave up on — a hedge loser, an attempt the budget expired
// under — is closed and never handed to a later request.
func TestUpstreamSeveredNeverParked(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)

	wedged := func(release chan struct{}) serve.Config {
		return serve.Config{Gate: func(path string) {
			if path == "/v1/domain" {
				<-release
			}
		}}
	}

	t.Run("hedge loser", func(t *testing.T) {
		n := netsim.New()
		release := make(chan struct{})
		_, srv0 := startReplica(t, n, replicaAddr(0), oldPath, wedged(release))
		startReplica(t, n, replicaAddr(1), oldPath, serve.Config{})
		b, d := countedBalancer(t, n, Config{HedgeDelay: 5 * time.Millisecond}, replicaAddr(0), replicaAddr(1))
		probeDials := d.dials()

		mustLookup(t, b, 200) // r0 wedges, the hedge wins from r1
		if st := b.Stats(); st.Hedges != 1 || st.HedgeWins != 1 || st.UpstreamErrs != 0 {
			t.Fatalf("stats = %+v, want one winning hedge", st)
		}
		// Two forward dials: the winner is parked, the loser severed.
		if got := d.dials() - probeDials; got != 2 {
			t.Fatalf("hedged request cost %d dials, want 2", got)
		}
		d.awaitOpen(t, 1)
		if i0, i1 := idleCount(b.pool.replicas[0]), idleCount(b.pool.replicas[1]); i0 != 0 || i1 != 1 {
			t.Fatalf("idle = %d/%d, want the loser's replica empty and the winner's parked", i0, i1)
		}
		// Unwedged, replica 0 answers the severed attempt into a dead
		// socket; its next request arrives on a fresh dial.
		close(release)
		awaitZeroLost(t, srv0)
		for i := 0; i < 4; i++ {
			mustLookup(t, b, 200)
		}
		if got := b.pool.replicas[0].dials.Load(); got < 4 { // two probes, the loser, a fresh one
			t.Fatalf("replica 0 dials = %d, want a fresh dial after the severed one", got)
		}
		if st := srv0.Stats(); st.BadRequests != 0 || st.Lost() != 0 {
			t.Fatalf("replica 0 stats = %+v, want the severed connection booked as a disconnect", st)
		}
	})

	t.Run("budget expired", func(t *testing.T) {
		n := netsim.New()
		release := make(chan struct{})
		_, srv0 := startReplica(t, n, replicaAddr(0), oldPath, wedged(release))
		b, d := countedBalancer(t, n, Config{HedgeDelay: noHedge, RetryBudget: 20 * time.Millisecond}, replicaAddr(0))
		if resp := lookup(b); resp.Status < 500 {
			t.Fatalf("lookup against a wedged replica = %d", resp.Status)
		}
		d.awaitOpen(t, 0)
		if idleCount(b.pool.replicas[0]) != 0 {
			t.Fatal("budget-expired attempt's connection was parked")
		}
		// The abandoned attempt says nothing about the replica.
		if st := b.Stats(); st.Attempts != 1 || st.UpstreamErrs != 0 {
			t.Fatalf("stats = %+v, want one attempt and no upstream error", st)
		}
		close(release)
		awaitZeroLost(t, srv0)
	})
}

// startScriptedReplica runs a fake keep-alive backend that answers
// probes like a healthy replica and every data query with dataReply,
// written verbatim in one piece.
func startScriptedReplica(t *testing.T, n *netsim.Network, addr, dataReply string) {
	t.Helper()
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serveConn := func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			for {
				h, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if h == "\r\n" {
					break
				}
			}
			reply := dataReply
			switch {
			case strings.HasPrefix(line, "GET /healthz "):
				reply = okReply(`{"state":"serving","epoch":1}`)
			case strings.HasPrefix(line, "GET /readyz "):
				reply = okReply(`{"ready":true,"state":"serving"}`)
			}
			if _, err := io.WriteString(conn, reply); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveConn(conn)
		}
	}()
}

func okReply(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

// TestUpstreamStrayBytesNotParked: a reply with bytes behind it leaves
// the reader non-empty, so where the next reply would start is no
// longer known and the connection is retired. The same backend without
// the stray bytes is the control: it is parked.
func TestUpstreamStrayBytesNotParked(t *testing.T) {
	for _, tc := range []struct {
		name, reply      string
		wantIdle, wantDs int
	}{
		{"clean reply parked", okReply(`{}`), 1, 1},
		{"stray bytes retired", okReply(`{}`) + "XX", 0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New()
			startScriptedReplica(t, n, replicaAddr(0), tc.reply)
			b, d := countedBalancer(t, n, Config{HedgeDelay: noHedge}, replicaAddr(0))
			probeDials := d.dials()
			for i := 0; i < 3; i++ {
				mustLookup(t, b, 200)
			}
			if got := idleCount(b.pool.replicas[0]); got != tc.wantIdle {
				t.Fatalf("idle = %d, want %d", got, tc.wantIdle)
			}
			if got := d.dials() - probeDials; got != tc.wantDs {
				t.Fatalf("3 forwards cost %d dials, want %d", got, tc.wantDs)
			}
			if st := b.Stats(); st.UpstreamErrs != 0 {
				t.Fatalf("stats = %+v, want no upstream errors", st)
			}
			d.awaitOpen(t, tc.wantIdle)
		})
	}
}

// TestUpstreamIdleCapUnderHammer: 64 goroutines forwarding to one
// replica never leave more than maxIdleConns parked. The first round is
// held at the replica until all 64 are in flight, so 64 connections
// finish together and exactly the cap survives; the second round runs
// free.
func TestUpstreamIdleCapUnderHammer(t *testing.T) {
	const workers, rounds = 64, 20
	oldPath, _ := writeHAWorlds(t)
	n := netsim.New()
	var (
		holding atomic.Bool
		arrived atomic.Int32
		release = make(chan struct{})
	)
	holding.Store(true)
	_, srv := startReplica(t, n, replicaAddr(0), oldPath, serve.Config{
		MaxInflight: -1,
		Gate: func(path string) {
			if path == "/v1/domain" && holding.Load() {
				if arrived.Add(1) == workers {
					close(release)
				}
				<-release
			}
		},
	})
	b, d := countedBalancer(t, n, Config{HedgeDelay: noHedge}, replicaAddr(0))

	var bad atomic.Int32
	hammer := func(perWorker int) {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if lookup(b).Status != 200 {
						bad.Add(1)
					}
					if idleCount(b.pool.replicas[0]) > maxIdleConns {
						bad.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}

	hammer(1)
	holding.Store(false)
	if got := idleCount(b.pool.replicas[0]); got != maxIdleConns {
		t.Fatalf("idle after %d simultaneous exchanges = %d, want the cap %d", workers, got, maxIdleConns)
	}
	d.awaitOpen(t, maxIdleConns)

	hammer(rounds)
	if bad.Load() != 0 {
		t.Fatalf("%d hammer iterations failed or saw the idle cap exceeded", bad.Load())
	}
	total := uint64(workers * (rounds + 1))
	want := BalancerStats{Requests: total, Attempts: total, Probes: 1}
	if got := b.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if u := b.pool.upstream(); u.Idle > maxIdleConns || u.StaleRedials != 0 || u.Dials+u.Reuses != total+2 {
		t.Fatalf("upstream = %+v, want every exchange a dial or a clean reuse", u)
	}
	b.Close()
	if d.open() != 0 {
		t.Fatalf("%d dialed connections open after Close", d.open())
	}
	awaitZeroLost(t, srv)
	if st := srv.Stats(); st.BadRequests != 0 || st.Lookups != total {
		t.Fatalf("replica stats = %+v, want %d clean lookups", st, total)
	}
}
