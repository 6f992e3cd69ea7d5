package ha

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mxmap/internal/netsim"
	"mxmap/internal/serve"
	"mxmap/internal/serve/servetest"
)

// startTruncatingReplica runs a fake backend that answers probes like a
// healthy replica and then dies mid-response on every data query: it
// advertises a body it never finishes sending and slams the connection.
// From the balancer's side this is a replica killed in the middle of
// writing an answer.
func startTruncatingReplica(t *testing.T, n *netsim.Network, addr string) {
	t.Helper()
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				parts := strings.Fields(line)
				if len(parts) < 2 {
					return
				}
				for {
					h, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if h == "\r\n" || h == "\n" {
						break
					}
				}
				path := parts[1]
				if i := strings.IndexByte(path, '?'); i >= 0 {
					path = path[:i]
				}
				switch path {
				case "/healthz":
					body := `{"state":"serving","epoch":1}`
					fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
				case "/readyz":
					body := `{"ready":true,"state":"serving"}`
					fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
				default:
					io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{\"pa")
				}
			}(conn)
		}
	}()
}

// TestChaosKillMidResponse proves the retry contract: a replica that
// dies while writing its answer costs the client nothing — the balancer
// absorbs the truncated attempt and retries on another replica — and
// the query executes exactly once on the surviving fleet (no duplicated
// side effects).
func TestChaosKillMidResponse(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	n := netsim.New()
	startTruncatingReplica(t, n, replicaAddr(0))
	_, srv1 := startReplica(t, n, replicaAddr(1), oldPath, serve.Config{})
	_, srv2 := startReplica(t, n, replicaAddr(2), oldPath, serve.Config{})

	var reps []ReplicaConfig
	for i := 0; i < 3; i++ {
		reps = append(reps, ReplicaConfig{
			Name: "r" + strconv.Itoa(i), Dial: fabricDialer(n, replicaAddr(i)),
		})
	}
	b, err := New(Config{Replicas: reps})
	if err != nil {
		t.Fatal(err)
	}
	front := startServer(t, n, frontAddr, serve.Config{Handler: b.Handle})
	b.AttachFront(front)
	b.Pool().ProbeOnce(context.Background())

	// One client query. Round-robin routes it to the doomed replica
	// first; the client still gets exactly one complete, correct 200.
	c := dialClient(t, n, frontAddr)
	var look serve.LookupResponse
	c.get("GET", "/v1/domain?name=one.example", 200, &look)
	if !look.Found || look.Primary != "prov-a.net" || look.Snapshot.Date != "2021-01" {
		t.Fatalf("lookup = %+v", look)
	}

	// The whole balancer ledger, reconstructed: one request, the killed
	// attempt plus its retry, one upstream error, one probe round.
	want := BalancerStats{
		Requests: 1, Attempts: 2, Retries: 1, UpstreamErrs: 1, Probes: 3,
	}
	if got := b.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}

	// No duplicated side effects: the lookup executed exactly once
	// across the surviving replicas (the killed attempt never reached a
	// query engine), and nothing was lost anywhere.
	if l1, l2 := srv1.Stats().Lookups, srv2.Stats().Lookups; l1+l2 != 1 {
		t.Fatalf("fleet executed %d lookups (r1=%d r2=%d), want exactly 1", l1+l2, l1, l2)
	}
	awaitZeroLost(t, front)
	awaitZeroLost(t, srv1)
	awaitZeroLost(t, srv2)

	// The failure streak is real but below threshold: no ejection.
	info := b.Pool().Replicas()[0]
	if info.State != "healthy" || info.Failures != 1 || info.ConsecFails != 1 {
		t.Fatalf("killed replica info = %+v, want one recorded failure", info)
	}
}

// floodWorker hammers the front with lookups until stop closes,
// verifying every single response: always 200, and the answer's
// provider/date must match the epoch it claims to come from (the
// rolling swap must never serve a torn answer). Returns how many
// responses it verified.
func floodWorker(n *netsim.Network, stop <-chan struct{}) (int, error) {
	c, err := servetest.Dial(n, frontAddr)
	if err != nil {
		return 0, err
	}
	defer c.Conn.Close()
	count := 0
	for {
		select {
		case <-stop:
			return count, nil
		default:
		}
		var look serve.LookupResponse
		if _, err := c.Do("GET", "/v1/domain?name=two.example", 200, &look); err != nil {
			return count, fmt.Errorf("request %d: %w", count+1, err)
		}
		wantPrimary := map[uint64]string{1: "prov-a.net", 2: "prov-b.net"}
		wantDate := map[uint64]string{1: "2021-01", 2: "2021-02"}
		e := look.Snapshot.Epoch
		if look.Primary != wantPrimary[e] || look.Snapshot.Date != wantDate[e] || !look.Found {
			return count, fmt.Errorf("request %d: torn answer %+v", count+1, look)
		}
		count++
	}
}

// TestChaosFloodDuringRollingSwap floods the balancer from concurrent
// clients while the fleet rolls from the old snapshot to the new one,
// then reconstructs the entire BalancerStats struct from the workers'
// own verified tallies and asserts equality. Zero queries lost: every
// request the flood sent was answered 200 with an epoch-consistent
// body, nothing shed, nothing retried, nothing dropped on any server.
func TestChaosFloodDuringRollingSwap(t *testing.T) {
	oldPath, newPath := writeHAWorlds(t)
	// Replica conn caps are off: the flood's conn-per-attempt churn can
	// park hundreds of almost-finished serving goroutines in the run
	// queue on a small GOMAXPROCS box while the swap's delta merge hogs
	// the CPU, and each one still holds its admission slot. That cap
	// pressure is a capacity artifact, not rollout behavior — admission
	// shedding has its own tests — and with it in play the door 429s
	// would inject retries this test asserts cannot happen.
	f := newFleet(t, 3, oldPath, Config{AllowRollout: true},
		serve.Config{MaxConns: -1}, serve.Config{})

	const workers = 4
	stop := make(chan struct{})
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			counts[w], errs[w] = floodWorker(f.n, stop)
		}(w)
	}

	// Let the flood establish itself, then roll the fleet over
	// underneath it, one replica at a time.
	time.Sleep(5 * time.Millisecond)
	rep, err := f.b.Rollout(context.Background(), newPath, oldPath)
	if err != nil {
		t.Fatalf("rollout under flood: %v", err)
	}
	if !rep.Completed || len(rep.Replicas) != 3 || rep.RolledBack != 0 {
		t.Fatalf("rollout = %+v, want clean 3-replica completion", rep)
	}
	close(stop)
	wg.Wait()

	total := 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d after %d good responses: %v", w, counts[w], errs[w])
		}
		total += counts[w]
	}
	if total == 0 {
		t.Fatal("flood verified zero responses")
	}
	t.Logf("flood verified %d responses across %d workers during the rolling swap", total, workers)

	// The whole ledger, reconstructed from the flood's own counting:
	// every verified response was exactly one request and one attempt —
	// no retries, no hedges, no sheds, no upstream errors — plus the
	// admission probe round and one verify probe per rolled replica.
	want := BalancerStats{
		Requests: uint64(total),
		Attempts: uint64(total),
		Probes:   6,
		Rollouts: 1, RolloutSwaps: 3,
	}
	if got := f.b.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}

	// Zero lost on every server in the tier, front and replicas alike.
	awaitZeroLost(t, f.front)
	for _, srv := range f.srvs {
		awaitZeroLost(t, srv)
	}
	// And the fleet's books agree with the flood's: the replicas
	// together served every verified lookup exactly once.
	var fleetLookups uint64
	for _, srv := range f.srvs {
		fleetLookups += srv.Stats().Lookups
	}
	if fleetLookups != uint64(total) {
		t.Fatalf("fleet served %d lookups, flood verified %d", fleetLookups, total)
	}
}
