package serve

// Hot-swap chaos tests. These run in the race tier (go test -race -run
// Chaos) and assert exact counters: the fabric is lossless and the
// drain is graceful, so every request the server read must produce a
// response the client received — the books balance to the last query.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/netsim"
	"mxmap/internal/serve/servetest"
)

// chaosClient hammers one keep-alive connection with lookups until
// stopped, checking every answer for epoch monotonicity, snapshot
// consistency and a stale mark only where one is allowed. It tallies
// what it observed so the test can reconstruct the server's exact
// counters from the client side.
type chaosClient struct {
	staleEpoch uint64 // the one epoch whose answers may be stale; 0 for none
	sent       int64  // requests fully answered
	misses     int64  // answered with found=false
	lastEpoch  uint64
	err        error
}

// run loops lookups until stop or until the drain closes the
// connection. Connection errors are a clean exit, not a failure: the
// graceful drain tears keep-alive connections down underneath clients,
// and any genuinely lost request would surface in the final exact
// counter assertion instead.
func (cc *chaosClient) run(n *netsim.Network, addr string, worker int, stop *atomic.Bool) {
	c, err := servetest.Dial(n, addr)
	if err != nil {
		cc.err = err
		return
	}
	defer c.Conn.Close()
	names := []string{"one.example", "two.example", "four.example", "no-such.example"}
	for i := 0; ; i++ {
		name := names[(worker+i)%len(names)]
		if err := c.Send("GET", "/v1/domain?name="+name); err != nil {
			return
		}
		status, _, body, err := c.Read()
		if err != nil {
			return
		}
		if status != 200 {
			cc.err = fmt.Errorf("lookup %s: status %d (%s)", name, status, body)
			return
		}
		var resp LookupResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			cc.err = fmt.Errorf("decode %q: %w", body, err)
			return
		}
		// Consistency across the flip: an answer comes from exactly one
		// fully-built epoch, and epochs never move backward on a
		// connection.
		if resp.Snapshot.Epoch < cc.lastEpoch {
			cc.err = fmt.Errorf("epoch went backward: %d after %d", resp.Snapshot.Epoch, cc.lastEpoch)
			return
		}
		cc.lastEpoch = resp.Snapshot.Epoch
		// The stale mark travels with the store it describes: only a
		// store republished after a failed swap carries it.
		if resp.Stale && resp.Snapshot.Epoch != cc.staleEpoch {
			cc.err = fmt.Errorf("epoch %d answered stale", resp.Snapshot.Epoch)
			return
		}
		wantDate := "2021-01"
		if resp.Snapshot.Epoch%2 == 0 {
			wantDate = "2021-02"
		}
		if resp.Snapshot.Date != wantDate {
			cc.err = fmt.Errorf("epoch %d served date %s, want %s (torn epoch)", resp.Snapshot.Epoch, resp.Snapshot.Date, wantDate)
			return
		}
		if name == "no-such.example" {
			if resp.Found {
				cc.err = fmt.Errorf("phantom domain found at epoch %d", resp.Snapshot.Epoch)
				return
			}
			cc.misses++
		} else if name != "two.example" && !resp.Found {
			// one.example and four.example exist in both snapshots;
			// two.example exists in both as well, but its provider
			// moves — checked below.
			cc.err = fmt.Errorf("stable domain %s missing at epoch %d", name, resp.Snapshot.Epoch)
			return
		}
		if name == "two.example" && resp.Found {
			wantPrimary := "prov-a.net"
			if resp.Snapshot.Epoch%2 == 0 {
				wantPrimary = "prov-b.net"
			}
			if resp.Primary != wantPrimary {
				cc.err = fmt.Errorf("epoch %d attributes two.example to %s, want %s", resp.Snapshot.Epoch, resp.Primary, wantPrimary)
				return
			}
		}
		cc.sent++
		if stop.Load() {
			return
		}
	}
}

// TestChaosHotSwapFloodZeroLoss hammers the service with concurrent
// lookups while the snapshot is hot-swapped back and forth, then drains
// gracefully and balances the books: every request the server read was
// answered (Lost() == 0, asserted as a whole ServerStats struct built
// from client-side tallies), no answer ever came from a torn epoch or
// was marked stale, and epochs never moved backward on a connection.
func TestChaosHotSwapFloodZeroLoss(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	n := netsim.New()
	const addr = "203.0.113.30:80"
	const workers = 4
	const swaps = 6
	srv := startTestServer(t, n, addr, Config{Service: svc})

	var stop atomic.Bool
	var wg sync.WaitGroup
	clients := make([]chaosClient, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clients[w].run(n, addr, w, &stop)
		}(w)
	}

	// Let real load build from every worker (one still dialing when the
	// drain starts would be refused), then flip the epoch back and forth
	// under it.
	deadline := time.Now().Add(10 * time.Second)
	for st := srv.Stats(); st.Accepted < workers || st.Requests < 20; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("load never built: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	paths := [2]string{newPath, oldPath}
	for i := 0; i < swaps; i++ {
		rep, err := svc.Swap(context.Background(), paths[i%2])
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if rep.ToEpoch != uint64(i+2) {
			t.Fatalf("swap %d produced epoch %d, want %d", i, rep.ToEpoch, i+2)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	var answered, misses int64
	for w := range clients {
		if clients[w].err != nil {
			t.Fatalf("client %d: %v", w, clients[w].err)
		}
		answered += clients[w].sent
		misses += clients[w].misses
	}
	if answered == 0 {
		t.Fatal("no lookups completed; the flood exercised nothing")
	}

	// Exact accounting, reconstructed entirely from the client side:
	// the fabric is lossless and the drain graceful, so the server read
	// exactly the requests the clients got answers for — zero lost.
	want := ServerStats{
		Accepted:     workers,
		Requests:     uint64(answered),
		Responses:    uint64(answered),
		Lookups:      uint64(answered),
		LookupMisses: uint64(misses),
		Drains:       1,
	}
	awaitServerStats(t, srv, want)
	if lost := srv.Stats().Lost(); lost != 0 {
		t.Errorf("Lost() = %d after drain, want 0", lost)
	}

	// The swap machinery reused work on every flip: only the churned
	// domains were re-inferred.
	ss := svc.Stats()
	if ss.Swaps != swaps || ss.SwapFails != 0 {
		t.Errorf("service stats = %+v, want %d clean swaps", ss, swaps)
	}
	if ss.DomainsReused != uint64(swaps*2) || ss.DomainsReinferred != uint64(swaps*2) {
		t.Errorf("delta accounting = reused %d reinferred %d, want %d each", ss.DomainsReused, ss.DomainsReinferred, swaps*2)
	}

	// Draining twice is idempotent and still nil.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestChaosSwapFailureUnderLoad floods lookups while a swap fails
// mid-flight: the old epoch must keep answering every query, marked
// stale, and a later good swap must clear the degradation — no query
// is ever refused or lost across the failure, and no answer from the
// recovered epoch is stale.
func TestChaosSwapFailureUnderLoad(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	n := netsim.New()
	const addr = "203.0.113.31:80"
	const workers = 2
	srv := startTestServer(t, n, addr, Config{Service: svc})

	var stop atomic.Bool
	var wg sync.WaitGroup
	clients := make([]chaosClient, workers)
	for w := 0; w < workers; w++ {
		clients[w].staleEpoch = 1 // the store the failed swap leaves serving
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clients[w].run(n, addr, w, &stop)
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := srv.Stats(); st.Accepted < workers || st.Requests < 10; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("load never built: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := svc.Swap(context.Background(), oldPath+".does-not-exist"); err == nil {
		t.Fatal("swap to a missing snapshot succeeded")
	}
	if !svc.Stale() {
		t.Fatal("service not stale after failed swap")
	}
	// Queries keep flowing from the old epoch while stale.
	before := srv.Stats().Responses
	deadline = time.Now().Add(10 * time.Second)
	for srv.Stats().Responses < before+10 {
		if time.Now().After(deadline) {
			t.Fatalf("stale epoch stopped answering: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Stats().StaleServes == 0 {
		t.Error("no responses were accounted as stale serves")
	}

	rep, err := svc.Swap(context.Background(), newPath)
	if err != nil {
		t.Fatalf("recovery swap: %v", err)
	}
	if rep.Delta != (core.DeltaStats{Reused: 2, Reinferred: 2}) {
		t.Errorf("recovery delta = %+v, want {2 2}", rep.Delta)
	}
	if svc.Stale() {
		t.Error("service still stale after recovery swap")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	for w := range clients {
		if clients[w].err != nil {
			t.Fatalf("client %d: %v", w, clients[w].err)
		}
	}
	if st := srv.Stats(); st.Lost() != 0 || st.Drains != 1 || st.DrainTimeouts != 0 {
		t.Errorf("stats after drain = %+v, want zero loss and one clean drain", st)
	}
}
