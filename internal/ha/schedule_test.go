package ha

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/ledger"
	"mxmap/internal/netsim"
	"mxmap/internal/serve"
	"mxmap/internal/serve/servetest"
)

// TestReprobeScheduleFrozenClock drives the whole eject / re-probe /
// recover state machine on a frozen clock with recorded zero jitter:
// every interval boundary, every counter, and every jitter bound is
// asserted exactly. This is the overload.Delay schedule contract under
// HA: intervals jittered (the bounds below), bounded (capped at
// ReprobeMax), and reset on recovery.
func TestReprobeScheduleFrozenClock(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	n := netsim.New()
	_, _ = startReplica(t, n, replicaAddr(0), oldPath, serve.Config{})

	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	var bounds []int64
	jitter := func(b int64) int64 { bounds = append(bounds, b); return 0 }

	// The replica under test is dead until the switch flips, after
	// which its dialer reaches the real backend.
	var up atomic.Bool
	dial := func(ctx context.Context) (net.Conn, error) {
		if !up.Load() {
			return nil, errors.New("connection refused")
		}
		return fabricDialer(n, replicaAddr(0))(ctx)
	}

	pool, err := newPool(&Config{
		Replicas:       []ReplicaConfig{{Name: "flaky", Dial: dial}},
		ProbeInterval:  time.Second,
		ReprobeBase:    250 * time.Millisecond,
		ReprobeMax:     2 * time.Second,
		EjectThreshold: 3,
		Now:            clock,
		Jitter:         jitter,
	}, &counters{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := pool.replicas[0]

	probe := func(wantProbed int, label string) {
		t.Helper()
		if got := pool.ProbeOnce(ctx); got != wantProbed {
			t.Fatalf("%s: probed %d replicas, want %d", label, got, wantProbed)
		}
	}
	assertEjected := func(want bool, label string) {
		t.Helper()
		r.mu.Lock()
		got := r.ejected
		r.mu.Unlock()
		if got != want {
			t.Fatalf("%s: ejected = %v, want %v", label, got, want)
		}
	}

	// Three failed probe rounds on the regular cadence trip the breaker.
	probe(1, "first probe")
	probe(0, "same instant is not due again")
	advance(time.Second)
	probe(1, "second probe")
	assertEjected(false, "below threshold")
	advance(time.Second)
	probe(1, "third probe")
	assertEjected(true, "threshold reached")

	// Ejected: the re-probe schedule takes over. With zero jitter the
	// delays are exactly Delay(n)/2: 125ms, 250ms, 500ms, 1s, then
	// capped at 1s by ReprobeMax=2s.
	advance(100 * time.Millisecond)
	probe(0, "before first re-probe deadline")
	advance(25 * time.Millisecond) // t+125ms
	probe(1, "first re-probe")
	advance(249 * time.Millisecond)
	probe(0, "before second re-probe deadline")
	advance(time.Millisecond) // +250ms
	probe(1, "second re-probe")
	advance(500 * time.Millisecond)
	probe(1, "third re-probe")
	advance(time.Second)
	probe(1, "fourth re-probe")
	advance(999 * time.Millisecond)
	probe(0, "capped interval holds") // bounded: still 1s, not 2s+
	advance(time.Millisecond)
	probe(1, "fifth re-probe at the cap")

	// Recovery: the replica comes back, the next scheduled re-probe
	// succeeds, and the breaker resets completely.
	up.Store(true)
	advance(time.Second)
	probe(1, "recovery re-probe")
	assertEjected(false, "recovered")
	if info := pool.Replicas()[0]; !r.available() || info.State != "healthy" || !info.Ready {
		t.Fatalf("recovered replica = %+v, want healthy, ready and routable", info)
	}
	ledger.CheckPhase(t, "BENCH_ha.json", haPhase{Phase: "eject_reprobe_recover",
		Detail:       "ejected after 3 fails, re-probed on the 125ms-doubling curve capped at 1s, recovered",
		Balancer:     pool.Stats(),
		JitterBounds: bounds})

	// Reset on recovery: a fresh outage needs the full threshold again,
	// and the first re-probe delay starts back at the base.
	up.Store(false)
	for i := 0; i < 2; i++ {
		advance(time.Second)
		probe(1, "post-recovery failure")
		assertEjected(false, "streak restarted")
	}
	advance(time.Second)
	probe(1, "post-recovery third failure")
	assertEjected(true, "re-ejected")

	// The jitter bounds record the exact schedule: each call saw
	// Delay's d/2+1 for n = 1..6, then — after recovery reset — n = 1
	// again. Bounded at ReprobeMax/2 and reset to the base.
	ms := int64(time.Millisecond)
	wantBounds := []int64{
		125*ms + 1, 250*ms + 1, 500*ms + 1, 1000*ms + 1, 1000*ms + 1, 1000*ms + 1,
		125*ms + 1,
	}
	if len(bounds) != len(wantBounds) {
		t.Fatalf("jitter bounds = %v, want %v", bounds, wantBounds)
	}
	for i := range bounds {
		if bounds[i] != wantBounds[i] {
			t.Fatalf("jitter bound %d = %d, want %d (%v)", i, bounds[i], wantBounds[i], bounds)
		}
	}

	want := BalancerStats{
		Probes:     12, // 3 pre-eject + 6 while ejected + 3 post-recovery
		ProbeFails: 11, // all but the recovery round
		Ejections:  2,
		Reprobes:   6,
		Recoveries: 1,
	}
	if got := pool.c.snapshot(); got != want {
		t.Fatalf("pool stats = %+v, want %+v", got, want)
	}
}

func TestHedgeDelayResolution(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	f := newFleet(t, 1, oldPath,
		Config{HedgeMinSamples: 1, HedgeFloor: time.Nanosecond},
		serve.Config{}, serve.Config{Clock: servetest.SteppedClock()})

	// No observations yet: the floor stands in.
	if d := f.b.hedgeDelay("/v1/domain"); d != time.Nanosecond {
		t.Fatalf("empty-histogram hedge delay = %v, want the floor", d)
	}

	// One observed request at exactly 500µs (two clock reads, one step
	// apart) lands in the 256µs–512µs bucket; the derived threshold is
	// that bucket's upper bound.
	c := f.client(t)
	c.get("GET", "/v1/domain?name=one.example", 200, nil)
	awaitZeroLost(t, f.front)
	if d := f.b.hedgeDelay("/v1/domain"); d != 512*time.Microsecond {
		t.Fatalf("derived hedge delay = %v, want 512µs", d)
	}

	// Fixed and disabled thresholds bypass the histogram entirely.
	f.b.cfg.HedgeDelay = 42 * time.Millisecond
	if d := f.b.hedgeDelay("/v1/domain"); d != 42*time.Millisecond {
		t.Fatalf("fixed hedge delay = %v", d)
	}
	f.b.cfg.HedgeDelay = noHedge
	if d := f.b.hedgeDelay("/v1/domain"); d != 0 {
		t.Fatalf("disabled hedge delay = %v, want 0", d)
	}
}

func TestBalancerHedging(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	n := netsim.New()
	release := make(chan struct{})
	// Replica 0 wedges on data queries until released — alive for
	// probes, silent for lookups. The tail-latency hedge must win the
	// answer from replica 1.
	_, srv0 := startReplica(t, n, replicaAddr(0), oldPath, serve.Config{
		Gate: func(path string) {
			if path == "/v1/domain" {
				<-release
			}
		},
	})
	_, srv1 := startReplica(t, n, replicaAddr(1), oldPath, serve.Config{})

	b, err := New(Config{
		Replicas: []ReplicaConfig{
			{Name: "r0", Dial: fabricDialer(n, replicaAddr(0))},
			{Name: "r1", Dial: fabricDialer(n, replicaAddr(1))},
		},
		HedgeDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := startServer(t, n, frontAddr, serve.Config{Handler: b.Handle})
	b.AttachFront(front)
	b.Pool().ProbeOnce(context.Background())

	c := dialClient(t, n, frontAddr)
	var look serve.LookupResponse
	c.get("GET", "/v1/domain?name=one.example", 200, &look)
	if !look.Found || look.Primary != "prov-a.net" {
		t.Fatalf("hedged lookup = %+v", look)
	}

	want := BalancerStats{
		Requests: 1,
		Attempts: 2, // the wedged original + the hedge
		Hedges:   1, HedgeWins: 1,
		Probes: 2,
	}
	awaitStats(t, b.Stats, want)
	ledger.CheckPhase(t, "BENCH_ha.json", haPhase{Phase: "hedge_tail_latency",
		Detail:   "wedged replica out-waited: hedge launched at 5ms and won from the other replica",
		Balancer: want})
	if hw := srv1.Stats().Lookups; hw != 1 {
		t.Fatalf("hedge target served %d lookups, want 1", hw)
	}

	// Unwedge replica 0 so its abandoned attempt finishes; its response
	// goes to a connection the balancer already severed, and the books
	// still balance to zero lost on every server.
	close(release)
	awaitZeroLost(t, srv0)
	awaitZeroLost(t, srv1)
	awaitZeroLost(t, front)
}
