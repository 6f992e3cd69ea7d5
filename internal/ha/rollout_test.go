package ha

import (
	"context"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mxmap/internal/ledger"
	"mxmap/internal/netsim"
	"mxmap/internal/serve"
	"mxmap/internal/serve/servetest"
)

// TestRollingRollout rolls the fleet from the old snapshot to the new
// one replica by replica, aborts a second rollout against a missing
// snapshot without losing the rolled epoch, and rolls back to the old
// snapshot through the HTTP endpoint.
func TestRollingRollout(t *testing.T) {
	oldPath, newPath := writeHAWorlds(t)
	f := newFleet(t, 3, oldPath, Config{AllowRollout: true},
		serve.Config{}, serve.Config{})
	c := f.client(t)
	lookup := func(label, primary, date string, epoch uint64) {
		t.Helper()
		var look serve.LookupResponse
		c.get("GET", "/v1/domain?name=two.example", 200, &look)
		if look.Primary != primary || look.Snapshot.Date != date || look.Snapshot.Epoch != epoch || look.Stale {
			t.Fatalf("%s lookup = %+v, want %s at epoch %d of %s", label, look, primary, epoch, date)
		}
	}
	// Every replica hot-swaps one epoch forward and the delta path does
	// the same bounded work on each: one.example and four.example
	// reused, the migrated and the arriving (or departing) domain
	// reinferred, in exactly one step of the service clock.
	checkRolled := func(rep *RolloutReport, from uint64) {
		t.Helper()
		if !rep.Completed || rep.Aborted != "" || rep.RolledBack != 0 || len(rep.Replicas) != 3 {
			t.Fatalf("rollout = %+v, want 3 replicas completed cleanly", rep)
		}
		for i, rr := range rep.Replicas {
			want := ReplicaRollout{Name: "r" + strconv.Itoa(i), FromEpoch: from, ToEpoch: from + 1,
				Reused: 2, Reinferred: 2, SwapLatencyNS: servetest.ClockStep.Nanoseconds()}
			if rr != want {
				t.Errorf("replica %d rollout = %+v, want %+v", i, rr, want)
			}
		}
	}

	lookup("pre-roll", "prov-a.net", "2021-01", 1)
	rep, err := f.b.Rollout(context.Background(), newPath, oldPath)
	if err != nil {
		t.Fatal(err)
	}
	checkRolled(rep, 1)
	lookup("post-roll", "prov-b.net", "2021-02", 2)

	// The abort path: a rollout against a missing file halts at the
	// first replica (Rollout surfaces the abort as an error alongside
	// the report); the fleet keeps answering from the epoch it has.
	abort, err := f.b.Rollout(context.Background(), newPath+".does-not-exist", newPath)
	if err == nil || abort == nil || abort.Completed || abort.Aborted == "" {
		t.Fatalf("bad-path rollout = %+v, %v, want an abort recorded", abort, err)
	}
	lookup("post-abort", "prov-b.net", "2021-02", 2)

	want := BalancerStats{
		Requests: 3, Attempts: 3,
		Probes:   6, // admission round + one verify probe per swap
		Rollouts: 2, RolloutSwaps: 3, RolloutAborts: 1,
	}
	front := serve.ServerStats{Accepted: 1, Requests: 3, Responses: 3}
	awaitStats(t, f.b.Stats, want)
	awaitStats(t, f.front.Stats, front)
	// The abort record embeds the run's temp dir.
	abort.Aborted = strings.ReplaceAll(abort.Aborted, filepath.Dir(newPath), "$DIR")
	ledger.CheckPhase(t, "BENCH_ha.json", haPhase{Phase: "rolling_rollout",
		Detail:   "rolled 3 replicas epoch 1->2 (each reusing 2 of 4 domains, swap 500µs); bad-path rollout aborted clean",
		Balancer: want, Front: &front, Rollouts: []*RolloutReport{rep, abort}})

	// Through the endpoint, back to the old snapshot: the whole fleet
	// (the replica the abort left stale included) answers from it.
	var back RolloutReport
	c.get("POST", "/v1/rollout?path="+url.QueryEscape(oldPath)+"&prev="+url.QueryEscape(newPath), 200, &back)
	checkRolled(&back, 2)
	for i := 0; i < 3; i++ {
		lookup("post-endpoint-roll", "prov-a.net", "2021-01", 3)
	}
	want = BalancerStats{
		Requests: 6, Attempts: 6,
		Probes:   9, // three more verify probes
		Rollouts: 3, RolloutSwaps: 6, RolloutAborts: 1,
	}
	if got := f.b.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestRolloutAbortHoldsFleet(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	f := newFleet(t, 3, oldPath, Config{AllowRollout: true},
		serve.Config{}, serve.Config{})
	c := f.client(t)

	// The new snapshot is unreadable: the first replica's load fails,
	// the rollout aborts immediately, and nothing advanced.
	var rep RolloutReport
	c.get("POST", "/v1/rollout?path=/nonexistent.jsonl", 500, &rep)
	if rep.Completed || rep.Aborted == "" || len(rep.Replicas) != 0 || rep.RolledBack != 0 {
		t.Fatalf("rollout = %+v, want immediate abort", rep)
	}

	// The fleet still answers every query from the old epoch. The
	// failed replica serves it in stale mode (its load failed, and the
	// marker rides along in its answers); the untouched replicas never
	// saw the new path at all.
	for i := 0; i < 3; i++ {
		var look serve.LookupResponse
		c.get("GET", "/v1/domain?name=two.example", 200, &look)
		if look.Primary != "prov-a.net" || look.Snapshot.Date != "2021-01" {
			t.Fatalf("post-abort lookup = %+v, want old epoch answers", look)
		}
		if look.Stale != (i == 0) {
			t.Fatalf("lookup %d stale = %v, want only the failed replica marked", i, look.Stale)
		}
	}

	want := BalancerStats{
		Requests: 3, Attempts: 3,
		Probes:   3,
		Rollouts: 1, RolloutAborts: 1,
	}
	if got := f.b.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestRolloutRollbackOnMidFleetFailure(t *testing.T) {
	oldPath, newPath := writeHAWorlds(t)
	n := netsim.New()
	f := &fleet{n: n}
	var cfg Config
	cfg.AllowRollout = true
	for i := 0; i < 3; i++ {
		repCfg := serve.Config{}
		if i == 1 {
			// Replica 1 sabotages its own swap: the moment the rollout
			// reaches it, the new snapshot file disappears and its load
			// fails — after replica 0 already advanced.
			repCfg.Gate = func(path string) {
				if path == "/v1/swap" {
					os.Remove(newPath)
				}
			}
		}
		svc, srv := startReplica(t, n, replicaAddr(i), oldPath, repCfg)
		f.svcs = append(f.svcs, svc)
		f.srvs = append(f.srvs, srv)
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{
			Name: "r" + strconv.Itoa(i), Addr: replicaAddr(i),
			Dial: fabricDialer(n, replicaAddr(i)),
		})
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.b = b
	f.front = startServer(t, n, frontAddr, serve.Config{Handler: b.Handle})
	b.AttachFront(f.front)
	b.Pool().ProbeOnce(context.Background())
	c := f.client(t)

	var rep RolloutReport
	c.get("POST", "/v1/rollout?path="+url.QueryEscape(newPath)+"&prev="+url.QueryEscape(oldPath),
		500, &rep)
	if rep.Completed || rep.Aborted == "" {
		t.Fatalf("rollout = %+v, want abort at replica 1", rep)
	}
	// Replica 0 had advanced to the new epoch and was rolled back.
	if rep.RolledBack != 1 || len(rep.Replicas) != 1 || !rep.Replicas[0].RolledBack ||
		rep.Replicas[0].Name != "r0" {
		t.Fatalf("rollout = %+v, want r0 rolled back", rep)
	}

	// Fleet convergence: every replica answers from the old snapshot
	// again — r0 via its rollback swap (epoch 3), r1 stale on epoch 1,
	// r2 untouched on epoch 1. No client ever sees the aborted epoch.
	wantEpochs := []uint64{3, 1, 1}
	wantStale := []bool{false, true, false}
	for i := 0; i < 3; i++ {
		var look serve.LookupResponse
		c.get("GET", "/v1/domain?name=two.example", 200, &look)
		if look.Primary != "prov-a.net" || look.Snapshot.Date != "2021-01" ||
			look.Snapshot.Epoch != wantEpochs[i] || look.Stale != wantStale[i] {
			t.Fatalf("post-rollback lookup %d = %+v, want old-world epoch %d stale=%v",
				i, look, wantEpochs[i], wantStale[i])
		}
	}

	want := BalancerStats{
		Requests: 3, Attempts: 3,
		Probes:   5, // admission round + r0 forward verify + r0 rollback verify
		Rollouts: 1, RolloutSwaps: 1, RolloutAborts: 1, Rollbacks: 1,
	}
	if got := f.b.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}
