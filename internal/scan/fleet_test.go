package scan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/world"
)

// TestClaimLoopExactlyOnce drives the engine's one scheduler with racing
// goroutines: every index is settled exactly once whatever the claim
// size, and the first failure stops the run and is the error returned.
func TestClaimLoopExactlyOnce(t *testing.T) {
	e := &engine{lanes: []*lane{{}, {}, {}, {}}, perLane: 2}
	ctx := context.Background()
	for _, tc := range []struct{ n, size int }{{10_000, 7}, {10_000, 64}, {5, 64}, {1, 1}, {0, 1}} {
		counts := make([]int32, tc.n)
		err := e.claimLoop(ctx, tc.n, tc.size, func(_ context.Context, _ *lane, i int) error {
			counts[i]++ // exactly-once means no racing writers
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d size=%d: %v", tc.n, tc.size, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d size=%d: index %d settled %d times", tc.n, tc.size, i, c)
			}
		}
	}

	// A failure cancels the rest: the other goroutines finish the item
	// in hand, as engine.domain and engine.addr do, and claim no more.
	// An item settled after the failure waits for that cancellation, so
	// a goroutine preempted between failing and cancelling cannot let
	// the others run ahead; a cancellation that never comes fails the
	// test instead of hanging it.
	boom := errors.New("boom")
	var settled atomic.Int64
	err := e.claimLoop(ctx, 10_000, 7, func(ctx context.Context, _ *lane, _ int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch n := settled.Add(1); {
		case n == 100:
			return boom
		case n > 100:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Second):
				t.Error("no cancellation 5s after the 100th item failed")
				return errors.New("not cancelled")
			}
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("claimLoop = %v, want the first failure", err)
	}
	if got, most := settled.Load(), int64(100+len(e.lanes)*e.perLane); got > most {
		t.Errorf("%d items settled after the 100th failed, want at most %d", got, most)
	}
}

// layout is one way to run the engine: how many lanes, how many
// goroutines on each, and which sink the records land in.
type layout struct {
	lanes, perLane int
	shards         bool // sorted shard files merged into one, not a memory snapshot
}

func (lay layout) String() string {
	sink := "memory"
	if lay.shards {
		sink = "shards"
	}
	return fmt.Sprintf("%dx%d-%s", lay.lanes, lay.perLane, sink)
}

// mxCounter counts MX lookups — one per measured domain on a world
// without DNS faults — and calls hit, when set, as the at-th one starts.
type mxCounter struct {
	dns.CatalogResolver
	mx  *atomic.Int64
	at  int64
	hit func()
}

func (r mxCounter) LookupMX(ctx context.Context, domain string) ([]dns.MXData, error) {
	if r.mx.Add(1) == r.at && r.hit != nil {
		r.hit()
	}
	return r.CatalogResolver.LookupMX(ctx, domain)
}

// layoutRun is one engine run over the session's alexa corpus.
type layoutRun struct {
	lay layout
	// proto is copied for every lane: building a collector builds the
	// date's whole catalog, and the table has a hundred lanes.
	proto    *Collector
	journals []Journal // one per lane, or nil
	prior    *dataset.Snapshot
	// resolver replaces every lane's resolver when set.
	resolver dns.Resolver
}

// commit drives the engine in r's layout and commits what it collected
// the way mxscan would: the sorted snapshot file's bytes.
func (r layoutRun) commit(t *testing.T, ctx context.Context, s *WorldSession) ([]byte, *FleetStats, error) {
	t.Helper()
	const date = "2021-06"
	targets, err := s.Targets(world.CorpusAlexa)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "snap.jsonl")
	snap := dataset.NewSnapshot(date, world.CorpusAlexa)
	snap.Domains = make([]dataset.DomainRecord, len(targets))
	set := dataset.NewShardSet(out, date, world.CorpusAlexa)
	set.MaxBuffered = 128 // force several spills per lane
	var (
		lanes   []*lane
		writers []*dataset.ShardWriter
	)
	for i := 0; i < r.lay.lanes; i++ {
		c := new(Collector)
		*c = *r.proto
		if r.resolver != nil {
			c.Resolver = r.resolver
		}
		var j Journal
		if r.journals != nil {
			j = r.journals[i]
		}
		if r.lay.shards {
			w := set.NewWriter()
			writers = append(writers, w)
			lanes = append(lanes, newLane(c, j, shardSink(w)))
		} else {
			// Lanes share the one memory sink: slots are per target, and
			// the snapshot's IP table takes its own lock.
			lanes = append(lanes, newLane(c, j, memorySink(snap)))
		}
	}
	stats, err := collect(ctx, lanes, r.lay.perLane, targets, r.prior)
	if err != nil {
		return nil, nil, err
	}
	if r.lay.shards {
		for _, w := range writers {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dataset.Merge(out, set.Paths()); err != nil {
			t.Fatal(err)
		}
	} else {
		snap.SortDomains()
		if err := dataset.WriteFile(out, snap); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b, stats, nil
}

// laneJournals creates one journal file per lane under dir.
func laneJournals(t *testing.T, dir string, lanes int) []*dataset.Journal {
	t.Helper()
	journals := make([]*dataset.Journal, lanes)
	for i := range journals {
		j, err := dataset.CreateJournal(journalPathFor(dir, i), "2021-06", world.CorpusAlexa)
		if err != nil {
			t.Fatal(err)
		}
		j.SyncEvery = -1 // Close syncs; the table is not about fsync
		journals[i] = j
	}
	return journals
}

// recoverLanes closes the journals and unions what they hold, the way
// a resume does, with the distinct domains recovered.
func recoverLanes(t *testing.T, dir string, journals []*dataset.Journal) (*dataset.Snapshot, map[string]bool) {
	t.Helper()
	prior := dataset.NewSnapshot("2021-06", world.CorpusAlexa)
	seen := make(map[string]bool)
	for i, j := range journals {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := dataset.RecoverJournal(journalPathFor(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Truncated {
			t.Errorf("journal %d torn after a clean close: %s", i, rec.Reason)
		}
		for k := range rec.Snapshot.Domains {
			seen[rec.Snapshot.Domains[k].Domain] = true
			prior.AddDomain(rec.Snapshot.Domains[k])
		}
		for _, info := range rec.Snapshot.IPs {
			prior.AddIP(info)
		}
	}
	return prior, seen
}

// TestFleetMatchesSingleWorker is the engine's core promise as one
// metamorphic table: on a deterministic world every layout — lanes x
// goroutines per lane x sink — commits the same bytes and counts as
// Collect and CollectFleet do, with journaling off, with journaling on
// (the journals then recover to the full dataset, and a fully-seen
// resume in another layout re-measures nothing), and when the run is
// killed at a seeded journal offset and resumed with a different lane
// count (only the unjournaled domains are measured again).
func TestFleetMatchesSingleWorker(t *testing.T) {
	s := session(t)
	ctx := context.Background()
	targets, err := s.Targets(world.CorpusAlexa)
	if err != nil {
		t.Fatal(err)
	}

	// The two entry points give the reference.
	snap, err := s.Snapshot(ctx, world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, snap)
	nDomains, nIPs := len(snap.Domains), len(snap.IPs)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		set := dataset.NewShardSet(filepath.Join(dir, "snap.jsonl"), "2021-06", world.CorpusAlexa)
		set.MaxBuffered = 128
		stats, err := CollectFleet(ctx, FleetConfig{
			Corpus:  world.CorpusAlexa,
			Date:    "2021-06",
			Workers: workers,
			NewCollector: func(int) (*Collector, error) {
				return s.NewCollector(world.CorpusAlexa, "2021-06")
			},
			Output: set,
		}, targets)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "merged.jsonl")
		if _, err := dataset.Merge(out, set.Paths()); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
			t.Fatalf("CollectFleet with %d workers differs from Collect (%d vs %d bytes)", workers, len(got), len(want))
		}
		if stats.Domains != nDomains || stats.IPs != nIPs || stats.ShardFiles != len(set.Paths()) {
			t.Fatalf("CollectFleet with %d workers reports %+v, snapshot has %d/%d", workers, stats, nDomains, nIPs)
		}
	}

	proto, err := s.NewCollector(world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	catalog := proto.Resolver.(dns.CatalogResolver)
	check := func(t *testing.T, what string, got []byte, stats *FleetStats) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed snapshot differs from Collect (%d vs %d bytes)", what, len(got), len(want))
		}
		if stats.Domains != nDomains || stats.IPs != nIPs {
			t.Errorf("%s: wrote %d/%d records, want %d/%d", what, stats.Domains, stats.IPs, nDomains, nIPs)
		}
	}
	row := 0
	for _, lanes := range []int{1, 2, 4} {
		for _, perLane := range []int{1, 8} {
			for _, shards := range []bool{false, true} {
				lay := layout{lanes: lanes, perLane: perLane, shards: shards}
				// The resume runs in another layout: the next lane count,
				// the other sink.
				other := layout{lanes: lanes%4 + 1, perLane: perLane, shards: !shards}
				row++
				rng := rand.New(rand.NewPCG(uint64(row), 0x9e3779b9))

				t.Run(lay.String(), func(t *testing.T) {
					t.Run("journal=off", func(t *testing.T) {
						got, stats, err := layoutRun{lay: lay, proto: proto}.commit(t, ctx, s)
						if err != nil {
							t.Fatal(err)
						}
						check(t, "run", got, stats)
					})

					t.Run("journal=on", func(t *testing.T) {
						dir := t.TempDir()
						files := laneJournals(t, dir, lanes)
						journals := make([]Journal, lanes)
						for i, j := range files {
							journals[i] = j
						}
						got, stats, err := layoutRun{lay: lay, proto: proto, journals: journals}.commit(t, ctx, s)
						if err != nil {
							t.Fatal(err)
						}
						check(t, "journaled run", got, stats)
						prior, seen := recoverLanes(t, dir, files)
						if len(seen) != nDomains || len(prior.IPs) != nIPs {
							t.Fatalf("journals recovered %d/%d records, run wrote %d/%d", len(seen), len(prior.IPs), nDomains, nIPs)
						}
						// A fully-seen resume splices everything: same bytes,
						// and a resolver that fails the test on any lookup.
						got, stats, err = layoutRun{lay: other, proto: proto, prior: prior, resolver: noCallResolver{t}}.commit(t, ctx, s)
						if err != nil {
							t.Fatal(err)
						}
						check(t, "fully-seen resume as "+other.String(), got, stats)
					})

					t.Run("journal=killed", func(t *testing.T) {
						dir := t.TempDir()
						files := laneJournals(t, dir, lanes)
						kctx, kill := context.WithCancel(ctx)
						defer kill()
						// One offset across all lanes, anywhere from the first
						// domain to the last address.
						landed := new(atomic.Int64)
						at := int64(1 + rng.IntN(nDomains+nIPs-1))
						journals := make([]Journal, lanes)
						for i, j := range files {
							journals[i] = &killJournal{Journal: j, n: landed, at: at, kill: kill}
						}
						if _, _, err := (layoutRun{lay: lay, proto: proto, journals: journals}).commit(t, kctx, s); err != context.Canceled {
							t.Fatalf("killed at entry %d: err = %v, want context.Canceled", at, err)
						}
						prior, seen := recoverLanes(t, dir, files)
						// Every goroutine may land the record it had already
						// measured when the kill came, and no more.
						if n := int64(len(seen) + len(prior.IPs)); n < at || n >= at+int64(lanes*perLane) {
							t.Errorf("killed at entry %d: journals hold %d records", at, n)
						}
						mx := new(atomic.Int64)
						counting := mxCounter{CatalogResolver: catalog, mx: mx}
						got, stats, err := layoutRun{lay: other, proto: proto, prior: prior, resolver: counting}.commit(t, ctx, s)
						if err != nil {
							t.Fatal(err)
						}
						check(t, fmt.Sprintf("killed at entry %d, resumed as %s", at, other), got, stats)
						if int(mx.Load()) != nDomains-len(seen) {
							t.Errorf("killed at entry %d: resume measured %d domains, %d were not journaled",
								at, mx.Load(), nDomains-len(seen))
						}
					})
				})
			}
		}
	}
}

// TestFleetAbortSpillsNothing pins the abort rule: a run cancelled
// before any lane filled its buffer leaves no shard behind — the
// partial buffers are dropped, not sorted, compressed and fsynced into
// files nothing will ever read.
func TestFleetAbortSpillsNothing(t *testing.T) {
	s := session(t)
	targets, err := s.Targets(world.CorpusAlexa)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set := dataset.NewShardSet(filepath.Join(t.TempDir(), "snap.jsonl.gz"), "2021-06", world.CorpusAlexa)
	set.MaxBuffered = 1 << 20
	proto, err := s.NewCollector(world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	// The ^C lands mid-phase-1, as the middle domain's lookup starts.
	resolver := mxCounter{
		CatalogResolver: proto.Resolver.(dns.CatalogResolver),
		mx:              new(atomic.Int64), at: int64(len(targets) / 2), hit: cancel,
	}
	_, err = CollectFleet(ctx, FleetConfig{
		Corpus:  world.CorpusAlexa,
		Date:    "2021-06",
		Workers: 4,
		NewCollector: func(int) (*Collector, error) {
			return &Collector{Resolver: resolver, Dialer: s.Net}, nil
		},
		Output: set,
	}, targets)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if paths := set.Paths(); len(paths) != 0 {
		t.Fatalf("aborted fleet left %d shards: %v", len(paths), paths)
	}
}

func journalPathFor(dir string, worker int) string {
	return filepath.Join(dir, fmt.Sprintf("snap.journal.w%02d", worker))
}

// noCallResolver fails the test on any lookup: a fully-seen resume must
// never touch the network.
type noCallResolver struct{ t *testing.T }

func (r noCallResolver) LookupMX(context.Context, string) ([]dns.MXData, error) {
	r.t.Error("resumed fleet issued an MX lookup")
	return nil, dns.ErrNXDomain
}

func (r noCallResolver) LookupA(context.Context, string) ([]netip.Addr, error) {
	r.t.Error("resumed fleet issued an A lookup")
	return nil, dns.ErrNXDomain
}

func (r noCallResolver) LookupAAAA(context.Context, string) ([]netip.Addr, error) {
	r.t.Error("resumed fleet issued an AAAA lookup")
	return nil, dns.ErrNXDomain
}
