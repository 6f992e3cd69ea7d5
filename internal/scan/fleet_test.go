package scan

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
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
	proto *Collector
	// prior is what a resume's set holds, read from its shards
	// (resumeFrom): no record of it may reach a sink again.
	prior *dataset.Snapshot
	// resolver replaces every lane's resolver when set.
	resolver dns.Resolver
	// set takes a shard sink's shards; nil stands for a new set in a
	// directory of the run's own.
	set *dataset.ShardSet
	// kill, when set, sees every record that reaches a sink.
	kill *killSwitch
	// beforeMerge, when set, is called between a shard run's collection
	// and its merge.
	beforeMerge func()
}

// killSwitch is the ^C of the kill-resume rows: it counts the records
// that reach a sink across every lane, remembering each one's key, and
// calls kill as the at-th lands — no sleeping, no racing a timer
// against the collection.
type killSwitch struct {
	at   int64
	kill func()

	n      atomic.Int64
	mu     sync.Mutex
	landed map[string]bool // domain names and address keys
}

func (k *killSwitch) land(key string) {
	k.mu.Lock()
	k.landed[key] = true
	k.mu.Unlock()
	if k.n.Add(1) == k.at {
		k.kill()
	}
}

func (k *killSwitch) wrap(s sink) sink {
	return sink{
		putDomain: func(i int, rec dataset.DomainRecord) error { k.land(rec.Domain); return s.putDomain(i, rec) },
		putIP:     func(info dataset.IPInfo) error { k.land(info.Addr.String()); return s.putIP(info) },
	}
}

// commit drives the engine in r's layout and commits what it collected
// the way mxscan would: the sorted snapshot file's bytes. A shard run
// whose context is cancelled spills its lanes' buffers, as CollectFleet
// does, and returns the context's error; so does one whose merge is
// cancelled, with its shards kept.
func (r layoutRun) commit(t *testing.T, ctx context.Context, s *WorldSession) ([]byte, *FleetStats, error) {
	t.Helper()
	const date = "2021-06"
	targets, err := s.Targets(world.CorpusAlexa)
	if err != nil {
		t.Fatal(err)
	}
	set := r.set
	if set == nil {
		set = dataset.NewShardSet(filepath.Join(t.TempDir(), "snap.jsonl"), date, world.CorpusAlexa)
	}
	set.MaxBuffered = 128 // force several spills per lane
	out := set.Base
	snap := dataset.NewSnapshot(date, world.CorpusAlexa)
	snap.Domains = make([]dataset.DomainRecord, len(targets))
	var (
		lanes   []*lane
		writers []*dataset.ShardWriter
		held    map[string]bool
	)
	if r.prior != nil {
		held = recordKeys(r.prior)
	}
	for i := 0; i < r.lay.lanes; i++ {
		c := new(Collector)
		*c = *r.proto
		if r.resolver != nil {
			c.Resolver = r.resolver
		}
		// Lanes share the one memory sink: slots are per target, and the
		// snapshot's IP table takes its own lock.
		sk := memorySink(snap)
		if r.lay.shards {
			w := set.NewWriter()
			writers = append(writers, w)
			sk = shardSink(w)
		}
		if r.kill != nil {
			sk = r.kill.wrap(sk)
		}
		if held != nil {
			sk = refuseHeld(t, held, sk)
		}
		lanes = append(lanes, newLane(c, sk))
	}
	stats, err := collect(ctx, lanes, r.lay.perLane, targets, set)
	if err != nil {
		if ctx.Err() != nil {
			if _, err := closeWriters(writers); err != nil {
				t.Fatal(err)
			}
		}
		return nil, nil, err
	}
	if r.lay.shards {
		if _, err := closeWriters(writers); err != nil {
			t.Fatal(err)
		}
		if r.beforeMerge != nil {
			r.beforeMerge()
		}
		if _, err := dataset.MergeContext(ctx, out, set.Paths()); err != nil {
			if ctx.Err() != nil {
				return nil, nil, err
			}
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

// resumeFrom reads back the shards a run left at base, the way mxscan
// -resume does, with the records they hold (read from the shards, as
// Merge will take them) and the keys of those records.
func resumeFrom(t *testing.T, base string) (*dataset.ShardSet, *dataset.Snapshot, map[string]bool) {
	t.Helper()
	set, err := dataset.ResumeShardSet(base, "2021-06", world.CorpusAlexa)
	if err != nil {
		t.Fatal(err)
	}
	prior := shardRecords(t, set)
	return set, prior, recordKeys(prior)
}

// recordKeys is the key of every record s holds: domain names and
// address keys, as a killSwitch notes them.
func recordKeys(s *dataset.Snapshot) map[string]bool {
	keys := make(map[string]bool, len(s.Domains)+len(s.IPs))
	for _, d := range s.Domains {
		keys[d.Domain] = true
	}
	for key := range s.IPs {
		keys[key] = true
	}
	return keys
}

// refuseHeld fails the test when a record with one of the held keys
// reaches s: a resume writes nothing its checkpoint holds.
func refuseHeld(t *testing.T, held map[string]bool, s sink) sink {
	return sink{
		putDomain: func(i int, rec dataset.DomainRecord) error {
			if held[rec.Domain] {
				t.Errorf("a resume wrote %s, which its shards hold", rec.Domain)
			}
			return s.putDomain(i, rec)
		},
		putIP: func(info dataset.IPInfo) error {
			if held[info.Addr.String()] {
				t.Errorf("a resume wrote %s, which its shards hold", info.Addr)
			}
			return s.putIP(info)
		},
	}
}

// TestFleetMatchesSingleWorker is the engine's core promise as one
// metamorphic table: on a deterministic world every layout — lanes x
// goroutines per lane x sink — commits the same bytes and counts as
// Collect and CollectFleet do, and so does a resume from the shards a
// run left (its checkpoint; the subtests keep the name "journal"). A
// run that checkpoints spills shards in the row's lanes and goroutines
// (a memory sink keeps no checkpoint), and its resume runs with another
// lane count into a shard sink, since Merge reads the records the old
// shards hold where they lie; the records it writes and those shards
// hold are the snapshot's, each once. journal=off is the plain run;
// journal=on resumes from a finished run's shards, which hold the full
// dataset, and re-measures nothing; journal=merge-cancelled does the
// same after that run's merge was cancelled, which keeps the shards and
// commits nothing; journal=killed cancels the run at a
// seeded record, checks that its shards hold exactly the records that
// reached a sink before the cancel, and resumes, measuring only the
// domains they do not hold.
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
		// The run counts its health whatever the sink: one report.
		if !reflect.DeepEqual(stats.Health, snap.Health) {
			t.Errorf("CollectFleet with %d workers reports health %+v, Collect %+v", workers, stats.Health, snap.Health)
		}
	}

	proto, err := s.NewCollector(world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	catalog := proto.Resolver.(dns.CatalogResolver)
	// check compares a commit with Collect's; held are the records of a
	// resume's prior, which it does not write again.
	check := func(t *testing.T, what string, got []byte, stats *FleetStats, held *dataset.Snapshot) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed snapshot differs from Collect (%d vs %d bytes)", what, len(got), len(want))
		}
		heldDomains, heldIPs := 0, 0
		if held != nil {
			heldDomains, heldIPs = len(held.Domains), len(held.IPs)
		}
		if stats.Domains+heldDomains != nDomains || stats.IPs+heldIPs != nIPs {
			t.Errorf("%s: wrote %d/%d records beside %d/%d held, want %d/%d",
				what, stats.Domains, stats.IPs, heldDomains, heldIPs, nDomains, nIPs)
		}
	}
	row := 0
	for _, lanes := range []int{1, 2, 4} {
		for _, perLane := range []int{1, 8} {
			for _, shards := range []bool{false, true} {
				lay := layout{lanes: lanes, perLane: perLane, shards: shards}
				checkpoint := layout{lanes: lanes, perLane: perLane, shards: true}
				// The resume runs in another layout: the next lane count,
				// into shards.
				other := layout{lanes: lanes%4 + 1, perLane: perLane, shards: true}
				row++
				rng := rand.New(rand.NewPCG(uint64(row), 0x9e3779b9))
				// resume finishes a run from the shards it left at base in
				// other's layout, spilling on the set that continues theirs
				// and merging both, as mxscan -resume does.
				resume := func(t *testing.T, base string, resolver dns.Resolver) ([]byte, *FleetStats, *dataset.Snapshot, map[string]bool) {
					t.Helper()
					set, prior, seen := resumeFrom(t, base)
					got, stats, err := layoutRun{lay: other, proto: proto, prior: prior, resolver: resolver, set: set}.commit(t, ctx, s)
					if err != nil {
						t.Fatal(err)
					}
					return got, stats, prior, seen
				}

				t.Run(lay.String(), func(t *testing.T) {
					t.Run("journal=off", func(t *testing.T) {
						got, stats, err := layoutRun{lay: lay, proto: proto}.commit(t, ctx, s)
						if err != nil {
							t.Fatal(err)
						}
						check(t, "run", got, stats, nil)
					})

					t.Run("journal=on", func(t *testing.T) {
						set := dataset.NewShardSet(filepath.Join(t.TempDir(), "snap.jsonl"), "2021-06", world.CorpusAlexa)
						got, stats, err := layoutRun{lay: checkpoint, proto: proto, set: set}.commit(t, ctx, s)
						if err != nil {
							t.Fatal(err)
						}
						check(t, "checkpointed run", got, stats, nil)
						// A fully-seen resume measures nothing: same bytes, and
						// a resolver that fails the test on any lookup.
						got, stats, prior, seen := resume(t, set.Base, noCallResolver{t})
						if len(seen) != nDomains+nIPs {
							t.Fatalf("shards hold %d records, run wrote %d", len(seen), nDomains+nIPs)
						}
						check(t, "fully-seen resume as "+other.String(), got, stats, prior)
					})

					t.Run("journal=merge-cancelled", func(t *testing.T) {
						mctx, cancel := context.WithCancel(ctx)
						defer cancel()
						set := dataset.NewShardSet(filepath.Join(t.TempDir(), "snap.jsonl"), "2021-06", world.CorpusAlexa)
						if _, _, err := (layoutRun{lay: checkpoint, proto: proto, set: set, beforeMerge: cancel}).commit(t, mctx, s); err != context.Canceled {
							t.Fatalf("merge cancelled after a complete run: err = %v, want context.Canceled", err)
						}
						if left, _ := filepath.Glob(filepath.Join(filepath.Dir(set.Base), "*")); !slices.Equal(left, set.Paths()) {
							t.Errorf("a cancelled merge left %v, want the shards %v alone", left, set.Paths())
						}
						// The shards hold the whole run: the resume looks nothing
						// up and commits the uninterrupted bytes.
						mx := new(atomic.Int64)
						got, stats, prior, seen := resume(t, set.Base, mxCounter{CatalogResolver: catalog, mx: mx})
						if len(seen) != nDomains+nIPs {
							t.Fatalf("shards hold %d records, run wrote %d", len(seen), nDomains+nIPs)
						}
						check(t, "resume after a cancelled merge as "+other.String(), got, stats, prior)
						if n := mx.Load(); n != 0 {
							t.Errorf("the resume after a cancelled merge made %d MX lookups, want 0", n)
						}
					})

					t.Run("journal=killed", func(t *testing.T) {
						kctx, kill := context.WithCancel(ctx)
						defer kill()
						// One offset across all lanes, anywhere from the first
						// domain to the last address.
						at := int64(1 + rng.IntN(nDomains+nIPs-1))
						sw := &killSwitch{at: at, kill: kill, landed: make(map[string]bool)}
						set := dataset.NewShardSet(filepath.Join(t.TempDir(), "snap.jsonl"), "2021-06", world.CorpusAlexa)
						if _, _, err := (layoutRun{lay: checkpoint, proto: proto, set: set, kill: sw}).commit(t, kctx, s); err != context.Canceled {
							t.Fatalf("killed at record %d: err = %v, want context.Canceled", at, err)
						}
						// Every goroutine may land the record it had already
						// measured when the kill came, and no more.
						if n := int64(len(sw.landed)); n < at || n >= at+int64(lanes*perLane) {
							t.Errorf("killed at record %d: %d records reached a sink", at, n)
						}
						mx := new(atomic.Int64)
						got, stats, prior, seen := resume(t, set.Base, mxCounter{CatalogResolver: catalog, mx: mx})
						if !maps.Equal(seen, sw.landed) {
							t.Errorf("killed at record %d: shards hold %d records, %d reached a sink before the cancel",
								at, len(seen), len(sw.landed))
						}
						check(t, fmt.Sprintf("killed at record %d, resumed as %s", at, other), got, stats, prior)
						domains := 0
						for key := range seen {
							if _, err := netip.ParseAddr(key); err != nil {
								domains++
							}
						}
						if int(mx.Load()) != nDomains-domains {
							t.Errorf("killed at record %d: resume measured %d domains, %d were not in a shard",
								at, mx.Load(), nDomains-domains)
						}
						// The resume's health covers what it measured: the
						// records it wrote, not those its shards held.
						counted := 0
						for _, n := range stats.Health.Domains {
							counted += n
						}
						if counted != stats.Domains || counted != nDomains-domains {
							t.Errorf("killed at record %d: resume's health counts %d domains, it wrote %d of the %d not in a shard",
								at, counted, stats.Domains, nDomains-domains)
						}
					})
				})
			}
		}
	}
}

// TestResumeShardsOfEitherLevel resumes a killed run whose shards a
// tree that deflated its spills left behind: the run's shards are
// re-gzipped at level 3, as such a tree wrote them, before the resume,
// which reads them where they lie beside its own stored spills and must
// commit the bytes of an uninterrupted run, a snapshot fsck passes.
func TestResumeShardsOfEitherLevel(t *testing.T) {
	s := session(t)
	ctx := context.Background()
	proto, err := s.NewCollector(world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	lay := layout{lanes: 2, perLane: 1, shards: true}
	fresh := dataset.NewShardSet(filepath.Join(t.TempDir(), "snap.jsonl.gz"), "2021-06", world.CorpusAlexa)
	want, stats, err := layoutRun{lay: lay, proto: proto, set: fresh}.commit(t, ctx, s)
	if err != nil {
		t.Fatal(err)
	}

	kctx, kill := context.WithCancel(ctx)
	defer kill()
	sw := &killSwitch{at: int64(stats.Domains+stats.IPs) / 2, kill: kill, landed: make(map[string]bool)}
	set := dataset.NewShardSet(filepath.Join(t.TempDir(), "snap.jsonl.gz"), "2021-06", world.CorpusAlexa)
	if _, _, err := (layoutRun{lay: lay, proto: proto, set: set, kill: sw}).commit(t, kctx, s); err != context.Canceled {
		t.Fatalf("killed at record %d: err = %v, want context.Canceled", sw.at, err)
	}
	left := set.Paths()
	if len(left) < 2 {
		t.Fatalf("killed at record %d: %d shards left, want several", sw.at, len(left))
	}
	for _, p := range left {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		var deflated bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&deflated, 3)
		if _, err := zw.Write(plain); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if deflated.Len() >= len(raw) {
			t.Fatalf("%s: %d bytes as spilled, %d deflated: the spill was not stored", p, len(raw), deflated.Len())
		}
		if err := os.WriteFile(p, deflated.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	resumed, prior, seen := resumeFrom(t, set.Base)
	if !maps.Equal(seen, sw.landed) {
		t.Errorf("the re-deflated shards hold %d records, %d reached a sink before the kill", len(seen), len(sw.landed))
	}
	got, _, err := layoutRun{lay: layout{lanes: 3, perLane: 1, shards: true}, proto: proto, prior: prior, set: resumed}.commit(t, ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resume over re-deflated shards committed %d bytes, an uninterrupted run %d", len(got), len(want))
	}
	r, err := dataset.Fsck(set.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean {
		t.Errorf("fsck of the resumed snapshot = %+v, want clean", r)
	}
}

// TestFleetCancelSpillsCompleted pins what a cancelled fleet leaves: its
// lanes' buffers spilled, so that its shards hold exactly the records
// completed before the cancel, each as an uninterrupted run measures
// it. With one worker the run is a sequence: the ^C lands as the
// middle domain's lookup starts, and the shards hold every domain
// before it and no address. With four, each other worker may finish
// the domain it was measuring.
func TestFleetCancelSpillsCompleted(t *testing.T) {
	s := session(t)
	targets, err := s.Targets(world.CorpusAlexa)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Snapshot(context.Background(), world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(ref.Domains))
	for i := range ref.Domains {
		want[ref.Domains[i].Domain] = domainLine(t, &ref.Domains[i])
	}
	proto, err := s.NewCollector(world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			base := filepath.Join(t.TempDir(), "snap.jsonl.gz")
			set := dataset.NewShardSet(base, "2021-06", world.CorpusAlexa)
			set.MaxBuffered = 1 << 20 // nothing spills before the cancel
			at := len(targets) / 2
			resolver := mxCounter{
				CatalogResolver: proto.Resolver.(dns.CatalogResolver),
				mx:              new(atomic.Int64), at: int64(at), hit: cancel,
			}
			_, err = CollectFleet(ctx, FleetConfig{
				Corpus:  world.CorpusAlexa,
				Date:    "2021-06",
				Workers: workers,
				NewCollector: func(int) (*Collector, error) {
					c := *proto
					c.Resolver = resolver
					return &c, nil
				},
				Output: set,
			}, targets)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n := len(set.Paths()); n == 0 || n > workers {
				t.Fatalf("cancelled fleet spilled %d shards, want 1 to %d", n, workers)
			}
			resumed, err := dataset.ResumeShardSet(base, "2021-06", world.CorpusAlexa)
			if err != nil {
				t.Fatal(err)
			}
			prior := shardRecords(t, resumed)
			if len(prior.IPs) != 0 {
				t.Errorf("cancelled in phase 1, the shards hold %d addresses", len(prior.IPs))
			}
			got := make(map[string]bool, len(prior.Domains))
			for i := range prior.Domains {
				d := &prior.Domains[i]
				got[d.Domain] = true
				if line := domainLine(t, d); line != want[d.Domain] {
					t.Errorf("spilled record differs from the uninterrupted run's:\n got  %s\n want %s", line, want[d.Domain])
				}
			}
			if workers == 1 {
				for i, tgt := range targets {
					if got[tgt.Name] != (i < at-1) {
						t.Errorf("target %d (%s): in a shard = %v, cancel came at target %d", i, tgt.Name, got[tgt.Name], at-1)
					}
				}
			} else if n := len(got); n < at-workers || n >= at+workers {
				t.Errorf("cancel at lookup %d: shards hold %d domains, want %d to %d", at, n, at-workers, at+workers-1)
			}
		})
	}
}

// domainLine is d's line in a snapshot file.
func domainLine(t *testing.T, d *dataset.DomainRecord) string {
	t.Helper()
	snap := dataset.NewSnapshot("2021-06", world.CorpusAlexa)
	snap.AddDomain(*d)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
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
