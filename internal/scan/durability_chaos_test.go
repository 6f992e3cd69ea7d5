package scan

// Kill-resume chaos tests for the durability layer (a fleet's shards as
// its checkpoint, read back by dataset.ResumeShardSet): a fleet
// collection over a fault-injected netsim fabric is interrupted at a
// randomized (seeded) lookup or dial — by a ^C, whose cancel spills
// every worker's buffer, or by a SIGKILL, which leaves only the shards
// committed by then and a spill cut short between write and rename —
// and the run is resumed with another worker count. The committed
// snapshot must be byte-identical to an uninterrupted run's and pass
// fsck, the cut spill must not be adopted, and the domains the shards
// hold must not be measured again. These run in the chaos tier
// (go test -race -run Chaos) and the durability tier.

import (
	"bytes"
	"context"
	"maps"
	"math/rand/v2"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/netsim"
	"mxmap/internal/smtp"
)

// buildDurabilityWorld assembles one chaos corpus: healthy hosts, a
// shared exchange, a retry-absorbable flaky host and flaky DNS, a dead
// host, an NXDOMAIN, and a scan-coverage blind spot.
func buildDurabilityWorld(t *testing.T) (*chaosWorld, netip.Addr) {
	t.Helper()
	w := &chaosWorld{net: netsim.New(), cat: dns.NewCatalog()}
	w.net.Seed(11)
	w.resolver = newChaosResolver(dns.CatalogResolver{Catalog: w.cat})

	for i, ip := range []string{"10.7.0.1", "10.7.0.2", "10.7.0.3", "10.7.0.4"} {
		name := []string{"alpha.test", "bravo.test", "charlie.test", "delta.test"}[i]
		w.addDomain(t, name, ip)
		w.startSMTP(t, ip, "mx."+name)
	}

	// Two domains sharing one exchange: resume must not re-resolve or
	// re-scan the shared infrastructure.
	shared := dns.NewZone("shared.test")
	shared.MustAdd(dns.RR{Name: "mx.shared.test.", Type: dns.TypeA, TTL: 1,
		Data: dns.AData{Addr: netip.MustParseAddr("10.7.0.5")}})
	w.cat.AddZone(shared)
	for _, name := range []string{"shared1.test", "shared2.test"} {
		z := dns.NewZone(name)
		z.MustAdd(dns.RR{Name: name + ".", Type: dns.TypeMX, TTL: 1,
			Data: dns.MXData{Preference: 10, Exchange: "mx.shared.test."}})
		w.cat.AddZone(z)
		w.targets = append(w.targets, Target{Name: name})
	}
	w.startSMTP(t, "10.7.0.5", "mx.shared.test")

	// Transient faults the retry machinery absorbs identically whether
	// or not a crash lands in the middle.
	w.addDomain(t, "flaky.test", "10.7.0.6")
	w.startSMTP(t, "10.7.0.6", "mx.flaky.test")
	w.net.SetFlaky(netip.MustParseAddr("10.7.0.6"), 2)
	w.addDomain(t, "dnsflaky.test", "10.7.0.7")
	w.startSMTP(t, "10.7.0.7", "mx.dnsflaky.test")
	w.resolver.plan("MX:dnsflaky.test", 1, context.DeadlineExceeded)

	// Permanent failures: classified, never healthy.
	w.addDomain(t, "noserver.test", "10.7.0.8")
	w.cat.AddZone(dns.NewZone("nxdomain.test"))
	w.targets = append(w.targets, Target{Name: "gone.nxdomain.test"})

	// Fine host, blind scanning service.
	uncovered := netip.MustParseAddr("10.7.0.9")
	w.addDomain(t, "uncovered.test", "10.7.0.9")
	w.startSMTP(t, "10.7.0.9", "mx.uncovered.test")

	return w, uncovered
}

// durabilityCollector builds the collector for one run over w.
func durabilityCollector(w *chaosWorld, uncovered netip.Addr) *Collector {
	return &Collector{
		Resolver:    w.resolver,
		Dialer:      w.net,
		Covered:     func(a netip.Addr) bool { return a != uncovered },
		Concurrency: 1, // Collect's baseline in target order, as a one-worker fleet runs
		ScanTimeout: 200 * time.Millisecond,
		Retry:       &RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	}
}

// tripwire is the crash switch of the kill-resume tests: it counts the
// MX lookups and SMTP dials that start, across every worker, and pulls
// kill as the at-th starts (at 0 never) — no sleeping, no racing a
// timer against the collection.
type tripwire struct {
	n    atomic.Int64
	at   int64
	kill func()
}

func (tw *tripwire) step() {
	if tw.n.Add(1) == tw.at {
		tw.kill()
	}
}

type trippedResolver struct {
	*chaosResolver
	tw *tripwire
}

func (r trippedResolver) LookupMX(ctx context.Context, domain string) ([]dns.MXData, error) {
	r.tw.step()
	return r.chaosResolver.LookupMX(ctx, domain)
}

type trippedDialer struct {
	smtp.Dialer
	tw *tripwire
}

func (d trippedDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	d.tw.step()
	return d.Dialer.DialContext(ctx, network, address)
}

// durabilityFleet collects w's targets with a fleet of workers into
// set, every worker's lookups and dials passing tw. A set from
// dataset.ResumeShardSet continues the run its shards hold.
func durabilityFleet(ctx context.Context, w *chaosWorld, uncovered netip.Addr, workers int, set *dataset.ShardSet, tw *tripwire) error {
	_, err := CollectFleet(ctx, FleetConfig{
		Corpus:  "chaos",
		Date:    "2021-06",
		Workers: workers,
		NewCollector: func(int) (*Collector, error) {
			c := durabilityCollector(w, uncovered)
			c.Resolver = trippedResolver{w.resolver, tw}
			c.Dialer = trippedDialer{w.net, tw}
			return c, nil
		},
		Output: set,
	}, w.targets)
	return err
}

// mxCounts is how often each target's MX has been looked up so far.
func mxCounts(w *chaosWorld) map[string]int {
	counts := make(map[string]int, len(w.targets))
	for _, t := range w.targets {
		counts[t.Name] = w.resolver.count("MX:" + t.Name)
	}
	return counts
}

// shardRecords reads the records of set's shards, in sequence order, as
// one snapshot: what a resume from set holds, as Merge will read it.
func shardRecords(t *testing.T, set *dataset.ShardSet) *dataset.Snapshot {
	t.Helper()
	held := dataset.NewSnapshot(set.Date, set.Corpus)
	for _, p := range set.Paths() {
		s, err := dataset.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		held.Domains = append(held.Domains, s.Domains...)
		maps.Copy(held.IPs, s.IPs)
	}
	return held
}

// snapshotBytes serializes a snapshot the way a committed file would be.
func snapshotBytes(t *testing.T, s *dataset.Snapshot) []byte {
	t.Helper()
	s.SortDomains()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChaosKillResumeByteIdentical(t *testing.T) {
	// Baseline: one uninterrupted collection, and the number of lookups
	// and dials a fleet makes on a fresh world.
	w, uncovered := buildDurabilityWorld(t)
	col := durabilityCollector(w, uncovered)
	base, err := col.Collect(context.Background(), "chaos", "2021-06", w.targets)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, base)
	w, uncovered = buildDurabilityWorld(t)
	counter := &tripwire{}
	set := dataset.NewShardSet(filepath.Join(t.TempDir(), "count.jsonl"), "2021-06", "chaos")
	if err := durabilityFleet(context.Background(), w, uncovered, 2, set, counter); err != nil {
		t.Fatal(err)
	}
	events := counter.n.Load()

	for seed := uint64(0); seed < 7; seed++ {
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
			dir := t.TempDir()
			out := filepath.Join(dir, "run.jsonl.gz")
			hard := seed%2 == 1 // SIGKILL, not ^C
			workers := 1 + rng.IntN(4)

			// Interrupted run: one world survives the "process crash"
			// (the simulated internet does not reboot with mxscan).
			w, uncovered := buildDurabilityWorld(t)
			set := dataset.NewShardSet(out, "2021-06", "chaos")
			set.MaxBuffered = 2 // spill as the run goes
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var committed []string // the shards on disk when the kill came
			abortAt := 1 + rng.Int64N(events-1)
			tw := &tripwire{at: abortAt, kill: func() { committed = set.Paths(); cancel() }}
			if err := durabilityFleet(ctx, w, uncovered, workers, set, tw); err != context.Canceled {
				t.Fatalf("interrupted fleet err = %v, want context.Canceled", err)
			}
			if hard {
				// A SIGKILL spills nothing: only the shards committed before
				// it survive, and the spill it cut short left its .tmp.
				for _, p := range set.Paths() {
					if !slices.Contains(committed, p) {
						if err := os.Remove(p); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			torn := dataset.ShardPath(out, 90) + ".tmp"
			if err := os.WriteFile(torn, []byte("\x1f\x8b\x08"), 0o644); err != nil {
				t.Fatal(err)
			}

			// Resume with another worker count: read the shards, skip
			// what they hold, finish the run.
			set2, err := dataset.ResumeShardSet(out, "2021-06", "chaos")
			if err != nil {
				t.Fatal(err)
			}
			prior := shardRecords(t, set2)
			if _, err := os.Stat(torn); !os.IsNotExist(err) {
				t.Errorf("resume left the cut spill %s in place: %v", torn, err)
			}
			before := mxCounts(w)
			if err := durabilityFleet(context.Background(), w, uncovered, workers%4+1, set2, &tripwire{}); err != nil {
				t.Fatal(err)
			}
			if _, err := dataset.Merge(out, set2.Paths()); err != nil {
				t.Fatal(err)
			}
			if err := set2.Remove(); err != nil {
				t.Fatal(err)
			}

			// The kill-resume guarantee: byte-identical to uninterrupted.
			snap, err := dataset.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotBytes(t, snap); !bytes.Equal(got, want) {
				t.Errorf("resumed snapshot differs from uninterrupted run (abort at event %d of %d, hard=%v, %d workers)",
					abortAt, events, hard, workers)
			}
			// Domains the shards held were not measured again.
			after := mxCounts(w)
			for _, d := range prior.Domains {
				if after[d.Domain] != before[d.Domain] {
					t.Errorf("%s was in a shard but looked up again on resume", d.Domain)
				}
			}
			if report, err := dataset.Fsck(out); err != nil || !report.Clean {
				t.Errorf("committed snapshot fsck = %+v, %v, want clean", report, err)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 1 {
				t.Errorf("after the commit the directory holds %v, want the snapshot alone", left)
			}
		})
	}
}

// TestChaosKillResumeGracefulShutdown pins the SIGINT path: a cancelled
// fleet spills only records completed before cancellation (no
// cancellation-poisoned classes frozen into a shard), leaves no
// unfinished spill behind, and a resume from its shards still converges
// to the uninterrupted result.
func TestChaosKillResumeGracefulShutdown(t *testing.T) {
	w, uncovered := buildDurabilityWorld(t)
	col := durabilityCollector(w, uncovered)
	base, err := col.Collect(context.Background(), "chaos", "2021-06", w.targets)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, base)

	dir := t.TempDir()
	out := filepath.Join(dir, "run.jsonl")
	w2, uncovered2 := buildDurabilityWorld(t)
	set := dataset.NewShardSet(out, "2021-06", "chaos")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The operator's ^C mid-phase-1, as the fourth domain's lookup starts.
	if err := durabilityFleet(ctx, w2, uncovered2, 1, set, &tripwire{at: 4, kill: cancel}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Errorf("graceful shutdown left unfinished spills: %v", tmp)
	}

	set2, err := dataset.ResumeShardSet(out, "2021-06", "chaos")
	if err != nil {
		t.Fatal(err)
	}
	prior := shardRecords(t, set2)
	// Nothing spilled after the cancellation point: a record finished
	// under a cancelled context is dropped, so exactly the 3 domains
	// before it (and none of the IPs, since phase 2 never ran) survived.
	if len(prior.Domains) != 3 || len(prior.IPs) != 0 {
		t.Errorf("shards hold %d domains and %d IPs, want exactly the 3 pre-cancel domains", len(prior.Domains), len(prior.IPs))
	}
	for i, d := range prior.Domains {
		if i < 3 && d.Domain != w2.targets[i].Name {
			t.Errorf("spilled domain %s is not target %d (%s)", d.Domain, i, w2.targets[i].Name)
		}
	}

	// Resume and converge.
	if err := durabilityFleet(context.Background(), w2, uncovered2, 3, set2, &tripwire{}); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Merge(out, set2.Paths()); err != nil {
		t.Fatal(err)
	}
	snap, err := dataset.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, snap); !bytes.Equal(got, want) {
		t.Error("resumed snapshot differs from uninterrupted run")
	}
}

// TestChaosResumeWrongJournal pins the guard rail: a run's leftover
// shards, its checkpoint, are refused to a resume of another (corpus,
// date).
func TestChaosResumeWrongJournal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.jsonl")
	set := dataset.NewShardSet(out, "2021-06", "alexa")
	w := set.NewWriter()
	if err := w.AddDomain(dataset.DomainRecord{Domain: "a.example"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.ResumeShardSet(out, "2021-12", "alexa"); err == nil ||
		!strings.Contains(err.Error(), "2021-12") {
		t.Errorf("wrong-date resume: %v", err)
	}
	if _, err := dataset.ResumeShardSet(out, "2021-06", "com"); err == nil {
		t.Errorf("wrong-corpus resume accepted")
	}
	set2, err := dataset.ResumeShardSet(out, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	if prior := shardRecords(t, set2); len(prior.Domains) != 1 {
		t.Errorf("own resume = %v; want the one domain", prior)
	}
}
