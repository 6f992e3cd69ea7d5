package scan

// Kill-resume chaos tests for the durability layer (write-ahead journal
// + Prior/Seen): a collection run over a fault-injected netsim fabric is
// aborted at randomized (seeded) journal offsets — simulating SIGKILL —
// the journal's tail is torn mid-frame — simulating a crash between
// write and fsync — and the run is resumed. The committed snapshot must
// be byte-identical to an uninterrupted run's, fsck must call the torn
// journal recoverable and the committed snapshot clean, and resumed
// domains must not be re-measured. These run in the chaos tier
// (go test -race -run Chaos) and the durability tier.

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/netsim"
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
		Concurrency: 1, // deterministic journal order: domains in target order, then sorted IPs
		ScanTimeout: 200 * time.Millisecond,
		Retry:       &RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	}
}

// killJournal is the crash switch of the kill-resume tests: it passes
// appends through and, once the at-th one (counted across every lane
// sharing n) has landed, pulls kill — no sleeping, no racing a timer
// against the collection.
type killJournal struct {
	Journal
	n    *atomic.Int64
	at   int64
	kill func()
}

func (k *killJournal) landed(err error) error {
	if k.n.Add(1) == k.at {
		k.kill()
	}
	return err
}

func (k *killJournal) AddDomain(d *dataset.DomainRecord) error {
	return k.landed(k.Journal.AddDomain(d))
}

func (k *killJournal) AddIP(info *dataset.IPInfo) error {
	return k.landed(k.Journal.AddIP(info))
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
	// Baseline: one uninterrupted collection.
	w, uncovered := buildDurabilityWorld(t)
	col := durabilityCollector(w, uncovered)
	base, err := col.Collect(context.Background(), "chaos", "2021-06", w.targets)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, base)
	totalEntries := len(w.targets) + len(base.IPs)

	dir := t.TempDir()
	for seed := uint64(0); seed < 7; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
			journal := filepath.Join(dir, "run.waj")

			// Interrupted run: one world survives the "process crash"
			// (the simulated internet does not reboot with mxscan).
			w, uncovered := buildDurabilityWorld(t)
			jr, err := dataset.CreateJournal(journal, "2021-06", "chaos")
			if err != nil {
				t.Fatal(err)
			}
			jr.SyncEvery = 4
			ctx, cancel := context.WithCancel(context.Background())
			abortAt := 1 + rng.IntN(totalEntries-1)
			col := durabilityCollector(w, uncovered)
			// SIGKILL moment: nothing after entry abortAt is journaled.
			col.Journal = &killJournal{Journal: jr, n: new(atomic.Int64), at: int64(abortAt), kill: cancel}
			if _, err := col.Collect(ctx, "chaos", "2021-06", w.targets); err != context.Canceled {
				t.Fatalf("aborted Collect err = %v, want context.Canceled", err)
			}
			cancel()
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}

			// Tear the tail mid-frame (1-6 bytes is always inside the
			// final frame): the crash landed between write and fsync.
			fi, err := os.Stat(journal)
			if err != nil {
				t.Fatal(err)
			}
			tear := int64(1 + rng.IntN(6))
			if err := os.Truncate(journal, fi.Size()-tear); err != nil {
				t.Fatal(err)
			}

			// fsck must call the torn journal recoverable, not clean.
			report, err := dataset.Fsck(journal)
			if err != nil {
				t.Fatal(err)
			}
			if report.Kind != "journal" || report.Clean || !report.Recoverable {
				t.Fatalf("torn journal fsck = %+v, want recoverable", report)
			}

			// Resume: recover, skip journaled work, finish the run.
			jr2, rec, err := dataset.ResumeJournal(journal, "2021-06", "chaos")
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Truncated {
				t.Error("recovery did not notice the torn tail")
			}
			col2 := durabilityCollector(w, uncovered)
			col2.Journal = jr2
			col2.Prior, col2.Seen = rec.Snapshot, rec.Seen
			snap, err := col2.Collect(context.Background(), "chaos", "2021-06", w.targets)
			if err != nil {
				t.Fatal(err)
			}
			if err := jr2.Close(); err != nil {
				t.Fatal(err)
			}

			// The kill-resume guarantee: byte-identical to uninterrupted.
			got := snapshotBytes(t, snap)
			if !bytes.Equal(got, want) {
				t.Errorf("resumed snapshot differs from uninterrupted run (abort at entry %d, tear %d bytes)",
					abortAt, tear)
			}

			// Journaled domains were not re-measured: the first target
			// completes before any abort (Concurrency=1), and its MX
			// lookup must have run exactly once across both runs.
			if first := w.targets[0].Name; rec.Seen[first] {
				if got := w.resolver.count("MX:" + first); got != 1 {
					t.Errorf("%s journaled but looked up %d times", first, got)
				}
			}

			// The re-journaled run is now fully intact.
			report, err = dataset.Fsck(journal)
			if err != nil {
				t.Fatal(err)
			}
			if !report.Clean {
				t.Errorf("journal after resumed run not clean: %+v", report)
			}
			if err := os.Remove(journal); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Commit the baseline and fsck it: a committed snapshot is clean.
	for _, name := range []string{"final.jsonl", "final.jsonl.gz"} {
		path := filepath.Join(dir, name)
		if err := dataset.WriteFile(path, base); err != nil {
			t.Fatal(err)
		}
		report, err := dataset.Fsck(path)
		if err != nil {
			t.Fatal(err)
		}
		if report.Kind != "snapshot" || !report.Clean {
			t.Errorf("committed snapshot fsck = %+v, want clean", report)
		}
	}
}

// TestChaosKillResumeGracefulShutdown pins the SIGINT path: a cancelled
// run journals only records completed before cancellation (no
// cancellation-poisoned classes frozen into the journal), and a resume
// from that journal still converges to the uninterrupted result.
func TestChaosKillResumeGracefulShutdown(t *testing.T) {
	w, uncovered := buildDurabilityWorld(t)
	col := durabilityCollector(w, uncovered)
	base, err := col.Collect(context.Background(), "chaos", "2021-06", w.targets)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, base)

	journal := filepath.Join(t.TempDir(), "run.waj")
	w2, uncovered2 := buildDurabilityWorld(t)
	jr, err := dataset.CreateJournal(journal, "2021-06", "chaos")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	col2 := durabilityCollector(w2, uncovered2)
	// The operator's ^C mid-phase-1.
	col2.Journal = &killJournal{Journal: jr, n: new(atomic.Int64), at: 3, kill: cancel}
	if _, err := col2.Collect(ctx, "chaos", "2021-06", w2.targets); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancel()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := dataset.RecoverJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Errorf("graceful shutdown left a torn journal: %s", rec.Reason)
	}
	// Nothing journaled after the cancellation point: a record finished
	// under a cancelled context is dropped, so exactly 3 domain entries
	// (and none of the IPs, since phase 2 never ran) survived.
	if rec.Entries != 3 {
		t.Errorf("journal holds %d entries, want exactly the 3 pre-cancel domains", rec.Entries)
	}
	for name := range rec.Seen {
		found := false
		for _, tgt := range w2.targets[:4] {
			if tgt.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("journaled domain %s is not among the first targets", name)
		}
	}

	// Resume and converge.
	jr2, rec2, err := dataset.ResumeJournal(journal, "2021-06", "chaos")
	if err != nil {
		t.Fatal(err)
	}
	col3 := durabilityCollector(w2, uncovered2)
	col3.Journal = jr2
	col3.Prior, col3.Seen = rec2.Snapshot, rec2.Seen
	snap, err := col3.Collect(context.Background(), "chaos", "2021-06", w2.targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotBytes(t, snap); !bytes.Equal(got, want) {
		t.Error("resumed snapshot differs from uninterrupted run")
	}
}

// TestChaosResumeWrongJournal pins the guard rails: resuming a journal
// from a different (corpus, date) refuses, and a snapshot file is not
// accepted as a journal.
func TestChaosResumeWrongJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.waj")
	jr, err := dataset.CreateJournal(journal, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dataset.ResumeJournal(journal, "2021-12", "alexa"); err == nil ||
		!strings.Contains(err.Error(), "2021-12") {
		t.Errorf("wrong-date resume: %v", err)
	}
	if _, _, err := dataset.ResumeJournal(journal, "2021-06", "com"); err == nil {
		t.Errorf("wrong-corpus resume accepted")
	}
}
