package scan

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"mxmap/internal/dataset"
	"mxmap/internal/world"
)

// flatCollectWork is scan-flat's collect: a flat world with a 2 %
// adversarial band, every domain a target, collected by a fleet into
// shards that are removed unread.
type flatCollectWork struct {
	fw      *world.FlatWorld
	targets []Target
	dir     string
	workers int
}

func newFlatCollectWork(tb testing.TB, n, workers int) *flatCollectWork {
	tb.Helper()
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: 1, NumDomains: n, AdversarialPercent: 2})
	if err != nil {
		tb.Fatal(err)
	}
	targets := make([]Target, n)
	for i := range targets {
		targets[i] = Target{Name: fw.DomainName(i)}
	}
	return &flatCollectWork{fw: fw, targets: targets, dir: tb.TempDir(), workers: workers}
}

// collect runs one fleet collect and removes its shards.
func (w *flatCollectWork) collect(tb testing.TB) {
	set := dataset.NewShardSet(filepath.Join(w.dir, "flat.jsonl.gz"), "2021-06", w.fw.Cfg.Corpus)
	stats, err := CollectFleet(context.Background(), FleetConfig{
		Corpus:  w.fw.Cfg.Corpus,
		Date:    "2021-06",
		Workers: w.workers,
		NewCollector: func(int) (*Collector, error) {
			return &Collector{
				Resolver:   w.fw.Resolver(),
				Dialer:     w.fw.Dialer(),
				Trust:      w.fw.Trust,
				Prefixes:   w.fw.Prefixes,
				ASRegistry: w.fw.ASRegistry,
				Parked:     w.fw.Parked,
			}, nil
		},
		Output: set,
	}, w.targets)
	if rerr := set.Remove(); err == nil {
		err = rerr
	}
	if err != nil {
		tb.Fatal(err)
	}
	if stats.Domains != len(w.targets) {
		tb.Fatalf("collected %d domains, want %d", stats.Domains, len(w.targets))
	}
}

// BenchmarkFleetCollectFlat is the work counter of scan-flat's collect:
// 20 000 flat domains on two lanes, reported per domain.
func BenchmarkFleetCollectFlat(b *testing.B) {
	const n = 20_000
	w := newFlatCollectWork(b, n, 2)
	w.collect(b) // the first collect fills the pools the spills draw from
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.collect(b)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	domains := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/domains, "ns/domain")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/domains, "allocs/domain")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/domains, "B/domain")
}

// TestFleetCollectAllocsPerDomain holds a flat fleet collect's
// allocations per domain under a ceiling: 2 000 domains on two lanes.
// The ceiling is the measured count plus a tenth, so an allocation a
// domain or a session gains back shows here.
func TestFleetCollectAllocsPerDomain(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 2000
	w := newFlatCollectWork(t, n, 2)
	allocs := testing.AllocsPerRun(3, func() { w.collect(t) })
	perDomain := allocs / n
	t.Logf("%.3f allocs/domain", perDomain)
	if perDomain > allocsPerDomainCeiling {
		t.Errorf("flat fleet collect allocates %.2f objects/domain (%.0f for %d domains), ceiling %.2f",
			perDomain, allocs, n, allocsPerDomainCeiling)
	}
}

// allocsPerDomainCeiling is TestFleetCollectAllocsPerDomain's bound:
// 55.7 measured (go1.24, linux/amd64), plus a tenth. At 2 000 domains
// the world's ~90 STARTTLS sessions are most of it; a domain alone
// costs under eight (BenchmarkFleetCollectFlat).
const allocsPerDomainCeiling = 61.3
