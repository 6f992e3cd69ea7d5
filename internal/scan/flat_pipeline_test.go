package scan

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/world"
)

// flatFleetCollect runs the full scale pipeline — flat world, worker
// fleet, external merge — and returns the merged snapshot path.
func flatFleetCollect(t testing.TB, fw *world.FlatWorld, dir string, workers, maxBuffered int) (string, *FleetStats) {
	t.Helper()
	set := dataset.NewShardSet(filepath.Join(dir, "flat.jsonl.gz"), "2021-06", fw.Cfg.Corpus)
	if maxBuffered > 0 {
		set.MaxBuffered = maxBuffered
	}
	targets := make([]Target, fw.NumDomains())
	for i := range targets {
		targets[i] = Target{Name: fw.DomainName(i)}
	}
	stats, err := CollectFleet(context.Background(), FleetConfig{
		Corpus:  fw.Cfg.Corpus,
		Date:    "2021-06",
		Workers: workers,
		NewCollector: func(int) (*Collector, error) {
			return &Collector{
				Resolver:   fw.Resolver(),
				Dialer:     fw.Dialer(),
				Trust:      fw.Trust,
				Prefixes:   fw.Prefixes,
				ASRegistry: fw.ASRegistry,
				Parked:     fw.Parked,
			}, nil
		},
		Output: set,
	}, targets)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "flat.merged.jsonl.gz")
	if _, err := dataset.Merge(out, set.Paths()); err != nil {
		t.Fatal(err)
	}
	for _, p := range set.Paths() {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	return out, stats
}

// TestFlatPipeline runs 5k flat domains through the whole scale stack —
// fleet collection, shard merge, streaming inference, streaming share
// accumulation — and checks the answers against ground truth.
func TestFlatPipeline(t *testing.T) {
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: 3, NumDomains: 5000})
	if err != nil {
		t.Fatal(err)
	}
	out, stats := flatFleetCollect(t, fw, t.TempDir(), 4, 256)
	if stats.Domains != fw.NumDomains() {
		t.Fatalf("collected %d domains, want %d", stats.Domains, fw.NumDomains())
	}

	var healthDomains int
	for _, n := range stats.Health.Domains {
		healthDomains += n
	}
	if healthDomains != fw.NumDomains() {
		t.Fatalf("health counts %d domains, want %d", healthDomains, fw.NumDomains())
	}

	st, err := dataset.OpenStream(out)
	if err != nil {
		t.Fatal(err)
	}

	acc := analysis.NewShareAccumulator(fw.Directory)
	res, err := core.InferStream(st, core.ApproachMXOnly, core.Config{Parallelism: 4}, acc.Add)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDomains != fw.NumDomains() {
		t.Fatalf("inferred %d domains, want %d", res.NumDomains, fw.NumDomains())
	}

	// MX-name attribution on explicit-MX infrastructure should be nearly
	// exact: check a sample of domains against ground truth.
	truth := make(map[string]string, fw.NumDomains())
	for i := 0; i < fw.NumDomains(); i++ {
		truth[fw.DomainName(i)] = fw.TruthCompany(i)
	}
	checked, correct := 0, 0
	st2, err := dataset.OpenStream(out)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.InferStream(st2, core.ApproachMXOnly, core.Config{Parallelism: 4}, func(att core.DomainAttribution) {
		want := truth[att.Domain]
		if want == "" {
			return // no mail service: skip, like the paper's evaluation
		}
		checked++
		got := ""
		for id := range att.Credits {
			got = analysis.CompanyOf(att.Domain, id, fw.Directory)
		}
		if got == want || (want == att.Domain && got == analysis.SelfHostedLabel) {
			correct++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumDomains != res.NumDomains {
		t.Fatalf("second stream pass saw %d domains", res2.NumDomains)
	}
	if checked == 0 || float64(correct)/float64(checked) < 0.95 {
		t.Fatalf("MX-name attribution correct on %d/%d domains", correct, checked)
	}

	// The accumulated market has the calibrated shape: GoDaddy leads.
	shares := acc.TopShares(3)
	if len(shares) == 0 || shares[0].Company != "GoDaddy" {
		t.Fatalf("top shares = %+v, want GoDaddy first", shares)
	}
}

// TestFlatScale is the acceptance run: a large flat corpus collected by
// a 4-worker fleet and inferred end-to-end while the heap stays far
// below the materialized dataset size. Gated behind MXMAP_SCALE_DOMAINS
// (e.g. 100000 or 1000000) because the full million takes minutes.
func TestFlatScale(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("MXMAP_SCALE_DOMAINS"))
	if n <= 0 {
		t.Skip("set MXMAP_SCALE_DOMAINS to run the scale test")
	}
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: 3, NumDomains: n})
	if err != nil {
		t.Fatal(err)
	}
	out, stats := flatFleetCollect(t, fw, t.TempDir(), 4, 0)
	if stats.Domains != n {
		t.Fatalf("collected %d domains, want %d", stats.Domains, n)
	}
	t.Logf("fleet: %+v", stats)

	st, err := dataset.OpenStream(out)
	if err != nil {
		t.Fatal(err)
	}
	acc := analysis.NewShareAccumulator(fw.Directory)
	res, err := core.InferStream(st, core.ApproachMXOnly, core.Config{Parallelism: 4}, acc.Add)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDomains != n {
		t.Fatalf("inferred %d domains, want %d", res.NumDomains, n)
	}

	// The bound: materializing n domain records costs hundreds of bytes
	// each (the 1M corpus is several hundred MB as structs); the
	// streaming pipeline must hold only the IP/exchange populations.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	budget := uint64(256 << 20)
	if ms.HeapAlloc > budget {
		t.Fatalf("heap after streaming inference = %d MiB, budget %d MiB",
			ms.HeapAlloc>>20, budget>>20)
	}
	t.Logf("domains=%d heap=%d MiB shares=%s", n, ms.HeapAlloc>>20, fmt.Sprint(acc.TopShares(3)))
}
