package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mxmap/internal/asn"
	"mxmap/internal/benchdata"
	"mxmap/internal/core"
	"mxmap/internal/psl"
)

// benchResult is one benchmark's entry in BENCH_infer.json.
type benchResult struct {
	Name       string  `json:"name"`
	N          int     `json:"n"`
	NsPerOp    float64 `json:"ns_per_op"`
	DomainsSec float64 `json:"domains_per_sec,omitempty"`
}

// runInferBench benchmarks the inference pipeline (serial vs parallel at
// two corpus scales) and the PSL registered-domain extraction (cold vs
// memoized), printing the results and writing them to BENCH_infer.json
// in outDir (or the working directory when outDir is empty).
func runInferBench(outDir string, parallelism int) error {
	profiles := benchProfiles()
	var results []benchResult

	add := func(name string, domains int, r testing.BenchmarkResult) {
		br := benchResult{Name: name, N: r.N, NsPerOp: float64(r.NsPerOp())}
		if domains > 0 && r.T > 0 {
			br.DomainsSec = float64(domains) * float64(r.N) / r.T.Seconds()
		}
		results = append(results, br)
		if domains > 0 {
			fmt.Printf("%-24s %12.0f ns/op %12.0f domains/sec\n", name, br.NsPerOp, br.DomainsSec)
		} else {
			fmt.Printf("%-24s %12.1f ns/op\n", name, br.NsPerOp)
		}
	}

	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("inference pipeline benchmarks (parallel variant: %d workers)\n", workers)
	for _, scale := range []int{2_000, 20_000} {
		snap := benchdata.Snapshot(scale)
		for _, mode := range []struct {
			label       string
			parallelism int
		}{
			{"serial", 1},
			{"parallel", parallelism},
		} {
			cfg := core.Config{Profiles: profiles, Parallelism: mode.parallelism}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.Infer(snap, core.ApproachPriority, cfg)
				}
			})
			add(fmt.Sprintf("infer_%s_%dk", mode.label, scale/1000), scale, r)
		}
	}

	hosts := pslBenchHosts()
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psl.Default.RegisteredDomain(hosts[i%len(hosts)])
		}
	})
	add("psl_cold", 0, cold)
	memo := psl.NewMemo(nil)
	memoized := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memo.RegisteredDomain(hosts[i%len(hosts)])
		}
	})
	add("psl_memoized", 0, memoized)

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	path := filepath.Join(outDir, "BENCH_infer.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchProfiles builds step-4 profiles for the benchmark world's
// providers, mirroring the patterns the equivalence tests use.
func benchProfiles() []core.ProviderProfile {
	var out []core.ProviderProfile
	for _, id := range benchdata.ProfileIDs() {
		out = append(out, core.ProviderProfile{
			ID:   id,
			ASNs: []asn.ASN{asn.ASN(benchdata.ProfileASN(id))},
			VPSPatterns: []string{
				"vps*." + id, "s*-*-*." + id,
			},
			DedicatedPatterns: []string{
				"mx*." + id, "mailstore*." + id,
			},
		})
	}
	return out
}

// pslBenchHosts mirrors inference traffic: a few popular exchanges
// dominating a long tail of per-domain hosts.
func pslBenchHosts() []string {
	hosts := make([]string, 512)
	for i := range hosts {
		switch {
		case i%4 == 0:
			hosts[i] = "mx1.bigmail-0.com"
		case i%4 == 1:
			hosts[i] = "mx2.secure-0.net"
		default:
			hosts[i] = "mail.customer-" + string(rune('a'+i%26)) + ".example.co.uk"
		}
	}
	return hosts
}
