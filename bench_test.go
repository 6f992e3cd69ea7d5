// Ablation benchmarks for the design choices called out in DESIGN.md,
// and the inference and PSL micro-benchmarks. Ablations report an
// "accuracy%" metric alongside timing so the quality impact of each
// design choice is visible in benchmark output.
package mxmap_test

import (
	"context"
	"sync"
	"testing"

	"mxmap/internal/analysis"
	"mxmap/internal/asn"
	"mxmap/internal/benchdata"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/experiments"
	"mxmap/internal/psl"
	"mxmap/internal/world"
)

// benchState shares one measured world across all benchmarks.
type benchState struct {
	study *experiments.Study
	snap  *dataset.Snapshot // alexa, most recent date
	truth map[string]string
}

var (
	benchOnce sync.Once
	bench     benchState
)

func benchSetup(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		study, err := experiments.NewStudy(world.Config{Seed: 17, Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		bench.study = study
		ctx := context.Background()
		path, err := study.File(ctx, world.CorpusAlexa, study.LastDate(world.CorpusAlexa))
		if err != nil {
			b.Fatal(err)
		}
		snap, err := dataset.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		bench.snap = snap
		corpus := study.World.Corpus(world.CorpusAlexa)
		dateIdx := corpus.DateIndex(study.LastDate(world.CorpusAlexa))
		bench.truth = make(map[string]string, len(corpus.Domains))
		for _, d := range corpus.Domains {
			t := study.World.TruthCompany(d, dateIdx)
			if t == d.Name {
				t = analysis.SelfHostedLabel
			}
			bench.truth[d.Name] = t
		}
	})
	if bench.study == nil {
		b.Fatal("bench setup failed")
	}
	return &bench
}

// accuracyOf grades one inference configuration against ground truth,
// over domains that really have mail service.
func accuracyOf(s *benchState, approach core.Approach, cfg core.Config) float64 {
	res := core.Infer(s.snap, approach, cfg)
	correct, total := 0, 0
	for _, att := range res.Domains {
		truth := s.truth[att.Domain]
		if truth == "" {
			continue
		}
		total++
		if analysis.CompanyOf(att.Domain, att.Primary(), s.study.World.Directory) == truth {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(correct) / float64(total)
}

// BenchmarkAblationFull is the reference point: the complete
// priority-based methodology.
func BenchmarkAblationFull(b *testing.B) {
	s := benchSetup(b)
	cfg := core.Config{Profiles: s.study.Profiles}
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = accuracyOf(s, core.ApproachPriority, cfg)
	}
	b.ReportMetric(acc, "accuracy%")
}

// BenchmarkAblationNoCertGrouping disables step 1's FQDN-overlap
// grouping (each certificate is its own identity).
func BenchmarkAblationNoCertGrouping(b *testing.B) {
	s := benchSetup(b)
	cfg := core.Config{Profiles: s.study.Profiles, DisableCertGrouping: true}
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = accuracyOf(s, core.ApproachPriority, cfg)
	}
	b.ReportMetric(acc, "accuracy%")
}

// BenchmarkAblationPriorityOrder swaps the cert-first priority for
// banner-first.
func BenchmarkAblationPriorityOrder(b *testing.B) {
	s := benchSetup(b)
	cfg := core.Config{Profiles: s.study.Profiles, PreferBannerOverCert: true}
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = accuracyOf(s, core.ApproachPriority, cfg)
	}
	b.ReportMetric(acc, "accuracy%")
}

// BenchmarkAblationNoStep4 disables the misidentification check.
func BenchmarkAblationNoStep4(b *testing.B) {
	s := benchSetup(b)
	cfg := core.Config{} // no profiles: step 4 cannot run
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = accuracyOf(s, core.ApproachPriority, cfg)
	}
	b.ReportMetric(acc, "accuracy%")
}

// BenchmarkAblationStrictBannerAgreement requires banner and EHLO to
// agree before deriving an identity (the strict Figure 3 reading).
func BenchmarkAblationStrictBannerAgreement(b *testing.B) {
	s := benchSetup(b)
	cfg := core.Config{Profiles: s.study.Profiles, RequireBannerEHLOAgreement: true}
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = accuracyOf(s, core.ApproachPriority, cfg)
	}
	b.ReportMetric(acc, "accuracy%")
}

// --- Inference pipeline benchmarks -----------------------------------
//
// BenchmarkInferSerial*/BenchmarkInferParallel* measure the five-step
// methodology end to end on a synthetic corpus (internal/benchdata) at
// two scales. The serial variants pin Parallelism to 1; the parallel
// variants use the GOMAXPROCS default, so comparing the pair on a
// multi-core machine shows the worker-pool speedup while single-core
// machines show the two are equivalent. Both report domains/sec.

func benchdataProfiles() []core.ProviderProfile {
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

func benchmarkInfer(b *testing.B, nDomains, parallelism int) {
	snap := benchdata.Snapshot(nDomains)
	cfg := core.Config{Profiles: benchdataProfiles(), Parallelism: parallelism}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Infer(snap, core.ApproachPriority, cfg)
	}
	b.ReportMetric(float64(nDomains)*float64(b.N)/b.Elapsed().Seconds(), "domains/sec")
}

func BenchmarkInferSerial2k(b *testing.B)    { benchmarkInfer(b, 2_000, 1) }
func BenchmarkInferParallel2k(b *testing.B)  { benchmarkInfer(b, 2_000, 0) }
func BenchmarkInferSerial20k(b *testing.B)   { benchmarkInfer(b, 20_000, 1) }
func BenchmarkInferParallel20k(b *testing.B) { benchmarkInfer(b, 20_000, 0) }

// BenchmarkPSLRegisteredDomain compares cold PSL suffix matching against
// the sharded memo that the inference pipeline threads through its hot
// paths. The host mix mirrors inference traffic: a handful of popular
// exchange names dominating a long tail of per-domain hosts.
func benchmarkPSL(b *testing.B, lookup func(host string) (string, bool)) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(hosts[i%len(hosts)])
	}
}

func BenchmarkPSLRegisteredDomainCold(b *testing.B) {
	benchmarkPSL(b, psl.Default.RegisteredDomain)
}

func BenchmarkPSLRegisteredDomainMemoized(b *testing.B) {
	memo := psl.NewMemo(nil)
	benchmarkPSL(b, memo.RegisteredDomain)
}
