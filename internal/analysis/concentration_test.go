package analysis

import (
	"math"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/world"
)

// fakeMarket folds attributions that credit the given providers with
// the given counts.
func fakeMarket(counts map[string]int) *ShareAccumulator {
	acc := NewShareAccumulator(nil)
	i := 0
	for id, n := range counts {
		for j := 0; j < n; j++ {
			acc.Add(core.DomainAttribution{
				Domain:  "d" + string(rune('a'+i)) + string(rune('a'+j%26)) + string(rune('a'+j/26)) + ".test",
				Credits: map[string]float64{id: 1},
			})
		}
		i++
	}
	return acc
}

func TestConcentrationMonopoly(t *testing.T) {
	c := fakeMarket(map[string]int{"mono.com": 50}).Concentration()
	if math.Abs(c.HHI-10000) > 1e-6 {
		t.Errorf("monopoly HHI = %f", c.HHI)
	}
	if math.Abs(c.CR1-100) > 1e-6 || math.Abs(c.EffectiveCompanies-1) > 1e-6 {
		t.Errorf("monopoly: %+v", c)
	}
}

func TestConcentrationEqualSplit(t *testing.T) {
	c := fakeMarket(map[string]int{"a.com": 10, "b.com": 10, "c.com": 10, "d.com": 10}).Concentration()
	if math.Abs(c.HHI-2500) > 1e-6 {
		t.Errorf("4-way HHI = %f", c.HHI)
	}
	if math.Abs(c.EffectiveCompanies-4) > 1e-6 {
		t.Errorf("effective companies = %f", c.EffectiveCompanies)
	}
	if math.Abs(c.CR4-100) > 1e-6 || math.Abs(c.CR1-25) > 1e-6 {
		t.Errorf("CRs: %+v", c)
	}
}

func TestConcentrationExcludesSelfHosted(t *testing.T) {
	acc := NewShareAccumulator(nil)
	acc.Add(core.DomainAttribution{Domain: "x.test", Credits: map[string]float64{"big.com": 1}})
	// Self-hosted: provider ID equals the domain's registered domain.
	acc.Add(core.DomainAttribution{Domain: "self.test", Credits: map[string]float64{"self.test": 1}})
	c := acc.Concentration()
	if math.Abs(c.HHI-10000) > 1e-6 {
		t.Errorf("self-hosted not excluded: HHI = %f", c.HHI)
	}
}

func TestConcentrationEmpty(t *testing.T) {
	c := NewShareAccumulator(nil).Concentration()
	if c.HHI != 0 || c.EffectiveCompanies != 0 {
		t.Errorf("empty result: %+v", c)
	}
}

// The consolidation headline: HHI over the measured world rises between
// the first and last snapshot, the quantitative form of the paper's
// centralization finding.
func TestConcentrationRisesOverStudy(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	first := shares(t, w, snaps[world.CorpusAlexa][dates[0]]).Concentration()
	last := shares(t, w, snaps[world.CorpusAlexa][dates[len(dates)-1]]).Concentration()
	if last.HHI <= first.HHI {
		t.Errorf("HHI did not rise: %.0f -> %.0f", first.HHI, last.HHI)
	}
	if first.HHI < 500 || first.HHI > 3000 {
		t.Errorf("implausible HHI %.0f", first.HHI)
	}
	t.Logf("HHI %.0f -> %.0f, CR4 %.1f%% -> %.1f%%, effective companies %.1f -> %.1f",
		first.HHI, last.HHI, first.CR4, last.CR4, first.EffectiveCompanies, last.EffectiveCompanies)
}
