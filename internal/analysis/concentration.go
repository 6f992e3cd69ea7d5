package analysis

import "sort"

// Concentration quantifies the market consolidation the paper documents
// qualitatively: the Herfindahl–Hirschman Index and top-N concentration
// ratios over the company-level market shares of one snapshot.
type Concentration struct {
	// HHI is the Herfindahl–Hirschman Index on the 0–10,000 scale used
	// by competition authorities (sum of squared percentage shares).
	// Above 1,500 counts as moderately and above 2,500 as highly
	// concentrated.
	HHI float64
	// CR1, CR4 and CR8 are the combined shares (percent) of the largest
	// one, four and eight companies.
	CR1, CR4, CR8 float64
	// EffectiveCompanies is 10,000/HHI: the number of equal-sized
	// companies that would produce the same concentration.
	EffectiveCompanies float64
}

// concentrationFromCredits measures a market from its company credits,
// ShareAccumulator.Concentration's body. Self-hosted domains are
// excluded: each is its own "provider", so including them would dilute
// the index with thousands of singletons and mask the very
// consolidation being measured; the paper likewise plots self-hosting
// as a separate series.
func concentrationFromCredits(credits map[string]float64) Concentration {
	total := 0.0
	for company, c := range credits {
		if company != SelfHostedLabel {
			total += c
		}
	}
	var out Concentration
	if total == 0 {
		return out
	}
	shares := make([]float64, 0, len(credits))
	for company, c := range credits {
		if company != SelfHostedLabel {
			shares = append(shares, 100*c/total)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	for i, s := range shares {
		out.HHI += s * s
		if i < 1 {
			out.CR1 += s
		}
		if i < 4 {
			out.CR4 += s
		}
		if i < 8 {
			out.CR8 += s
		}
	}
	if out.HHI > 0 {
		out.EffectiveCompanies = 10000 / out.HHI
	}
	return out
}
