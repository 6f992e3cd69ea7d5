package analysis

import (
	"mxmap/internal/companies"
	"mxmap/internal/core"
)

// ShareAccumulator folds per-domain attributions into company-level
// market shares one at a time, so analyses ride along a
// core.InferStream emit callback without ever materializing the
// attribution list. Its Add is the one place a domain's credits become
// company buckets: Figure 5's segments, Figure 6's dates, Figure 8's
// ccTLDs, Table 6, the concentration metrics, the self-hosted count and
// Figure 7's Top100 set all read an accumulator.
//
// Not safe for concurrent use; InferStream emits sequentially.
type ShareAccumulator struct {
	dir     *companies.Directory
	credits map[string]float64
	domains int
}

// NewShareAccumulator returns an empty accumulator bucketing providers
// through dir (which may be nil to keep raw provider IDs).
func NewShareAccumulator(dir *companies.Directory) *ShareAccumulator {
	return &ShareAccumulator{dir: dir, credits: make(map[string]float64)}
}

// Add folds one domain's split credits into the running totals.
func (a *ShareAccumulator) Add(att core.DomainAttribution) {
	a.domains++
	for id, credit := range att.Credits {
		a.credits[CompanyOf(att.Domain, id, a.dir)] += credit
	}
}

// Domains reports how many attributions have been folded in.
func (a *ShareAccumulator) Domains() int { return a.domains }

// Credits exposes the accumulated per-company totals. The map is live —
// callers must not mutate it while still adding.
func (a *ShareAccumulator) Credits() map[string]float64 { return a.credits }

// TopShares ranks the accumulated credits like the package-level
// TopShares, using the accumulated domain count as the denominator.
func (a *ShareAccumulator) TopShares(n int) []Share {
	return TopShares(a.credits, a.domains, n)
}

// Concentration measures the accumulated market, excluding the
// self-hosted bucket (see Concentration).
func (a *ShareAccumulator) Concentration() Concentration {
	return concentrationFromCredits(a.credits)
}
