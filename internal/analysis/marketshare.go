package analysis

import (
	"mxmap/internal/companies"
	"mxmap/internal/core"
)

// Segment is one of Figure 5's panels (Alexa 1k/10k/100k, federal vs
// other .gov): a filter in front of a ShareAccumulator. Add folds the
// attributions Include admits; the embedded accumulator's TopShares and
// Domains then rank and count the segment.
type Segment struct {
	// Name labels the segment ("Alexa Top 1k", "GOV federal", ...).
	Name string
	// Include filters domains; nil includes everything.
	Include func(att core.DomainAttribution) bool
	*ShareAccumulator
}

// NewSegment returns an empty segment bucketing providers through dir.
func NewSegment(name string, include func(core.DomainAttribution) bool, dir *companies.Directory) *Segment {
	return &Segment{Name: name, Include: include, ShareAccumulator: NewShareAccumulator(dir)}
}

// Add folds one attribution into the segment when Include admits it.
func (s *Segment) Add(att core.DomainAttribution) {
	if s.Include == nil || s.Include(att) {
		s.ShareAccumulator.Add(att)
	}
}

// RankAtMost selects Alexa domains with rank in [1, k].
func RankAtMost(k int) func(core.DomainAttribution) bool {
	return func(att core.DomainAttribution) bool { return att.Rank > 0 && att.Rank <= k }
}

// SelfHostedCount returns the (fractional) number of self-hosted domains
// an accumulator holds and their share of all its domains.
func SelfHostedCount(acc *ShareAccumulator) (float64, float64) {
	if acc.Domains() == 0 {
		return 0, 0
	}
	c := acc.Credits()[SelfHostedLabel]
	return c, 100 * c / float64(acc.Domains())
}
