package analysis

import (
	"fmt"
	"slices"
	"sort"

	"mxmap/internal/companies"
	"mxmap/internal/core"
)

// OthersLabel buckets providers outside the named categories in churn
// analysis.
const OthersLabel = "Others"

// Top100Label buckets providers ranked within the top 100 but not named
// individually.
const Top100Label = "Top100"

// churnBucket is the company bucket of a domain's primary provider, or
// NoSMTPLabel when the domain has no responding SMTP server or no
// provider.
func churnBucket(att core.DomainAttribution, dir *companies.Directory) string {
	primary := att.Primary()
	if !att.HasSMTP || primary == "" {
		return NoSMTPLabel
	}
	return CompanyOf(att.Domain, primary, dir)
}

// ChurnFlow is one cell of the Sankey: the number of domains that were in
// From at the first snapshot and in To at the last.
type ChurnFlow struct {
	From, To string
	Count    int
}

// Churn is the full flow matrix between two snapshots.
type Churn struct {
	// Categories lists category labels in display order.
	Categories []string
	// Flows holds every non-zero flow.
	Flows []ChurnFlow
}

// ChurnJoin folds Figure 7 from the first and the last snapshot of one
// corpus, each fed in emit order. Both snapshots walk the corpus's one
// target list, and canonical files are sorted, so the two streams list
// the same domains in the same order and the join is a merge: each side
// is held as one (domain, bucket) pair per domain, Churn walks the two
// in step, and a domain on one side only is an error. The named
// companies (e.g. Google, Microsoft, Yandex for Alexa) get their own
// categories; the next companies up to rank 100 of the first snapshot
// become Top100.
//
// The two sides are fed independently: AddFirst and AddLast each touch
// only their own side, so the two snapshots' passes may run in either
// order or at the same time. Neither is safe for concurrent use with
// itself.
type ChurnJoin struct {
	dir         *companies.Directory
	named       []string
	shares      *ShareAccumulator // the first snapshot's market
	first, last []churnEntry
}

type churnEntry struct{ domain, bucket string }

// NewChurnJoin returns an empty join bucketing providers through dir.
func NewChurnJoin(dir *companies.Directory, named []string) *ChurnJoin {
	// Clipped, so the appends below copy named instead of writing past it.
	return &ChurnJoin{dir: dir, named: slices.Clip(named), shares: NewShareAccumulator(dir)}
}

// AddFirst folds one attribution of the first snapshot.
func (j *ChurnJoin) AddFirst(att core.DomainAttribution) {
	j.shares.Add(att)
	j.first = append(j.first, churnEntry{att.Domain, churnBucket(att, j.dir)})
}

// AddLast folds one attribution of the last snapshot.
func (j *ChurnJoin) AddLast(att core.DomainAttribution) {
	j.last = append(j.last, churnEntry{att.Domain, churnBucket(att, j.dir)})
}

// Churn joins the two sides and returns the flow matrix, or the error
// of a join whose two streams did not list the same domains in the same
// order.
func (j *ChurnJoin) Churn() (*Churn, error) {
	cats := make(map[string]string) // bucket → category; Others when absent
	for _, s := range j.shares.TopShares(100) {
		cats[s.Company] = Top100Label
	}
	for _, c := range append(j.named, SelfHostedLabel, NoSMTPLabel) {
		cats[c] = c
	}
	category := func(bucket string) string {
		if c, ok := cats[bucket]; ok {
			return c
		}
		return OthersLabel
	}
	counts := make(map[[2]string]int)
	for i := range max(len(j.first), len(j.last)) {
		switch {
		case i == len(j.last):
			return nil, fmt.Errorf("analysis: churn: the last snapshot lacks the first's domain %d, %s", i, j.first[i].domain)
		case i == len(j.first) || j.first[i].domain != j.last[i].domain:
			return nil, fmt.Errorf("analysis: churn: the last snapshot's domain %d is %s, not the first's", i, j.last[i].domain)
		}
		counts[[2]string{category(j.first[i].bucket), category(j.last[i].bucket)}]++
	}
	ch := &Churn{Categories: append(j.named, Top100Label, SelfHostedLabel, OthersLabel, NoSMTPLabel)}
	for pair, n := range counts {
		ch.Flows = append(ch.Flows, ChurnFlow{From: pair[0], To: pair[1], Count: n})
	}
	sort.Slice(ch.Flows, func(i, j int) bool {
		if ch.Flows[i].From != ch.Flows[j].From {
			return ch.Flows[i].From < ch.Flows[j].From
		}
		return ch.Flows[i].To < ch.Flows[j].To
	})
	return ch, nil
}

// Outflow sums domains leaving a category (excluding those that stayed).
func (c *Churn) Outflow(from string) int {
	n := 0
	for _, f := range c.Flows {
		if f.From == from && f.To != from {
			n += f.Count
		}
	}
	return n
}

// Flow returns the count moving from one category to another.
func (c *Churn) Flow(from, to string) int {
	for _, f := range c.Flows {
		if f.From == from && f.To == to {
			return f.Count
		}
	}
	return 0
}

// Stayed returns the count that remained in the category.
func (c *Churn) Stayed(cat string) int { return c.Flow(cat, cat) }

// Inflow sums domains arriving into a category from elsewhere.
func (c *Churn) Inflow(to string) int {
	n := 0
	for _, f := range c.Flows {
		if f.To == to && f.From != to {
			n += f.Count
		}
	}
	return n
}

// Summary is the §5.3-style per-category accounting of a churn matrix.
type Summary struct {
	// Category is the provider bucket.
	Category string
	// Start and End are the category's sizes at the two snapshots.
	Start, End int
	// Stayed, Left and Arrived decompose the change.
	Stayed, Left, Arrived int
}

// Summarize produces one row per category.
func (c *Churn) Summarize() []Summary {
	out := make([]Summary, 0, len(c.Categories))
	for _, cat := range c.Categories {
		s := Summary{
			Category: cat,
			Stayed:   c.Stayed(cat),
			Left:     c.Outflow(cat),
			Arrived:  c.Inflow(cat),
		}
		s.Start = s.Stayed + s.Left
		s.End = s.Stayed + s.Arrived
		out = append(out, s)
	}
	return out
}
