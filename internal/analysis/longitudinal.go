package analysis

// Longitudinal holds per-company market-share series over a corpus's
// snapshots, each point a percentage of its snapshot's domains — the
// data behind one panel of Figure 6.
type Longitudinal struct {
	series map[string][]float64
}

// NewLongitudinal prepares an empty collection.
func NewLongitudinal() *Longitudinal {
	return &Longitudinal{series: make(map[string][]float64)}
}

// Add ingests one date's accumulator, fed every attribution of that
// date's snapshot, tracking the named companies plus the self-hosted
// bucket, the combined top-N total ("TopN Total", when topN > 0) and
// the tracked companies' total ("Tracked Total"). Call once per date,
// in date order.
func (l *Longitudinal) Add(acc *ShareAccumulator, track []string, topN int) {
	credits, total := acc.Credits(), acc.Domains()
	add := func(series string, c float64) {
		pct := 0.0
		if total > 0 {
			pct = 100 * c / float64(total)
		}
		l.series[series] = append(l.series[series], pct)
	}
	tracked := 0.0
	for _, name := range track {
		add(name, credits[name])
		tracked += credits[name]
	}
	add(SelfHostedLabel, credits[SelfHostedLabel])
	if topN > 0 {
		topTotal := 0.0
		for _, s := range TopShares(credits, max(total, 1), topN) {
			topTotal += s.Domains
		}
		add("TopN Total", topTotal)
	}
	add("Tracked Total", tracked)
}

// Get returns one series: a company's, or a total's.
func (l *Longitudinal) Get(series string) []float64 { return l.series[series] }
