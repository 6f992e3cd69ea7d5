package experiments

import (
	"context"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/parallel"
)

// Plan is what one or more artifacts need of each (corpus, date)
// snapshot file, gathered before any of it runs: the folds of the key's
// one priority pass, and reads of the file of their own (Figure 4's
// four-approach grading, Table 4's breakdown). Each artifact method
// (Fig4, Table4, …) registers its work and returns what renders the
// artifact once Run has returned without error; Run then collects each
// key once and runs one priority pass per key over every fold
// registered for it, so a plan of every artifact makes one study pass
// per distinct key. The Study's artifact methods each run a plan of one
// artifact.
//
// A fold or read touches only state of its own key: keys run at the
// same time, and a key's folds are called in registration order, one
// record at a time.
type Plan struct {
	s    *Study
	keys []corpusDate // in registration order
	work map[corpusDate]*keyWork
}

// keyWork is what a plan asks of one key.
type keyWork struct {
	reads []func(dataset.Source) error
	folds []func(*dataset.DomainRecord, core.DomainAttribution)
	// shares is the key's market, one accumulator however many
	// artifacts read it.
	shares *analysis.ShareAccumulator
}

// NewPlan returns an empty plan over the study's files.
func (s *Study) NewPlan() *Plan {
	return &Plan{s: s, work: make(map[corpusDate]*keyWork)}
}

// at returns the work of one key, registering the key on first use.
func (p *Plan) at(corpus, date string) *keyWork {
	k := corpusDate{corpus, date}
	w := p.work[k]
	if w == nil {
		w = &keyWork{}
		p.work[k] = w
		p.keys = append(p.keys, k)
	}
	return w
}

// fold registers fold on the key's priority pass.
func (p *Plan) fold(corpus, date string, fold func(*dataset.DomainRecord, core.DomainAttribution)) {
	w := p.at(corpus, date)
	w.folds = append(w.folds, fold)
}

// read registers a read of the key's file of its own, which runs before
// the key's pass.
func (p *Plan) read(corpus, date string, read func(dataset.Source) error) {
	w := p.at(corpus, date)
	w.reads = append(w.reads, read)
}

// shares registers the key's company market on its pass and returns it.
func (p *Plan) shares(corpus, date string) *analysis.ShareAccumulator {
	w := p.at(corpus, date)
	if w.shares == nil {
		acc := analysis.NewShareAccumulator(p.s.World.Directory)
		w.shares = acc
		w.folds = append(w.folds, func(_ *dataset.DomainRecord, att core.DomainAttribution) { acc.Add(att) })
	}
	return w.shares
}

// Run does the plan's work, once: keys fan out on internal/parallel,
// bounded by Study.Parallelism, and each key is collected (or found
// collected), read by its reads, then passed over once by the
// priority methodology when it has folds. It returns the first error in
// key order.
func (p *Plan) Run(ctx context.Context) error {
	errs := make([]error, len(p.keys))
	parallel.Run(len(p.keys), parallel.Workers(p.s.Parallelism), func(i int) {
		errs[i] = p.runKey(ctx, p.keys[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Plan) runKey(ctx context.Context, k corpusDate) error {
	w := p.work[k]
	st, err := p.s.stream(ctx, k)
	if err != nil {
		return err
	}
	for _, read := range w.reads {
		if err := read(st); err != nil {
			return err
		}
	}
	if len(w.folds) == 0 {
		return nil
	}
	_, err = p.s.pass(st, func(rec *dataset.DomainRecord, att core.DomainAttribution) {
		for _, fold := range w.folds {
			fold(rec, att)
		}
	})
	return err
}

// runPlan runs a plan of one artifact and renders it.
func runPlan[T any](ctx context.Context, s *Study, artifact func(*Plan) func() (T, error)) (T, error) {
	p := s.NewPlan()
	render := artifact(p)
	if err := p.Run(ctx); err != nil {
		var zero T
		return zero, err
	}
	return render()
}
