// Package experiments wires the whole system together and regenerates
// every table and figure of the paper's evaluation: it generates a
// calibrated world, runs the measurement pipeline over each snapshot,
// applies the inference methodology, and renders the paper's artifacts.
package experiments

import (
	"context"
	"sync"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// Study owns one generated world with its measurement substrate and
// caches collected snapshots. Inference is not cached: every figure is
// a fold over one priority-based pass per (corpus, date) it reads (see
// Pass).
type Study struct {
	// World is the generated synthetic Internet.
	World *world.World
	// Profiles are the step-4 provider profiles derived from the roster.
	Profiles []core.ProviderProfile
	// Parallelism bounds both the inference worker pool (core.Config's
	// knob) and the concurrent corpus-snapshot runs in Fig6. Zero
	// selects runtime.GOMAXPROCS(0).
	Parallelism int

	session *scan.WorldSession

	mu        sync.Mutex
	snapshots map[string]*snapFlight
}

// snapFlight is one singleflight snapshot collection: the first caller
// for a (corpus, date) key measures, concurrent callers wait on the same
// flight instead of re-measuring.
type snapFlight struct {
	once sync.Once
	snap *dataset.Snapshot
	err  error
}

// NewStudy generates a world and brings up its substrate.
func NewStudy(cfg world.Config) (*Study, error) {
	w, err := world.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := scan.NewWorldSession(w)
	if err != nil {
		return nil, err
	}
	return &Study{
		World:     w,
		Profiles:  WorldProfiles(w),
		session:   sess,
		snapshots: make(map[string]*snapFlight),
	}, nil
}

// Close stops the measurement substrate.
func (s *Study) Close() error { return s.session.Close() }

// Snapshot measures (or returns the cached measurement of) one corpus at
// one date. Concurrent calls for the same key share one measurement.
func (s *Study) Snapshot(ctx context.Context, corpus, date string) (*dataset.Snapshot, error) {
	key := corpus + "@" + date
	s.mu.Lock()
	f := s.snapshots[key]
	if f == nil {
		f = &snapFlight{}
		s.snapshots[key] = f
	}
	s.mu.Unlock()
	f.once.Do(func() {
		f.snap, f.err = s.session.Snapshot(ctx, corpus, date)
	})
	return f.snap, f.err
}

// Pass runs the priority-based methodology over one corpus snapshot
// (measured, or taken from the cache) and hands fold every domain's
// record with its attribution, in snapshot order (see analysis.Fold).
// The returned Result carries the MX assignments and step-4 counters;
// it holds no attribution.
func (s *Study) Pass(ctx context.Context, corpus, date string, fold func(*dataset.DomainRecord, core.DomainAttribution)) (*core.Result, error) {
	snap, err := s.Snapshot(ctx, corpus, date)
	if err != nil {
		return nil, err
	}
	return analysis.Fold(snap, core.ApproachPriority, core.Config{
		Profiles:    s.Profiles,
		Parallelism: s.Parallelism,
	}, fold)
}

// Shares is a Pass that feeds one ShareAccumulator: the snapshot's
// company market.
func (s *Study) Shares(ctx context.Context, corpus, date string) (*analysis.ShareAccumulator, error) {
	acc := analysis.NewShareAccumulator(s.World.Directory)
	_, err := s.Pass(ctx, corpus, date, func(_ *dataset.DomainRecord, att core.DomainAttribution) { acc.Add(att) })
	return acc, err
}

// LastDate returns a corpus's most recent snapshot label.
func (s *Study) LastDate(corpus string) string {
	dates := s.World.Corpus(corpus).Dates
	return dates[len(dates)-1]
}

// FirstDate returns a corpus's earliest snapshot label.
func (s *Study) FirstDate(corpus string) string {
	return s.World.Corpus(corpus).Dates[0]
}

// Corpora lists the corpus names in presentation order.
func Corpora() []string {
	return []string{world.CorpusAlexa, world.CorpusCOM, world.CorpusGOV}
}

// WorldProfiles is analysis.ProviderProfiles of a world's company
// roster.
func WorldProfiles(w *world.World) []core.ProviderProfile {
	return analysis.ProviderProfiles(w.Directory)
}

// truthIndex builds a domain -> truth-bucket map for one corpus/date:
// the ground-truth operator in the bucket space the analysis uses — a
// company name, the analysis.SelfHostedLabel, or "" for domains without
// real mail service.
func (s *Study) truthIndex(corpus string, dateIdx int) map[string]string {
	c := s.World.Corpus(corpus)
	out := make(map[string]string, len(c.Domains))
	for _, d := range c.Domains {
		truth := s.World.TruthCompany(d, dateIdx)
		if truth == d.Name {
			truth = analysis.SelfHostedLabel
		}
		out[d.Name] = truth
	}
	return out
}

// companyBucket resolves a company bucket for an inferred provider ID.
func (s *Study) companyBucket(domain, providerID string) string {
	return analysis.CompanyOf(domain, providerID, s.World.Directory)
}
