// Package experiments wires the whole system together and regenerates
// every table and figure of the paper's evaluation: it generates a
// calibrated world, runs the measurement pipeline over each snapshot,
// applies the inference methodology, and renders the paper's artifacts.
package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// Study owns one generated world with its measurement substrate, and
// reads files. It collects each (corpus, date) once, on first use, the
// way mxscan's fleet does: one fleet lane writes sorted shards into a
// directory the study creates, dataset.MergeContext commits them as one
// uncompressed snapshot file, and the shards go. Per key the study
// keeps only that file's path and the collection's Health; every figure
// is a fold over a pass of a file (see Plan), and Close removes the
// directory. What stays in memory is the world and its SMTP fleet.
type Study struct {
	// World is the generated synthetic Internet.
	World *world.World
	// Profiles are the step-4 provider profiles derived from the roster.
	Profiles []core.ProviderProfile
	// Parallelism bounds both the inference worker pool (core.Config's
	// knob) and the (corpus, date) keys a Plan collects and passes over
	// at once. Zero selects runtime.GOMAXPROCS(0).
	Parallelism int

	session *scan.WorldSession
	dir     string // the collected snapshot files, one per key

	mu          sync.Mutex
	collections map[corpusDate]*collection

	// collects and passes count the collections and the priority
	// passes (Pass, and a Plan's one per key) the study has run.
	collects, passes atomic.Int64
}

// corpusDate is one (corpus, date) snapshot key.
type corpusDate struct {
	corpus, date string
}

// collection is one singleflight collection of a key: the first caller
// for it measures, concurrent callers wait on the same flight instead of
// re-measuring.
type collection struct {
	once   sync.Once
	path   string
	health *dataset.Health
	err    error
}

// NewStudy generates a world, brings up its substrate and creates the
// directory its collections are written to.
func NewStudy(cfg world.Config) (*Study, error) {
	w, err := world.Generate(cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "mxmap-study-")
	if err != nil {
		return nil, err
	}
	sess, err := scan.NewWorldSession(w)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &Study{
		World:       w,
		Profiles:    WorldProfiles(w),
		session:     sess,
		dir:         dir,
		collections: make(map[corpusDate]*collection),
	}, nil
}

// Close stops the measurement substrate and removes the study's
// directory with every file collected into it.
func (s *Study) Close() error {
	return errors.Join(s.session.Close(), os.RemoveAll(s.dir))
}

// File measures one corpus at one date, or finds it measured, and
// returns the path of its snapshot file, which lives until Close.
// Concurrent calls for the same key share one measurement.
func (s *Study) File(ctx context.Context, corpus, date string) (string, error) {
	c := s.collection(ctx, corpusDate{corpus, date})
	return c.path, c.err
}

// collection returns key k's collection, measuring it first when no
// call has.
func (s *Study) collection(ctx context.Context, k corpusDate) *collection {
	s.mu.Lock()
	c := s.collections[k]
	if c == nil {
		c = &collection{}
		s.collections[k] = c
	}
	s.mu.Unlock()
	c.once.Do(func() { c.path, c.health, c.err = s.collect(ctx, k) })
	return c
}

// collect measures key k into the study's directory: CollectFleet with
// one lane (the collector's catalog is built once per key), then
// MergeContext into the key's file. The shards go whether or not the
// file committed, and a merge that fails removes its .tmp, so a failed
// or cancelled collection leaves nothing of its key behind.
func (s *Study) collect(ctx context.Context, k corpusDate) (string, *dataset.Health, error) {
	s.collects.Add(1)
	targets, err := s.session.Targets(k.corpus)
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(s.dir, k.corpus+"-"+k.date+".jsonl")
	set := dataset.NewShardSet(path, k.date, k.corpus)
	stats, err := scan.CollectFleet(ctx, scan.FleetConfig{
		Corpus:       k.corpus,
		Date:         k.date,
		Workers:      1,
		NewCollector: func(int) (*scan.Collector, error) { return s.session.NewCollector(k.corpus, k.date) },
		Output:       set,
	}, targets)
	if err == nil {
		_, err = dataset.MergeContext(ctx, path, set.Paths())
	}
	if rerr := set.Remove(); err == nil {
		err = rerr
	}
	if err != nil {
		return "", nil, err
	}
	return path, stats.Health, nil
}

// stream opens key k's file, collecting it first when no call has.
func (s *Study) stream(ctx context.Context, k corpusDate) (*dataset.Stream, error) {
	path, err := s.File(ctx, k.corpus, k.date)
	if err != nil {
		return nil, err
	}
	return dataset.OpenStream(path)
}

// Pass runs the priority-based methodology over one corpus snapshot's
// file (collected on first use) and hands fold every domain's record
// with its attribution, in file order (see analysis.Fold). The record
// is read-only and valid only for the call. The returned Result carries
// the MX assignments and step-4 counters; it holds no attribution. To
// feed several folds of one key, or several keys, from one pass each,
// use a Plan.
func (s *Study) Pass(ctx context.Context, corpus, date string, fold func(*dataset.DomainRecord, core.DomainAttribution)) (*core.Result, error) {
	st, err := s.stream(ctx, corpusDate{corpus, date})
	if err != nil {
		return nil, err
	}
	return s.pass(st, fold)
}

// pass is the study's priority pass over src: the one Pass and a Plan
// run, and count.
func (s *Study) pass(src dataset.Source, fold func(*dataset.DomainRecord, core.DomainAttribution)) (*core.Result, error) {
	s.passes.Add(1)
	return analysis.Fold(src, core.ApproachPriority, core.Config{
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
