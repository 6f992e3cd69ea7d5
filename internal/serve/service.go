// Package serve is the online face of the pipeline: an overload-hardened
// HTTP/JSON query service over one loaded snapshot and its inference
// result. Its robustness headline is versioned snapshot hot-swap: a new
// snapshot is loaded and incrementally re-inferred next to the serving
// one, then published as one immutable store by an atomic pointer
// store. A request loads that pointer once and reads the store it got;
// the garbage collector retires an old store when its last reader is
// done. No query is lost or answered from a half-built state. When a
// swap's load fails the service degrades to stale serving (in the
// spirit of RFC 8767): a copy of the serving store marked stale is
// published and answers, until a later swap succeeds.
package serve

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/analysis"
	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
)

// State is the service lifecycle phase the probes report.
type State int32

const (
	// StateLoading: no store is published yet (initial load pending
	// or failed); queries are refused with 503.
	StateLoading State = iota
	// StateServing: a store is published and answering.
	StateServing
	// StateDraining: shutdown has begun; in-flight queries finish,
	// new ones should go elsewhere.
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateLoading:
		return "loading"
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	}
	return "unknown"
}

// ServiceConfig parameterizes a Service. The zero value works: priority
// approach defaults come from core.Config, providers stay unbucketed
// without a Directory, and the real clock is used.
type ServiceConfig struct {
	// Infer is the inference configuration (profiles, thresholds,
	// parallelism) applied to every load and swap.
	Infer core.Config
	// Directory buckets provider IDs into companies for the share and
	// concentration endpoints; nil keeps raw provider IDs.
	Directory *companies.Directory
	// Now supplies the service clock for swap latency measurement;
	// nil means time.Now. Load and Swap each read it exactly twice
	// (begin and end), which keeps stepped test clocks deterministic.
	Now func() time.Time
}

// Store is one immutable, fully-built serving state: a snapshot's
// per-domain attributions plus the precomputed aggregate answers.
type Store struct {
	// stream is the file the store was built from: a later swap diffs
	// against it, and fails over to a full recompute when the file at
	// its path is no longer that file.
	stream  *dataset.Stream
	meta    SnapshotMeta
	res     *core.Result
	domains map[string]core.DomainAttribution
	shares  []ShareEntry // every company, largest first
	conc    analysis.Concentration
	// stale marks the copy of the serving store a failed swap
	// publishes: answers still come from the previous snapshot.
	stale bool
}

// lookup resolves a domain's attribution; it is the priorAtt resolver
// handed to core.InferStreamDelta on the next swap.
func (st *Store) lookup(domain string) (core.DomainAttribution, bool) {
	att, ok := st.domains[domain]
	return att, ok
}

// ServiceStats is a point-in-time snapshot of the swap machinery.
type ServiceStats struct {
	State             string `json:"state"`
	Stale             bool   `json:"stale"`
	Epoch             uint64 `json:"epoch"`
	Domains           int    `json:"domains"`
	Swaps             uint64 `json:"swaps"`
	SwapFails         uint64 `json:"swap_fails"`
	DomainsReused     uint64 `json:"domains_reused"`
	DomainsReinferred uint64 `json:"domains_reinferred"`
	LastSwapNS        int64  `json:"last_swap_ns"`
}

type serviceCounters struct {
	swaps, swapFails   atomic.Uint64
	reused, reinferred atomic.Uint64
	lastSwapNS         atomic.Int64
}

// A Service publishes the serving store and replaces it. Reads are one
// atomic pointer load; swaps serialize on a mutex and never block
// readers.
type Service struct {
	approach core.Approach
	cfg      ServiceConfig

	cur      atomic.Pointer[Store]
	draining atomic.Bool
	swapMu   sync.Mutex

	churn atomic.Pointer[ChurnReport]
	c     serviceCounters
}

// NewService creates a service that infers with the given approach. No
// snapshot is loaded yet; the service reports StateLoading until Load
// succeeds.
func NewService(approach core.Approach, cfg ServiceConfig) *Service {
	return &Service{approach: approach, cfg: cfg}
}

func (s *Service) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// State reports the lifecycle phase: draining once BeginDrain ran,
// else serving once a store is published, else loading.
func (s *Service) State() State {
	switch {
	case s.draining.Load():
		return StateDraining
	case s.cur.Load() == nil:
		return StateLoading
	}
	return StateServing
}

// Stale reports degraded stale-serving mode: the last swap failed and
// answers still come from the previous snapshot.
func (s *Service) Stale() bool {
	st := s.cur.Load()
	return st != nil && st.stale
}

// Ready reports whether queries can be answered right now.
func (s *Service) Ready() bool { return s.State() == StateServing }

// BeginDrain moves the probes to draining; the server calls it when a
// graceful shutdown starts so load balancers stop sending new work.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Churn returns the latest swap's report, nil before the first swap.
func (s *Service) Churn() *ChurnReport { return s.churn.Load() }

// Stats snapshots the swap machinery counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		State:             s.State().String(),
		Swaps:             s.c.swaps.Load(),
		SwapFails:         s.c.swapFails.Load(),
		DomainsReused:     s.c.reused.Load(),
		DomainsReinferred: s.c.reinferred.Load(),
		LastSwapNS:        s.c.lastSwapNS.Load(),
	}
	if cur := s.cur.Load(); cur != nil {
		st.Stale = cur.stale
		st.Epoch = cur.meta.Epoch
		st.Domains = cur.meta.Domains
	}
	return st
}

// Load performs the initial full inference over the snapshot at path
// and publishes the first store, epoch 1. It fails without side
// effects; the service stays in StateLoading and Load may be retried.
func (s *Service) Load(path string) (SnapshotMeta, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.cur.Load() != nil {
		return SnapshotMeta{}, errors.New("serve: snapshot already loaded; use Swap")
	}
	begin := s.now()
	store, _, err := s.build(path, nil)
	if err != nil {
		_ = s.now() // keep the two-reads-per-operation clock contract
		return SnapshotMeta{}, err
	}
	store.meta.Epoch = 1
	s.cur.Store(store)
	s.c.lastSwapNS.Store(s.now().Sub(begin).Nanoseconds())
	return store.meta, nil
}

// Swap loads the snapshot at path next to the serving store,
// re-inferring incrementally on the churn delta, then publishes the new
// store with one atomic pointer store. Queries are answered throughout
// — from the old store until the flip, from the new one after — and
// none are lost; the old store is garbage once its last reader is done.
//
// On failure the service enters degraded stale mode: it publishes a
// copy of the serving store marked stale, which answers until a later
// Swap succeeds. ctx is unused; it stays in the signature for callers
// that already pass one.
func (s *Service) Swap(_ context.Context, path string) (*ChurnReport, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.cur.Load()
	if old == nil {
		return nil, errors.New("serve: no snapshot loaded")
	}
	begin := s.now()
	store, rep, err := s.build(path, old)
	if err != nil {
		_ = s.now()
		stale := *old
		stale.stale = true
		s.cur.Store(&stale)
		s.c.swapFails.Add(1)
		return nil, err
	}
	store.meta.Epoch = old.meta.Epoch + 1
	rep.FromEpoch = old.meta.Epoch
	rep.ToEpoch = store.meta.Epoch
	s.cur.Store(store)
	rep.SwapLatencyNS = s.now().Sub(begin).Nanoseconds()
	s.c.lastSwapNS.Store(rep.SwapLatencyNS)
	s.c.swaps.Add(1)
	s.c.reused.Add(uint64(rep.Delta.Reused))
	s.c.reinferred.Add(uint64(rep.Delta.Reinferred))
	s.churn.Store(rep)
	return rep, nil
}

// build streams the snapshot at path into a fresh store. With a prior
// store it diffs the two snapshot files first and reuses the prior
// attribution for every domain the delta contract proves unchanged
// (see core.InferStreamDelta); the result is byte-identical to a full
// recompute. A prior whose file is no longer readable, or is no longer
// the file the prior was built from (replaced at its path, as a rewrite
// of the served path is), degrades to a full recompute rather than
// failing the swap.
func (s *Service) build(path string, prior *Store) (*Store, *ChurnReport, error) {
	newSt, err := dataset.OpenStream(path)
	if err != nil {
		return nil, nil, err
	}

	var (
		changed map[string]bool
		changes []dataset.Change
		dstats  dataset.DiffStats
	)
	useDelta := false
	if prior != nil {
		changed = make(map[string]bool)
		var derr error
		dstats, derr = dataset.DiffStream(prior.stream, newSt, func(c dataset.Change) error {
			if c.Kind != dataset.DiffRemoved {
				changed[c.Domain] = true
			}
			changes = append(changes, c)
			return nil
		})
		if useDelta = derr == nil; !useDelta {
			dstats = dataset.DiffStats{} // a fallback reports no diff, as when the prior vanished
		}
	}

	store := &Store{stream: newSt}
	acc := analysis.NewShareAccumulator(s.cfg.Directory)
	domains := make(map[string]core.DomainAttribution)
	emit := func(att core.DomainAttribution) {
		domains[att.Domain] = att
		acc.Add(att)
	}

	var (
		res *core.Result
		ds  core.DeltaStats
	)
	if useDelta {
		res, ds, err = core.InferStreamDelta(newSt, s.approach, s.cfg.Infer, prior.res, prior.lookup, changed, emit)
	} else {
		res, err = core.InferStream(newSt, s.approach, s.cfg.Infer, emit)
		if res != nil {
			ds = core.DeltaStats{Reinferred: res.NumDomains}
		}
	}
	if err != nil {
		return nil, nil, err
	}

	store.res = res
	store.domains = domains
	store.meta = SnapshotMeta{Date: newSt.Date, Corpus: newSt.Corpus, Domains: res.NumDomains}
	store.shares = shareEntries(acc.TopShares(0))
	store.conc = acc.Concentration()

	if prior == nil {
		return store, nil, nil
	}
	rep := &ChurnReport{
		FromDate:      prior.meta.Date,
		ToDate:        store.meta.Date,
		Diff:          dstats,
		Delta:         ds,
		FullRecompute: !useDelta,
	}
	if useDelta {
		rep.Flows = providerFlows(changes, prior, store)
	}
	return store, rep, nil
}

func shareEntries(shares []analysis.Share) []ShareEntry {
	out := make([]ShareEntry, len(shares))
	for i, sh := range shares {
		out[i] = ShareEntry{Company: sh.Company, Domains: sh.Domains, Percent: sh.Percent}
	}
	return out
}

// providerFlows folds the diff's churned domains into
// provider-to-provider migration counts, deterministically ordered.
func providerFlows(changes []dataset.Change, prior, next *Store) []ProviderFlow {
	counts := make(map[[2]string]int)
	for _, c := range changes {
		var oldP, newP string
		if att, ok := prior.domains[c.Domain]; ok {
			oldP = att.Primary()
		}
		if att, ok := next.domains[c.Domain]; ok {
			newP = att.Primary()
		}
		if oldP == newP {
			continue
		}
		counts[[2]string{flowLabel(oldP), flowLabel(newP)}]++
	}
	keys := make([][2]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	flows := make([]ProviderFlow, len(keys))
	for i, k := range keys {
		flows[i] = ProviderFlow{From: k[0], To: k[1], Count: counts[k]}
	}
	return flows
}

func flowLabel(p string) string {
	if p == "" {
		return NoProviderLabel
	}
	return p
}
