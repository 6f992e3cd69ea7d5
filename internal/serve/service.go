// Package serve is the online face of the pipeline: an overload-hardened
// HTTP/JSON query service over one loaded snapshot and its inference
// result. Its robustness headline is versioned snapshot hot-swap — a new
// snapshot is loaded and incrementally re-inferred next to the serving
// one, an epoch-counted pointer flips atomically, readers of the old
// epoch drain, and the old state is freed — with zero queries lost or
// answered from a half-built state. When a swap's load fails mid-flight
// the service degrades to stale serving (in the spirit of RFC 8767):
// the old epoch keeps answering, marked Stale, until a later swap
// succeeds.
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

// DefaultTopShares is how many company shares a store precomputes.
const DefaultTopShares = 15

// State is the service lifecycle phase the probes report.
type State int32

const (
	// StateLoading: no epoch is live yet (initial load pending or
	// failed); queries are refused with 503.
	StateLoading State = iota
	// StateServing: an epoch is live and answering.
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
	// TopShares is how many company shares each store precomputes
	// (default DefaultTopShares; negative keeps all).
	TopShares int
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
	shares  []ShareEntry
	conc    analysis.Concentration
}

// lookup resolves a domain's attribution; it is the priorAtt resolver
// handed to core.InferStreamDelta on the next swap.
func (st *Store) lookup(domain string) (core.DomainAttribution, bool) {
	att, ok := st.domains[domain]
	return att, ok
}

// free drops the store's bulk state once no reader can hold it. meta
// stays readable.
func (st *Store) free() {
	st.res = nil
	st.domains = nil
	st.shares = nil
}

// epoch pairs a store with the count of readers currently inside it.
type epoch struct {
	store *Store
	refs  atomic.Int64
}

// ServiceStats is a point-in-time snapshot of the swap machinery.
type ServiceStats struct {
	State             string `json:"state"`
	Stale             bool   `json:"stale"`
	Epoch             uint64 `json:"epoch"`
	Domains           int    `json:"domains"`
	Swaps             uint64 `json:"swaps"`
	SwapFails         uint64 `json:"swap_fails"`
	SwapDrainWaits    uint64 `json:"swap_drain_waits"`
	SwapDrainTimeouts uint64 `json:"swap_drain_timeouts"`
	DomainsReused     uint64 `json:"domains_reused"`
	DomainsReinferred uint64 `json:"domains_reinferred"`
	LastSwapNS        int64  `json:"last_swap_ns"`
}

type serviceCounters struct {
	swaps, swapFails                  atomic.Uint64
	swapDrainWaits, swapDrainTimeouts atomic.Uint64
	reused, reinferred                atomic.Uint64
	lastSwapNS                        atomic.Int64
}

// A Service owns the current epoch and the machinery that replaces it.
// Reads are lock-free (an atomic pointer load plus a refcount); swaps
// serialize on a mutex and never block readers.
type Service struct {
	approach core.Approach
	cfg      ServiceConfig

	state atomic.Int32
	stale atomic.Bool

	cur      atomic.Pointer[epoch]
	epochSeq atomic.Uint64
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

func (s *Service) topShares() int {
	switch {
	case s.cfg.TopShares < 0:
		return 0 // all
	case s.cfg.TopShares == 0:
		return DefaultTopShares
	}
	return s.cfg.TopShares
}

// State reports the lifecycle phase.
func (s *Service) State() State { return State(s.state.Load()) }

// Stale reports degraded stale-serving mode: the last swap failed and
// answers still come from the previous epoch.
func (s *Service) Stale() bool { return s.stale.Load() }

// Ready reports whether queries can be answered right now.
func (s *Service) Ready() bool {
	return s.State() == StateServing && s.cur.Load() != nil
}

// BeginDrain moves the probes to draining; the server calls it when a
// graceful shutdown starts so load balancers stop sending new work.
func (s *Service) BeginDrain() { s.state.Store(int32(StateDraining)) }

// Meta identifies the serving snapshot, when one is live.
func (s *Service) Meta() (SnapshotMeta, bool) {
	if e := s.cur.Load(); e != nil {
		return e.store.meta, true
	}
	return SnapshotMeta{}, false
}

// Churn returns the latest swap's report, nil before the first swap.
func (s *Service) Churn() *ChurnReport { return s.churn.Load() }

// Stats snapshots the swap machinery counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		State:             s.State().String(),
		Stale:             s.stale.Load(),
		Swaps:             s.c.swaps.Load(),
		SwapFails:         s.c.swapFails.Load(),
		SwapDrainWaits:    s.c.swapDrainWaits.Load(),
		SwapDrainTimeouts: s.c.swapDrainTimeouts.Load(),
		DomainsReused:     s.c.reused.Load(),
		DomainsReinferred: s.c.reinferred.Load(),
		LastSwapNS:        s.c.lastSwapNS.Load(),
	}
	if e := s.cur.Load(); e != nil {
		st.Epoch = e.store.meta.Epoch
		st.Domains = e.store.meta.Domains
	}
	return st
}

// acquire pins the current epoch for reading. The retry loop closes the
// race with a concurrent swap: a reader that incremented the refcount
// of an epoch that was flipped out (and possibly freed) in between
// backs off and takes the new one. release must be called when done.
func (s *Service) acquire() (*epoch, *Store) {
	for {
		e := s.cur.Load()
		if e == nil {
			return nil, nil
		}
		e.refs.Add(1)
		if s.cur.Load() == e {
			return e, e.store
		}
		e.refs.Add(-1)
	}
}

func (s *Service) release(e *epoch) { e.refs.Add(-1) }

// Load performs the initial full inference over the snapshot at path
// and publishes the first epoch. It fails without side effects; the
// service stays in StateLoading and Load may be retried.
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
	store.meta.Epoch = s.epochSeq.Add(1)
	s.cur.Store(&epoch{store: store})
	s.state.Store(int32(StateServing))
	s.c.lastSwapNS.Store(s.now().Sub(begin).Nanoseconds())
	return store.meta, nil
}

// Swap loads the snapshot at path next to the serving epoch,
// re-inferring incrementally on the churn delta, then atomically flips
// the epoch pointer, drains readers of the old epoch and frees it.
// Queries are answered throughout — from the old epoch until the flip,
// from the new one after — and none are lost.
//
// On failure the serving epoch is untouched and the service enters
// degraded stale mode: answers keep flowing, marked Stale, until a
// later Swap succeeds. ctx bounds only the old-epoch drain wait; a
// reader pinned past it leaks the old store to the garbage collector
// instead of blocking the swap.
func (s *Service) Swap(ctx context.Context, path string) (*ChurnReport, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.cur.Load()
	if old == nil {
		return nil, errors.New("serve: no snapshot loaded")
	}
	begin := s.now()
	store, rep, err := s.build(path, old.store)
	if err != nil {
		_ = s.now()
		s.stale.Store(true)
		s.c.swapFails.Add(1)
		return nil, err
	}
	store.meta.Epoch = s.epochSeq.Add(1)
	rep.FromEpoch = old.store.meta.Epoch
	rep.ToEpoch = store.meta.Epoch
	s.cur.Store(&epoch{store: store})
	s.stale.Store(false)
	if s.drainEpoch(ctx, old) {
		old.store.free()
	}
	rep.SwapLatencyNS = s.now().Sub(begin).Nanoseconds()
	s.c.lastSwapNS.Store(rep.SwapLatencyNS)
	s.c.swaps.Add(1)
	s.c.reused.Add(uint64(rep.Delta.Reused))
	s.c.reinferred.Add(uint64(rep.Delta.Reinferred))
	s.churn.Store(rep)
	return rep, nil
}

// drainEpoch waits for e's readers to leave and reports whether the
// store is safe to free. Readers hold epochs only across one in-memory
// lookup, so the wait is microseconds; ctx caps it anyway.
func (s *Service) drainEpoch(ctx context.Context, e *epoch) bool {
	if e.refs.Load() == 0 {
		return true
	}
	s.c.swapDrainWaits.Add(1)
	for e.refs.Load() != 0 {
		select {
		case <-ctx.Done():
			s.c.swapDrainTimeouts.Add(1)
			return false
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	return true
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
	store.shares = shareEntries(acc.TopShares(s.topShares()))
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
