package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's side of each call into the program — around the
// public function, or inside a decorator the program already accepts —
// never from inside it.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a trial's root span
	Trial  int32  `json:"trial"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxLeavesPerStage caps how many decorator spans (one resolver call,
// one SMTP session, one upstream dial) are kept under a single stage.
// A 50k-domain collect makes ~200k resolver calls; their counts and
// busy time are kept exactly by the decorators, the span list keeps the
// first few thousand as a sample and counts the rest as dropped.
const maxLeavesPerStage = 4096

// tracer keeps spans in memory until the run ends. A nil tracer is the
// plain run: every method is a no-op.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	leaves  map[int32]int
	dropped int

	// stage is the span decorator leaves attach to, packed as
	// trial<<32 | span id. Stages of one trial run one after another,
	// so a single slot is enough.
	stage atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), leaves: make(map[int32]int)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and makes it the stage leaves attach to.
func (t *tracer) begin(parent int32, trial int, name string) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trial: int32(trial), Name: name, Start: t.ns(time.Now())})
	t.mu.Unlock()
	t.stage.Store(int64(trial)<<32 | int64(id))
	return id
}

// end closes a span and hands the leaf slot back to its parent.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	sp := &t.spans[id-1]
	sp.End = now
	parent, trial := sp.Parent, sp.Trial
	t.mu.Unlock()
	t.stage.Store(int64(trial)<<32 | int64(parent))
}

// leaf records one finished decorator call under the current stage.
func (t *tracer) leaf(name string, start, end time.Time) {
	if t == nil {
		return
	}
	packed := t.stage.Load()
	parent, trial := int32(packed), int32(packed>>32)
	if parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.leaves[parent] >= maxLeavesPerStage {
		t.dropped++
		return
	}
	t.leaves[parent]++
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trial: trial, Name: name, Start: t.ns(start), End: t.ns(end)})
}

// selfTimes returns, for every span, its duration minus the part of it
// its children cover. Children may overlap (workers run in parallel),
// so the covered part is the union of their intervals, clipped to the
// parent.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, sp := range spans {
		self[sp.ID] = (sp.End - sp.Start) - coveredNS(sp, children[sp.ID])
	}
	return self
}

// coveredNS is the length of the union of the kids' intervals inside
// parent.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi <= lo {
			continue
		}
		if curHi < curLo || lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = lo, hi
			continue
		}
		if hi > curHi {
			curHi = hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return covered
}

// trialAccount is one trial's wall-time ledger: how much of the root
// span named stages cover, and each stage's own share.
type trialAccount struct {
	Trial  int32          `json:"trial"`
	WallNS int64          `json:"wall_ns"`
	Stages []stageAccount `json:"stages"`
	// AccountedShare is the part of the trial wall that falls inside a
	// named stage; the rest is the root span's self time (gaps between
	// stages). It must stay above 0.95.
	AccountedShare float64 `json:"accounted_share"`
}

type stageAccount struct {
	Name   string `json:"name"`
	DurNS  int64  `json:"dur_ns"`
	SelfNS int64  `json:"self_ns"`
}

func accountTrials(spans []span) []trialAccount {
	self := selfTimes(spans)
	byParent := make(map[int32][]span)
	for _, sp := range spans {
		byParent[sp.Parent] = append(byParent[sp.Parent], sp)
	}
	var out []trialAccount
	for _, root := range byParent[0] {
		acc := trialAccount{Trial: root.Trial, WallNS: root.End - root.Start}
		for _, st := range byParent[root.ID] {
			acc.Stages = append(acc.Stages, stageAccount{Name: st.Name, DurNS: st.End - st.Start, SelfNS: self[st.ID]})
		}
		if acc.WallNS > 0 {
			acc.AccountedShare = 1 - float64(self[root.ID])/float64(acc.WallNS)
		}
		out = append(out, acc)
	}
	return out
}

// minAccountedShare is the lowest accounted share over the trials of a
// traced run (1 when there were none).
func minAccountedShare(accts []trialAccount) float64 {
	min := 1.0
	for _, a := range accts {
		if a.AccountedShare < min {
			min = a.AccountedShare
		}
	}
	return min
}

type traceFile struct {
	Workload      string         `json:"workload"`
	Machine       machineTag     `json:"machine"`
	DroppedLeaves int            `json:"dropped_leaves"`
	Trials        []trialAccount `json:"trials"`
	Spans         []span         `json:"spans"`
}

// write stores the spans under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, machine machineTag) (string, []trialAccount, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	accts := accountTrials(spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(traceFile{
		Workload: workload, Machine: machine,
		DroppedLeaves: dropped, Trials: accts, Spans: spans,
	})
	if err != nil {
		return "", nil, err
	}
	return path, accts, os.WriteFile(path, b, 0o644)
}
