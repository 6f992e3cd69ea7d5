package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/experiments"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

const flatDate = "2021-06"

// flatEnv is a generated flat world with its target list: the input of
// the million-domain path (cmd/mxscan -flat), and the source of the
// snapshots the serving workloads load.
type flatEnv struct {
	fw *world.FlatWorld
	// truth is the world attributions are scored against: fw, except
	// under -break-check.
	truth   *world.FlatWorld
	targets []scan.Target
	infer   core.Config
	workers int
}

func newFlatEnv(seed uint64, n, workers int) (*flatEnv, error) {
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: seed, NumDomains: n, AdversarialPercent: 2})
	if err != nil {
		return nil, err
	}
	targets := make([]scan.Target, fw.NumDomains())
	for i := range targets {
		targets[i] = scan.Target{Name: fw.DomainName(i)}
	}
	return &flatEnv{
		fw:      fw,
		truth:   fw,
		targets: targets,
		workers: workers,
		// The step-4 profiles cmd/mxmap and cmd/mxserve derive from their
		// directory; WorldProfiles reads nothing but the Directory.
		infer: core.Config{
			Profiles:    experiments.WorldProfiles(&world.World{Directory: fw.Directory}),
			Parallelism: workers,
		},
	}, nil
}

// flatMeters are the decorators of a traced collect; nil in plain runs,
// where the collector gets the world's resolver and dialer untouched.
type flatMeters struct {
	resolve  *callMeter // world.resolve_s: busy time inside the flat resolver
	dial     *callMeter
	sessions *callMeter // smtp.session_s
}

func newFlatMeters(tr *tracer) *flatMeters {
	return &flatMeters{
		resolve:  &callMeter{name: "world.resolve", tr: tr},
		dial:     &callMeter{name: "smtp.dial", tr: tr},
		sessions: &callMeter{name: "smtp.session", tr: tr},
	}
}

func (e *flatEnv) newCollector(m *flatMeters) *scan.Collector {
	c := &scan.Collector{
		Resolver:   e.fw.Resolver(),
		Dialer:     e.fw.Dialer(),
		Trust:      e.fw.Trust,
		Prefixes:   e.fw.Prefixes,
		ASRegistry: e.fw.ASRegistry,
		Parked:     e.fw.Parked,
	}
	if m != nil {
		c.Resolver = meterResolver(c.Resolver, m.resolve)
		c.Dialer = meteredDialer{inner: c.Dialer, dials: m.dial, conns: m.sessions}
	}
	return c
}

// collectStats is what one collect+merge told the benchmark.
type collectStats struct {
	fleet     *scan.FleetStats
	merge     *dataset.MergeStats
	collectS  float64
	mergeS    float64
	collectMi float64 // peak heap, MiB
	mergeMi   float64
	collectAl float64 // mallocs
	mergeAl   float64
}

// collectMerge is cmd/mxscan's fleet path: CollectFleet into a gzipped
// shard set, then the external merge into out, then shard clean-up.
// With meters (a traced trial) it also takes MemStats marks between the
// stages.
func (e *flatEnv) collectMerge(tr *tracer, parent int32, trial int, out string, m *flatMeters, heap *heapSampler) (collectStats, error) {
	var cs collectStats
	allocs := m != nil
	set := dataset.NewShardSet(out, flatDate, e.fw.Cfg.Corpus)

	// Each stage's span opens before its marks and closes after them:
	// ReadMemStats stops the world, and on a busy box that is time the
	// trial spent, which a trace must not lose between two stages.
	sp := tr.begin(parent, trial, "scan.collect")
	var mark allocMark
	if allocs {
		mark = markAllocs()
	}
	heap.take()
	start := time.Now()
	fleet, err := scan.CollectFleet(context.Background(), scan.FleetConfig{
		Corpus:       e.fw.Cfg.Corpus,
		Date:         flatDate,
		Workers:      e.workers,
		NewCollector: func(int) (*scan.Collector, error) { return e.newCollector(m), nil },
		Output:       set,
	}, e.targets)
	cs.collectS = time.Since(start).Seconds()
	cs.collectMi = heap.take()
	if allocs {
		cs.collectAl, _ = mark.since()
	}
	tr.end(sp)
	if err != nil {
		set.Remove()
		return cs, fmt.Errorf("collect: %w", err)
	}
	cs.fleet = fleet

	sp = tr.begin(parent, trial, "dataset.merge")
	if allocs {
		mark = markAllocs()
	}
	start = time.Now()
	ms, err := dataset.Merge(out, set.Paths())
	if rerr := set.Remove(); err == nil {
		err = rerr
	}
	cs.mergeS = time.Since(start).Seconds()
	cs.mergeMi = heap.take()
	if allocs {
		cs.mergeAl, _ = mark.since()
	}
	tr.end(sp)
	if err != nil {
		return cs, fmt.Errorf("merge: %w", err)
	}
	cs.merge = ms
	return cs, nil
}

// verdict is what the benchmark keeps of one attribution for scoring
// after the clock has stopped.
type verdict struct {
	domain    string
	primary   string
	untrusted bool
}

// inferStats is what one streaming inference told the benchmark.
type inferStats struct {
	res         *core.Result
	verdicts    []verdict
	passAS      float64 // InferStream entry to first callback
	passBS      float64 // first callback to return
	accumulateS float64 // inside ShareAccumulator.Add (traced runs)
	peakMi      float64
	mallocs     float64
}

// inferStream is cmd/mxmap's streaming path: OpenStream, InferStream
// with the priority approach, every attribution folded into a
// ShareAccumulator.
func (e *flatEnv) inferStream(tr *tracer, parent int32, trial int, path string, heap *heapSampler, traced bool) (inferStats, error) {
	var is inferStats
	sp := tr.begin(parent, trial, "core.infer")
	is.verdicts = make([]verdict, 0, len(e.targets))
	var mark allocMark
	if traced {
		mark = markAllocs()
	}
	heap.take()
	passA := tr.begin(sp, trial, "core.pass_a")
	var passB int32
	start := time.Now()
	var first time.Time
	var accNS int64

	st, err := dataset.OpenStream(path)
	if err != nil {
		return is, err
	}
	acc := analysis.NewShareAccumulator(e.fw.Directory)
	res, err := core.InferStream(st, core.ApproachPriority, e.infer, func(att core.DomainAttribution) {
		if first.IsZero() {
			first = time.Now()
			tr.end(passA)
			passB = tr.begin(sp, trial, "core.pass_b")
		}
		if traced {
			t := time.Now()
			acc.Add(att)
			accNS += time.Since(t).Nanoseconds()
		} else {
			acc.Add(att)
		}
		is.verdicts = append(is.verdicts, verdict{att.Domain, att.Primary(), att.Untrusted})
	})
	end := time.Now()
	if first.IsZero() {
		first = end
		tr.end(passA)
	}
	tr.end(passB)
	is.peakMi = heap.take()
	if traced {
		is.mallocs, _ = mark.since()
	}
	tr.end(sp)
	if err != nil {
		return is, fmt.Errorf("infer: %w", err)
	}
	is.res = res
	is.passAS = first.Sub(start).Seconds()
	is.passBS = end.Sub(first).Seconds()
	is.accumulateS = float64(accNS) / 1e9
	return is, nil
}

// score compares verdicts with the world's ground truth the way the
// paper's evaluation does: domains without mail service are skipped,
// a self-hosted domain is right when it lands in the self-hosted bucket.
func (e *flatEnv) score(vs []verdict) (checked, correct, untrusted int, err error) {
	for _, v := range vs {
		i, ok := e.fw.DomainIndex(v.domain)
		if !ok {
			return 0, 0, 0, fmt.Errorf("attribution for %q, which is not a target", v.domain)
		}
		if v.untrusted {
			untrusted++
		}
		want := e.truth.TruthCompany(i)
		if want == "" {
			continue
		}
		checked++
		got := analysis.CompanyOf(v.domain, v.primary, e.fw.Directory)
		if got == want || (want == v.domain && got == analysis.SelfHostedLabel) {
			correct++
		}
	}
	return checked, correct, untrusted, nil
}

func fileSHA256(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// workDir makes a fresh scratch directory under the benchmark's own
// out directory: the benchmark writes nowhere else.
func workDir(outDir, name string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-"+name+"-")
}

func snapshotPath(dir, name string) string {
	return filepath.Join(dir, name+".jsonl.gz")
}
