package main

import (
	"os"
	"runtime"
	"time"

	"mxmap/internal/dataset"
)

// flatTrial is one pass of the million-domain path and what it told us.
type flatTrial struct {
	wallS   float64 // steal-corrected
	granted float64
	peakMi  float64
	collect collectStats
	infer   inferStats
	digest  string
	bytes   int64
	checked int
	correct int
	untrust int
}

type scanFlat struct {
	env  *flatEnv
	dir  string
	heap *heapSampler
	rep  *report
}

// trial runs collect, merge and inference once; the wall clock runs from
// the first collect call to the last attribution delivered. Hashing and
// scoring happen after it stops.
func (s *scanFlat) trial(tr *tracer, trial int, m *flatMeters) (flatTrial, error) {
	var ft flatTrial
	out := snapshotPath(s.dir, "flat")
	runtime.GC()
	root := tr.begin(0, trial, "trial")
	cpu := markCPU()
	start := time.Now()
	cs, err := s.env.collectMerge(tr, root, trial, out, m, s.heap)
	if err != nil {
		return ft, err
	}
	is, err := s.env.inferStream(tr, root, trial, out, s.heap, m != nil)
	if err != nil {
		return ft, err
	}
	elapsed := time.Since(start).Seconds()
	tr.end(root)
	ft.granted = cpu.grantedSince()
	ft.wallS = elapsed * ft.granted
	ft.collect, ft.infer = cs, is
	ft.peakMi = max(cs.collectMi, cs.mergeMi, is.peakMi)

	if ft.digest, ft.bytes, err = fileSHA256(out); err != nil {
		return ft, err
	}
	if ft.checked, ft.correct, ft.untrust, err = s.env.score(is.verdicts); err != nil {
		return ft, err
	}
	return ft, nil
}

// gate applies the correctness checks of one trial against the first.
// What it needs of the attributions it takes from a trial still whole;
// the callers then keep only the trial's numbers (see slim).
func (s *scanFlat) gate(ft, first flatTrial) {
	n := len(s.env.targets)
	s.rep.Attempted += int64(n)
	if got := ft.infer.res.NumDomains; got != n {
		s.rep.fail(int64(abs(n-got)), "inference saw %d domains, want %d", got, n)
	}
	if got := ft.collect.fleet.Domains; got != n {
		s.rep.fail(int64(abs(n-got)), "fleet collected %d domains, want %d", got, n)
	}
	if got := len(ft.infer.verdicts); got != n {
		s.rep.fail(int64(abs(n-got)), "%d attributions delivered, want %d", got, n)
	}
	if ft.digest != first.digest {
		s.rep.fail(1, "merged snapshot digest %s differs from the first trial's %s", ft.digest[:12], first.digest[:12])
	}
	if ft.correct != first.correct || ft.untrust != first.untrust {
		s.rep.fail(1, "correct/untrusted counts %d/%d differ from the first trial's %d/%d", ft.correct, ft.untrust, first.correct, first.untrust)
	}
	if ft.checked == 0 || float64(ft.correct) < 0.95*float64(ft.checked) {
		s.rep.fail(int64(ft.checked-ft.correct), "attribution matches ground truth on %d of %d domains, below 0.95", ft.correct, ft.checked)
	}
}

// slim drops what a trial holds of the program's output once it has
// been scored, so that kept trials do not grow the heap the next ones
// are measured in.
func (ft flatTrial) slim() flatTrial {
	ft.infer.verdicts = nil
	ft.infer.res = nil
	return ft
}

func runScanFlat(opt options, rep *report) error {
	dir, err := workDir(opt.outDir, onFlat)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep.Sizes["domains"] = float64(opt.flatDomains)

	env, setupTimes, err := repeatSetup(opt.setupRepeats, rep.cal,
		func() (*flatEnv, error) { return newFlatEnv(opt.seed, opt.flatDomains, opt.workers) },
		func(*flatEnv) {},
	)
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	defer heap.close()
	s := &scanFlat{env: env, dir: dir, heap: heap, rep: rep}
	if opt.breakCheck {
		// Score against a world of another seed: its truth differs.
		wrong, err := newFlatEnv(opt.seed+1, opt.flatDomains, opt.workers)
		if err != nil {
			return err
		}
		env.truth = wrong.fw
	}

	warm, err := s.trial(nil, 0, nil)
	if err != nil {
		return err
	}
	s.gate(warm, warm)
	warm = warm.slim()

	var (
		plain, traced []flatTrial
		meters        []*flatMeters
		tr            *tracer
	)
	if opt.traced {
		tr = newTracer()
	}
	err = runTrials(opt, rep.cal, func(trial int) error {
		ft, err := s.trial(nil, trial, nil)
		if err != nil {
			return err
		}
		s.gate(ft, warm)
		plain = append(plain, ft.slim())
		return nil
	}, func(trial int) error {
		m := newFlatMeters(tr)
		ft, err := s.trial(tr, trial, m)
		if err != nil {
			return err
		}
		s.gate(ft, warm)
		traced = append(traced, ft.slim())
		meters = append(meters, m)
		return nil
	})
	if err != nil {
		return err
	}
	if !opt.traced {
		n := float64(len(env.targets))
		rep.setEndToEnd(
			mapTrials(plain, func(t flatTrial) float64 { return n / t.wallS }),
			mapTrials(plain, func(t flatTrial) float64 { return t.wallS * 1e3 }),
			mapTrials(plain, func(t flatTrial) float64 { return t.peakMi }),
			setupTimes)
		return nil
	}
	return s.layers(opt, tr, warm, plain, traced, meters)
}

// layers runs the two dataset probes and reports the per-layer metrics
// of the traced trials.
func (s *scanFlat) layers(opt options, tr *tracer, warm flatTrial, plain, trials []flatTrial, meters []*flatMeters) error {
	rep := s.rep
	out := snapshotPath(s.dir, "flat")
	streamS, shardS, err := datasetProbes(out, s.dir)
	if err != nil {
		return err
	}

	n := float64(len(s.env.targets))
	each := func(name string, f func(flatTrial) float64) { rep.setSamples(name, mapTrials(trials, f)) }
	meter := func(name string, f func(*flatMeters) float64) { rep.setSamples(name, mapTrials(meters, f)) }
	each("scan.collect_s", func(t flatTrial) float64 { return t.collect.collectS })
	each("scan.steals", func(t flatTrial) float64 { return float64(t.collect.fleet.Steals) })
	each("scan.allocs_per_domain", func(t flatTrial) float64 { return t.collect.collectAl / n })
	each("scan.peak_heap_mb", func(t flatTrial) float64 { return t.collect.collectMi })
	meter("world.resolve_s", func(m *flatMeters) float64 { return m.resolve.busySeconds() })
	meter("smtp.sessions", func(m *flatMeters) float64 { return float64(m.sessions.calls.Load()) })
	meter("smtp.session_s", func(m *flatMeters) float64 { return m.sessions.busySeconds() })
	each("dataset.shards", func(t flatTrial) float64 { return float64(t.collect.merge.Shards) })
	each("dataset.merge_s", func(t flatTrial) float64 { return t.collect.mergeS })
	each("dataset.merged_mb", func(t flatTrial) float64 { return float64(t.bytes) / mib })
	each("dataset.merge_allocs_per_record", func(t flatTrial) float64 {
		return t.collect.mergeAl / float64(t.collect.merge.Domains+t.collect.merge.IPs)
	})
	rep.setSamples("dataset.stream_s", streamS)
	rep.setSamples("dataset.shard_write_s", shardS)
	each("core.pass_a_s", func(t flatTrial) float64 { return t.infer.passAS })
	each("core.pass_b_s", func(t flatTrial) float64 { return t.infer.passBS })
	stream := median(streamS)
	each("core.infer_self_s", func(t flatTrial) float64 { return t.infer.passAS + t.infer.passBS - 2*stream })
	each("core.allocs_per_domain", func(t flatTrial) float64 { return t.infer.mallocs / n })
	each("core.peak_heap_mb", func(t flatTrial) float64 { return t.infer.peakMi })
	each("analysis.accumulate_s", func(t flatTrial) float64 { return t.infer.accumulateS })
	rep.set("core.correct", float64(warm.correct))
	rep.set("core.untrusted", float64(warm.untrust))

	each("host.steal_share", func(t flatTrial) float64 { return 1 - t.granted })
	wall := func(t flatTrial) float64 { return t.wallS }
	rep.set("trace.overhead_share", median(mapTrials(trials, wall))/median(mapTrials(plain, wall))-1)
	return finishTrace(tr, opt, rep)
}

// datasetProbes times the two dataset operations the pipeline never
// runs alone: one bare streaming pass over the merged snapshot, and the
// replay of its records through a shard writer. Three times each.
func datasetProbes(merged, dir string) (streamS, shardS []float64, err error) {
	const probes = 3
	for i := 0; i < probes; i++ {
		st, err := dataset.OpenStream(merged)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		err = st.ForEach(
			func(*dataset.DomainRecord) error { return nil },
			func(*dataset.IPInfo) error { return nil },
		)
		if err != nil {
			return nil, nil, err
		}
		streamS = append(streamS, time.Since(start).Seconds())
	}
	snap, err := dataset.ReadFile(merged)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < probes; i++ {
		set := dataset.NewShardSet(snapshotPath(dir, "probe"), snap.Date, snap.Corpus)
		start := time.Now()
		w := set.NewWriter()
		for i := range snap.Domains {
			if err := w.AddDomain(snap.Domains[i]); err != nil {
				return nil, nil, err
			}
		}
		for _, info := range snap.IPs {
			if err := w.AddIP(info); err != nil {
				return nil, nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, nil, err
		}
		shardS = append(shardS, time.Since(start).Seconds())
		if err := set.Remove(); err != nil {
			return nil, nil, err
		}
	}
	return streamS, shardS, nil
}
