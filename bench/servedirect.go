package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/serve"
)

const loopbackNote = "serving traffic crosses the host's loopback TCP (127.0.0.1); the snapshot is collected in-process"

// directEnv is serve-direct's environment: one loaded replica.
type directEnv struct {
	snap *snapshotEnv
	rep  *replica
	dir  string
}

func (e *directEnv) destroy() {
	e.rep.stop()
	os.RemoveAll(e.dir)
}

// epochRefs maps the epochs of a service that loaded A and then swaps
// B, A, B, ... to the snapshot each one served.
type epochRefs struct{ a, b *reference }

func (r *epochRefs) refFor(epoch uint64) *reference {
	switch {
	case epoch == 0:
		return nil
	case epoch%2 == 1:
		return r.a
	}
	return r.b
}

func runServeDirect(opt options, rep *report) error {
	rep.Transport = loopbackNote
	rep.Sizes["domains"] = float64(opt.serveDomains)
	rep.Sizes["connections"] = float64(opt.workers)
	dir, err := workDir(opt.outDir, onDirect)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	heap := startHeapSampler()
	defer heap.close()

	builds := 0
	env, setupTimes, err := repeatSetup(opt.setupRepeats, rep.cal, func() (*directEnv, error) {
		builds++
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", builds))
		snap, err := buildSnapshot(opt.seed, opt.serveDomains, opt.workers, sub, heap)
		if err != nil {
			return nil, err
		}
		r, err := snap.startReplica(snap.pathA)
		if err != nil {
			return nil, err
		}
		return &directEnv{snap: snap, rep: r, dir: sub}, nil
	}, (*directEnv).destroy)
	if err != nil {
		return err
	}
	liveMi := liveHeapMiB() // before any client starts

	refs := &epochRefs{}
	if refs.a, err = buildReference(env.snap.pathA, env.snap.flat.infer, opt.breakCheck); err != nil {
		return err
	}
	rig := newLoadRig(opt, env.snap, refs.refFor, heap, rep)

	// The traced twin: a second server over the same service whose only
	// difference is the observation clock behind the handler histograms.
	var (
		tr         *tracer
		tracedSrv  *serve.Server
		tracedAddr string
		tracedErrc chan error
	)
	if opt.traced {
		tr = newTracer()
		tracedSrv, tracedAddr, tracedErrc, err = startServer(serve.Config{Service: env.rep.svc, Clock: time.Now})
		if err != nil {
			return err
		}
	}

	rig.saturate(env.rep.addr, "warm-up", 0, false)
	var plain, traced []saturateTrial
	err = runTrials(opt, rep.cal, func(trial int) error {
		plain = append(plain, rig.saturate(env.rep.addr, "saturate", trial, false))
		return nil
	}, func(trial int) error {
		traced = append(traced, rig.tracedSaturate(tr, "serve.saturate", tracedAddr, trial))
		return nil
	})
	if err != nil {
		return err
	}

	if !opt.traced {
		rep.setEndToEnd(
			mapTrials(plain, trialRPS),
			mapTrials(plain, func(t saturateTrial) float64 { return t.p50 / 1e3 }),
			mapTrials(plain, func(t saturateTrial) float64 { return t.peakMi }),
			setupTimes)
		st, err := env.rep.stop()
		gateServer(rep, "server", st, err)
		return nil
	}

	// Read path, layer by layer.
	all := mergedLatencies(traced)
	clientP50 := percentileNS(all, 0.5) / 1e3
	h50, n50 := tracedSrv.LatencyQuantile("/v1/domain", 0.5)
	h99, _ := tracedSrv.LatencyQuantile("/v1/domain", 0.99)
	if n50 == 0 {
		rep.fail(1, "traced server observed no /v1/domain latency")
	}
	rep.set("serve.handler_p50_us", float64(h50.Nanoseconds())/1e3)
	rep.set("serve.handler_p99_us", float64(h99.Nanoseconds())/1e3)
	rep.set("serve.wire_p50_us", clientP50-float64(h50.Nanoseconds())/1e3)
	rep.set("serve.p99_us", supportedPercentile(all, 0.99)/1e3)
	rep.set("serve.p999_us", supportedPercentile(all, 0.999)/1e3)
	var bytesIn, okReqs, reconnects int64
	for _, t := range traced {
		bytesIn += t.bytesIn
		okReqs += t.ok
		reconnects += t.reconnects
	}
	if okReqs > 0 {
		rep.set("serve.bytes_per_response", float64(bytesIn)/float64(okReqs))
	}
	rep.set("serve.reconnects", float64(reconnects))
	rep.setSamples("host.steal_share", mapTrials(traced, func(t saturateTrial) float64 { return 1 - t.granted }))
	rep.set("trace.overhead_share", median(mapTrials(plain, trialRPS))/median(mapTrials(traced, trialRPS))-1)

	floorAllocs, err := rig.generatorFloor()
	if err != nil {
		return err
	}
	runtime.GC()
	mark := markAllocs()
	extra := runLoad(rig.spec(env.rep.addr, 7000))
	mallocs, _ := mark.since()
	extra.account(rep, "saturate (allocation count)")
	rep.set("serve.allocs_per_request", mallocs/float64(extra.sent)-floorAllocs)

	// Open-loop diagnostics: 1000 requests per second in total.
	pacedSpec := rig.spec(env.rep.addr, 11000)
	pacedSpec.duration, pacedSpec.rate = 2*rig.dur, 1000
	paced := runLoad(pacedSpec)
	paced.account(rep, "paced")
	rep.set("serve.paced_p50_us", percentileNS(paced.lat, 0.5)/1e3)
	rep.set("gen.late_p99_us", supportedPercentile(paced.late, 0.99)/1e3)

	// Write path: fresh loads, then swaps under light paced traffic.
	rep.set("serve.live_heap_mb", liveMi)
	if err := directLoads(env, rep); err != nil {
		return err
	}
	if err := directSwaps(opt, env, refs, rig, tr, dir); err != nil {
		return err
	}

	st, err := stopServer(tracedSrv, tracedErrc)
	gateServer(rep, "traced server", st, err)
	st, err = env.rep.stop()
	gateServer(rep, "server", st, err)
	rep.set("serve.shed", float64(st.Shed))
	rep.set("serve.lost", float64(st.Lost()))
	return finishTrace(tr, opt, rep)
}

// directLoads times fresh Service.Load calls of snapshot A: path to
// first epoch published.
func directLoads(env *directEnv, rep *report) error {
	var loadS, allocMi []float64
	for i := 0; i < 3; i++ {
		svc := serve.NewService(core.ApproachPriority, env.snap.serviceConfig())
		runtime.GC()
		mark := markAllocs()
		start := time.Now()
		meta, err := svc.Load(env.snap.pathA)
		loadS = append(loadS, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		_, allocated := mark.since()
		allocMi = append(allocMi, allocated/mib)
		rep.Attempted++
		if meta.Domains != len(env.snap.flat.targets) || meta.Epoch != 1 {
			rep.fail(1, "fresh load published epoch %d with %d domains", meta.Epoch, meta.Domains)
		}
	}
	rep.setSamples("serve.load_s", loadS)
	rep.setSamples("serve.load_alloc_mb", allocMi)
	return nil
}

// churnedSnapshot writes snapshot B next to A: A with a seeded 2 % of
// its domains re-pointed at another domain's MX set and 0.5 % removed,
// through dataset's public reader and writer.
func churnedSnapshot(pathA, pathB string, seed uint64) error {
	snap, err := dataset.ReadFile(pathA)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 0x6368726e)) // "chrn"
	n := len(snap.Domains)
	kept := snap.Domains[:0:0]
	for i := range snap.Domains {
		d := snap.Domains[i]
		switch p := rng.Float64(); {
		case p < 0.005:
			continue
		case p < 0.025:
			d.MX = snap.Domains[rng.IntN(n)].MX
		}
		kept = append(kept, d)
	}
	snap.Domains = kept
	return dataset.WriteFile(pathB, snap)
}

// directSwaps alternates Service.Swap between B and A while a light
// paced load keeps asking; every answer is decoded and checked against
// the epoch it claims.
func directSwaps(opt options, env *directEnv, refs *epochRefs, rig *loadRig, tr *tracer, dir string) error {
	rep, heap := rig.rep, rig.heap
	pathB := snapshotPath(dir, "b")
	if err := churnedSnapshot(env.snap.pathA, pathB, opt.seed); err != nil {
		return err
	}
	var err error
	if refs.b, err = buildReference(pathB, env.snap.flat.infer, opt.breakCheck); err != nil {
		return err
	}

	stop := make(chan struct{})
	pacedDone := make(chan loadResult, 1)
	go func() {
		spec := rig.spec(env.rep.addr, 13000)
		spec.duration, spec.stop, spec.rate = time.Hour, stop, 1000
		spec.fullCheckEvery, spec.anyFound = 1, true
		pacedDone <- runLoad(spec)
	}()

	const swaps = 4
	var swapS, allocMi, peakMi []float64
	var last *serve.ChurnReport
	for i := 0; i < swaps; i++ {
		path := pathB
		if i%2 == 1 {
			path = env.snap.pathA
		}
		runtime.GC()
		mark := markAllocs()
		heap.take()
		root := tr.begin(0, 1000+i, "trial")
		sp := tr.begin(root, 1000+i, "serve.swap")
		start := time.Now()
		churn, err := env.rep.svc.Swap(context.Background(), path)
		swapS = append(swapS, time.Since(start).Seconds())
		tr.end(sp)
		tr.end(root)
		if err != nil {
			close(stop)
			<-pacedDone
			return fmt.Errorf("swap: %w", err)
		}
		peakMi = append(peakMi, heap.take())
		_, allocated := mark.since()
		allocMi = append(allocMi, allocated/mib)
		rep.Attempted++
		if churn.FullRecompute {
			rep.fail(1, "swap %d fell back to a full recompute", i)
		}
		if i%2 == 0 {
			last = churn // the A-to-B direction
		}
	}
	close(stop)
	paced := <-pacedDone
	paced.account(rep, "lookups during swaps")

	rep.setSamples("serve.swap_s", swapS)
	rep.setSamples("serve.swap_alloc_mb", allocMi)
	rep.setSamples("serve.swap_peak_heap_mb", peakMi)
	rep.set("core.delta_reused", float64(last.Delta.Reused))
	rep.set("core.delta_reinferred", float64(last.Delta.Reinferred))
	rep.set("dataset.diff_changed", float64(last.Diff.Changed))
	rep.set("dataset.diff_removed", float64(last.Diff.Removed))
	rep.set("serve.swap_p99_us", supportedPercentile(paced.lat, 0.99)/1e3)
	return nil
}
