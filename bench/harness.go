package main

import (
	"fmt"
	"runtime"
	"time"
)

// timedTrials calls fn with trial numbers 1, 2, ... until budget is
// spent, and at least min times. Trial 0 is the caller's warm-up.
func timedTrials(budget time.Duration, min int, fn func(trial int) error) error {
	start := time.Now()
	for trial := 1; trial <= min || time.Since(start) < budget; trial++ {
		if err := fn(trial); err != nil {
			return err
		}
	}
	return nil
}

// repeatSetup builds the workload's environment repeats times (a cheap
// one up to eight times as often, within a second) and keeps the last:
// set-up time is reported as a median like every other timing, so that
// work moved into set-up shows. The reference kernel runs before the
// first build and after each.
func repeatSetup[E any](repeats int, cal *calibrator, build func() (E, error), destroy func(E)) (E, []float64, error) {
	var (
		env   E
		built bool
		times []float64
		spent time.Duration
	)
	if err := cal.sample(); err != nil {
		return env, nil, err
	}
	for i := 0; i < repeats || (i < 8*repeats && spent < time.Second); i++ {
		if built {
			destroy(env)
		}
		runtime.GC()
		cpu := markCPU()
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds()*cpu.grantedSince())
		env, built = e, true
		if err := cal.sample(); err != nil {
			destroy(env)
			return env, nil, err
		}
	}
	return env, times, nil
}

// runTrials runs the timed trials of a workload until --seconds are
// spent: at least three plain ones, and in a traced run as many traced
// ones between them. Plain and traced trials alternate so that both see
// the same machine conditions and their ratio is the tracing overhead.
// The reference kernel runs after every trial (the set-up left its last
// sample just before the first), inside the budget.
func runTrials(opt options, cal *calibrator, plain, traced func(trial int) error) error {
	min := 3
	if opt.traced {
		min = 6
	}
	return timedTrials(time.Duration(opt.seconds*float64(time.Second)), min, func(trial int) error {
		run := plain
		if opt.traced && trial%2 == 0 {
			run = traced
		}
		if err := run(trial); err != nil {
			return err
		}
		return cal.sample()
	})
}

// setEndToEnd reports the four end-to-end metrics from per-trial values.
// Timings are given in reference time: divided by how much slower than
// nominal the box ran the reference kernel during this run.
func (r *report) setEndToEnd(opsPerS, latencyMS, peakMi, setupS []float64) {
	slow := r.cal.slowdown()
	faster := func(x float64) float64 { return x * slow }
	shorter := func(x float64) float64 { return x / slow }
	r.setSamples("ops_per_s", mapTrials(opsPerS, faster))
	r.setSamples("latency_ms", mapTrials(latencyMS, shorter))
	r.setSamples("peak_heap_mb", peakMi)
	r.setSamples("setup_s", mapTrials(setupS, shorter))
}

func abs[T int | int64](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// finishTrace writes the span file and reports how much of each trial's
// wall the named stages account for.
func finishTrace(tr *tracer, opt options, rep *report) error {
	path, accts, err := tr.write(opt.outDir, rep.Workload, rep.Machine)
	if err != nil {
		return err
	}
	rep.TraceFile = path
	share := minAccountedShare(accts)
	rep.set("trace.accounted_share", share)
	if share < 0.95 {
		rep.fail(1, "named stages account for %.3f of a trial's wall, below 0.95", share)
	}
	return nil
}

func mapTrials[T any](ts []T, f func(T) float64) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return xs
}
