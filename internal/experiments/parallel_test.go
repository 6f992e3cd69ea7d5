package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/world"
)

// TestParallelInferEquivalenceOnWorld runs every approach over a real
// measured snapshot of the seeded world, serially and with an 8-worker
// pool, and asserts identical output — MX assignments, per-domain
// attributions and the step-4 counters. This is the end-to-end
// determinism guarantee behind core.Config.Parallelism.
func TestParallelInferEquivalenceOnWorld(t *testing.T) {
	s := study(t)
	snap, err := s.Snapshot(context.Background(), world.CorpusAlexa, s.LastDate(world.CorpusAlexa))
	if err != nil {
		t.Fatal(err)
	}
	for _, approach := range core.Approaches() {
		serial := core.Infer(snap, approach, core.Config{Profiles: s.Profiles, Parallelism: 1})
		par := core.Infer(snap, approach, core.Config{Profiles: s.Profiles, Parallelism: 8})
		if serial.NumExamined != par.NumExamined || serial.NumCorrected != par.NumCorrected {
			t.Errorf("%s: step-4 counters diverged: examined %d/%d corrected %d/%d",
				approach, serial.NumExamined, par.NumExamined, serial.NumCorrected, par.NumCorrected)
		}
		if len(serial.MX) != len(par.MX) {
			t.Fatalf("%s: MX count %d vs %d", approach, len(serial.MX), len(par.MX))
		}
		for ex, sa := range serial.MX {
			pa := par.MX[ex]
			if pa == nil || !reflect.DeepEqual(*sa, *pa) {
				t.Fatalf("%s: assignment for %q diverged:\nserial:   %+v\nparallel: %+v", approach, ex, sa, pa)
			}
		}
		if !reflect.DeepEqual(serial.Domains, par.Domains) {
			t.Fatalf("%s: domain attributions diverged", approach)
		}
	}
}

// TestFig6DeltaChainMatchesFull pins Fig6's incremental inference to
// the from-scratch baseline: a second study pre-fills its result cache
// with full inference for every corpus-snapshot, so its assembly pass
// never reads a delta-chained result, and both studies must render
// byte-identical charts. Consecutive snapshots must also share
// unchanged domains — with nothing to reuse, the chain would re-infer
// everything and the equality check would hold nothing.
func TestFig6DeltaChainMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a second world generation")
	}
	full, err := NewStudy(world.Config{Seed: 21, Scale: 0.003, TailProviders: 20, SelfISPs: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	ctx := context.Background()
	for _, k := range full.fig6Keys() {
		if _, err := full.Result(ctx, k.corpus, k.date); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := full.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}

	s := study(t)
	got, err := s.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(got) {
		t.Fatalf("panel count %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		var sb1, sb2 strings.Builder
		ref[i].WriteText(&sb1)
		got[i].WriteText(&sb2)
		if sb1.String() != sb2.String() {
			t.Errorf("panel %d diverged between full and delta-chained inference:\n--- full\n%s\n--- delta\n%s", i, sb1.String(), sb2.String())
		}
	}
	for _, corpus := range Corpora() {
		dates := s.World.Corpus(corpus).Dates
		prev, err1 := s.Snapshot(ctx, corpus, dates[len(dates)-2])
		last, err2 := s.Snapshot(ctx, corpus, dates[len(dates)-1])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if ds, err := dataset.DiffSnapshots(prev, last, nil); err != nil || ds.Unchanged == 0 {
			t.Errorf("%s: diff of the last two dates = %+v, %v: the chain had nothing to reuse", corpus, ds, err)
		}
	}
}

// TestFig6ParallelMatchesSerial regenerates Figure 6 with serial and
// parallel collection on two studies sharing a seed, asserting identical
// chart text.
func TestFig6ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a second world generation")
	}
	s2, err := NewStudy(world.Config{Seed: 21, Scale: 0.003, TailProviders: 20, SelfISPs: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Parallelism = 8

	s1 := study(t) // serial-collected reference (Parallelism 0 → GOMAXPROCS for Infer, but same output by the equivalence guarantee)
	ctx := context.Background()
	ref, err := s1.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(got) {
		t.Fatalf("panel count %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		var sb1, sb2 strings.Builder
		ref[i].WriteText(&sb1)
		got[i].WriteText(&sb2)
		if sb1.String() != sb2.String() {
			t.Errorf("panel %d diverged between serial and parallel collection:\n--- serial\n%s\n--- parallel\n%s", i, sb1.String(), sb2.String())
		}
	}
}
