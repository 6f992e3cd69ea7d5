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
	path, err := s.File(context.Background(), world.CorpusAlexa, s.LastDate(world.CorpusAlexa))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := dataset.ReadFile(path)
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
