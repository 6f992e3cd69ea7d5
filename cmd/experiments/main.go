// Command experiments regenerates every table and figure of the paper's
// evaluation section against a freshly generated, calibrated world:
//
//	Figure 4  — approach accuracy on sampled domains
//	Table 4   — data availability breakdown
//	Table 5   — provider IDs per company
//	Figure 5  — top companies per corpus segment
//	Figure 6  — longitudinal market share (nine panels)
//	Figure 7  — churn flow matrix
//	Figure 8  — provider preferences by ccTLD
//	Table 6   — top 15 companies per corpus
//
// plus the two extensions (SPF eventual provider, market concentration).
// The selected artifacts form one experiments.Plan: each (corpus, date)
// they read is collected once into a file and passed over once, whatever
// the number of artifacts that read it. Artifacts are printed, in the
// order above, and, with -out, written as .txt files; -misid writes the
// oracle-scored adversarial robustness report instead.
//
// Usage:
//
//	experiments [-scale 0.05] [-seed 1] [-out results/] [-only fig4,table6]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mxmap/internal/experiments"
	"mxmap/internal/report"
	"mxmap/internal/sigctx"
	"mxmap/internal/world"
)

var (
	scale       = flag.Float64("scale", 0.05, "fraction of the paper's corpus sizes to simulate")
	seed        = flag.Uint64("seed", 1, "world generation seed")
	outDir      = flag.String("out", "", "directory to write artifacts into (optional)")
	only        = flag.String("only", "", "comma-separated subset: "+artifactNames())
	sample      = flag.Int("sample", 200, "Figure 4 sample size per corpus variant")
	parallelism = flag.Int("parallelism", 0, "inference/collection worker count (0 = GOMAXPROCS, 1 = serial)")
	misid       = flag.Bool("misid", false, "collect a deterministic adversarial corpus and write the oracle-scored robustness report as MISID.json instead of regenerating artifacts")
)

// artifact is one regenerable output: the name -only selects it by, the
// base name of the files -out writes, and the plan method that
// registers it, returning what renders its table.
type artifact struct {
	name, file string
	table      func(*experiments.Plan) func() (*report.Table, error)
}

// artifacts lists every output in the order it is emitted. It is the
// one table behind -only's validation, its help text and the run.
var artifacts = []artifact{
	{"fig4", "fig4_accuracy", func(p *experiments.Plan) func() (*report.Table, error) {
		return p.Fig4(*sample, *seed)
	}},
	{"table4", "table4_breakdown", (*experiments.Plan).Table4},
	{"table5", "table5_provider_ids", (*experiments.Plan).Table5},
	{"fig5", "fig5_top_companies", (*experiments.Plan).Fig5},
	{"fig6", "fig6_longitudinal", nil}, // nine charts, not a table
	{"fig7", "fig7_churn", (*experiments.Plan).Fig7},
	{"fig8", "fig8_cctld", (*experiments.Plan).Fig8},
	{"table6", "table6_top15", (*experiments.Plan).Table6},
	{"spf", "ext_spf_eventual_provider", (*experiments.Plan).ExtSPF},
	{"concentration", "ext_concentration", (*experiments.Plan).ExtConcentration},
}

func artifactNames() string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return strings.Join(names, ",")
}

// parseOnly turns -only's comma-separated list into the set of selected
// artifact names; the empty list stands for all of them.
func parseOnly(only string) (map[string]bool, error) {
	if only == "" {
		only = artifactNames()
	}
	selected := make(map[string]bool)
	for _, part := range strings.Split(only, ",") {
		name := strings.TrimSpace(part)
		if !slices.ContainsFunc(artifacts, func(a artifact) bool { return a.name == name }) {
			return nil, fmt.Errorf("-only: unknown artifact %q (want a subset of %s)", name, artifactNames())
		}
		selected[name] = true
	}
	return selected, nil
}

func main() {
	flag.Parse()
	selected, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

	if *misid {
		if err := runMisid(*outDir, *parallelism); err != nil {
			log.Fatal(err)
		}
		return
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating world (scale=%.3f seed=%d)...\n", *scale, *seed)
	study, err := experiments.NewStudy(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	study.Parallelism = *parallelism
	fmt.Fprintf(os.Stderr, "world ready in %v (%d hosts)\n", time.Since(start).Round(time.Millisecond), len(study.World.Hosts))

	// A multi-hour artifact regeneration should die gracefully on ^C
	// (and immediately on a second one).
	ctx, stopSignals := sigctx.WithInterrupt(context.Background())
	defer stopSignals()

	plan := study.NewPlan()
	tables := make([]func() (*report.Table, error), len(artifacts))
	var fig6 func() ([]*report.Chart, error)
	for i, a := range artifacts {
		switch {
		case !selected[a.name]:
		case a.table == nil:
			fig6 = plan.Fig6()
		default:
			tables[i] = a.table(plan)
		}
	}
	// The renderers read only what the folds kept, so the study's files
	// and servers go now, before any exit through log.Fatal, which runs
	// no deferred call.
	err = plan.Run(ctx)
	if cerr := study.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range artifacts {
		switch {
		case !selected[a.name]:
		case a.table == nil:
			emitFig6(fig6, *outDir, a.file)
		default:
			t, err := tables[i]()
			if err != nil {
				log.Fatalf("%s: %v", a.name, err)
			}
			if err := t.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
			writeArtifact(*outDir, a.file+".txt", t.WriteText)
			writeArtifact(*outDir, a.file+".csv", t.WriteCSV)
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// emitFig6 prints the nine longitudinal panels and writes them as one
// text file plus one SVG each.
func emitFig6(fig6 func() ([]*report.Chart, error), outDir, file string) {
	charts, err := fig6()
	if err != nil {
		log.Fatalf("fig6: %v", err)
	}
	writeAll := func(f io.Writer) error {
		for _, c := range charts {
			if err := c.WriteText(f); err != nil {
				return err
			}
			fmt.Fprintln(f)
		}
		return nil
	}
	if err := writeAll(os.Stdout); err != nil {
		log.Fatal(err)
	}
	writeArtifact(outDir, file+".txt", writeAll)
	for i, c := range charts {
		writeArtifact(outDir, fmt.Sprintf("fig6%c_longitudinal.svg", 'a'+i), c.WriteSVG)
	}
}

func writeArtifact(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	// A full disk can surface only here; an unchecked Close would leave
	// a silently truncated artifact.
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
