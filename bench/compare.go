package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// readReports loads a result file: one report, as a run writes it to
// out/result-*.json, or an array of them, as -repeat writes.
func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b = bytes.TrimSpace(b)
	if len(b) > 0 && b[0] == '[' {
		var reps []*report
		if err := json.Unmarshal(b, &reps); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return reps, nil
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Workload == "" {
		return nil, fmt.Errorf("%s: not a bench result (no workload)", path)
	}
	return []*report{&rep}, nil
}

// worseBy is how much worse now is than before, as a share of before,
// in the metric's own direction; negative means better.
func worseBy(d metricDef, before, now float64) float64 {
	if before == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (before - now) / before
	}
	return (now - before) / before
}

func failShare(r *report) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// compareReports prints, for every workload both sides ran in the same
// mode, each metric's change, and applies each end-to-end metric's
// direction and bound. It reports whether anything regressed: an
// end-to-end metric worse by more than its bound, or a higher share of
// failed operations.
func compareReports(w io.Writer, before, now []*report) (regressed bool) {
	type key struct {
		workload string
		traced   bool
	}
	old := make(map[key]*report)
	for _, r := range before {
		old[key{r.Workload, r.Traced}] = r
	}
	matched := 0
	for _, n := range now {
		o, ok := old[key{n.Workload, n.Traced}]
		if !ok {
			continue
		}
		matched++
		fmt.Fprintf(w, "%s (traced=%v)\n", n.Workload, n.Traced)
		if o.Machine != n.Machine {
			fmt.Fprintf(w, "  note: the two results come from different machines; timings are not comparable\n")
		}
		list := endToEnd
		if n.Traced {
			list = perLayer
		}
		for _, d := range list {
			ov, ook := o.Metrics[d.Name]
			nv, nok := n.Metrics[d.Name]
			if !ook || !nok {
				continue
			}
			worse := worseBy(d, ov.Value, nv.Value)
			verdict := ""
			switch {
			case n.Traced:
			case worse > d.Bound:
				verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", d.Bound*100)
				regressed = true
			default:
				verdict = fmt.Sprintf("within bound %.0f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "  %-32s %14.4f -> %14.4f %-6s %+7.1f%% worse  %s\n", d.Name, ov.Value, nv.Value, d.Unit, worse*100, verdict)
		}
		if of, nf := failShare(o), failShare(n); nf > of {
			fmt.Fprintf(w, "  fail_share %g -> %g  REGRESSION (any increase)\n", of, nf)
			regressed = true
		}
	}
	if matched == 0 {
		fmt.Fprintln(w, "no workload appears on both sides in the same mode")
		return true
	}
	return regressed
}

func runCompare(w io.Writer, beforePath, nowPath string) int {
	before, err := readReports(beforePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	now, err := readReports(nowPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compareReports(w, before, now) {
		return 1
	}
	return 0
}

// runRepeat runs every workload twice and fails if the two sets
// disagree beyond the bounds in either direction, or if either is
// incorrect: the benchmark's own steadiness check.
func runRepeat(w io.Writer, opt options) int {
	var sets [2][]*report
	for i := range sets {
		for _, wl := range workloads {
			o := opt
			o.workload = wl.name
			o.traced = false
			rep, err := runWorkload(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			rep.print(w)
			sets[i] = append(sets[i], rep)
		}
		b, err := json.MarshalIndent(sets[i], "", "  ")
		if err == nil {
			err = os.MkdirAll(opt.outDir, 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(opt.outDir, fmt.Sprintf("repeat-%d.json", i+1)), append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	bad := false
	for _, set := range sets {
		for _, r := range set {
			if !r.Correct {
				fmt.Fprintf(w, "%s: incorrect: %v\n", r.Workload, r.Problems)
				bad = true
			}
		}
	}
	fmt.Fprintln(w, "second set against first:")
	bad = compareReports(w, sets[0], sets[1]) || bad
	fmt.Fprintln(w, "first set against second:")
	bad = compareReports(w, sets[1], sets[0]) || bad
	if bad {
		return 1
	}
	return 0
}
