package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestContractMatchesBenchmarkJSON keeps the names, units, directions
// and bounds the code emits equal to the ones BENCHMARK.json declares.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, code has %d", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the name or why limits", w.Name)
		}
		seen[w.Name] = true
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, code has %d", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	setup, _ := findMetric("setup_s")
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("setup_s must carry the largest bound, %s has %v", d.Name, d.Bound)
		}
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, code has %d", len(bj.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Error("over the contract's size limits")
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, code has %+v", i, m, d)
		}
		if d.Layer == "" || d.Moves == "" || !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s: needs its layer as prefix and a prediction", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q (%q) breaks the name or unit alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	s := summarize(xs)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	s = summarize([]float64{40, 10, 20})
	if s.Q1 != 10 || s.Median != 20 || s.Q3 != 40 {
		t.Errorf("summarize of three = %+v", s)
	}
	if got := summarize([]float64{100, 110, 90}).spread(); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// TestTailPercentile pins the rule: the highest percentile with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.9, true},
		{199, 0.9, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	// A 500-sample run asked for p99.9 gets p95, not the maximum.
	sorted := make([]uint32, 500)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	if got := supportedPercentile(sorted, 0.999); got != 475 {
		t.Errorf("supportedPercentile(500 samples, p99.9) = %v, want the p95 of 475", got)
	}
	if got := supportedPercentile(sorted, 0.9); got != 450 {
		t.Errorf("supportedPercentile(500 samples, p90) = %v, want 450", got)
	}
	if got := percentileNS(sorted, 0.5); got != 250 {
		t.Errorf("p50 = %v, want 250", got)
	}
}

// TestSelfTimes checks the span arithmetic: self time is duration minus
// the union of the children, overlapping children counted once and
// clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Trial: 1, Name: "trial", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trial: 1, Name: "collect", Start: 5, End: 60},
		{ID: 3, Parent: 1, Trial: 1, Name: "infer", Start: 60, End: 98},
		// Two overlapping leaves and one that sticks out of its parent.
		{ID: 4, Parent: 2, Trial: 1, Name: "lookup", Start: 10, End: 30},
		{ID: 5, Parent: 2, Trial: 1, Name: "lookup", Start: 20, End: 40},
		{ID: 6, Parent: 2, Trial: 1, Name: "lookup", Start: 55, End: 70},
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 7, 2: 55 - 30 - 5, 3: 38, 4: 20, 5: 20, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	accts := accountTrials(spans)
	if len(accts) != 1 || accts[0].WallNS != 100 || len(accts[0].Stages) != 2 {
		t.Fatalf("accounts = %+v", accts)
	}
	if got := accts[0].AccountedShare; math.Abs(got-0.93) > 1e-9 {
		t.Errorf("accounted share = %v, want 0.93", got)
	}
	if got := minAccountedShare(accts); math.Abs(got-0.93) > 1e-9 {
		t.Errorf("min accounted share = %v", got)
	}
}

// TestTracerAttachesLeavesToStage drives the tracer the way a trial
// does and checks parents, the per-stage cap and the nil tracer.
func TestTracerAttachesLeavesToStage(t *testing.T) {
	var off *tracer
	if id := off.begin(0, 1, "x"); id != 0 {
		t.Errorf("nil tracer opened span %d", id)
	}
	off.end(0)
	off.leaf("x", time.Now(), time.Now())

	tr := newTracer()
	root := tr.begin(0, 3, "trial")
	stage := tr.begin(root, 3, "scan.collect")
	now := time.Now()
	for i := 0; i < maxLeavesPerStage+5; i++ {
		tr.leaf("dns.lookup", now, now.Add(time.Microsecond))
	}
	tr.end(stage)
	tr.leaf("late", now, now) // between stages: attaches to the root
	tr.end(root)
	tr.leaf("orphan", now, now) // no open span: dropped silently

	if tr.dropped != 5 {
		t.Errorf("dropped = %d, want 5", tr.dropped)
	}
	if len(tr.spans) != 2+maxLeavesPerStage+1 {
		t.Fatalf("%d spans recorded", len(tr.spans))
	}
	if sp := tr.spans[2]; sp.Parent != stage || sp.Trial != 3 || sp.Name != "dns.lookup" {
		t.Errorf("leaf = %+v", sp)
	}
	if sp := tr.spans[len(tr.spans)-1]; sp.Parent != root || sp.Name != "late" {
		t.Errorf("between-stage leaf = %+v", sp)
	}
}

// TestPacedAccounting checks the open-loop rule without sleeping:
// latency runs from the due time, lateness is send minus due and never
// negative.
func TestPacedAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	interval := 2 * time.Millisecond
	if got := dueAt(start, 5, interval); !got.Equal(start.Add(10 * time.Millisecond)) {
		t.Errorf("dueAt = %v", got)
	}
	due := dueAt(start, 1, interval)
	// On time: sent at due, answered 300 us later.
	lat, late := pacedSample(due, due, due.Add(300*time.Microsecond))
	if lat != 300_000 || late != 0 {
		t.Errorf("on time: latency %d, late %d", lat, late)
	}
	// The generator stalled 5 ms: the stall counts against the request.
	sent := due.Add(5 * time.Millisecond)
	lat, late = pacedSample(due, sent, sent.Add(300*time.Microsecond))
	if lat != 5_300_000 || late != 5_000_000 {
		t.Errorf("stalled: latency %d, late %d", lat, late)
	}
	// Woken early: not negative lateness.
	if _, late = pacedSample(due, due.Add(-time.Microsecond), due); late != 0 {
		t.Errorf("early send counted %d ns late", late)
	}
	if clampNS(-5) != 0 || clampNS(1<<40) != ^uint32(0) || clampNS(77) != 77 {
		t.Error("clampNS")
	}
}

func TestCheckerCheapAndFull(t *testing.T) {
	ref := &reference{domains: 2, atts: map[string]refAtt{
		"a.com": {primary: "google.com", credits: map[string]float64{"google.com": 1}, hasSMTP: true},
	}}
	c := &checker{refFor: func(epoch uint64) *reference {
		if epoch == 1 {
			return ref
		}
		return nil
	}}
	hit := []byte(`{"domain":"a.com","found":true,"primary":"google.com","credits":{"google.com":1},"has_smtp":true,"snapshot":{"date":"d","corpus":"c","epoch":1,"domains":2}}`)
	miss := []byte(`{"domain":"b.com","found":false,"snapshot":{"date":"d","corpus":"c","epoch":1,"domains":2}}`)
	if _, err := c.cheap(kindHit, "a.com", 200, hit, nil, false); err != nil {
		t.Error(err)
	}
	if _, err := c.cheap(kindMiss, "b.com", 200, miss, nil, false); err != nil {
		t.Error(err)
	}
	if _, err := c.cheap(kindHit, "b.com", 200, miss, nil, false); err == nil {
		t.Error("a miss passed as a hit")
	}
	if _, err := c.cheap(kindHit, "b.com", 200, miss, nil, true); err != nil {
		t.Errorf("anyFound: %v", err)
	}
	if _, err := c.cheap(kindHit, "a.com", 429, hit, nil, false); err == nil {
		t.Error("a 429 passed")
	}
	if err := c.full("a.com", hit); err != nil {
		t.Error(err)
	}
	if err := c.full("b.com", miss); err != nil {
		t.Error(err)
	}
	wrongEpoch := bytes.Replace(hit, []byte(`"epoch":1`), []byte(`"epoch":2`), 1)
	if err := c.full("a.com", wrongEpoch); err == nil {
		t.Error("an answer from an epoch never published passed")
	}
	wrongProvider := bytes.Replace(hit, []byte(`"primary":"google.com"`), []byte(`"primary":"outlook.com"`), 1)
	if err := c.full("a.com", wrongProvider); err == nil {
		t.Error("a wrong primary passed")
	}
}

func testReport(workload string, ops, lat, failed float64) *report {
	return &report{
		Workload: workload, Attempted: 1000, Failed: int64(failed),
		Metrics: map[string]reported{
			"ops_per_s":    {Value: ops, Unit: "1/s"},
			"latency_ms":   {Value: lat, Unit: "ms"},
			"peak_heap_mb": {Value: 10, Unit: "MiB"},
			"setup_s":      {Value: 1, Unit: "s"},
		},
	}
}

// TestCompareAppliesDirectionAndBound: lower throughput and higher
// latency regress only beyond the bound; any rise in failures does.
func TestCompareAppliesDirectionAndBound(t *testing.T) {
	bound := endToEnd[0].Bound
	base := []*report{testReport(onFlat, 1000, 10, 0)}
	for _, c := range []struct {
		name string
		now  *report
		want bool
	}{
		{"same", testReport(onFlat, 1000, 10, 0), false},
		{"faster", testReport(onFlat, 2000, 5, 0), false},
		{"slower inside the bound", testReport(onFlat, 1000*(1-bound/2), 10, 0), false},
		{"slower beyond the bound", testReport(onFlat, 1000*(1-bound*1.5), 10, 0), true},
		{"latency beyond the bound", testReport(onFlat, 1000, 10*(1+bound*1.5), 0), true},
		{"more failures", testReport(onFlat, 1000, 10, 1), true},
		{"other workload only", testReport(onWire, 1000, 10, 0), true},
	} {
		var out bytes.Buffer
		if got := compareReports(&out, base, []*report{c.now}); got != c.want {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
}

func smokeOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload, seed: 5, seconds: 0.2, traced: traced,
		outDir:      t.TempDir(),
		flatDomains: 2000, serveDomains: 2000, wireScale: 0.002,
		workers: 2, setupRepeats: 1,
	}
}

// TestWorkloadsSmoke runs every workload, plain and traced, at smoke
// size with the correctness gate on, and checks that each mode emits
// exactly its metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/plain"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opt := smokeOptions(t, w.name, traced)
				rep, err := runWorkload(opt)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: emitted %+v", d.Name, m)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				var last struct {
					Correct   bool                       `json:"correct"`
					Attempted int64                      `json:"attempted"`
					Failed    int64                      `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(rep.lastLine()), &last); err != nil || len(last.Metrics) != len(want) || !last.Correct {
					t.Errorf("last line %q: %v", rep.lastLine(), err)
				}
				if traced {
					if _, err := os.Stat(rep.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
					if v := rep.Metrics["trace.accounted_share"].Value; v < 0.95 {
						t.Errorf("trace.accounted_share = %v", v)
					}
				}
			})
		}
	}
}

// TestBreakCheckFailsTheRun: scoring against the wrong reference must
// turn a run incorrect, on a scan workload and on a serving one.
func TestBreakCheckFailsTheRun(t *testing.T) {
	for _, w := range []string{onFlat, onDirect} {
		opt := smokeOptions(t, w, false)
		opt.breakCheck = true
		rep, err := runWorkload(opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 || len(rep.Problems) == 0 {
			t.Errorf("%s: a broken check passed: correct=%v failed=%d", w, rep.Correct, rep.Failed)
		}
	}
}

// TestCalibrator: a pass is kept as a sample, a second call within
// refEvery is skipped, the slowdown is the median pass over the nominal
// one, and close returns once the echo server's goroutines have ended.
func TestCalibrator(t *testing.T) {
	c, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.slowdown(); got != 1 {
		t.Errorf("slowdown before any pass = %v, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if err := c.sample(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.samples) != 1 || c.samples[0] <= 0 {
		t.Fatalf("samples after two calls in a row = %v, want one pass", c.samples)
	}
	c.last = time.Now().Add(-refEvery)
	if err := c.sample(); err != nil {
		t.Fatal(err)
	}
	if len(c.samples) != 2 {
		t.Fatalf("%d samples after refEvery had passed, want 2", len(c.samples))
	}
	c.close()

	c.samples = []float64{0.5 * refNominalS, 2 * refNominalS, 3 * refNominalS}
	if got := c.slowdown(); got != 2 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	if got := c.report(); got.Slowdown != 2 || got.KernelS.N != 3 || got.NominalS != refNominalS {
		t.Errorf("report = %+v", got)
	}
}
