// Command bench is the repository's benchmark: four workloads that take
// generated domains from the collection fleet to an answered query
// through the balancer, timed end to end and layer by layer from
// outside the program. See README.md in this directory.
//
//	go run ./bench -workload scan-flat -seed 1 -seconds 10 -trace 0
//	go run ./bench -compare old.json new.json
//	go run ./bench -repeat
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are one run's settings. The pinned sizes are the defaults;
// -n and -scale override them by hand (a 1M-domain run).
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	outDir   string

	flatDomains  int     // scan-flat corpus size
	serveDomains int     // serving snapshot size
	wireScale    float64 // scan-wire world scale
	workers      int     // concurrency everywhere: workers, parallelism, client connections
	setupRepeats int     // how many times set-up is built and timed

	// breakCheck deliberately compares against the wrong reference, to
	// show the gate can fail: the run must then exit non-zero.
	breakCheck bool
}

// Pinned sizes. They are smaller than a production corpus because one
// run, with its repeated set-up, has to fit the regression driver's
// time cap; -n and -scale lift them by hand.
const (
	pinnedFlatDomains  = 20_000
	pinnedServeDomains = 20_000
	pinnedWireScale    = 0.02
	pinnedSetupRepeats = 5
)

type workloadDef struct {
	name string
	why  string
	unit string // what one "op" is
	run  func(opt options, rep *report) error
}

var workloads = []workloadDef{
	{onFlat, "flat world through fleet collect, gzipped shards, merge and streaming inference: dataset and core do the work, dns and smtp wire code almost none", "domain", runScanFlat},
	{onWire, "generated world scanned over netsim with a cold iterative resolver: dns, smtp+TLS, netsim and scan retry logic do the work, dataset files and serve none", "domain", runScanWire},
	{onDirect, "closed-loop lookups over loopback TCP against one serve.Server: the serving read path alone, ha does nothing", "request", runServeDirect},
	{onLB, "the same lookups through ha.Balancer in front of two replicas: the balancer hop (dial per attempt, upstream parse, hedging) dominates", "request", runServeLB},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type reported struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// report is everything one run has to say. The last line of standard
// output is its short form; the long form goes to out/result-*.json.
type report struct {
	Workload  string     `json:"workload"`
	Op        string     `json:"op"`
	Seed      uint64     `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Traced    bool       `json:"traced"`
	Machine   machineTag `json:"machine"`
	Transport string     `json:"transport"`
	// Calibration says how fast the box ran the reference kernel during
	// the run; the end-to-end timings are already divided by it.
	Calibration calibration         `json:"calibration"`
	Sizes       map[string]float64  `json:"sizes"`
	Metrics     map[string]reported `json:"metrics"`
	Attempted   int64               `json:"attempted"`
	Failed      int64               `json:"failed"`
	Correct     bool                `json:"correct"`
	Problems    []string            `json:"problems,omitempty"`
	TraceFile   string              `json:"trace_file,omitempty"`

	cal *calibrator
}

// unitOf is the unit the contract gives a metric; a name outside the
// contract is a bug in the benchmark.
func unitOf(name string) string {
	d, ok := findMetric(name)
	if !ok {
		panic("bench: unknown metric " + name)
	}
	return d.Unit
}

func (r *report) set(name string, v float64) {
	r.Metrics[name] = reported{Value: v, Unit: unitOf(name)}
}

// setSamples reports the median of the timed trials' values.
func (r *report) setSamples(name string, xs []float64) {
	s := summarize(xs)
	r.Metrics[name] = reported{Value: s.Median, Unit: unitOf(name), Samples: &s}
}

// fail records n failed operations and why. Any failure fails the run.
func (r *report) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	r.Failed += n
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// finish fills in what the mode's contract needs: the plain run reports
// exactly the end-to-end metrics, the traced run exactly the per-layer
// ones, with 0 for layers the workload leaves idle.
func (r *report) finish() {
	want := endToEnd
	if r.Traced {
		want = perLayer
	}
	out := make(map[string]reported, len(want))
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Traced {
				r.fail(1, "end-to-end metric %s was not measured", d.Name)
			}
			m = reported{Value: 0, Unit: d.Unit}
		}
		out[d.Name] = m
	}
	r.Metrics = out
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail(1, "no operation was attempted")
	}
	r.Correct = r.Failed == 0
}

// lastLine is the result object the regression driver reads.
func (r *report) lastLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	short := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		short.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(short)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s (op = one %s), seed %d, %.0f s, traced=%v\n", r.Workload, r.Op, r.Seed, r.Seconds, r.Traced)
	m := r.Machine
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q kernel=%s\n", m.NProc, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH, m.CPUModel, m.Kernel)
	fmt.Fprintf(w, "transport: %s\n", r.Transport)
	c := r.Calibration
	fmt.Fprintf(w, "calibration: reference kernel %.4f s (q1 %.4f, q3 %.4f, n=%d) / nominal %.4f s = slowdown %.4f; end-to-end timings are divided by it\n",
		c.KernelS.Median, c.KernelS.Q1, c.KernelS.Q3, c.KernelS.N, c.NominalS, c.Slowdown)
	keys := make([]string, 0, len(r.Sizes))
	for k := range r.Sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "size: %s=%g\n", k, r.Sizes[k])
	}
	list := endToEnd
	if r.Traced {
		list = perLayer
	}
	for _, d := range list {
		v := r.Metrics[d.Name]
		if v.Samples != nil {
			fmt.Fprintf(w, "%-34s %14.4f %-6s (q1 %.4f, q3 %.4f, n=%d)\n", d.Name, v.Value, v.Unit, v.Samples.Q1, v.Samples.Q3, v.Samples.N)
		} else {
			fmt.Fprintf(w, "%-34s %14.4f %-6s\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
}

// runWorkload runs one workload and returns its finished report.
func runWorkload(opt options) (*report, error) {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	cal, err := newCalibrator(opt.workers)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	rep := &report{
		Workload: w.name, Op: w.unit, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced,
		Machine:   readMachineTag(),
		Transport: "in-process (netsim fabric or net.Pipe), no host sockets",
		Sizes:     map[string]float64{"workers": float64(opt.workers)},
		Metrics:   make(map[string]reported),
		cal:       cal,
	}
	if err := w.run(opt, rep); err != nil {
		return nil, err
	}
	rep.Calibration = cal.report()
	if opt.traced {
		rep.set("host.ref_slowdown", rep.Calibration.Slowdown)
	}
	rep.finish()
	return rep, nil
}

func (r *report) save(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := "result-" + r.Workload
	if r.Traced {
		name += "-trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name+".json"), append(b, '\n'), 0o644)
}

func main() {
	var (
		opt     options
		trace   int
		n       int
		scale   float64
		compare bool
		repeat  bool
	)
	flag.StringVar(&opt.workload, "workload", "", "workload to run: scan-flat, scan-wire, serve-direct or serve-lb")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed for the world, the lookup key sequence and the churn selection")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long the timed trials run")
	flag.IntVar(&trace, "trace", 0, "1 repeats the workload with decorators, probes and spans on and prints the per-layer metrics")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and scratch files")
	flag.IntVar(&n, "n", 0, "override the pinned domain count (scan-flat, serve-*)")
	flag.Float64Var(&scale, "scale", 0, "override the pinned world scale (scan-wire)")
	flag.BoolVar(&opt.breakCheck, "break-check", false, "compare answers with the wrong reference; the run must exit non-zero")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.BoolVar(&repeat, "repeat", false, "run every workload twice and fail if the two disagree beyond the bounds")
	flag.Parse()

	opt.traced = trace != 0
	opt.workers = runtime.GOMAXPROCS(0)
	opt.flatDomains, opt.serveDomains, opt.wireScale = pinnedFlatDomains, pinnedServeDomains, pinnedWireScale
	opt.setupRepeats = pinnedSetupRepeats
	if n > 0 {
		opt.flatDomains, opt.serveDomains = n, n
	}
	if scale > 0 {
		opt.wireScale = scale
	}

	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case repeat:
		os.Exit(runRepeat(os.Stdout, opt))
	}

	rep, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := rep.save(opt.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	fmt.Println(rep.lastLine())
	if !rep.Correct {
		os.Exit(1)
	}
}
