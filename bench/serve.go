package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/serve"
)

const (
	// trialSeconds is the length of one closed-loop trial. Short trials
	// and many of them: the median over twenty half-second trials shrugs
	// off a burst of interference that would sink one ten-second trial.
	trialSeconds = 0.5
	loopback     = "127.0.0.1:0"
)

// snapshotEnv is a flat world and the merged snapshot collected from
// it: the file the serving workloads load.
type snapshotEnv struct {
	flat  *flatEnv
	pathA string
}

// buildSnapshot runs the scan-flat pipeline up to the merge.
func buildSnapshot(seed uint64, n, workers int, dir string, heap *heapSampler) (*snapshotEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	flat, err := newFlatEnv(seed, n, workers)
	if err != nil {
		return nil, err
	}
	pathA := snapshotPath(dir, "a")
	if _, err := flat.collectMerge(nil, 0, 0, pathA, nil, heap); err != nil {
		return nil, err
	}
	return &snapshotEnv{flat: flat, pathA: pathA}, nil
}

// replica is one serve.Service behind one serve.Server on a loopback
// TCP listener, as cmd/mxserve wires them.
type replica struct {
	svc  *serve.Service
	srv  *serve.Server
	addr string
	errc chan error
}

func (e *snapshotEnv) serviceConfig() serve.ServiceConfig {
	return serve.ServiceConfig{Infer: e.flat.infer, Directory: e.flat.fw.Directory}
}

// startServer listens on loopback and serves cfg.
func startServer(cfg serve.Config) (*serve.Server, string, chan error, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		return nil, "", nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), errc, nil
}

// startReplica brings up a service with the shipped defaults (zero
// serve.Config but for the Service) and loads path into it.
func (e *snapshotEnv) startReplica(path string) (*replica, error) {
	svc := serve.NewService(core.ApproachPriority, e.serviceConfig())
	srv, addr, errc, err := startServer(serve.Config{Service: svc})
	if err != nil {
		return nil, err
	}
	r := &replica{svc: svc, srv: srv, addr: addr, errc: errc}
	if _, err := svc.Load(path); err != nil {
		srv.Close()
		return nil, fmt.Errorf("load %s: %w", filepath.Base(path), err)
	}
	return r, nil
}

// stopServer drains a server and waits for its accept loop to return.
func stopServer(srv *serve.Server, errc chan error) (serve.ServerStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if serr := <-errc; err == nil {
		err = serr
	}
	return srv.Stats(), err
}

func (r *replica) stop() (serve.ServerStats, error) { return stopServer(r.srv, r.errc) }

// gateServer checks a drained server's books: nothing read was left
// unanswered, nothing was shed or timed out under the benchmark's load.
func gateServer(rep *report, what string, st serve.ServerStats, err error) {
	if err != nil {
		rep.fail(1, "%s: shutdown: %v", what, err)
	}
	if lost := st.Lost(); lost != 0 {
		rep.fail(int64(lost), "%s: %d requests read but never answered", what, lost)
	}
	if n := st.Shed + st.Timeouts + st.Rejected + st.BadRequests; n != 0 {
		rep.fail(int64(n), "%s: %d shed, %d timed out, %d rejected, %d bad requests", what, st.Shed, st.Timeouts, st.Rejected, st.BadRequests)
	}
}

// saturateTrial is one closed-loop trial and the heap peak it reached.
type saturateTrial struct {
	loadResult         // wallS is steal-corrected; lat is kept for traced trials only
	p50        float64 // us
	peakMi     float64
	granted    float64
}

// loadRig is what every generator phase of a serving workload shares:
// the requests, the checker, the connection count and where failures
// are booked.
type loadRig struct {
	table *requestTable
	check *checker
	conns int
	seed  uint64
	dur   time.Duration // one closed-loop trial
	heap  *heapSampler
	rep   *report
}

func newLoadRig(opt options, snap *snapshotEnv, refFor func(epoch uint64) *reference, heap *heapSampler, rep *report) *loadRig {
	names := make([]string, len(snap.flat.targets))
	for i, t := range snap.flat.targets {
		names[i] = t.Name
	}
	dur := time.Duration(trialSeconds * float64(time.Second))
	if budget := time.Duration(opt.seconds * float64(time.Second)); budget < 4*dur {
		dur = budget / 4 // smoke runs
	}
	return &loadRig{
		table: newRequestTable(names), check: &checker{refFor: refFor},
		conns: opt.workers, seed: opt.seed, dur: dur, heap: heap, rep: rep,
	}
}

// spec is one trial-length closed loop of the mix against addr.
func (g *loadRig) spec(addr string, stream uint64) loadSpec {
	return loadSpec{addr: addr, conns: g.conns, duration: g.dur, table: g.table, check: g.check, seed: g.seed<<16 + stream}
}

// saturate runs one closed-loop trial of the mix against addr and books
// its tallies under phase. keepLat keeps the trial's latency samples for
// pooled percentiles; otherwise only their median survives, so that kept
// trials do not grow the heap the next ones are measured in.
func (g *loadRig) saturate(addr, phase string, trial int, keepLat bool) saturateTrial {
	runtime.GC()
	g.heap.take()
	cpu := markCPU()
	res := runLoad(g.spec(addr, uint64(trial)))
	granted := cpu.grantedSince()
	peak := g.heap.take()
	res.wallS *= granted
	res.account(g.rep, phase)
	t := saturateTrial{loadResult: res, p50: res.p50us(), peakMi: peak, granted: granted}
	if !keepLat {
		t.lat = nil
	}
	return t
}

// tracedSaturate is saturate under a trial span with one stage in it.
func (g *loadRig) tracedSaturate(tr *tracer, stage, addr string, trial int) saturateTrial {
	root := tr.begin(0, trial, "trial")
	sp := tr.begin(root, trial, stage)
	t := g.saturate(addr, stage+" (traced)", trial, true)
	tr.end(sp)
	tr.end(root)
	return t
}

func trialRPS(t saturateTrial) float64 { return t.rps() }

// mergedLatencies pools the latencies of several trials, sorted.
func mergedLatencies(trials []saturateTrial) []uint32 {
	var all []uint32
	for _, t := range trials {
		all = append(all, t.lat...)
	}
	slices.Sort(all)
	return all
}

// fixed200 is the generator-floor handler: the HTTP kit with no lookup
// behind it.
func fixed200(context.Context, *serve.Request) serve.Response {
	return serve.Response{Status: 200, Body: []byte(`{"ok":true}`)}
}

// generatorFloor measures the ceiling the generator and the HTTP kit
// allow when the handler does nothing, and reports it: requests per
// second, and process mallocs per request (generator plus bare kit).
func (g *loadRig) generatorFloor() (mallocsPerReq float64, err error) {
	srv, addr, errc, err := startServer(serve.Config{Handler: fixed200})
	if err != nil {
		return 0, err
	}
	spec := g.spec(addr, 0)
	spec.skipCheck = true
	runLoad(spec) // warm-up
	var rates, allocs []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		mark := markAllocs()
		res := runLoad(spec)
		m, _ := mark.since()
		res.account(g.rep, "generator floor")
		rates = append(rates, res.rps())
		allocs = append(allocs, m/float64(res.sent))
	}
	st, err := stopServer(srv, errc)
	gateServer(g.rep, "floor server", st, err)
	g.rep.set("gen.floor_rps", median(rates))
	g.rep.set("gen.allocs_per_request", median(allocs))
	return median(allocs), nil
}
