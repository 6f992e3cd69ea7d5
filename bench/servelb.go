package main

import (
	"context"
	"fmt"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mxmap/internal/ha"
	"mxmap/internal/serve"
	"mxmap/internal/smtp"
)

const lbReplicas = 2

// front is one ha.Balancer behind a front serve.Server on loopback, as
// cmd/mxlb wires them: zero ha.Config apart from Replicas, the front's
// observation clock on (it feeds the hedge threshold), one probe round
// before traffic and the probe loop running.
type front struct {
	bal     *ha.Balancer
	srv     *serve.Server
	addr    string
	errc    chan error
	cancel  context.CancelFunc
	running bool
	runDone chan struct{}
}

// upstreamMeters are the decorators around ReplicaConfig.Dial in the
// traced twin.
type upstreamMeters struct {
	dials *callMeter // ha.dial_s
	conns *callMeter // ha.upstream_s: upstream connection lifetime
}

// startFront fronts the replicas at addrs. m, when non-nil, decorates
// every upstream dial.
func startFront(addrs []string, m *upstreamMeters) (*front, error) {
	var dialer smtp.Dialer = &net.Dialer{}
	if m != nil {
		dialer = meteredDialer{inner: dialer, dials: m.dials, conns: m.conns}
	}
	var reps []ha.ReplicaConfig
	for i, addr := range addrs {
		dial := func(ctx context.Context) (net.Conn, error) { return dialer.DialContext(ctx, "tcp", addr) }
		reps = append(reps, ha.ReplicaConfig{Name: fmt.Sprintf("r%d", i), Addr: addr, Dial: dial})
	}
	bal, err := ha.New(ha.Config{Replicas: reps})
	if err != nil {
		return nil, err
	}
	srv, addr, errc, err := startServer(serve.Config{Handler: bal.Handle, Clock: time.Now})
	if err != nil {
		return nil, err
	}
	bal.AttachFront(srv)
	ctx, cancel := context.WithCancel(context.Background())
	f := &front{bal: bal, srv: srv, addr: addr, errc: errc, cancel: cancel, runDone: make(chan struct{})}
	if ready := bal.Pool().ProbeOnce(ctx); ready != len(addrs) {
		f.stop()
		return nil, fmt.Errorf("first probe round found %d of %d replicas ready", ready, len(addrs))
	}
	f.running = true
	go func() {
		defer close(f.runDone)
		bal.Run(ctx)
	}()
	return f, nil
}

// stop ends the probe loop and drains the front server.
func (f *front) stop() (serve.ServerStats, error) {
	f.cancel()
	if f.running {
		<-f.runDone
	}
	return stopServer(f.srv, f.errc)
}

// lbEnv is serve-lb's environment: two loaded replicas behind a front.
type lbEnv struct {
	snap     *snapshotEnv
	replicas []*replica
	front    *front
	dir      string
}

func (e *lbEnv) addrs() []string {
	out := make([]string, len(e.replicas))
	for i, r := range e.replicas {
		out[i] = r.addr
	}
	return out
}

func (e *lbEnv) destroy() {
	if e.front != nil {
		e.front.stop()
	}
	for _, r := range e.replicas {
		r.stop()
	}
	os.RemoveAll(e.dir)
}

func buildLB(opt options, dir string, heap *heapSampler) (*lbEnv, error) {
	snap, err := buildSnapshot(opt.seed, opt.serveDomains, opt.workers, dir, heap)
	if err != nil {
		return nil, err
	}
	env := &lbEnv{snap: snap, dir: dir}
	for i := 0; i < lbReplicas; i++ {
		r, err := snap.startReplica(snap.pathA)
		if err != nil {
			env.destroy()
			return nil, err
		}
		env.replicas = append(env.replicas, r)
	}
	if env.front, err = startFront(env.addrs(), nil); err != nil {
		env.destroy()
		return nil, err
	}
	return env, nil
}

// gateFront checks a balancer's books against what the generator sent
// through it.
func gateFront(rep *report, what string, f *front, sent int64) {
	st := f.bal.Stats()
	if int64(st.Requests) != sent {
		rep.fail(abs(int64(st.Requests)-sent), "%s: balancer counted %d requests, the generator sent %d", what, st.Requests, sent)
	}
	if st.DownSheds != 0 || st.ProxyFails != 0 {
		rep.fail(int64(st.DownSheds+st.ProxyFails), "%s: %d down sheds, %d proxy failures", what, st.DownSheds, st.ProxyFails)
	}
	sst, err := f.stop()
	gateServer(rep, what+" front", sst, err)
}

func runServeLB(opt options, rep *report) error {
	rep.Transport = loopbackNote + "; balancer to replica is a loopback TCP dial per attempt"
	rep.Sizes["domains"] = float64(opt.serveDomains)
	rep.Sizes["connections"] = float64(opt.workers)
	rep.Sizes["replicas"] = lbReplicas
	dir, err := workDir(opt.outDir, onLB)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	heap := startHeapSampler()
	defer heap.close()

	builds := 0
	env, setupTimes, err := repeatSetup(opt.setupRepeats, rep.cal, func() (*lbEnv, error) {
		builds++
		return buildLB(opt, filepath.Join(dir, fmt.Sprintf("setup%d", builds)), heap)
	}, (*lbEnv).destroy)
	if err != nil {
		return err
	}

	ref, err := buildReference(env.snap.pathA, env.snap.flat.infer, opt.breakCheck)
	if err != nil {
		return err
	}
	// Every replica loaded A once: epoch 1 everywhere.
	rig := newLoadRig(opt, env.snap, func(epoch uint64) *reference {
		if epoch == 1 {
			return ref
		}
		return nil
	}, heap, rep)

	// The traced twin: a second balancer over the same replicas whose
	// upstream dials are decorated.
	var (
		twin   *front
		meters *upstreamMeters
		tr     *tracer
	)
	if opt.traced {
		tr = newTracer()
		meters = &upstreamMeters{
			dials: &callMeter{name: "ha.dial", tr: tr},
			conns: &callMeter{name: "ha.upstream", tr: tr},
		}
		if twin, err = startFront(env.addrs(), meters); err != nil {
			return err
		}
	}

	plainSent := rig.saturate(env.front.addr, "warm-up", 0, false).sent
	var (
		plain, traced    []saturateTrial
		tracedSent       int64
		dialS, upstreamS []float64
	)
	err = runTrials(opt, rep.cal, func(trial int) error {
		t := rig.saturate(env.front.addr, "saturate", trial, false)
		plain = append(plain, t)
		plainSent += t.sent
		return nil
	}, func(trial int) error {
		d0, u0 := meters.dials.busySeconds(), meters.conns.busySeconds()
		t := rig.tracedSaturate(tr, "ha.saturate", twin.addr, trial)
		traced = append(traced, t)
		tracedSent += t.sent
		dialS = append(dialS, meters.dials.busySeconds()-d0)
		upstreamS = append(upstreamS, meters.conns.busySeconds()-u0)
		return nil
	})
	if err != nil {
		return err
	}

	if opt.traced {
		rep.setSamples("ha.dial_s", dialS)
		rep.setSamples("ha.upstream_s", upstreamS)
		handled, err := lbLayers(rig, env, twin, meters, plain, traced)
		if err != nil {
			return err
		}
		gateFront(rep, "traced balancer", twin, tracedSent+handled)
	} else {
		rep.setEndToEnd(
			mapTrials(plain, trialRPS),
			mapTrials(plain, func(t saturateTrial) float64 { return t.p50 / 1e3 }),
			mapTrials(plain, func(t saturateTrial) float64 { return t.peakMi }),
			setupTimes)
	}
	gateFront(rep, "balancer", env.front, plainSent)
	env.front = nil
	for i, r := range env.replicas {
		st, err := r.stop()
		gateServer(rep, fmt.Sprintf("replica %d", i), st, err)
	}
	env.replicas = nil
	if opt.traced {
		return finishTrace(tr, opt, rep)
	}
	return nil
}

// lbLayers reports the balancer hop layer by layer from the traced
// twin's trials, plus the three probes: the same mix straight to one
// replica, Balancer.Handle in-process, and the generator floor.
func lbLayers(rig *loadRig, env *lbEnv, twin *front, meters *upstreamMeters, plain, traced []saturateTrial) (handled int64, err error) {
	rep := rig.rep
	st := twin.bal.Stats()
	reqs := float64(st.Requests)
	if reqs == 0 {
		rep.fail(1, "traced balancer forwarded nothing")
		reqs = 1
	}
	// Health probes dial too (a few per second); they are the distance
	// between this ratio and attempts_per_request.
	rep.set("ha.dials_per_request", float64(meters.dials.calls.Load())/reqs)
	rep.set("ha.attempts_per_request", float64(st.Attempts)/reqs)
	rep.set("ha.retries", float64(st.Retries))
	rep.set("ha.hedges", float64(st.Hedges))
	rep.set("ha.hedge_wins", float64(st.HedgeWins))
	rep.set("ha.upstream_errs", float64(st.UpstreamErrs))
	rep.set("ha.down_sheds", float64(st.DownSheds))
	rep.set("ha.proxy_fails", float64(st.ProxyFails))
	var attempts []float64
	for _, r := range twin.bal.Pool().Replicas() {
		attempts = append(attempts, float64(r.Attempts))
	}
	slices.Sort(attempts)
	if attempts[0] > 0 {
		rep.set("ha.replica_skew", attempts[len(attempts)-1]/attempts[0])
	}
	all := mergedLatencies(traced)
	viaP50 := percentileNS(all, 0.5) / 1e3
	rep.set("ha.p99_us", supportedPercentile(all, 0.99)/1e3)
	rep.set("ha.p999_us", supportedPercentile(all, 0.999)/1e3)
	h50, _ := twin.srv.LatencyQuantile("/v1/domain", 0.5)
	rep.set("serve.front_handler_p50_us", float64(h50.Nanoseconds())/1e3)
	rep.setSamples("host.steal_share", mapTrials(traced, func(t saturateTrial) float64 { return 1 - t.granted }))
	rep.set("trace.overhead_share", median(mapTrials(plain, trialRPS))/median(mapTrials(traced, trialRPS))-1)

	// The same mix straight to one replica: what is left of the request
	// when the hop is taken away.
	var direct []saturateTrial
	for i := 0; i < 4; i++ {
		direct = append(direct, rig.saturate(env.replicas[0].addr, "direct to replica", 100+i, true))
	}
	directP50 := percentileNS(mergedLatencies(direct), 0.5) / 1e3
	rep.set("ha.hop_p50_us", viaP50-directP50)
	rep.set("serve.wire_p50_us", directP50)

	// Balancer.Handle called in-process: the hop without the front
	// server's accept, parse and write.
	lat := make([]uint32, 0, 4096)
	deadline := time.Now().Add(rig.dur)
	for i := 0; time.Now().Before(deadline); i++ {
		name := rig.table.names[i%len(rig.table.names)]
		req := &serve.Request{Method: "GET", Path: "/v1/domain", Query: url.Values{"name": {name}}}
		start := time.Now()
		resp := twin.bal.Handle(context.Background(), req)
		lat = append(lat, clampNS(time.Since(start).Nanoseconds()))
		handled++
		rep.Attempted++
		if resp.Status != 200 {
			rep.fail(1, "Balancer.Handle answered %d for %s", resp.Status, name)
		}
	}
	slices.Sort(lat)
	rep.set("ha.handle_p50_us", percentileNS(lat, 0.5)/1e3)

	if _, err := rig.generatorFloor(); err != nil {
		return 0, err
	}
	// The Handle calls entered the forwarding path too: the caller adds
	// them to what the balancer must have counted.
	return handled, nil
}
