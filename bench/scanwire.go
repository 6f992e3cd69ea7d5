package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/experiments"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

const (
	wireCorpus = world.CorpusCOM
	wireDate   = "2021-06"
)

// wireEnv is a generated world with its SMTP fleet and its DNS
// hierarchy (root, TLD, authoritative servers) running on one netsim
// fabric: what cmd/mxscan measures when it is not given -flat.
type wireEnv struct {
	w       *world.World
	sess    *scan.WorldSession
	infra   *world.DNSInfra
	targets []scan.Target
	truth   map[string]string
	infer   core.Config
}

func newWireEnv(seed uint64, scale float64, workers int) (*wireEnv, error) {
	w, err := world.Generate(world.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	sess, err := scan.NewWorldSession(w)
	if err != nil {
		return nil, err
	}
	infra, err := w.StartDNS(sess.Net, wireDate)
	if err != nil {
		sess.Close()
		return nil, err
	}
	targets, err := sess.Targets(wireCorpus)
	if err != nil {
		infra.Close()
		sess.Close()
		return nil, err
	}
	return &wireEnv{
		w: w, sess: sess, infra: infra, targets: targets,
		infer: core.Config{Profiles: experiments.WorldProfiles(w), Parallelism: workers},
	}, nil
}

func (e *wireEnv) close() {
	e.infra.Close()
	e.sess.Close()
}

// buildTruth maps every target to its ground-truth bucket. It is not
// part of set-up: the program never sees it.
func (e *wireEnv) buildTruth(seedShift bool) {
	corpus := e.w.Corpus(wireCorpus)
	dateIdx := corpus.DateIndex(wireDate)
	e.truth = make(map[string]string, len(corpus.Domains))
	for i, d := range corpus.Domains {
		src := d
		if seedShift {
			// -break-check: score each domain against its neighbour's truth.
			src = corpus.Domains[(i+1)%len(corpus.Domains)]
		}
		t := e.w.TruthCompany(src, dateIdx)
		if t == src.Name {
			t = analysis.SelfHostedLabel
		}
		e.truth[d.Name] = t
	}
}

// wireMeters are the decorators of a traced collect.
type wireMeters struct {
	resolve  *callMeter // dns.lookups, dns.resolve_s
	dnsDials *callMeter // resolver transports opened over the fabric
	dial     *callMeter // SMTP dials over the fabric
	sessions *callMeter // smtp.sessions, smtp.session_s
}

func newWireMeters(tr *tracer) *wireMeters {
	return &wireMeters{
		resolve:  &callMeter{name: "dns.lookup", tr: tr},
		dnsDials: &callMeter{name: "netsim.dial", tr: tr},
		dial:     &callMeter{name: "netsim.dial", tr: tr},
		sessions: &callMeter{name: "smtp.session", tr: tr},
	}
}

type wireTrial struct {
	wallS    float64 // steal-corrected
	granted  float64
	peakMi   float64
	collectS float64
	inferS   float64
	digest   string
	domains  int
	checked  int
	correct  int
	resolver dns.ResolverStats
	cache    dns.CacheStats
	servers  uint64 // queries the DNS hierarchy received
	stats    dataset.CollectionStats
}

type scanWire struct {
	env  *wireEnv
	heap *heapSampler
	rep  *report
}

// trial collects the corpus through a fresh iterative resolver (cold
// cache) and infers in memory; the clock runs from the Collect call to
// the return of Infer.
func (s *scanWire) trial(tr *tracer, trial int, m *wireMeters) (wireTrial, *dataset.Snapshot, error) {
	var wt wireTrial
	e := s.env
	col, err := e.sess.NewCollector(wireCorpus, wireDate)
	if err != nil {
		return wt, nil, err
	}
	res := e.infra.NewIterativeResolver(e.sess.Net)
	col.Resolver = res
	if m != nil {
		res.DialContext = meterDialFunc(res.DialContext, m.dnsDials)
		col.Resolver = meterResolver(res, m.resolve)
		col.Dialer = meteredDialer{inner: col.Dialer, dials: m.dial, conns: m.sessions}
	}
	before := e.infra.Stats()

	runtime.GC()
	s.heap.take()
	root := tr.begin(0, trial, "trial")
	cpu := markCPU()
	start := time.Now()
	sp := tr.begin(root, trial, "scan.collect")
	snap, err := col.Collect(context.Background(), wireCorpus, wireDate, e.targets)
	tr.end(sp)
	collected := time.Now()
	if err != nil {
		col.Close()
		return wt, nil, fmt.Errorf("collect: %w", err)
	}
	sp = tr.begin(root, trial, "core.infer")
	result := core.Infer(snap, core.ApproachPriority, e.infer)
	tr.end(sp)
	end := time.Now()
	tr.end(root)
	wt.peakMi = s.heap.take()
	wt.granted = cpu.grantedSince()
	wt.wallS = end.Sub(start).Seconds() * wt.granted
	wt.collectS = collected.Sub(start).Seconds()
	wt.inferS = end.Sub(collected).Seconds()

	wt.resolver = res.Stats()
	wt.cache = res.Cache.Stats()
	if err := col.Close(); err != nil {
		return wt, nil, err
	}
	after := e.infra.Stats()
	wt.servers = (after.UDPQueries + after.TCPQueries) - (before.UDPQueries + before.TCPQueries)
	wt.stats = snap.Stats
	wt.domains = result.NumDomains

	h := sha256.New()
	if _, err := snap.WriteTo(h); err != nil {
		return wt, nil, err
	}
	wt.digest = hex.EncodeToString(h.Sum(nil))
	for i := range result.Domains {
		att := &result.Domains[i]
		want := e.truth[att.Domain]
		if want == "" {
			continue
		}
		wt.checked++
		if analysis.CompanyOf(att.Domain, att.Primary(), e.w.Directory) == want {
			wt.correct++
		}
	}
	return wt, snap, nil
}

func (s *scanWire) gate(wt, first wireTrial) {
	n := len(s.env.targets)
	s.rep.Attempted += int64(n)
	if wt.domains != n {
		s.rep.fail(int64(abs(n-wt.domains)), "inference saw %d domains, want %d", wt.domains, n)
	}
	if wt.digest != first.digest {
		s.rep.fail(1, "snapshot digest %s differs from the first trial's %s", wt.digest[:12], first.digest[:12])
	}
	if wt.checked == 0 || float64(wt.correct) < 0.9*float64(wt.checked) {
		s.rep.fail(int64(wt.checked-wt.correct), "attribution matches ground truth on %d of %d domains, below 0.9", wt.correct, wt.checked)
	}
	if wt.correct != first.correct {
		s.rep.fail(1, "%d correct attributions, the first trial had %d", wt.correct, first.correct)
	}
}

func runScanWire(opt options, rep *report) error {
	env, setupTimes, err := repeatSetup(opt.setupRepeats, rep.cal,
		func() (*wireEnv, error) { return newWireEnv(opt.seed, opt.wireScale, opt.workers) },
		(*wireEnv).close,
	)
	if err != nil {
		return err
	}
	defer env.close()
	env.buildTruth(opt.breakCheck)
	rep.Sizes["scale"] = opt.wireScale
	rep.Sizes["domains"] = float64(len(env.targets))
	rep.Sizes["dns_servers"] = float64(env.infra.NumServers())

	heap := startHeapSampler()
	defer heap.close()
	s := &scanWire{env: env, heap: heap, rep: rep}

	warm, _, err := s.trial(nil, 0, nil)
	if err != nil {
		return err
	}
	s.gate(warm, warm)

	var (
		plain, trials []wireTrial
		meters        []*wireMeters
		last          *dataset.Snapshot
		tr            *tracer
	)
	if opt.traced {
		tr = newTracer()
	}
	err = runTrials(opt, rep.cal, func(trial int) error {
		wt, _, err := s.trial(nil, trial, nil)
		if err != nil {
			return err
		}
		s.gate(wt, warm)
		plain = append(plain, wt)
		return nil
	}, func(trial int) error {
		m := newWireMeters(tr)
		wt, snap, err := s.trial(tr, trial, m)
		if err != nil {
			return err
		}
		s.gate(wt, warm)
		trials = append(trials, wt)
		meters = append(meters, m)
		last = snap
		return nil
	})
	if err != nil {
		return err
	}
	if !opt.traced {
		n := float64(len(env.targets))
		rep.setEndToEnd(
			mapTrials(plain, func(t wireTrial) float64 { return n / t.wallS }),
			mapTrials(plain, func(t wireTrial) float64 { return t.wallS * 1e3 }),
			mapTrials(plain, func(t wireTrial) float64 { return t.peakMi }),
			setupTimes)
		return nil
	}

	// The single-threaded baseline of the same inference job.
	serial := env.infer
	serial.Parallelism = 1
	var serialS []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		core.Infer(last, core.ApproachPriority, serial)
		serialS = append(serialS, time.Since(start).Seconds())
	}

	each := func(name string, f func(wireTrial) float64) { rep.setSamples(name, mapTrials(trials, f)) }
	meter := func(name string, f func(*wireMeters) float64) { rep.setSamples(name, mapTrials(meters, f)) }
	each("scan.collect_s", func(t wireTrial) float64 { return t.collectS })
	each("scan.peak_heap_mb", func(t wireTrial) float64 { return t.peakMi })
	meter("dns.lookups", func(m *wireMeters) float64 { return float64(m.resolve.calls.Load()) })
	meter("dns.resolve_s", func(m *wireMeters) float64 { return m.resolve.busySeconds() })
	each("dns.upstream_queries", func(t wireTrial) float64 { return float64(t.resolver.WireQueries) })
	// Useful over attempted: answer hits and zone-cut hits over every
	// probe of the resolver's cache. Each lookup names a new domain, so
	// it is the cached delegations that save upstream queries.
	each("dns.cache_hit_ratio", func(t wireTrial) float64 {
		useful := float64(t.cache.Hits + t.cache.DelegationHits)
		if attempted := useful + float64(t.cache.Misses); attempted > 0 {
			return useful / attempted
		}
		return 0
	})
	each("dns.server_queries", func(t wireTrial) float64 { return float64(t.servers) })
	each("dns.retries", func(t wireTrial) float64 { return float64(t.stats.DNSRetries) })
	each("smtp.retries", func(t wireTrial) float64 { return float64(t.stats.ScanRetries) })
	each("scan.breaker_opens", func(t wireTrial) float64 { return float64(t.stats.BreakerOpens) })
	meter("smtp.sessions", func(m *wireMeters) float64 { return float64(m.sessions.calls.Load()) })
	meter("smtp.session_s", func(m *wireMeters) float64 { return m.sessions.busySeconds() })
	meter("netsim.dials", func(m *wireMeters) float64 { return float64(m.dial.calls.Load() + m.dnsDials.calls.Load()) })
	each("core.infer_s", func(t wireTrial) float64 { return t.inferS })
	rep.setSamples("core.infer_serial_s", serialS)
	rep.set("core.correct", float64(warm.correct))

	each("host.steal_share", func(t wireTrial) float64 { return 1 - t.granted })
	wall := func(t wireTrial) float64 { return t.wallS }
	rep.set("trace.overhead_share", median(mapTrials(trials, wall))/median(mapTrials(plain, wall))-1)
	return finishTrace(tr, opt, rep)
}
