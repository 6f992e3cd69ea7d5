package serve

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/experiments"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// writeFlatSnapshot collects an n-domain flat world, 2 % of it
// adversarial as in the repository benchmark, into a snapshot file at
// path, and returns the service configuration mxserve derives from the
// world's company directory.
func writeFlatSnapshot(tb testing.TB, path string, n int) ServiceConfig {
	tb.Helper()
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: 1, NumDomains: n, AdversarialPercent: 2})
	if err != nil {
		tb.Fatal(err)
	}
	targets := make([]scan.Target, fw.NumDomains())
	for i := range targets {
		targets[i] = scan.Target{Name: fw.DomainName(i)}
	}
	c := &scan.Collector{
		Resolver: fw.Resolver(), Dialer: fw.Dialer(), Trust: fw.Trust,
		Prefixes: fw.Prefixes, ASRegistry: fw.ASRegistry, Parked: fw.Parked,
	}
	snap, err := c.Collect(context.Background(), fw.Cfg.Corpus, "2021-06", targets)
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		tb.Fatal(err)
	}
	snap.SortDomains()
	if err := dataset.WriteFile(path, snap); err != nil {
		tb.Fatal(err)
	}
	return ServiceConfig{
		Infer:     core.Config{Profiles: experiments.WorldProfiles(&world.World{Directory: fw.Directory})},
		Directory: fw.Directory,
	}
}

// addTwins rewrites the snapshot at path with a twin of every 25th
// domain that has an MX: the same exchanges, reached at an address no
// scan saw. A twin keeps its original's credits but has no SMTP, so
// answers that differ only in their flags are served side by side.
func addTwins(t *testing.T, path string) {
	t.Helper()
	snap, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unseen := []netip.Addr{netip.MustParseAddr("192.0.2.1")}
	for i, n := 0, len(snap.Domains); i < n; i += 25 {
		d := snap.Domains[i]
		if len(d.MX) == 0 {
			continue
		}
		twin := dataset.DomainRecord{Domain: "zz-twin-" + d.Domain, Rank: d.Rank}
		for _, mx := range d.MX {
			twin.MX = append(twin.MX, dataset.MXObs{Preference: mx.Preference, Exchange: mx.Exchange, Addrs: unseen})
		}
		snap.AddDomain(twin)
	}
	snap.SortDomains()
	if err := dataset.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
}

// writeChurned writes the snapshot at from to to with a seeded 2 % of
// its domains re-pointed at another domain's MX set and 0.5 % removed.
func writeChurned(t *testing.T, from, to string) {
	t.Helper()
	snap, err := dataset.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 0x6368726e))
	n := len(snap.Domains)
	kept := snap.Domains[:0:0]
	for i := range snap.Domains {
		d := snap.Domains[i]
		switch p := rng.Float64(); {
		case p < 0.005:
			continue
		case p < 0.025:
			d.MX = snap.Domains[rng.IntN(n)].MX
		}
		kept = append(kept, d)
	}
	snap.Domains = kept
	if err := dataset.WriteFile(to, snap); err != nil {
		t.Fatal(err)
	}
}

// referenceAnswers runs an independent full inference over the
// snapshot at path: its attributions by domain, and its snapshot meta
// at the given epoch.
func referenceAnswers(t *testing.T, path string, cfg ServiceConfig, epoch uint64) (map[string]core.DomainAttribution, SnapshotMeta) {
	t.Helper()
	st, err := dataset.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	atts := make(map[string]core.DomainAttribution)
	if _, err := core.InferStream(st, core.ApproachPriority, cfg.Infer, func(att core.DomainAttribution) {
		atts[att.Domain] = att
	}); err != nil {
		t.Fatal(err)
	}
	return atts, SnapshotMeta{Date: st.Date, Corpus: st.Corpus, Epoch: epoch, Domains: len(atts)}
}

// TestLookupBodiesMatchAttributions pins every /v1/domain body of a
// served flat world to json.Marshal of the answer an independent full
// inference gives, hits and misses alike: after the initial load, after
// an incremental swap to a churned copy, and after a swap that falls
// back to a full recompute.
func TestLookupBodiesMatchAttributions(t *testing.T) {
	dir := t.TempDir()
	pathA, pathB := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	cfg := writeFlatSnapshot(t, pathA, 3000)
	addTwins(t, pathA)
	writeChurned(t, pathA, pathB)
	refA, metaA := referenceAnswers(t, pathA, cfg, 1)
	refB, metaB := referenceAnswers(t, pathB, cfg, 2)

	names := []string{"absent.example", "nowhere.invalid"}
	for name := range refA {
		names = append(names, name)
	}
	for name := range refB {
		if _, ok := refA[name]; !ok {
			names = append(names, name)
		}
	}

	svc := NewService(core.ApproachPriority, cfg)
	srv, err := NewServer(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	check := func(phase string, ref map[string]core.DomainAttribution, meta SnapshotMeta) {
		t.Helper()
		var body []byte
		misses := 0
		for _, name := range names {
			want := LookupResponse{Domain: name, Snapshot: meta}
			if att, ok := ref[name]; ok {
				want.Found = true
				want.Primary = att.Primary()
				want.Credits = att.Credits
				want.Rank = att.Rank
				want.HasSMTP = att.HasSMTP
				want.Untrusted = att.Untrusted
			} else {
				misses++
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			req := &Request{Method: "GET", Path: "/v1/domain", Query: url.Values{"name": {name}}}
			resp := srv.handle(context.Background(), req, &body)
			if resp.Status != 200 || string(resp.Body) != string(wantBody) {
				t.Fatalf("%s: %s answered %d\n%s\nwant\n%s", phase, name, resp.Status, resp.Body, wantBody)
			}
		}
		if misses < 2 {
			t.Fatalf("%s: %d misses checked, want at least 2", phase, misses)
		}
	}

	if _, err := svc.Load(pathA); err != nil {
		t.Fatal(err)
	}
	check("load", refA, metaA)

	rep, err := svc.Swap(context.Background(), pathB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullRecompute || rep.Delta.Reused == 0 || rep.Delta.Reinferred == 0 {
		t.Fatalf("churned swap report %+v, want a delta that reuses and re-infers", rep.Delta)
	}
	check("delta swap", refB, metaB)

	if err := os.Remove(pathB); err != nil {
		t.Fatal(err)
	}
	if rep, err = svc.Swap(context.Background(), pathA); err != nil {
		t.Fatal(err)
	}
	if !rep.FullRecompute {
		t.Fatalf("swap after the prior's file vanished: %+v, want a full recompute", rep)
	}
	metaA.Epoch = 3
	check("full-recompute swap", refA, metaA)
}

// TestStoreInternsAnswers holds the store to one *answer per distinct
// answer, after a load and after an incremental swap, and the answers
// to far fewer than the domains.
func TestStoreInternsAnswers(t *testing.T) {
	dir := t.TempDir()
	pathA, pathB := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	cfg := writeFlatSnapshot(t, pathA, 3000)
	writeChurned(t, pathA, pathB)
	svc := NewService(core.ApproachPriority, cfg)
	if _, err := svc.Load(pathA); err != nil {
		t.Fatal(err)
	}
	check := func(phase string) {
		t.Helper()
		st := svc.cur.Load()
		byValue := make(map[string]*answer)
		for name, e := range st.domains {
			v, err := json.Marshal([]any{e.ans.credits, e.ans.primary, e.ans.hasSMTP, e.ans.untrusted})
			if err != nil {
				t.Fatal(err)
			}
			if first, ok := byValue[string(v)]; !ok {
				byValue[string(v)] = e.ans
			} else if first != e.ans {
				t.Fatalf("%s: %s holds its own copy of answer %s", phase, name, v)
			}
		}
		if n := len(byValue); n == 0 || 4*n > len(st.domains) {
			t.Errorf("%s: %d distinct answers among %d domains, want under a quarter", phase, n, len(st.domains))
		}
	}
	check("load")
	if _, err := svc.Swap(context.Background(), pathB); err != nil {
		t.Fatal(err)
	}
	check("delta swap")
}

// BenchmarkServiceLoad times Service.Load of a 20 000-domain flat
// snapshot and reports what the loaded store keeps live per domain: the
// heap after two collections, taken while the service is still held.
func BenchmarkServiceLoad(b *testing.B) {
	const n = 20000
	path := filepath.Join(b.TempDir(), "flat.jsonl")
	cfg := writeFlatSnapshot(b, path, n)
	b.ReportAllocs()
	var live float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		svc := NewService(core.ApproachPriority, cfg)
		if _, err := svc.Load(path); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		live += float64(after.HeapAlloc) - float64(before.HeapAlloc)
		runtime.KeepAlive(svc)
	}
	b.ReportMetric(live/float64(b.N)/n, "live-B/domain")
}
