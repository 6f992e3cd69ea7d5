package scan

import (
	"context"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/netsim"
	"mxmap/internal/world"
)

// TestIterativeMatchesCatalog measures the same corpus date twice — once
// with the in-memory catalog shortcut and once with full iterative
// resolution against the delegated root/TLD/authoritative hierarchy on
// the fabric — and requires identical snapshots. This is the strongest
// evidence that the fast path used by the large experiments has the same
// semantics as wire-faithful resolution.
func TestIterativeMatchesCatalog(t *testing.T) {
	w, err := world.Generate(world.Config{Seed: 23, Scale: 0.001, TailProviders: 10, SelfISPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	date := "2021-06"

	infra, err := w.StartDNS(sess.Net, date)
	if err != nil {
		t.Fatal(err)
	}
	defer infra.Close()
	t.Logf("DNS hierarchy: %d servers", infra.NumServers())

	catalog, err := w.CatalogAt(date)
	if err != nil {
		t.Fatal(err)
	}

	corpus := w.Corpus(world.CorpusAlexa)
	targets := make([]Target, 0, 60)
	for i, d := range corpus.Domains {
		if i >= 60 {
			break
		}
		targets = append(targets, Target{Name: d.Name, Rank: d.Rank})
	}

	collect := func(r dns.Resolver) map[string]string {
		col := &Collector{
			Resolver:   r,
			Dialer:     sess.Net,
			Trust:      w.Trust,
			Prefixes:   w.Prefixes,
			ASRegistry: w.ASRegistry,
		}
		snap, err := col.Collect(context.Background(), "alexa", date, targets)
		if err != nil {
			t.Fatal(err)
		}
		// Normalize to a comparable map: domain -> MX signature.
		out := make(map[string]string, len(snap.Domains))
		for _, d := range snap.Domains {
			sig := ""
			for _, mx := range d.MX {
				addrs := append([]netip.Addr(nil), mx.Addrs...)
				sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
				sig += mx.Exchange + "="
				for _, a := range addrs {
					sig += a.String() + ","
				}
				sig += ";"
			}
			out[d.Domain] = sig
		}
		return out
	}

	viaCatalog := collect(dns.CatalogResolver{Catalog: catalog})
	resolver := infra.NewIterativeResolver(sess.Net)
	defer resolver.Close()
	viaWire := collect(resolver)

	if !reflect.DeepEqual(viaCatalog, viaWire) {
		for domain, sig := range viaCatalog {
			if viaWire[domain] != sig {
				t.Errorf("%s:\n catalog: %s\n wire:    %s", domain, sig, viaWire[domain])
			}
		}
	}
}

// TestCachedResolverAmortizesWalks runs the same wire-faithful
// collection twice through one shared caching resolver and requires the
// second pass to cost zero upstream queries: every answer — positive,
// negative, and every delegation — must come out of the recursive
// cache. This is the scan-level proof that the shared-cache hit rate,
// not wire speed, bounds collection throughput.
func TestCachedResolverAmortizesWalks(t *testing.T) {
	w, err := world.Generate(world.Config{Seed: 29, Scale: 0.001, TailProviders: 10, SelfISPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	date := "2021-06"

	infra, err := w.StartDNS(sess.Net, date)
	if err != nil {
		t.Fatal(err)
	}
	defer infra.Close()

	corpus := w.Corpus(world.CorpusAlexa)
	targets := make([]Target, 0, 40)
	for i, d := range corpus.Domains {
		if i >= 40 {
			break
		}
		targets = append(targets, Target{Name: d.Name, Rank: d.Rank})
	}

	resolver := infra.NewIterativeResolver(sess.Net)
	defer resolver.Close()
	collect := func() {
		col := &Collector{
			Resolver:   resolver,
			Dialer:     sess.Net,
			Trust:      w.Trust,
			Prefixes:   w.Prefixes,
			ASRegistry: w.ASRegistry,
		}
		if _, err := col.Collect(context.Background(), "alexa", date, targets); err != nil {
			t.Fatal(err)
		}
	}

	collect()
	cold := infra.Stats()
	collect()
	warm := infra.Stats()

	extraUDP := warm.UDPQueries - cold.UDPQueries
	extraTCP := warm.TCPQueries - cold.TCPQueries
	if extraUDP != 0 || extraTCP != 0 {
		t.Errorf("second collection reached upstreams: %d UDP + %d TCP extra queries (cold run used %d)",
			extraUDP, extraTCP, cold.UDPQueries+cold.TCPQueries)
	}
	rs := resolver.Stats()
	if rs.CacheHits == 0 || rs.CacheMisses == 0 {
		t.Errorf("cache never engaged: %+v", rs)
	}
	// Both passes issue the same questions, so hits must cover at least
	// the second pass's share.
	if rs.CacheHits < rs.CacheMisses {
		t.Errorf("hit rate below 50%% across two identical passes: %+v", rs)
	}
}

// TestDeadHierarchyIsRecordedAsFailure collects a corpus through one
// caching resolver, lets every cached answer and zone cut expire, kills
// the hierarchy and collects again: the second snapshot must say that
// DNS failed for every domain, not replay the first pass's MX sets as
// if the authorities had answered them.
func TestDeadHierarchyIsRecordedAsFailure(t *testing.T) {
	w, err := world.Generate(world.Config{Seed: 31, Scale: 0.001, TailProviders: 10, SelfISPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	date := "2021-06"
	infra, err := w.StartDNS(sess.Net, date)
	if err != nil {
		t.Fatal(err)
	}
	defer infra.Close()

	corpus := w.Corpus(world.CorpusAlexa)
	targets := make([]Target, 0, 40)
	for _, d := range corpus.Domains[:40] {
		targets = append(targets, Target{Name: d.Name, Rank: d.Rank})
	}

	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	resolver := infra.NewIterativeResolver(sess.Net)
	resolver.Cache.Now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	defer resolver.Close()
	collect := func() *dataset.Snapshot {
		col := &Collector{
			Resolver:   resolver,
			Dialer:     sess.Net,
			Trust:      w.Trust,
			Prefixes:   w.Prefixes,
			ASRegistry: w.ASRegistry,
			Retry:      &RetryPolicy{Attempts: 1},
		}
		snap, err := col.Collect(context.Background(), "alexa", date, targets)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	withMX := 0
	for _, d := range collect().Domains {
		if len(d.MX) > 0 {
			withMX++
		}
	}
	if withMX == 0 {
		t.Fatal("the live pass recorded no MX set; the test would prove nothing")
	}

	// Every world TTL is 3600 s (300 s for negatives): past it, no cached
	// answer or cut is fresh, so every question starts at the root.
	mu.Lock()
	now = now.Add(3601 * time.Second)
	mu.Unlock()
	for _, root := range infra.Roots {
		sess.Net.SetFault(root.Addr(), netsim.FaultBlackhole)
	}
	resolver.Timeout = 20 * time.Millisecond

	dnsClasses := map[dataset.FailureClass]bool{
		dataset.FailNXDomain: true, dataset.FailDNSTimeout: true,
		dataset.FailDNSServFail: true, dataset.FailLameDelegation: true,
	}
	snap := collect()
	for _, d := range snap.Domains {
		if len(d.MX) > 0 {
			t.Errorf("%s: %d MX after the hierarchy died, want none", d.Domain, len(d.MX))
		}
	}
	// Every domain's lookup is counted, each under a DNS failure class.
	failed := 0
	for class, n := range snap.Health.Domains {
		if !dnsClasses[class] {
			t.Errorf("%d domains classed %q after the hierarchy died, want a DNS failure", n, class)
		}
		failed += n
	}
	if failed != len(targets) {
		t.Errorf("health counts %d domains, want %d", failed, len(targets))
	}
}
