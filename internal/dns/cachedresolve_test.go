package dns

// The cached-resolve ledger: the caching recursive resolver driven
// through a delegated root → TLD → authoritative hierarchy on the
// simulated fabric under a frozen clock, every phase's whole
// ResolverStats and CacheStats asserted exactly, and the end state
// compared with results/BENCH_dns.json. The phases share one resolver
// and build on each other, so a failed phase stops the test.

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"mxmap/internal/ledger"
	"mxmap/internal/netsim"
)

const (
	crDomains = 48
	crTTL     = 60 // seconds on every MX answer

	crRootIP = "10.210.0.1"
	crTLDIP  = "10.210.0.2"
	crAuthIP = "10.210.0.3"
)

func crName(i int) string { return fmt.Sprintf("d%02d.bench", i) }

// startCachedResolveNet serves the three-level hierarchy — root
// delegating "bench", the bench TLD delegating each dNN.bench with glue,
// one authoritative server for all leaf zones — on a fresh fabric and
// returns a cacheless resolver rooted there.
func startCachedResolveNet(t testing.TB) *IterativeResolver {
	t.Helper()
	n := netsim.New()
	soa := func(z *Zone, apex string) {
		z.MustAdd(RR{Name: apex, Type: TypeSOA, TTL: 3600, Data: SOAData{
			MName: "ns." + apex, RName: "h." + apex, Serial: 1, Minimum: 300}})
	}
	root := NewZone(".")
	root.MustAdd(RR{Name: ".", Type: TypeSOA, TTL: 3600, Data: SOAData{
		MName: "a.root.", RName: "root.root.", Serial: 1, Minimum: 300}})
	root.MustAdd(RR{Name: "bench.", Type: TypeNS, TTL: 3600, Data: NSData{Host: "ns.bench."}})
	root.MustAdd(RR{Name: "ns.bench.", Type: TypeA, TTL: 3600, Data: AData{Addr: mustAddr(crTLDIP)}})
	tld := NewZone("bench")
	soa(tld, "bench.")
	authCat := NewCatalog()
	for i := 0; i < crDomains; i++ {
		apex := crName(i) + "."
		tld.MustAdd(RR{Name: apex, Type: TypeNS, TTL: 3600, Data: NSData{Host: "ns." + apex}})
		tld.MustAdd(RR{Name: "ns." + apex, Type: TypeA, TTL: 3600, Data: AData{Addr: mustAddr(crAuthIP)}})
		z := NewZone(crName(i))
		soa(z, apex)
		z.MustAdd(RR{Name: apex, Type: TypeMX, TTL: crTTL, Data: MXData{Preference: 10, Exchange: "mx." + apex}})
		authCat.AddZone(z)
	}
	rootCat, tldCat := NewCatalog(), NewCatalog()
	rootCat.AddZone(root)
	tldCat.AddZone(tld)
	startAuthServer(t, n, crRootIP, rootCat)
	startAuthServer(t, n, crTLDIP, tldCat)
	startAuthServer(t, n, crAuthIP, authCat)

	r := &IterativeResolver{
		Roots:       []netip.AddrPort{netip.MustParseAddrPort(crRootIP + ":53")},
		Timeout:     2 * time.Second,
		DialContext: lossyFabricDial(n),
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// cachedResolveReport is the cached_resolve object of BENCH_dns.json.
type cachedResolveReport struct {
	Domains  int             `json:"domains"`
	Phases   []resolvedPhase `json:"phases"`
	Resolver ResolverStats   `json:"resolver"`
	Cache    CacheStats      `json:"cache"`
}

type resolvedPhase struct {
	Phase  string `json:"phase"`
	Detail string `json:"detail"`
}

func TestCachedResolveLedger(t *testing.T) {
	r := startCachedResolveNet(t)
	now, _ := frozenClock()
	r.Cache = &Cache{MaxEntries: 1 << 12, Now: now}
	ctx := context.Background()
	report := cachedResolveReport{Domains: crDomains}

	// phase runs one step on the shared resolver as a subtest, asserts
	// both ledgers whole and records the phase; the phases build on each
	// other, so a failed one ends the test.
	phase := func(name, detail string, wantRS ResolverStats, wantCS CacheStats, run func(t *testing.T)) {
		t.Helper()
		ok := t.Run(name, func(t *testing.T) {
			run(t)
			if rs, cs := r.Stats(), r.Cache.Stats(); rs != wantRS || cs != wantCS {
				t.Fatalf("resolver %+v want %+v; cache %+v want %+v", rs, wantRS, cs, wantCS)
			}
		})
		if !ok {
			t.FailNow()
		}
		report.Phases = append(report.Phases, resolvedPhase{name, detail})
	}
	query := func(t *testing.T, i int) {
		t.Helper()
		if _, err := r.Query(ctx, crName(i), TypeMX); err != nil {
			t.Fatalf("%s: %v", crName(i), err)
		}
	}

	// The first domain walks root → TLD → auth (3 exchanges); the other
	// 47 reuse the cached bench. cut (2 each). Puts: 48 answers, 1 TLD
	// delegation, 48 leaf delegations.
	const coldWire = 3 + 2*(crDomains-1)
	phase("cold_fill", fmt.Sprintf("%d domains in %d exchanges via shared suffix walk", crDomains, coldWire),
		ResolverStats{Queries: crDomains, CacheMisses: crDomains, WireQueries: coldWire},
		CacheStats{Misses: crDomains, DelegationHits: crDomains - 1, Puts: 2*crDomains + 1},
		func(t *testing.T) {
			for i := 0; i < crDomains; i++ {
				query(t, i)
			}
		})

	// Three full passes, zero wire traffic.
	const warmHits = 3 * crDomains
	phase("warm_hits", fmt.Sprintf("%d queries served from cache, 0 exchanges", warmHits),
		ResolverStats{Queries: crDomains + warmHits, CacheHits: warmHits, CacheMisses: crDomains, WireQueries: coldWire},
		CacheStats{Hits: warmHits, Misses: crDomains, DelegationHits: crDomains - 1, Puts: 2*crDomains + 1},
		func(t *testing.T) {
			for i := 0; i < warmHits; i++ {
				query(t, i%crDomains)
			}
		})
	report.Resolver, report.Cache = r.Stats(), r.Cache.Stats()

	ledger.Check(t, "BENCH_dns.json", map[string]any{"cached_resolve": report})
}

// BenchmarkCachedResolve times one MX resolution through the ledger's
// hierarchy: cold (a fresh cache before every query, so each is a full
// root → TLD → authoritative walk) against warm (every answer from the
// shared cache).
func BenchmarkCachedResolve(b *testing.B) {
	ctx := context.Background()
	run := func(b *testing.B, r *IterativeResolver, cold bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				r.Cache = &Cache{MaxEntries: 1 << 12}
			}
			if _, err := r.Query(ctx, crName(i%crDomains), TypeMX); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		r := startCachedResolveNet(b)
		run(b, r, true)
	})
	b.Run("warm", func(b *testing.B) {
		r := startCachedResolveNet(b)
		r.Cache = &Cache{MaxEntries: 1 << 12}
		for i := 0; i < crDomains; i++ {
			if _, err := r.Query(ctx, crName(i), TypeMX); err != nil {
				b.Fatal(err)
			}
		}
		run(b, r, false)
	})
}
