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
	"net"
	"net/netip"
	"sync"
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
// returns it with a cacheless resolver rooted there.
func startCachedResolveNet(t testing.TB) (*netsim.Network, *IterativeResolver) {
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
	return n, r
}

// cachedResolveReport is the cached_resolve object of BENCH_dns.json.
type cachedResolveReport struct {
	Domains  int             `json:"domains"`
	Phases   []resolvedPhase `json:"phases"`
	Resolver ResolverStats   `json:"resolver"`
	Cache    CacheStats      `json:"cache"`
	Coalesce ResolverStats   `json:"coalesce"`
}

type resolvedPhase struct {
	Phase  string `json:"phase"`
	Detail string `json:"detail"`
}

func TestCachedResolveLedger(t *testing.T) {
	n, r := startCachedResolveNet(t)
	now, advance := frozenClock()
	r.Cache = &Cache{MaxEntries: 1 << 12, Now: now}
	ctx := context.Background()
	report := cachedResolveReport{Domains: crDomains}

	// step runs one phase as a subtest; the phases build on each other,
	// so a failed one ends the test.
	step := func(name string, run func(t *testing.T)) {
		t.Helper()
		if !t.Run(name, run) {
			t.FailNow()
		}
	}
	// phase is a step on the shared resolver: it waits for both ledgers
	// to reach their exact expected values (a prefetch lands in the
	// background) and records the phase.
	phase := func(name, detail string, wantRS ResolverStats, wantCS CacheStats, run func(t *testing.T)) {
		t.Helper()
		step(name, func(t *testing.T) {
			run(t)
			deadline := time.Now().Add(10 * time.Second)
			for r.Stats() != wantRS || r.Cache.Stats() != wantCS {
				if time.Now().After(deadline) {
					t.Fatalf("resolver %+v want %+v; cache %+v want %+v", r.Stats(), wantRS, r.Cache.Stats(), wantCS)
				}
				time.Sleep(time.Millisecond)
			}
		})
		report.Phases = append(report.Phases, resolvedPhase{name, detail})
	}
	query := func(t *testing.T, i int) *Message {
		t.Helper()
		msg, err := r.Query(ctx, crName(i), TypeMX)
		if err != nil {
			t.Fatalf("%s: %v", crName(i), err)
		}
		return msg
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

	// Three full passes, zero wire traffic — and hot entries nowhere
	// near expiry trigger no prefetch.
	const warmHits = 3 * crDomains
	phase("warm_hits", fmt.Sprintf("%d queries served from cache, 0 exchanges", warmHits),
		ResolverStats{Queries: crDomains + warmHits, CacheHits: warmHits, CacheMisses: crDomains, WireQueries: coldWire},
		CacheStats{Hits: warmHits, Misses: crDomains, DelegationHits: crDomains - 1, Puts: 2*crDomains + 1},
		func(t *testing.T) {
			for i := 0; i < warmHits; i++ {
				query(t, i%crDomains)
			}
		})

	// A hit inside the final tenth of the TTL on a hot entry triggers one
	// background refresh: one exchange, straight to the cached leaf cut.
	phase("prefetch", "near-expiry hit refreshed in background, 1 exchange",
		ResolverStats{Queries: crDomains + warmHits + 1, CacheHits: warmHits + 1,
			CacheMisses: crDomains, WireQueries: coldWire + 1, Prefetches: 1},
		CacheStats{Hits: warmHits + 1, Misses: crDomains, DelegationHits: crDomains, Puts: 2*crDomains + 2},
		func(t *testing.T) {
			advance(55 * time.Second) // 5s left of the 60s TTL
			query(t, 0)
		})

	// Every answer expired, every upstream dead: each query burns one
	// failed exchange against the (still fresh) leaf delegation, then
	// answers from the stale entry per RFC 8767.
	phase("serve_stale", fmt.Sprintf("2 stale answers (TTL %d) with all upstreams dead", DefaultStaleTTL),
		ResolverStats{Queries: crDomains + warmHits + 3, CacheHits: warmHits + 1,
			CacheMisses: crDomains + 2, StaleServed: 2, WireQueries: coldWire + 3, Prefetches: 1},
		CacheStats{Hits: warmHits + 1, Misses: crDomains + 2, StaleHits: 2,
			DelegationHits: crDomains + 2, Puts: 2*crDomains + 2},
		func(t *testing.T) {
			advance(121 * time.Second) // past every answer expiry, incl. the refreshed d00
			for _, ip := range []string{crRootIP, crTLDIP, crAuthIP} {
				n.SetFault(mustAddr(ip), netsim.FaultBlackhole)
			}
			r.Timeout = 50 * time.Millisecond
			for i := 1; i <= 2; i++ {
				if msg := query(t, i); len(msg.Answers) != 1 || msg.Answers[0].TTL != DefaultStaleTTL {
					t.Fatalf("%s: answers %+v, want 1 record with TTL %d", crName(i), msg.Answers, DefaultStaleTTL)
				}
			}
		})
	report.Resolver, report.Cache = r.Stats(), r.Cache.Stats()

	// Coalescing runs on its own gated single-server setup.
	step("coalesce", func(t *testing.T) { report.Coalesce = coalesceEight(t) })
	report.Phases = append(report.Phases, resolvedPhase{"coalesce",
		fmt.Sprintf("%d concurrent identical queries, %d exchange(s), %d coalesced",
			report.Coalesce.Queries, report.Coalesce.WireQueries, report.Coalesce.Coalesced)})

	ledger.Check(t, "BENCH_dns.json", map[string]any{"cached_resolve": report})
}

// gatedConn delays all reads until the gate closes, holding a wire
// exchange open while concurrent queries pile up behind it.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}
}

func (c gatedConn) Read(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Read(p)
}

// coalesceEight asks one question from eight goroutines while the
// leader's exchange is held open: seven attach to its flight, one
// exchange reaches the wire, and the shared answer is cached for
// everyone after.
func coalesceEight(t *testing.T) ResolverStats {
	z := NewZone(".")
	z.MustAdd(RR{Name: "hot.test.", Type: TypeMX, TTL: crTTL, Data: MXData{Preference: 10, Exchange: "mx.hot.test."}})
	n := startSingleZone(t, z)

	gate := make(chan struct{})
	r := &IterativeResolver{
		Roots:   []netip.AddrPort{netip.MustParseAddrPort(rootIP + ":53")},
		Timeout: 10 * time.Second,
		Cache:   NewCache(),
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			conn, err := n.DialUDP(netip.MustParseAddrPort(address))
			if err != nil {
				return nil, err
			}
			return gatedConn{Conn: conn, gate: gate}, nil
		},
	}
	defer r.Close()

	const K = 8
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.LookupMX(context.Background(), "hot.test")
		}(i)
	}
	// Hold the response until every follower has attached to the
	// leader's flight, then let the single exchange complete.
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().Coalesced != K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never coalesced: %+v", r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	st := r.Stats()
	if want := (ResolverStats{Queries: K, CacheMisses: K, Coalesced: K - 1, WireQueries: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if _, err := r.LookupMX(context.Background(), "hot.test"); err != nil {
		t.Fatal(err)
	}
	if after := r.Stats(); after.CacheHits != 1 || after.WireQueries != 1 {
		t.Errorf("post-coalesce hit: %+v", after)
	}
	return st
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
		_, r := startCachedResolveNet(b)
		run(b, r, true)
	})
	b.Run("warm", func(b *testing.B) {
		_, r := startCachedResolveNet(b)
		r.Cache = &Cache{MaxEntries: 1 << 12}
		r.PrefetchMinHits = -1 // timing purity: no background refreshes
		for i := 0; i < crDomains; i++ {
			if _, err := r.Query(ctx, crName(i), TypeMX); err != nil {
				b.Fatal(err)
			}
		}
		run(b, r, false)
	})
}
