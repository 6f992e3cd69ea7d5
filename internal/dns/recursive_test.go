package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// --- Cache unit tests -------------------------------------------------

func TestCacheGetReturnsCopy(t *testing.T) {
	c := NewCache()
	in := cachedMsg(60)
	c.Put("x.test", TypeA, in)
	// Mutating the Put argument after the fact must not reach the cache.
	in.Header.ID = 0xBEEF
	in.Answers[0].Name = "poisoned.test."

	got, ok := c.Get("x.test", TypeA)
	if !ok {
		t.Fatal("entry missing")
	}
	if got.Header.ID == 0xBEEF || got.Answers[0].Name != "x.test." {
		t.Errorf("cache aliases Put argument: %+v", got.Answers[0])
	}
	// Mutating a returned copy must not poison later hits.
	got.Header.ID = 0xDEAD
	got.Answers[0].TTL = 9999
	got.Answers = append(got.Answers[:0], RR{Name: "evil.test."})

	again, ok := c.Get("x.test", TypeA)
	if !ok {
		t.Fatal("entry missing on second hit")
	}
	if again.Header.ID == 0xDEAD || len(again.Answers) != 1 || again.Answers[0].Name != "x.test." {
		t.Errorf("cache shares memory with callers: %+v", again)
	}
}

func TestCacheTTLDecayOnHit(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	msg := cachedMsg(60)
	msg.Authority = []RR{{Name: "test.", Type: TypeNS, Class: ClassIN, TTL: 300,
		Data: NSData{Host: "ns.test."}}}
	c.Put("x.test", TypeA, msg)

	now = now.Add(50 * time.Second)
	got, lk := c.Lookup("x.test", TypeA, false)
	if lk.State != CacheFresh {
		t.Fatalf("state = %v, want fresh", lk.State)
	}
	if got.Answers[0].TTL != 10 {
		t.Errorf("answer TTL = %d after 50s of a 60s entry, want 10", got.Answers[0].TTL)
	}
	if got.Authority[0].TTL != 10 {
		t.Errorf("authority TTL = %d, want clamped to remaining 10", got.Authority[0].TTL)
	}
	if lk.Age != 50*time.Second || lk.Remaining != 10*time.Second || lk.OriginalTTL != 60*time.Second {
		t.Errorf("lookup metadata = %+v", lk)
	}
}

func TestCacheStaleLookup(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	c.Put("x.test", TypeA, cachedMsg(60))

	now = now.Add(61 * time.Second)
	if _, lk := c.Lookup("x.test", TypeA, false); lk.State != CacheMiss {
		t.Errorf("non-stale lookup served expired entry: %v", lk.State)
	}
	got, lk := c.Lookup("x.test", TypeA, true)
	if lk.State != CacheStale {
		t.Fatalf("state = %v, want stale", lk.State)
	}
	if got.Answers[0].TTL != DefaultStaleTTL {
		t.Errorf("stale TTL = %d, want %d (RFC 8767 marking)", got.Answers[0].TTL, DefaultStaleTTL)
	}
	if lk.Remaining >= 0 {
		t.Errorf("stale Remaining = %v, want negative", lk.Remaining)
	}

	// Beyond the stale window the entry is purged even for stale lookups.
	now = now.Add(DefaultStaleWindow + time.Second)
	if _, lk := c.Lookup("x.test", TypeA, true); lk.State != CacheMiss {
		t.Errorf("entry served beyond stale window: %v", lk.State)
	}
	if st := c.Stats(); st.Expiries != 1 || st.StaleHits != 1 {
		t.Errorf("stats = %+v, want 1 expiry and 1 stale hit", st)
	}
	if c.Len() != 0 {
		t.Errorf("purged entry still stored: Len = %d", c.Len())
	}
}

func TestCacheLRURecency(t *testing.T) {
	c := NewCache()
	c.MaxEntries = 2 // one shard, bound 2: recency fully observable
	c.Put("a.test", TypeA, cachedMsg(60))
	c.Put("b.test", TypeA, cachedMsg(60))
	if _, ok := c.Get("a.test", TypeA); !ok {
		t.Fatal("a.test missing before eviction")
	}
	c.Put("c.test", TypeA, cachedMsg(60))
	if _, ok := c.Get("a.test", TypeA); !ok {
		t.Error("recently used a.test was evicted")
	}
	if _, ok := c.Get("b.test", TypeA); ok {
		t.Error("least recently used b.test survived")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheNegativeNODATA(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	// NODATA: NOERROR, no answers, SOA in authority (RFC 2308 type 2).
	nodata := &Message{
		Header: Header{Response: true, Authoritative: true},
		Authority: []RR{{Name: "test.", Type: TypeSOA, Class: ClassIN, TTL: 600, Data: SOAData{
			MName: "ns.test.", RName: "h.test.", Minimum: 45}}},
	}
	c.Put("x.test", TypeAAAA, nodata)

	got, lk := c.Lookup("x.test", TypeAAAA, false)
	if lk.State != CacheFresh || !lk.Negative {
		t.Fatalf("lookup = %+v, want fresh negative", lk)
	}
	if len(got.Answers) != 0 || len(got.Authority) != 1 {
		t.Errorf("NODATA shape changed: %+v", got)
	}
	if st := c.Stats(); st.NegativeHits != 1 {
		t.Errorf("NegativeHits = %d, want 1", st.NegativeHits)
	}
	now = now.Add(46 * time.Second)
	if _, lk := c.Lookup("x.test", TypeAAAA, false); lk.State != CacheMiss {
		t.Error("NODATA outlived SOA minimum")
	}
}

func TestCacheDelegationSuffixWalk(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	comNS := []netip.AddrPort{netip.MustParseAddrPort("192.5.6.30:53")}
	exNS := []netip.AddrPort{netip.MustParseAddrPort("10.1.1.53:53")}
	c.PutDelegation("com.", comNS, 3600)
	c.PutDelegation("example.com.", exNS, 3600)

	servers, zone, ok := c.Delegation("mx1.example.com.")
	if !ok || zone != "example.com." || servers[0] != exNS[0] {
		t.Errorf("deepest cut = %v %q %v, want example.com.", servers, zone, ok)
	}
	servers, zone, ok = c.Delegation("other.com.")
	if !ok || zone != "com." || servers[0] != comNS[0] {
		t.Errorf("fallback cut = %v %q %v, want com.", servers, zone, ok)
	}
	if _, _, ok := c.Delegation("foo.net."); ok {
		t.Error("uncovered name returned a delegation")
	}
	if st := c.Stats(); st.DelegationHits != 2 {
		t.Errorf("DelegationHits = %d, want 2", st.DelegationHits)
	}
	// Delegations are served fresh only: after expiry the walk restarts
	// above the dead cut.
	now = now.Add(3601 * time.Second)
	if _, _, ok := c.Delegation("mx1.example.com."); ok {
		t.Error("expired delegation served")
	}
}

func TestCacheDelegationTTLFloor(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	// A 1-second referral TTL would force constant re-walks; the cache
	// floors delegation lifetimes at minDelegationTTL.
	c.PutDelegation("com.", []netip.AddrPort{netip.MustParseAddrPort("192.5.6.30:53")}, 1)
	now = now.Add(minDelegationTTL - time.Second)
	if _, _, ok := c.Delegation("x.com."); !ok {
		t.Error("floored delegation expired early")
	}
	now = now.Add(2 * time.Second)
	if _, _, ok := c.Delegation("x.com."); ok {
		t.Error("delegation served past the floor")
	}
}

// TestCacheRaceHammer hammers every cache entry point concurrently; its
// assertions are the race detector's (run under -race in the cache
// verify tier).
func TestCacheRaceHammer(t *testing.T) {
	c := NewCache()
	c.MaxEntries = 64 // small enough that eviction churns constantly
	servers := []netip.AddrPort{netip.MustParseAddrPort("10.0.0.1:53")}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("d%d.test", (w*31+i)%97)
				switch i % 5 {
				case 0:
					c.Put(name, TypeA, cachedMsg(60))
				case 1:
					if msg, ok := c.Get(name, TypeA); ok {
						msg.Header.ID = uint16(i) // private copy: must be safe
						msg.Answers[0].TTL = 1
					}
				case 2:
					c.Lookup(name, TypeA, true)
				case 3:
					c.PutDelegation(name, servers, 300)
				default:
					c.Delegation("sub." + name)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("bound violated under concurrency: %d", c.Len())
	}
}

// --- Resolver integration tests ---------------------------------------

// startSingleZone serves one catalog as a combined root+authoritative
// server at rootIP on a fresh fabric.
func startSingleZone(t *testing.T, z *Zone) *netsim.Network {
	t.Helper()
	n := netsim.New()
	cat := NewCatalog()
	cat.AddZone(z)
	startAuthServer(t, n, rootIP, cat)
	return n
}

func TestIterativeSharedSuffixWalk(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver()
	r.Cache = NewCache()
	ctx := context.Background()

	if _, err := r.LookupA(ctx, "mx1.example.com"); err != nil {
		t.Fatal(err)
	}
	cold := itn.queries.Load()
	if cold != 3 {
		t.Fatalf("cold walk = %d exchanges, want 3 (root, TLD, authoritative)", cold)
	}
	// A sibling name under the same zone reuses the cached cut: one
	// exchange, straight to the deepest known authority.
	if _, err := r.LookupA(ctx, "dns.example.com"); err != nil {
		t.Fatal(err)
	}
	if warm := itn.queries.Load() - cold; warm != 1 {
		t.Errorf("sibling lookup = %d exchanges, want 1", warm)
	}
	if st := r.Cache.Stats(); st.DelegationHits != 1 {
		t.Errorf("DelegationHits = %d, want 1", st.DelegationHits)
	}
}

// TestChaosServeStaleAllUpstreamsDead is the acceptance chaos test: with
// every server in the hierarchy blackholed and all cached data expired,
// queries are answered from stale entries — positive and negative alike
// — with RFC 8767 TTL marking, and every counter accounted for exactly.
func TestChaosServeStaleAllUpstreamsDead(t *testing.T) {
	itn := buildIterTestNet(t)
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	r := itn.resolver()
	r.Cache = NewCache()
	r.Cache.Now = clock
	r.PrefetchMinHits = -1 // keep the counter ledger exact
	defer r.Close()
	ctx := context.Background()

	// Warm phase: one positive (A, TTL 1) and one negative (NXDOMAIN,
	// SOA minimum 300) answer.
	addrs, err := r.LookupA(ctx, "mx1.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LookupA(ctx, "missing.example.com"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("warm negative err = %v, want ErrNXDomain", err)
	}

	// Outage phase: expire everything (302s clears the 1s answer, the
	// 300s negative, and the 30s-floored delegations), then kill every
	// upstream in the hierarchy.
	advance(302 * time.Second)
	for _, ip := range []string{rootIP, comIP, netIP, auth1, auth2} {
		itn.net.SetFault(netip.MustParseAddr(ip), netsim.FaultBlackhole)
	}
	r.Timeout = 50 * time.Millisecond

	staleMsg, err := r.Query(ctx, "mx1.example.com", TypeA)
	if err != nil {
		t.Fatalf("serve-stale positive: %v", err)
	}
	if got := staleMsg.Answers[0].Data.(AData).Addr; got != addrs[0] {
		t.Errorf("stale answer = %v, want %v", got, addrs[0])
	}
	if staleMsg.Answers[0].TTL != DefaultStaleTTL {
		t.Errorf("stale TTL = %d, want %d", staleMsg.Answers[0].TTL, DefaultStaleTTL)
	}
	// Stale NXDOMAIN keeps its meaning through the resolver surface.
	if _, err := r.LookupA(ctx, "missing.example.com"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("stale negative err = %v, want ErrNXDomain", err)
	}

	// Exact ledger. Warm phase: 3 exchanges for the cold walk, then 1
	// for the NXDOMAIN via the cached example.com cut. Outage phase: the
	// expired delegations force both queries back to the (dead) root —
	// one failed exchange each — before falling back to stale data.
	rs := r.Stats()
	wantRS := ResolverStats{Queries: 4, CacheMisses: 4, StaleServed: 2, WireQueries: 6}
	if rs != wantRS {
		t.Errorf("resolver stats = %+v, want %+v", rs, wantRS)
	}
	cs := r.Cache.Stats()
	wantCS := CacheStats{Misses: 4, StaleHits: 2, DelegationHits: 1, Puts: 4}
	if cs != wantCS {
		t.Errorf("cache stats = %+v, want %+v", cs, wantCS)
	}
}

func TestIterativePrefetch(t *testing.T) {
	z := NewZone(".")
	z.MustAdd(RR{Name: "hot.test.", Type: TypeMX, TTL: 100, Data: MXData{Preference: 10, Exchange: "mx.hot.test."}})
	n := startSingleZone(t, z)

	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	r := &IterativeResolver{
		Roots:   []netip.AddrPort{netip.MustParseAddrPort(rootIP + ":53")},
		Timeout: 2 * time.Second,
		Cache:   &Cache{MaxEntries: 64, Now: clock},
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			return n.DialUDP(netip.MustParseAddrPort(address))
		},
	}
	defer r.Close()
	ctx := context.Background()

	// Miss, then three fresh hits: the entry is now hot but nowhere near
	// expiry, so no prefetch fires.
	for i := 0; i < 4; i++ {
		if _, err := r.LookupMX(ctx, "hot.test"); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Prefetches != 0 || st.WireQueries != 1 {
		t.Fatalf("prefetch fired early: %+v", st)
	}

	// A hit inside the final tenth of the TTL triggers a background
	// refresh for the hot entry.
	advance(91 * time.Second)
	if _, err := r.LookupMX(ctx, "hot.test"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Prefetches != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("prefetch never completed: %+v", r.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Past the original expiry the refreshed entry still serves fresh —
	// steady-state hot queries never block on the wire.
	advance(60 * time.Second)
	if _, err := r.LookupMX(ctx, "hot.test"); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.CacheHits != 5 || st.CacheMisses != 1 || st.WireQueries != 2 {
		t.Errorf("stats = %+v, want 5 hits / 1 miss / 2 wire", st)
	}
}
