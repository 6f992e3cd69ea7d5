package dns

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// --- Cache unit tests -------------------------------------------------

// frozenClock returns a clock stuck at a fixed instant plus a function
// to advance it.
func frozenClock() (func() time.Time, func(time.Duration)) {
	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	return func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}, func(d time.Duration) {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
		}
}

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
	got, ok := c.Get("x.test", TypeA)
	if !ok {
		t.Fatal("entry missing after 50s of a 60s lifetime")
	}
	if got.Answers[0].TTL != 10 {
		t.Errorf("answer TTL = %d after 50s of a 60s entry, want 10", got.Answers[0].TTL)
	}
	if got.Authority[0].TTL != 10 {
		t.Errorf("authority TTL = %d, want clamped to remaining 10", got.Authority[0].TTL)
	}
}

// TestCacheStaleLookup holds the expiry rule for zone cuts: an expired
// delegation is not served, and the suffix walk that finds it frees its
// slot, while a fresh cut above it still answers.
func TestCacheStaleLookup(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCache()
	c.Now = func() time.Time { return now }
	comNS := []netip.AddrPort{netip.MustParseAddrPort("192.5.6.30:53")}
	c.PutDelegation("com.", comNS, 3600)
	c.PutDelegation("example.com.", []netip.AddrPort{netip.MustParseAddrPort("10.1.1.53:53")}, 60)

	now = now.Add(61 * time.Second)
	servers, zone, ok := c.Delegation("mx1.example.com.")
	if !ok || zone != "com." || servers[0] != comNS[0] {
		t.Errorf("cut = %v %q %v, want the fresh com. above the expired example.com.", servers, zone, ok)
	}
	if got, want := c.Stats(), (CacheStats{DelegationHits: 1, Puts: 2, Expiries: 1}); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1: the expired cut must be gone", c.Len())
	}
}

// TestCacheMissesCountedOnce holds CacheStats.Misses to
// ResolverStats.CacheMisses under faults, and expired entries to the
// probe that finds them.
func TestCacheMissesCountedOnce(t *testing.T) {
	t.Run("failed_query", func(t *testing.T) {
		itn := buildIterTestNet(t)
		itn.net.SetFault(netip.MustParseAddr(rootIP), netsim.FaultBlackhole)
		r := itn.resolver(t)
		r.Cache = NewCache()
		r.Timeout = 50 * time.Millisecond
		defer r.Close()
		if _, err := r.Query(context.Background(), "mx1.example.com", TypeA); err == nil {
			t.Fatal("query through a blackholed root succeeded")
		}
		if got, want := r.Stats(), (ResolverStats{Queries: 1, CacheMisses: 1, WireQueries: 1}); got != want {
			t.Errorf("resolver stats = %+v, want %+v", got, want)
		}
		if got, want := r.Cache.Stats(), (CacheStats{Misses: 1}); got != want {
			t.Errorf("cache stats = %+v, want %+v", got, want)
		}
	})
	t.Run("expired_entry", func(t *testing.T) {
		now := time.Unix(1000, 0)
		c := NewCache()
		c.Now = func() time.Time { return now }
		c.Put("x.test", TypeA, cachedMsg(60))
		c.Put("y.test", TypeA, cachedMsg(600))
		now = now.Add(61 * time.Second)
		before := c.Len()
		if _, ok := c.Get("x.test", TypeA); ok {
			t.Fatal("expired entry served")
		}
		if c.Len() != before-1 {
			t.Errorf("Len = %d after touching the expired entry, want %d", c.Len(), before-1)
		}
		if got, want := c.Stats(), (CacheStats{Misses: 1, Puts: 2, Expiries: 1}); got != want {
			t.Errorf("stats = %+v, want %+v", got, want)
		}
	})
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

	got, ok := c.Get("x.test", TypeAAAA)
	if !ok {
		t.Fatal("NODATA entry missing")
	}
	if len(got.Answers) != 0 || len(got.Authority) != 1 {
		t.Errorf("NODATA shape changed: %+v", got)
	}
	if st := c.Stats(); st.NegativeHits != 1 {
		t.Errorf("NegativeHits = %d, want 1", st.NegativeHits)
	}
	now = now.Add(46 * time.Second)
	if _, ok := c.Get("x.test", TypeAAAA); ok {
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
					c.Len()
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

func TestIterativeSharedSuffixWalk(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver(t)
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

// TestChaosAllUpstreamsDeadIsAnError is the acceptance chaos test: with
// every server in the hierarchy blackholed and all cached data expired,
// queries fail — positive and negative alike — instead of answering
// from expired entries nobody observed, and every counter is accounted
// for exactly.
func TestChaosAllUpstreamsDeadIsAnError(t *testing.T) {
	itn := buildIterTestNet(t)
	clock, advance := frozenClock()

	r := itn.resolver(t)
	r.Cache = NewCache()
	r.Cache.Now = clock
	defer r.Close()
	ctx := context.Background()

	// Warm phase: one positive (A, TTL 1) and one negative (NXDOMAIN,
	// SOA minimum 300) answer.
	if _, err := r.LookupA(ctx, "mx1.example.com"); err != nil {
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

	if msg, err := r.Query(ctx, "mx1.example.com", TypeA); err == nil {
		t.Errorf("positive with every upstream dead answered %+v, want an error", msg.Answers)
	}
	// The expired NXDOMAIN is not replayed either: the failure is the
	// wire's, not the name's.
	if _, err := r.LookupA(ctx, "missing.example.com"); err == nil || errors.Is(err, ErrNXDomain) {
		t.Errorf("negative with every upstream dead: err = %v, want a wire failure", err)
	}

	// Exact ledger. Warm phase: 3 exchanges for the cold walk, then 1
	// for the NXDOMAIN via the cached example.com cut. Outage phase: the
	// expired delegations force both queries back to the (dead) root —
	// one failed exchange each. The four expired entries (two answers,
	// two cuts) are removed by the probes that find them.
	rs := r.Stats()
	wantRS := ResolverStats{Queries: 4, CacheMisses: 4, WireQueries: 6}
	if rs != wantRS {
		t.Errorf("resolver stats = %+v, want %+v", rs, wantRS)
	}
	cs := r.Cache.Stats()
	wantCS := CacheStats{Misses: 4, DelegationHits: 1, Puts: 4, Expiries: 4}
	if cs != wantCS {
		t.Errorf("cache stats = %+v, want %+v", cs, wantCS)
	}
	if r.Cache.Len() != 0 {
		t.Errorf("cache holds %d entries after every one expired and was touched", r.Cache.Len())
	}
}
