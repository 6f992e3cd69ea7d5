package dns

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Cache is the recursive resolver's shared RRset cache. One instance is
// meant to be shared by every worker of a collection run: at measurement
// scale thousands of domains concentrate onto a handful of provider
// NS/MX infrastructures, so one wire exchange should serve the whole
// cohort.
//
// Semantics:
//
//   - Positive entries live for the minimum TTL among their answer
//     records; negative (NXDOMAIN/NODATA) entries for the SOA minimum
//     per RFC 2308.
//   - Hits return a private copy whose record TTLs are clamped to the
//     remaining lifetime — callers may patch IDs or header bits freely,
//     and a response cached 50s ago never claims its original TTL.
//   - Expired entries are retained for DefaultStaleWindow and can be
//     served explicitly (RFC 8767 serve-stale) with their TTLs stamped
//     to DefaultStaleTTL; plain Get never returns them.
//   - Delegation entries (zone → name-server addresses) share the same
//     bounded storage, so delegation state no longer grows without
//     limit over a run.
//
// Storage is sharded to keep lock contention low under a parallel
// collector, and bounded per shard with least-recently-used eviction.
// The clock is injectable for deterministic tests.
type Cache struct {
	// MaxEntries bounds the cache across all shards (default 4096).
	MaxEntries int
	// Now substitutes the clock for tests; nil uses time.Now.
	Now func() time.Time

	once   sync.Once
	shards []*cacheShard

	hits, misses, staleHits   atomic.Uint64
	negativeHits, delegHits   atomic.Uint64
	puts, evictions, expiries atomic.Uint64
}

// Serve-stale constants, following RFC 8767's recommendations: expired
// data stays usable for a bounded window (§5), and is handed out with a
// short TTL that tells consumers "do not hold this long".
const (
	DefaultStaleWindow = time.Hour
	DefaultStaleTTL    = 30
)

// Cache lifetime clamps.
const (
	maxCacheTTL = 24 * time.Hour
	// minDelegationTTL floors delegation lifetimes: referral NS sets
	// change rarely, and a 1-second delegation TTL would force constant
	// re-walks of the upper hierarchy.
	minDelegationTTL = 30 * time.Second
)

// CacheState classifies one lookup's outcome.
type CacheState uint8

// Lookup outcomes.
const (
	// CacheMiss: nothing usable cached.
	CacheMiss CacheState = iota
	// CacheFresh: an unexpired entry was returned.
	CacheFresh
	// CacheStale: an expired entry within the stale window was
	// returned (only when the lookup asked for stale data).
	CacheStale
)

// String names the state.
func (s CacheState) String() string {
	switch s {
	case CacheFresh:
		return "fresh"
	case CacheStale:
		return "stale"
	default:
		return "miss"
	}
}

// CacheLookup carries the metadata of one cache probe: what was found,
// how far through its lifetime it is, and how hot the entry runs. The
// resolver's prefetch policy keys off Remaining, OriginalTTL and Hits.
type CacheLookup struct {
	// State is the outcome; the other fields are meaningful only on
	// fresh or stale results.
	State CacheState
	// Age is the time since the entry was stored.
	Age time.Duration
	// Remaining is the time until expiry (negative when stale).
	Remaining time.Duration
	// OriginalTTL is the entry's full cache lifetime.
	OriginalTTL time.Duration
	// Hits is the number of fresh hits this entry has served,
	// including this one.
	Hits uint64
	// Negative reports an RFC 2308 negative entry (NXDOMAIN/NODATA).
	Negative bool
}

// CacheStats is a point-in-time snapshot of the cache's counters.
// Chaos and bench tests assert these exactly against scripted load.
type CacheStats struct {
	// Hits counts fresh answer hits (NegativeHits included).
	Hits uint64
	// Misses counts probes that found nothing servable fresh.
	Misses uint64
	// StaleHits counts expired entries served under RFC 8767.
	StaleHits uint64
	// NegativeHits counts fresh hits on RFC 2308 negative entries.
	NegativeHits uint64
	// DelegationHits counts suffix-walk hits on cached zone cuts.
	DelegationHits uint64
	// Puts counts stored entries (cacheable responses + delegations).
	Puts uint64
	// Evictions counts entries displaced by the size bound; Expiries
	// counts entries dropped because they aged beyond the stale window.
	Evictions, Expiries uint64
}

type entryKind uint8

const (
	kindRRset entryKind = iota
	kindDelegation
)

type cacheKey struct {
	name string
	typ  Type
	kind entryKind
}

// cacheEntry is one cached RRset response or delegation. All fields are
// guarded by the owning shard's lock.
type cacheEntry struct {
	key cacheKey
	// msg is the stored response for kindRRset entries (a private
	// copy; never aliased to caller memory).
	msg *Message
	// servers are the zone-cut addresses for kindDelegation entries.
	servers []netip.AddrPort

	negative    bool
	prefetching bool
	hits        uint64

	stored  time.Time
	expires time.Time

	prev, next *cacheEntry // LRU list, head = most recent
}

// cacheShard is one lock domain: a map plus an LRU list bounded at
// `bound` entries.
type cacheShard struct {
	mu         sync.Mutex
	entries    map[cacheKey]*cacheEntry
	head, tail *cacheEntry
	bound      int
}

// NewCache returns an empty cache with default bounds.
func NewCache() *Cache {
	return &Cache{MaxEntries: 4096}
}

// init lays out the shards: a power-of-two count that keeps total
// capacity within MaxEntries (at most 64 shards, at least 2 entries per
// shard so per-shard LRU has room to express recency).
func (c *Cache) init() {
	c.once.Do(func() {
		max := c.MaxEntries
		if max <= 0 {
			max = 4096
		}
		n := 1
		for n*2 <= max/2 && n < 64 {
			n *= 2
		}
		bound := max / n
		if bound < 1 {
			bound = 1
		}
		c.shards = make([]*cacheShard, n)
		for i := range c.shards {
			c.shards[i] = &cacheShard{entries: make(map[cacheKey]*cacheEntry), bound: bound}
		}
	})
}

func (c *Cache) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// shardFor picks the shard by an FNV-1a hash of the key.
func (c *Cache) shardFor(key cacheKey) *cacheShard {
	c.init()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.name); i++ {
		h ^= uint64(key.name[i])
		h *= prime64
	}
	h ^= uint64(key.typ)<<8 | uint64(key.kind)
	h *= prime64
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns a cached, unexpired response for (name, typ). The result
// is a private copy with TTLs decayed to the remaining lifetime.
func (c *Cache) Get(name string, typ Type) (*Message, bool) {
	msg, lk := c.Lookup(name, typ, false)
	return msg, lk.State == CacheFresh
}

// Lookup probes the cache for (name, typ). With serveStale set, an
// expired entry still inside the stale window is returned with its
// record TTLs stamped to StaleTTL; otherwise only fresh entries are
// served. The returned message is always a private copy.
func (c *Cache) Lookup(name string, typ Type, serveStale bool) (*Message, CacheLookup) {
	key := cacheKey{name: CanonicalName(name), typ: typ, kind: kindRRset}
	sh := c.shardFor(key)
	now := c.now()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, CacheLookup{State: CacheMiss}
	}
	switch {
	case !now.After(e.expires): // fresh
		e.hits++
		sh.moveFront(e)
		lk := CacheLookup{
			State:       CacheFresh,
			Age:         now.Sub(e.stored),
			Remaining:   e.expires.Sub(now),
			OriginalTTL: e.expires.Sub(e.stored),
			Hits:        e.hits,
			Negative:    e.negative,
		}
		msg := cloneMessage(e.msg)
		clampTTLs(msg, ttlSeconds(lk.Remaining))
		c.hits.Add(1)
		if e.negative {
			c.negativeHits.Add(1)
		}
		return msg, lk
	case now.Sub(e.expires) <= DefaultStaleWindow: // stale but servable
		if !serveStale {
			c.misses.Add(1)
			return nil, CacheLookup{State: CacheMiss}
		}
		lk := CacheLookup{
			State:       CacheStale,
			Age:         now.Sub(e.stored),
			Remaining:   e.expires.Sub(now),
			OriginalTTL: e.expires.Sub(e.stored),
			Hits:        e.hits,
			Negative:    e.negative,
		}
		msg := cloneMessage(e.msg)
		stampTTLs(msg, DefaultStaleTTL)
		c.staleHits.Add(1)
		return msg, lk
	default: // beyond the stale window: gone
		sh.remove(e)
		c.expiries.Add(1)
		c.misses.Add(1)
		return nil, CacheLookup{State: CacheMiss}
	}
}

// Put stores a response under the TTL policy of cacheTTL. The message
// is copied; the caller keeps exclusive ownership of its argument.
// Responses that carry no TTL signal (no answers and no SOA) are not
// cached.
func (c *Cache) Put(name string, typ Type, msg *Message) {
	ttl, ok := cacheTTL(msg)
	if !ok || ttl == 0 {
		return
	}
	d := time.Duration(ttl) * time.Second
	if d > maxCacheTTL {
		d = maxCacheTTL
	}
	key := cacheKey{name: CanonicalName(name), typ: typ, kind: kindRRset}
	now := c.now()
	e := &cacheEntry{
		key:      key,
		msg:      cloneMessage(msg),
		negative: len(msg.Answers) == 0 || msg.Header.RCode == RCodeNXDomain,
		stored:   now,
		expires:  now.Add(d),
	}
	c.store(e)
}

// PutDelegation stores the name servers of a zone cut for ttl seconds
// (floored at minDelegationTTL — referral sets change rarely, and
// short delegation TTLs would force constant re-walks of the upper
// hierarchy).
func (c *Cache) PutDelegation(zone string, servers []netip.AddrPort, ttl uint32) {
	if len(servers) == 0 {
		return
	}
	d := time.Duration(ttl) * time.Second
	if d < minDelegationTTL {
		d = minDelegationTTL
	}
	if d > maxCacheTTL {
		d = maxCacheTTL
	}
	now := c.now()
	e := &cacheEntry{
		key:     cacheKey{name: CanonicalName(zone), typ: TypeNS, kind: kindDelegation},
		servers: append([]netip.AddrPort(nil), servers...),
		stored:  now,
		expires: now.Add(d),
	}
	c.store(e)
}

// Delegation returns the deepest cached zone cut covering name, walking
// the suffix chain from the name itself toward the root. Delegations are
// served fresh only — an expired cut means re-walking from above it.
func (c *Cache) Delegation(name string) ([]netip.AddrPort, string, bool) {
	now := c.now()
	for zone := CanonicalName(name); zone != "."; zone = Parent(zone) {
		key := cacheKey{name: zone, typ: TypeNS, kind: kindDelegation}
		sh := c.shardFor(key)
		sh.mu.Lock()
		e, ok := sh.entries[key]
		if ok && !now.After(e.expires) {
			servers := append([]netip.AddrPort(nil), e.servers...)
			e.hits++
			sh.moveFront(e)
			sh.mu.Unlock()
			c.delegHits.Add(1)
			return servers, zone, true
		}
		if ok && now.Sub(e.expires) > DefaultStaleWindow {
			sh.remove(e)
			c.expiries.Add(1)
		}
		sh.mu.Unlock()
	}
	return nil, "", false
}

// FlushDelegations drops every cached zone cut (for tests and
// long-lived resolvers spanning zone changes); answer entries survive.
func (c *Cache) FlushDelegations() {
	c.init()
	for _, sh := range c.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.key.kind == kindDelegation {
				sh.remove(e)
			}
		}
		sh.mu.Unlock()
	}
}

// store inserts e, evicting the least recently used entry of its shard
// when full.
func (c *Cache) store(e *cacheEntry) {
	sh := c.shardFor(e.key)
	sh.mu.Lock()
	if old, ok := sh.entries[e.key]; ok {
		sh.remove(old)
	}
	for len(sh.entries) >= sh.bound && sh.tail != nil {
		sh.remove(sh.tail)
		c.evictions.Add(1)
	}
	sh.entries[e.key] = e
	sh.pushFront(e)
	sh.mu.Unlock()
	c.puts.Add(1)
}

// tryStartPrefetch marks the entry as having a refresh in flight,
// returning false when none is warranted (absent, or already
// refreshing). The flag clears when the refresh Puts a replacement or
// the resolver calls clearPrefetch on failure.
func (c *Cache) tryStartPrefetch(name string, typ Type) bool {
	key := cacheKey{name: CanonicalName(name), typ: typ, kind: kindRRset}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || e.prefetching {
		return false
	}
	e.prefetching = true
	return true
}

// clearPrefetch lowers the prefetching flag after a failed refresh so a
// later hit can try again.
func (c *Cache) clearPrefetch(name string, typ Type) {
	key := cacheKey{name: CanonicalName(name), typ: typ, kind: kindRRset}
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		e.prefetching = false
	}
	sh.mu.Unlock()
}

// Len reports the number of cached entries (including expired ones not
// yet touched).
func (c *Cache) Len() int {
	c.init()
	total := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		total += len(sh.entries)
		sh.mu.Unlock()
	}
	return total
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		StaleHits:      c.staleHits.Load(),
		NegativeHits:   c.negativeHits.Load(),
		DelegationHits: c.delegHits.Load(),
		Puts:           c.puts.Load(),
		Evictions:      c.evictions.Load(),
		Expiries:       c.expiries.Load(),
	}
}

// LRU list management; all called with the shard lock held.

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) moveFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *cacheShard) remove(e *cacheEntry) {
	delete(sh.entries, e.key)
	sh.unlink(e)
}

// cloneMessage deep-copies a message's header and record slices so the
// copy can be mutated (ID patching, header bits, TTL decay) without
// touching the original. RData values are shared: every concrete RData
// type in this package is treated as immutable once built.
func cloneMessage(m *Message) *Message {
	if m == nil {
		return nil
	}
	out := &Message{Header: m.Header}
	if m.Questions != nil {
		out.Questions = append([]Question(nil), m.Questions...)
	}
	if m.Answers != nil {
		out.Answers = append([]RR(nil), m.Answers...)
	}
	if m.Authority != nil {
		out.Authority = append([]RR(nil), m.Authority...)
	}
	if m.Additional != nil {
		out.Additional = append([]RR(nil), m.Additional...)
	}
	return out
}

// clampTTLs clamps every record TTL in the message to the remaining
// cache lifetime: a response cached 50 seconds ago must not be handed
// out still claiming its original TTL.
func clampTTLs(m *Message, remaining uint32) {
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if sec[i].TTL > remaining {
				sec[i].TTL = remaining
			}
		}
	}
}

// stampTTLs sets every record TTL to ttl — the stale-answer marking of
// RFC 8767 §4 ("should not be held longer than 30 seconds").
func stampTTLs(m *Message, ttl uint32) {
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			sec[i].TTL = ttl
		}
	}
}

// ttlSeconds converts a remaining lifetime to whole seconds, rounding
// down, never below zero.
func ttlSeconds(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	return uint32(d / time.Second)
}

// cacheTTL derives the cache lifetime of a response: the minimum answer
// TTL, or for negative responses the SOA minimum field per RFC 2308.
func cacheTTL(msg *Message) (uint32, bool) {
	if msg == nil {
		return 0, false
	}
	if len(msg.Answers) > 0 {
		min := msg.Answers[0].TTL
		for _, rr := range msg.Answers[1:] {
			if rr.TTL < min {
				min = rr.TTL
			}
		}
		return min, true
	}
	for _, rr := range msg.Authority {
		if soa, ok := rr.Data.(SOAData); ok {
			ttl := soa.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return ttl, true
		}
	}
	return 0, false
}
