package dns

import "sync"

// The packed-response cache. An authoritative measurement server answers
// the same small set of questions millions of times; resolving and
// re-packing each one is pure waste. The cache stores fully wire-encoded
// responses keyed by (canonical name, qtype, EDNS bucket) with the ID
// and RD bit zeroed, and the hot path patches those two fields into a
// per-worker output buffer — a memcpy plus three bytes instead of a zone
// walk and a pack.
//
// Entries are valid for a single catalog generation: AddZone bumps
// Catalog.Generation, and the first lookup under a new generation
// flushes everything. Only plain IN-class single-question queries are
// cached; any other reply is packed the same way and not stored.

// maxCachedResponses bounds the cache; on overflow it is flushed
// wholesale, which is simpler than eviction. That is harmless for a
// leaf authority, whose question set is far smaller than the bound, and
// not for a TLD server under a scan: one TLD server of the scan-wire
// benchmark sees 11 610 distinct names a pass, more than the bound, so it
// flushes mid-pass and the next pass finds only what was stored since
// (Server.buildEntry is 3.7 % of a pass's CPU; ROADMAP item 5).
const maxCachedResponses = 8192

// respKey identifies one packed response. edns is the applied response
// size cap (which the server also advertises back), or 0 for queries
// without EDNS0; distinct advertised sizes produce distinct OPT records
// and truncation points, so they must not share bytes.
type respKey struct {
	name string
	typ  Type
	edns uint16
}

// respEntry holds the wire-encoded answer with ID=0 and RD=0. trunc is
// non-nil when the full answer exceeds the key's UDP cap; UDP queries
// then get the truncated form while TCP always gets full.
type respEntry struct {
	full  []byte
	trunc []byte
}

type respCache struct {
	mu  sync.RWMutex
	gen uint64
	m   map[respKey]*respEntry
}

// get returns the entry for key if it was built under catalog generation
// gen.
func (c *respCache) get(key respKey, gen uint64) *respEntry {
	c.mu.RLock()
	var e *respEntry
	if c.gen == gen {
		e = c.m[key]
	}
	c.mu.RUnlock()
	return e
}

// put stores an entry built under catalog generation gen, flushing the
// cache when the generation moved or the bound is hit.
func (c *respCache) put(key respKey, gen uint64, e *respEntry) {
	c.mu.Lock()
	if c.m == nil || c.gen != gen || len(c.m) >= maxCachedResponses {
		c.m = make(map[respKey]*respEntry, 256)
		c.gen = gen
	}
	c.m[key] = e
	c.mu.Unlock()
}

// cachedEntry returns the packed answer to a plain single-question IN
// query, building and storing it on a miss; nil reports a pack failure.
// limit and hasEDNS are as computed by udpLimit for this query.
func (s *Server) cachedEntry(q Question, limit int, hasEDNS bool) *respEntry {
	key := respKey{name: q.Name, typ: q.Type}
	if hasEDNS {
		key.edns = uint16(limit)
	}
	// Capture the generation before resolving: if the catalog mutates
	// mid-build, the entry lands under the old generation and is never
	// served afterwards.
	gen := s.cfg.Catalog.Generation()
	if e := s.cache.get(key, gen); e != nil {
		return e
	}
	e := buildEntry(s.cfg.Catalog.Resolve(q), limit, hasEDNS)
	if e != nil {
		s.cache.put(key, gen, e)
	}
	return e
}

// buildEntry packs resp, a reply with ID and RD zeroed, for a query that
// advertised hasEDNS and gets the cap limit. The truncated form (resp's
// header with TC set, its questions, and the OPT record) is built
// eagerly whenever the full answer exceeds the cap, since the same entry
// serves both UDP and TCP. nil reports a pack failure.
func buildEntry(resp *Message, limit int, hasEDNS bool) *respEntry {
	// Echo an OPT record advertising the cap actually applied, so the
	// client knows its EDNS0 offer was understood.
	if hasEDNS {
		resp.SetEDNS0(uint16(limit))
	}
	full, err := resp.Pack()
	if err != nil {
		return nil
	}
	e := &respEntry{full: full}
	if len(full) > limit {
		trunc := &Message{Header: resp.Header, Questions: resp.Questions}
		trunc.Header.Truncated = true
		if hasEDNS {
			// Keep EDNS0 on the truncated reply too: dropping OPT would
			// tell the client its EDNS offer was not understood.
			trunc.SetEDNS0(uint16(limit))
		}
		if e.trunc, err = trunc.Pack(); err != nil {
			return nil
		}
	}
	return e
}
