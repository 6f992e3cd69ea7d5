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
// cached; anything unusual takes the slow path.

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

// handleCached answers a plain single-question IN query from the packed
// cache, building and storing the entry on miss. limit and hasEDNS are
// as computed by udpLimit for this query.
func (s *Server) handleCached(st *handleState, m *Message, udp bool, limit int, hasEDNS bool) []byte {
	q := m.Questions[0]
	key := respKey{name: q.Name, typ: q.Type}
	if hasEDNS {
		key.edns = uint16(limit)
	}
	// Capture the generation before resolving: if the catalog mutates
	// mid-build, the entry lands under the old generation and is never
	// served afterwards.
	gen := s.cfg.Catalog.Generation()
	e := s.cache.get(key, gen)
	if e == nil {
		e = s.buildEntry(q, limit, hasEDNS)
		if e == nil {
			// Pack failure; slow path already logged — answer SERVFAIL.
			fail := m.Reply()
			fail.Header.RCode = RCodeServFail
			b, _ := fail.Pack()
			return b
		}
		s.cache.put(key, gen, e)
	}
	b := e.full
	if udp && e.trunc != nil {
		b = e.trunc
	}
	// Patch the query's ID and RD bit into a copy; everything else in the
	// header was packed with ID=0, RD=0.
	st.out = append(st.out[:0], b...)
	st.out[0], st.out[1] = byte(m.Header.ID>>8), byte(m.Header.ID)
	if m.Header.RecursionDesired {
		st.out[2] |= 0x01
	}
	return st.out
}

// buildEntry resolves and packs the response for key template (q, limit,
// hasEDNS) with ID and RD zeroed. The truncated form is built eagerly
// whenever the full answer exceeds the cap, since the same entry serves
// both UDP and TCP. nil reports a pack failure.
func (s *Server) buildEntry(q Question, limit int, hasEDNS bool) *respEntry {
	resp := s.cfg.Catalog.Resolve(q)
	if hasEDNS {
		resp.SetEDNS0(uint16(limit))
	}
	full, err := resp.Pack()
	if err != nil {
		s.logf("pack response: %v", err)
		return nil
	}
	e := &respEntry{full: full}
	if len(full) > limit {
		trunc := &Message{
			Header: Header{
				Response:      true,
				OpCode:        OpQuery,
				RCode:         resp.Header.RCode,
				Authoritative: resp.Header.Authoritative,
				Truncated:     true,
			},
			Questions: []Question{q},
		}
		if hasEDNS {
			trunc.SetEDNS0(uint16(limit))
		}
		e.trunc, err = trunc.Pack()
		if err != nil {
			s.logf("pack truncated response: %v", err)
			return nil
		}
	}
	return e
}
