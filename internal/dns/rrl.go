package dns

// Response-rate limiting (RRL), the classic defense authoritative DNS
// servers deploy against spoofed-source query floods: because UDP answers
// are larger than queries, an open authoritative is an amplification
// vector, and a flood of queries with a forged victim source turns the
// server into the attacker's amplifier. RRL bounds the rate of responses
// per client prefix so one noisy (or spoofed) prefix cannot monopolize
// the server or weaponize it, while the "slip" mechanism keeps legitimate
// clients behind a rate-limited prefix alive: every Nth suppressed answer
// is sent as a minimal truncated (TC=1) reply, which a real client
// answers by retrying over TCP — a path a spoofing attacker cannot
// follow, because TCP requires completing a handshake from the real
// source address.
//
// The limiter keys token buckets on (client prefix, response kind):
// IPv4 clients aggregate to /24 and IPv6 to /56, matching the prefix
// widths BIND and NSD use, and response kinds (answer, empty, NXDOMAIN,
// error) are limited separately so an NXDOMAIN flood cannot starve
// legitimate positive answers from the same prefix. TCP is never
// rate-limited (it is not spoofable), and loopback sources are exempt by
// default so local operators are never locked out.

import (
	"encoding/binary"
	"net/netip"
	"sync"
	"time"
)

// RRL defaults.
const (
	// DefaultRRLRate is the sustained responses/second allowed per
	// (prefix, kind) bucket.
	DefaultRRLRate = 1000
	// DefaultRRLBurst is the bucket depth: responses a quiet prefix may
	// receive back-to-back before the sustained rate applies.
	DefaultRRLBurst = 2 * DefaultRRLRate
	// DefaultRRLSlip sends every 2nd rate-limited answer as a truncated
	// reply instead of dropping it.
	DefaultRRLSlip = 2
)

// RRLConfig parameterizes response-rate limiting on a Server.
type RRLConfig struct {
	// ResponsesPerSecond is the sustained per-bucket response rate
	// (default DefaultRRLRate).
	ResponsesPerSecond int
	// Burst is the bucket depth (default DefaultRRLBurst).
	Burst int
	// Slip sends every Nth rate-limited UDP answer as a truncated TC=1
	// reply so legitimate clients fail over to TCP; the other N-1 are
	// dropped. 1 slips every limited answer, 0 uses DefaultRRLSlip, and
	// a negative value never slips (pure drop).
	Slip int
	// IncludeLoopback subjects loopback sources to limiting too. The
	// default exemption keeps local diagnostics (and tests that query
	// over 127.0.0.1) out of the buckets.
	IncludeLoopback bool
	// Now substitutes the clock for deterministic tests; nil uses
	// time.Now.
	Now func() time.Time
}

// rrlKind buckets responses by what they reveal: floods of different
// response classes are limited independently.
type rrlKind uint8

const (
	rrlKindAnswer   rrlKind = iota // NOERROR with answers
	rrlKindEmpty                   // NOERROR, empty answer (NODATA/referral)
	rrlKindNXDomain                // name error
	rrlKindError                   // FORMERR, SERVFAIL, REFUSED, ...
)

// rrlAction is the limiter's verdict for one response.
type rrlAction uint8

const (
	rrlSend rrlAction = iota // under the rate: send as-is
	rrlDrop                  // over the rate: drop silently
	rrlSlip                  // over the rate: send truncated TC=1 reply
)

// rrlKey identifies one token bucket.
type rrlKey struct {
	prefix netip.Prefix
	kind   rrlKind
}

// rrlBucket is one token bucket. tokens counts whole responses; frac
// accumulates sub-response refill so no refill is lost to rounding.
type rrlBucket struct {
	tokens   int
	fracNano int64  // nanoseconds of refill not yet converted to a token
	lastNano int64  // last refill time
	limited  uint64 // rate-limited responses since creation (drives slip)
}

// rrlShards spreads the bucket table over independently locked shards so
// concurrent UDP workers do not serialize on one mutex.
const rrlShards = 16

// maxBucketsPerShard bounds limiter memory; on overflow the least
// recently refilled entries are evicted first.
const maxBucketsPerShard = 4096

type rrlShard struct {
	mu sync.Mutex
	m  map[rrlKey]*rrlBucket
}

// rrlLimiter is the runtime state behind a Server's RRLConfig.
type rrlLimiter struct {
	rate  int
	burst int
	slip  int
	incLo bool
	now   func() time.Time

	shards [rrlShards]rrlShard
}

// newRRLLimiter resolves cfg's defaults into a ready limiter.
func newRRLLimiter(cfg RRLConfig) *rrlLimiter {
	l := &rrlLimiter{
		rate:  cfg.ResponsesPerSecond,
		burst: cfg.Burst,
		slip:  cfg.Slip,
		incLo: cfg.IncludeLoopback,
		now:   cfg.Now,
	}
	if l.rate <= 0 {
		l.rate = DefaultRRLRate
	}
	if l.burst <= 0 {
		l.burst = DefaultRRLBurst
	}
	if l.slip == 0 {
		l.slip = DefaultRRLSlip
	}
	if l.now == nil {
		l.now = time.Now
	}
	for i := range l.shards {
		l.shards[i].m = make(map[rrlKey]*rrlBucket)
	}
	return l
}

// rrlPrefix aggregates a client address to its accounting prefix: /24
// for IPv4, /56 for IPv6.
func rrlPrefix(addr netip.Addr) netip.Prefix {
	addr = addr.Unmap()
	bits := 24
	if addr.Is6() {
		bits = 56
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.PrefixFrom(addr, addr.BitLen())
	}
	return p
}

// decide applies the token bucket for (src, kind) to one prospective
// response.
func (l *rrlLimiter) decide(addr netip.Addr, kind rrlKind) rrlAction {
	addr = addr.Unmap() // a dual-stack socket reports IPv4 peers as ::ffff:a.b.c.d
	if addr.IsLoopback() && !l.incLo {
		return rrlSend
	}
	key := rrlKey{prefix: rrlPrefix(addr), kind: kind}
	sh := &l.shards[rrlHash(key)%rrlShards]
	nowNano := l.now().UnixNano()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[key]
	if b == nil {
		if len(sh.m) >= maxBucketsPerShard {
			sh.evictOldest()
		}
		b = &rrlBucket{tokens: l.burst, lastNano: nowNano}
		sh.m[key] = b
	} else {
		l.refill(b, nowNano)
	}
	if b.tokens > 0 {
		b.tokens--
		return rrlSend
	}
	b.limited++
	if l.slip > 0 && b.limited%uint64(l.slip) == 0 {
		return rrlSlip
	}
	return rrlDrop
}

// refill adds rate-proportional tokens for the time since the last
// refill, capping at the burst depth.
func (l *rrlLimiter) refill(b *rrlBucket, nowNano int64) {
	elapsed := nowNano - b.lastNano
	if elapsed <= 0 {
		return
	}
	b.lastNano = nowNano
	total := b.fracNano + elapsed*int64(l.rate)
	add := total / int64(time.Second)
	b.fracNano = total % int64(time.Second)
	if add <= 0 {
		return
	}
	if add > int64(l.burst) {
		add = int64(l.burst)
	}
	b.tokens += int(add)
	if b.tokens > l.burst {
		b.tokens = l.burst
		b.fracNano = 0
	}
}

// evictOldest drops the entry with the stalest refill time. Called with
// the shard lock held; linear scan is fine at the shard bound.
func (sh *rrlShard) evictOldest() {
	var oldest rrlKey
	var oldestNano int64
	first := true
	for k, b := range sh.m {
		if first || b.lastNano < oldestNano {
			oldest, oldestNano, first = k, b.lastNano, false
		}
	}
	if !first {
		delete(sh.m, oldest)
	}
}

// rrlHash mixes a key into a shard index.
func rrlHash(k rrlKey) uint32 {
	a := k.prefix.Addr().As16()
	h := uint32(2166136261)
	for _, c := range a {
		h = (h ^ uint32(c)) * 16777619
	}
	h = (h ^ uint32(k.prefix.Bits()) ^ uint32(k.kind)<<8) * 16777619
	return h
}

// respKind classifies a packed response for bucket selection. The bytes
// come straight off the server's pack path, so fixed-offset header reads
// are safe.
func respKind(resp []byte) rrlKind {
	if len(resp) < 12 {
		return rrlKindError
	}
	rcode := RCode(resp[3] & 0x0F)
	switch rcode {
	case RCodeSuccess:
		if binary.BigEndian.Uint16(resp[6:8]) > 0 {
			return rrlKindAnswer
		}
		return rrlKindEmpty
	case RCodeNXDomain:
		return rrlKindNXDomain
	default:
		return rrlKindError
	}
}

// slipResponse rewrites a packed response into the minimal truncated
// form sent on a slip: the original header with TC set and all record
// sections emptied, plus the echoed question section. The client learns
// nothing but "retry over TCP", and the reply is no larger than the
// query — no amplification. The rewrite happens in place on resp's
// prefix (the caller owns the buffer); on any parse anomaly it falls
// back to a header-only reply.
func slipResponse(resp []byte) []byte {
	if len(resp) < 12 {
		return resp
	}
	qdcount := int(binary.BigEndian.Uint16(resp[4:6]))
	end := 12
	for i := 0; i < qdcount; i++ {
		ok := false
		for end < len(resp) {
			l := int(resp[end])
			if l == 0 {
				end++
				ok = true
				break
			}
			if l&0xC0 != 0 {
				// Compressed question name: cannot happen on our pack
				// path, but never walk blind.
				ok = false
				break
			}
			end += 1 + l
		}
		if !ok || end+4 > len(resp) {
			end = 12
			qdcount = 0
			break
		}
		end += 4
	}
	out := resp[:end]
	out[2] |= 0x02 // TC
	binary.BigEndian.PutUint16(out[4:6], uint16(qdcount))
	binary.BigEndian.PutUint16(out[6:8], 0)   // ANCOUNT
	binary.BigEndian.PutUint16(out[8:10], 0)  // NSCOUNT
	binary.BigEndian.PutUint16(out[10:12], 0) // ARCOUNT
	return out
}
