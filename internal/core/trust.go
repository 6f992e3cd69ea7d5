package core

import (
	"fmt"
	"net/netip"

	"mxmap/internal/dataset"
	"mxmap/internal/psl"
)

// Sentinel credit buckets for assignments the trust pass refuses to
// attribute at face value. They are deliberately not valid registered
// domains, so they can never collide with a real provider ID.
const (
	// CreditUntrusted replaces a credit whose answers arrived through
	// infrastructure the registrant no longer controls (stale-glue
	// hijack) or whose identity claim cannot be trusted.
	CreditUntrusted = "(untrusted)"
	// CreditDangling replaces a credit derived from an exchange whose
	// enclosing registered zone has lapsed — takeover-ready namespace.
	CreditDangling = "(dangling)"
	// CreditParked replaces a credit for an exchange that resolves only
	// onto parking sinkholes with port 25 closed.
	CreditParked = "(parked)"
)

// maxStemsPerExchange bounds the per-exchange stem table so an
// inference run's memory stays proportional to the exchange inventory;
// overflow stems collapse into one anonymous bucket.
const maxStemsPerExchange = 16

// abuseStemMinLen is the shortest digit-stripped stem the abuse rule
// accepts. Generic short names ("d.com", "mx.net") strip to stems far
// below this, so organically popular exchanges never qualify.
const abuseStemMinLen = 12

// trustStats accumulates, per exchange and in domain order, the
// delegation-provenance and naming evidence the trust pass consumes. It
// is fed from the serialized record fields only (Delegation, Dangling,
// Parked), so a run over a collected snapshot and a run over its file
// see identical inputs.
type trustStats struct {
	// staleGlue marks exchanges referenced by any domain whose delegation
	// provenance was flagged stale.
	staleGlue map[string]bool
	// domains counts referring domains per exchange.
	domains map[string]int
	// stems counts digit-stripped registered-domain stems of referring
	// domains per exchange; "" is the overflow bucket. The counts are
	// pointed at, so that counting a stem already seen looks it up by
	// its bytes and allocates nothing. Only the abuse rule reads domains
	// and stems: with the rule off both are nil and nothing is counted.
	stems map[string]map[string]*int
	// stem is observe's buffer for the stem of the domain at hand.
	stem []byte
}

func newTrustStats() *trustStats {
	return &trustStats{
		staleGlue: make(map[string]bool),
		domains:   make(map[string]int),
		stems:     make(map[string]map[string]*int),
	}
}

// observe folds one domain's primary MX set into the statistics:
// markStale for its tail, countStem for its name. Pass A makes the two
// calls apart, the first once per tail.
func (t *trustStats) observe(d *dataset.DomainRecord, primary []dataset.MXObs, memo *psl.Memo) {
	if d.Delegation == dataset.DelegationStaleGlue {
		t.markStale(primary)
	}
	t.countStem(d.Domain, primary, memo)
}

// markStale marks the exchanges of a primary MX set whose domain's
// delegation provenance was flagged stale.
func (t *trustStats) markStale(primary []dataset.MXObs) {
	for i := range primary {
		t.staleGlue[primary[i].Exchange] = true
	}
}

// countStem counts one referring domain, and the stem of its name, for
// each exchange of its primary MX set. Every domain name is seen once,
// so its stem is taken from memo's list, not memo: caching it would grow
// the memo by one entry per domain.
func (t *trustStats) countStem(domain string, primary []dataset.MXObs, memo *psl.Memo) {
	if len(primary) == 0 {
		return
	}
	t.stem = appendAbuseStem(t.stem[:0], domain, memo.List())
	for i := range primary {
		ex := primary[i].Exchange
		t.domains[ex]++
		m := t.stems[ex]
		if m == nil {
			m = make(map[string]*int)
			t.stems[ex] = m
		}
		if n := m[string(t.stem)]; n != nil {
			*n++
			continue
		}
		key := string(t.stem)
		if len(m) >= maxStemsPerExchange {
			key = ""
			if n := m[key]; n != nil {
				*n++
				continue
			}
		}
		one := 1
		m[key] = &one
	}
}

// topStem returns the most common stem behind an exchange with its count
// and the total referring-domain count.
func (t *trustStats) topStem(exchange string) (stem string, count, total int) {
	total = t.domains[exchange]
	for s, n := range t.stems[exchange] {
		if s == "" {
			continue
		}
		if *n > count || (*n == count && s < stem) {
			stem, count = s, *n
		}
	}
	return stem, count, total
}

// appendAbuseStem appends the look-alike naming key of a domain: its
// registered domain with every ASCII digit removed. Members of a
// throwaway cluster ("bargain-pharma-dealz-001.xyz", "-002", ...)
// collapse onto one stem.
func appendAbuseStem(dst []byte, domain string, list *psl.List) []byte {
	h := normalizeHost(domain)
	if reg, ok := list.RegisteredDomain(h); ok {
		h = reg
	}
	for i := 0; i < len(h); i++ {
		if h[i] < '0' || h[i] > '9' {
			dst = append(dst, h[i])
		}
	}
	return dst
}

// checkTrust is the hijack/abuse-aware pass: it cross-checks every
// assignment against delegation provenance and cluster structure, and
// downgrades forgeable attributions to sentinel credits instead of
// crediting the claimed provider. It runs after the step 4
// misidentification check and never revisits assignments that check
// already marked untrusted.
func checkTrust(res *Result, exchanges []dataset.MXObs, ips map[netip.Addr]dataset.IPInfo, t *trustStats, cfg Config) {
	for i := range exchanges {
		mx := &exchanges[i]
		a := res.MX[mx.Exchange]
		if a.Untrusted {
			continue
		}
		switch {
		case t.staleGlue[mx.Exchange]:
			flagUntrusted(res, a, CreditUntrusted,
				"stale-glue delegation: answers come from infrastructure the registrant no longer controls")
		case mx.Dangling:
			flagUntrusted(res, a, CreditDangling,
				"exchange zone lapsed from the registry; resolution rides leftover glue")
		case allParked(mx.Addrs, ips):
			flagUntrusted(res, a, CreditParked,
				"every exchange address is a parking sinkhole with port 25 closed")
		default:
			if cfg.AbuseClusterMinDomains <= 0 {
				continue
			}
			stem, n, total := t.topStem(mx.Exchange)
			if total >= cfg.AbuseClusterMinDomains && len(stem) >= abuseStemMinLen && n*4 >= total*3 {
				// Attribution stands — the bulk operator really runs the
				// exchange — but the cluster is surfaced as low-trust.
				a.Untrusted = true
				a.Reason = fmt.Sprintf("abuse cluster: %d/%d referring domains share look-alike stem %q", n, total, stem)
				res.NumUntrusted++
			}
		}
	}
}

// flagUntrusted downgrades an assignment to a sentinel credit.
func flagUntrusted(res *Result, a *MXAssignment, credit, reason string) {
	a.Untrusted = true
	a.CreditAs = credit
	a.Reason = reason
	res.NumUntrusted++
}

// allParked reports whether the exchange resolves exclusively onto
// parking addresses where port 25 never answers.
func allParked(addrs []netip.Addr, ips map[netip.Addr]dataset.IPInfo) bool {
	if len(addrs) == 0 {
		return false
	}
	for _, addr := range addrs {
		info, ok := ips[addr]
		if !ok || !info.Parked || info.Port25Open {
			return false
		}
	}
	return true
}
