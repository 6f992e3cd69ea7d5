package core

import (
	"net/netip"
	"strings"

	"mxmap/internal/asn"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
)

// checkMisidentifications implements step 4. It examines MX assignments
// that credit a profiled (large) provider with low confidence — the
// signature of the corner cases §3.1 describes: VPS machines certifying
// under their hosting company's name, servers falsely claiming a big
// provider's identity in Banner/EHLO, and third-party providers
// presenting their customers' certificates.
//
// Heuristics applied to each flagged assignment, in order:
//
//  1. AS-membership: a banner-sourced claim of a provider whose known
//     ASes do not announce any of the MX's addresses is a false claim —
//     revert to the MX record's own registered domain.
//  2. VPS naming: a certificate- or banner-sourced identity whose
//     underlying host name matches the provider's VPS naming patterns is
//     a customer machine — revert to the MX registered domain
//     (self-hosting on rented infrastructure).
//  3. Dedicated naming: a host name matching the provider's dedicated
//     patterns is genuinely provider-operated — keep, mark examined.
//  4. Customer certificate: a certificate-sourced identity served from
//     an address inside a *different* profiled provider's AS whose
//     Banner/EHLO agrees with that provider (the utexas.edu/Ironport
//     case) — correct to the hosting provider's ID.
func checkMisidentifications(res *Result, exchanges []dataset.MXObs, ips map[netip.Addr]dataset.IPInfo, ipIDs map[netip.Addr]ipIdentity, cfg Config, memo *psl.Memo) {
	profiles := make(map[string]*ProviderProfile, len(cfg.Profiles))
	asnOwner := make(map[asn.ASN]string)
	for i := range cfg.Profiles {
		p := &cfg.Profiles[i]
		profiles[p.ID] = p
		for _, a := range p.ASNs {
			asnOwner[a] = p.ID
		}
	}

	// Walk the exchange inventory (first-appearance order) rather than
	// the assignment map, so examinations happen in a deterministic order
	// and the per-exchange sample observation needs no rescan of the
	// domain list.
	for _, mx := range exchanges {
		a := res.MX[mx.Exchange]
		prof, isProfiled := profiles[a.ProviderID]
		if !isProfiled || a.Source == SourceMX {
			continue
		}
		if a.Confidence >= cfg.ConfidenceThreshold {
			continue
		}
		a.Examined = true
		res.NumExamined++

		switch a.Source {
		case SourceBanner:
			if !anyAddrInASNs(ips, mx.Addrs, prof.ASNs) {
				if mx.Dangling {
					// The banner claim fails the AS check AND the exchange's
					// registered zone has lapsed: reverting to the MX
					// registered domain would credit a nonexistent
					// registrant. Surface the assignment as untrusted
					// instead.
					flagUntrusted(res, a, CreditUntrusted,
						"banner claims "+prof.ID+" outside its AS; MX registered domain dangling")
					continue
				}
				correct(res, a, mxFallbackID(a.Exchange, memo), "banner claims "+prof.ID+" outside its AS")
				continue
			}
			if host, ok := matchingHost(ips, mx.Addrs, prof.VPSPatterns); ok {
				correct(res, a, mxFallbackID(a.Exchange, memo), "VPS naming pattern "+host)
				continue
			}
			a.Reason = "verified: banner claim inside provider AS"
		case SourceCert:
			if host, ok := matchingHost(ips, mx.Addrs, prof.VPSPatterns); ok {
				correct(res, a, mxFallbackID(a.Exchange, memo), "VPS naming pattern "+host)
				continue
			}
			if host, ok := matchingHost(ips, mx.Addrs, prof.DedicatedPatterns); ok {
				a.Reason = "verified: dedicated host pattern " + host
				continue
			}
			if owner, ok := hostingOwner(ips, mx.Addrs, asnOwner, ipIDs, a.ProviderID); ok {
				correct(res, a, owner, "customer certificate on "+owner+" infrastructure")
				continue
			}
			a.Reason = "verified: no contrary evidence"
		}
	}
}

func correct(res *Result, a *MXAssignment, id, reason string) {
	a.ProviderID = id
	a.Corrected = true
	a.Reason = reason
	res.NumCorrected++
}

// anyAddrInASNs reports whether any address originates from one of the
// ASes.
func anyAddrInASNs(ips map[netip.Addr]dataset.IPInfo, addrs []netip.Addr, asns []asn.ASN) bool {
	for _, addr := range addrs {
		info, ok := ips[addr]
		if !ok {
			continue
		}
		for _, a := range asns {
			if info.ASN == a {
				return true
			}
		}
	}
	return false
}

// matchingHost scans the certificate names and Banner/EHLO hosts behind
// the addresses for any host matching one of the glob patterns.
func matchingHost(ips map[netip.Addr]dataset.IPInfo, addrs []netip.Addr, patterns []string) (string, bool) {
	if len(patterns) == 0 {
		return "", false
	}
	for _, addr := range addrs {
		info, ok := ips[addr]
		if !ok || info.Scan == nil {
			continue
		}
		var hosts []string
		hosts = append(hosts, info.Scan.CertNames...)
		hosts = append(hosts, info.Scan.BannerHost, info.Scan.EHLOHost)
		for _, h := range hosts {
			h = normalizeHost(h)
			if h == "" {
				continue
			}
			for _, pat := range patterns {
				if GlobMatch(pat, h) {
					return h, true
				}
			}
		}
	}
	return "", false
}

// hostingOwner detects the customer-certificate case: every address sits
// in some other profiled provider's AS and the Banner/EHLO identity
// agrees with that provider rather than with the certificate.
func hostingOwner(ips map[netip.Addr]dataset.IPInfo, addrs []netip.Addr, asnOwner map[asn.ASN]string, ipIDs map[netip.Addr]ipIdentity, certID string) (string, bool) {
	owner := ""
	for _, addr := range addrs {
		info, ok := ips[addr]
		if !ok {
			return "", false
		}
		o, ok := asnOwner[info.ASN]
		if !ok || o == certID {
			return "", false
		}
		if owner == "" {
			owner = o
		} else if owner != o {
			return "", false
		}
		// The banner must corroborate the hosting provider.
		if ipIDs[addr].bannerID != o {
			return "", false
		}
	}
	return owner, owner != ""
}

// GlobMatch matches host names against a simple glob pattern where '*'
// matches any run of characters other than '.', and '?' matches exactly
// one such character. Matching is case-insensitive over the whole string.
// Examples: "vps*.secureserver.net" matches "vps123.secureserver.net";
// "s*-*-*.secureserver.net" matches "s1-2-3.secureserver.net".
func GlobMatch(pattern, host string) bool {
	return globMatch(strings.ToLower(pattern), strings.ToLower(host))
}

func globMatch(p, s string) bool {
	// Iterative matching with single-star backtracking per segment.
	var starP, starS = -1, 0
	i, j := 0, 0
	for j < len(s) {
		switch {
		case i < len(p) && (p[i] == s[j] || (p[i] == '?' && s[j] != '.')):
			i++
			j++
		case i < len(p) && p[i] == '*':
			starP, starS = i, j
			i++
		case starP >= 0 && s[starS] != '.':
			// Backtrack: let the star consume one more character (never a
			// dot).
			starS++
			i = starP + 1
			j = starS
		default:
			return false
		}
	}
	for i < len(p) && p[i] == '*' {
		i++
	}
	return i == len(p)
}
