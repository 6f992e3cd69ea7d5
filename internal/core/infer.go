package core

import (
	"fmt"
	"net/netip"
	"strings"

	"mxmap/internal/asn"
	"mxmap/internal/dataset"
	"mxmap/internal/parallel"
	"mxmap/internal/psl"
)

// Approach selects which signals an inference run uses, matching the four
// approaches compared in the paper's Section 3.3.
type Approach int

// Approaches.
const (
	// ApproachMXOnly uses only the registered domain of the MX record.
	ApproachMXOnly Approach = iota
	// ApproachCertBased uses certificate consensus, falling back to MX.
	ApproachCertBased
	// ApproachBannerBased uses Banner/EHLO consensus, falling back to MX.
	ApproachBannerBased
	// ApproachPriority uses certificates, then Banner/EHLO, then MX, and
	// runs the misidentification check (the paper's full methodology).
	ApproachPriority
)

// String names the approach as in the paper's Figure 4 legend.
func (a Approach) String() string {
	switch a {
	case ApproachMXOnly:
		return "MX-only"
	case ApproachCertBased:
		return "cert-based"
	case ApproachBannerBased:
		return "banner-based"
	case ApproachPriority:
		return "priority-based"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// ParseApproach maps the command-line spelling of an approach (mx, cert,
// banner, priority) to its value.
func ParseApproach(s string) (Approach, error) {
	switch s {
	case "mx":
		return ApproachMXOnly, nil
	case "cert":
		return ApproachCertBased, nil
	case "banner":
		return ApproachBannerBased, nil
	case "priority":
		return ApproachPriority, nil
	default:
		return 0, fmt.Errorf("unknown approach %q (want mx, cert, banner or priority)", s)
	}
}

// Approaches returns all approaches in evaluation order.
func Approaches() []Approach {
	return []Approach{ApproachMXOnly, ApproachCertBased, ApproachBannerBased, ApproachPriority}
}

// Source records which signal produced a provider ID.
type Source int

// Sources, in increasing reliability order.
const (
	// SourceNone marks an MX with no assignment (no MX data at all).
	SourceNone Source = iota
	// SourceMX means the registered domain of the MX record itself.
	SourceMX
	// SourceBanner means Banner/EHLO consensus across the MX's addresses.
	SourceBanner
	// SourceCert means certificate-group consensus across the addresses.
	SourceCert
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceMX:
		return "mx"
	case SourceBanner:
		return "banner"
	case SourceCert:
		return "cert"
	default:
		return "none"
	}
}

// ProviderProfile carries the prior knowledge used by the
// misidentification check (step 4) for one large provider.
type ProviderProfile struct {
	// ID is the provider ID the profile covers, e.g. "google.com".
	ID string
	// ASNs lists autonomous systems on which the provider genuinely
	// operates its own mail infrastructure.
	ASNs []asn.ASN
	// DedicatedPatterns are host globs for provider-operated servers
	// (e.g. "mailstore*.secureserver.net"); matches are legitimate.
	DedicatedPatterns []string
	// VPSPatterns are host globs for customer-rented machines (e.g.
	// "s*-*-*.secureserver.net", "vps*.secureserver.net"); a low-count
	// certificate or banner matching these means the customer self-hosts
	// on the provider's infrastructure.
	VPSPatterns []string
}

// Config parameterizes an inference run.
type Config struct {
	// Profiles enables step 4 for these large providers.
	Profiles []ProviderProfile
	// ConfidenceThreshold is the per-assignment popularity below which an
	// assignment to a profiled provider is examined (default 5 domains).
	ConfidenceThreshold int
	// Parallelism bounds the worker pool sharding step 2 (over the
	// sorted IP keys) and step 3 (over the exchange inventory) across
	// cores; the two passes over the domains, step 5 among them, are
	// serial. Zero or negative selects runtime.GOMAXPROCS(0); 1 forces a
	// fully serial run. Output is byte-for-byte identical at every
	// setting: workers write into index-addressed slices and maps are
	// assembled only after each pool drains.
	Parallelism int
	// RequireBannerEHLOAgreement, when set, derives a Banner/EHLO ID only
	// when both messages carry the same registered domain (the strict
	// reading of Figure 3 step 2.2). The default accepts a valid FQDN
	// from either message when the other is absent, and rejects only
	// active disagreement.
	RequireBannerEHLOAgreement bool
	// DisableCertGrouping ablates step 1: every certificate forms its own
	// group, so providers with multiple disjoint certificates fragment
	// into multiple identities. Exists for the DESIGN.md ablation bench.
	DisableCertGrouping bool
	// PreferBannerOverCert ablates the priority order: Banner/EHLO
	// consensus is consulted before certificate consensus. Exists for the
	// DESIGN.md ablation bench.
	PreferBannerOverCert bool
	// AbuseClusterMinDomains enables the trust pass's look-alike abuse
	// detection: an exchange referenced by at least this many domains,
	// three quarters of which share one long digit-stripped naming stem,
	// is surfaced as a low-trust abuse cluster. Zero (the default)
	// disables the rule.
	AbuseClusterMinDomains int
}

// MXAssignment is the provider conclusion for one MX exchange name.
type MXAssignment struct {
	// Exchange is the MX target host.
	Exchange string
	// ProviderID is the inferred provider (a registered domain).
	ProviderID string
	// Source is the signal that produced ProviderID.
	Source Source
	// Confidence is the popularity score backing the assignment:
	// max(domains pointing at the busiest address, domains pointing at
	// the busiest certificate).
	Confidence int
	// Examined reports that step 4 flagged this assignment for review.
	Examined bool
	// Corrected reports that step 4 changed ProviderID.
	Corrected bool
	// Untrusted reports that the trust pass (or step 4's dangling rule)
	// refused to take the assignment at face value.
	Untrusted bool
	// CreditAs, when non-empty, is the sentinel bucket domains pointing
	// at this exchange are credited to instead of ProviderID. ProviderID
	// is retained for reporting what was claimed.
	CreditAs string
	// Reason explains a correction or why an examined assignment stood.
	Reason string
}

// DomainAttribution is the final per-domain outcome.
type DomainAttribution struct {
	// Domain is the measured domain.
	Domain string
	// Rank carries the corpus rank through to analysis (0 outside Alexa).
	Rank int
	// Credits maps provider ID to this domain's credit share; shares sum
	// to 1 when any MX exists.
	Credits map[string]float64
	// HasSMTP reports whether any primary-MX address accepted SMTP.
	HasSMTP bool
	// Untrusted reports that at least one credited assignment was
	// downgraded by the trust pass — the attribution is low-trust.
	Untrusted bool
}

// Primary returns the provider with the largest credit share, or "" when
// the domain has none.
func (d *DomainAttribution) Primary() string {
	best, bestCredit := "", 0.0
	for id, c := range d.Credits {
		if c > bestCredit || (c == bestCredit && (best == "" || id < best)) {
			best, bestCredit = id, c
		}
	}
	return best
}

// Result is a full inference run over one snapshot.
type Result struct {
	// Approach that produced the result.
	Approach Approach
	// MX maps exchange name to its assignment.
	MX map[string]*MXAssignment
	// Domains holds one attribution per input domain, in input order:
	// what Infer and InferDelta collect from the engine's emit callback.
	// Nil for InferStream and InferStreamDelta runs, whose caller owns
	// that callback; NumDomains still counts them.
	Domains []DomainAttribution
	// NumDomains counts the attributed input domains.
	NumDomains int
	// NumExamined counts assignments flagged in step 4.
	NumExamined int
	// NumCorrected counts assignments changed in step 4.
	NumCorrected int
	// NumUntrusted counts assignments the trust pass downgraded.
	NumUntrusted int
}

// Infer runs the selected approach over an in-memory snapshot: it is
// InferStream with the snapshot as the record source and every emitted
// attribution retained in Result.Domains.
func Infer(s *dataset.Snapshot, approach Approach, cfg Config) *Result {
	res, _ := InferDelta(s, approach, cfg, nil, nil)
	return res
}

// collectCerts gathers every captured certificate in the IP
// observations, walking the presorted key list for deterministic order.
func collectCerts(ips map[string]dataset.IPInfo, sortedKeys []string) []Cert {
	seen := make(map[string]bool)
	var out []Cert
	for _, k := range sortedKeys {
		info := ips[k]
		sc := info.Scan
		if sc == nil || !sc.CertPresent || sc.CertFingerprint == "" || seen[sc.CertFingerprint] {
			continue
		}
		seen[sc.CertFingerprint] = true
		out = append(out, Cert{
			Fingerprint: sc.CertFingerprint,
			Names:       sc.CertNames,
			Valid:       sc.CertValid,
		})
	}
	return out
}

// ipIdentity is the step 2 outcome for one address.
type ipIdentity struct {
	certID   string // "" when unavailable
	bannerID string // "" when unavailable
	scanned  bool   // port 25 produced a session
}

// computeIPIDs derives step 2 identities for every scanned address.
// Workers fill an index-addressed slice over the sorted key list; the
// map is assembled after the barrier so the outcome is independent of
// scheduling.
func computeIPIDs(ips map[string]dataset.IPInfo, sortedKeys []string, groups *CertGroups, memo *psl.Memo, cfg Config, workers int) map[string]ipIdentity {
	ids := make([]ipIdentity, len(sortedKeys))
	parallel.Run(len(sortedKeys), workers, func(i int) {
		info := ips[sortedKeys[i]]
		sc := info.Scan
		if sc == nil {
			return
		}
		id := ipIdentity{scanned: true}
		// 2.1 — ID from certificate: only valid certificates count.
		if groups != nil && sc.CertPresent && sc.CertValid {
			if rep, ok := groups.Representative(sc.CertFingerprint); ok {
				id.certID = rep
			}
		}
		// 2.2 — ID from Banner/EHLO.
		id.bannerID = bannerIdentity(sc, memo, cfg.RequireBannerEHLOAgreement)
		ids[i] = id
	})
	out := make(map[string]ipIdentity, len(sortedKeys))
	for i, k := range sortedKeys {
		out[k] = ids[i]
	}
	return out
}

// bannerIdentity derives the registered-domain identity from the banner
// and EHLO hosts.
func bannerIdentity(sc *dataset.ScanInfo, memo *psl.Memo, strict bool) string {
	bannerReg := regOf(sc.BannerHost, memo)
	ehloReg := regOf(sc.EHLOHost, memo)
	switch {
	case bannerReg != "" && ehloReg != "":
		if bannerReg == ehloReg {
			return bannerReg
		}
		return "" // active disagreement: unreliable
	case strict:
		return ""
	case bannerReg != "":
		return bannerReg
	default:
		return ehloReg
	}
}

// regOf extracts the registered domain of a host string when it is a
// plausible FQDN.
func regOf(host string, memo *psl.Memo) string {
	host = normalizeHost(host)
	if !dataset.ValidFQDN(host) {
		return ""
	}
	reg, ok := memo.RegisteredDomain(host)
	if !ok {
		return ""
	}
	return reg
}

// normalizeHost lower-cases and strips the trailing dot from a host name.
func normalizeHost(h string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(h)), ".")
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// assignMX performs step 3 for one MX record under the chosen approach.
func assignMX(mx dataset.MXObs, approach Approach, ipIDs map[string]ipIdentity, numIP, numCert map[string]int, ips map[string]dataset.IPInfo, memo *psl.Memo, bannerFirst bool) *MXAssignment {
	a := &MXAssignment{Exchange: mx.Exchange}

	// Confidence: the busiest signal backing this MX.
	for _, addr := range mx.Addrs {
		key := addr.String()
		if c := numIP[key]; c > a.Confidence {
			a.Confidence = c
		}
		if info, ok := ips[key]; ok && info.Scan != nil {
			if c := numCert[info.Scan.CertFingerprint]; c > a.Confidence {
				a.Confidence = c
			}
		}
	}

	useCert := approach == ApproachCertBased || approach == ApproachPriority
	useBanner := approach == ApproachBannerBased || approach == ApproachPriority

	tryCert := func() bool {
		if !useCert {
			return false
		}
		id, ok := consensus(mx.Addrs, ipIDs, func(i ipIdentity) string { return i.certID })
		if ok {
			a.ProviderID, a.Source = id, SourceCert
		}
		return ok
	}
	tryBanner := func() bool {
		if !useBanner {
			return false
		}
		id, ok := consensus(mx.Addrs, ipIDs, func(i ipIdentity) string { return i.bannerID })
		if ok {
			a.ProviderID, a.Source = id, SourceBanner
		}
		return ok
	}
	if bannerFirst {
		if tryBanner() || tryCert() {
			return a
		}
	} else if tryCert() || tryBanner() {
		return a
	}
	a.ProviderID, a.Source = mxFallbackID(mx.Exchange, memo), SourceMX
	return a
}

// consensus returns the shared non-empty identity across every address,
// requiring each address to carry one.
func consensus(addrs []netip.Addr, ipIDs map[string]ipIdentity, pick func(ipIdentity) string) (string, bool) {
	if len(addrs) == 0 {
		return "", false
	}
	var id string
	for _, a := range addrs {
		v := pick(ipIDs[a.String()])
		if v == "" {
			return "", false
		}
		if id == "" {
			id = v
		} else if id != v {
			return "", false
		}
	}
	return id, true
}

// mxFallbackID is the registered domain of the MX name, or the
// (normalized) name itself when no registered domain can be derived.
func mxFallbackID(exchange string, memo *psl.Memo) string {
	h := normalizeHost(exchange)
	if reg, ok := memo.RegisteredDomain(h); ok {
		return reg
	}
	return h
}

// attributeDomain performs step 5 for one domain, given its primary MX
// set.
func attributeDomain(d *dataset.DomainRecord, primary []dataset.MXObs, mxAssign map[string]*MXAssignment, ips map[string]dataset.IPInfo) DomainAttribution {
	out := DomainAttribution{Domain: d.Domain, Rank: d.Rank, Credits: make(map[string]float64)}
	if len(primary) == 0 {
		return out
	}
	share := 1.0 / float64(len(primary))
	for _, mx := range primary {
		if a, ok := mxAssign[mx.Exchange]; ok {
			if a.Untrusted {
				out.Untrusted = true
			}
			switch {
			case a.CreditAs != "":
				out.Credits[a.CreditAs] += share
			case a.ProviderID != "":
				out.Credits[a.ProviderID] += share
			}
		}
		for _, addr := range mx.Addrs {
			if info, ok := ips[addr.String()]; ok && info.Port25Open {
				out.HasSMTP = true
			}
		}
	}
	return out
}
