package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"mxmap/internal/asn"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
)

// adversarialSnapshot hand-builds the hostile scenarios the trust pass
// exists for: a stale-glue hijack forging a big provider's banner, a
// dangling exchange, a parked exchange, a look-alike abuse cluster, and
// an honest control domain.
func adversarialSnapshot() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-06", "test")

	// Hijacked: registry delegation no longer matches the serving NS;
	// the relay's zone is gone and its banner claims Google.
	s.AddDomain(dataset.DomainRecord{Domain: "hijacked.com", Delegation: dataset.DelegationStaleGlue,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx1.hijack-relay.net", Dangling: true,
			Addrs: []netip.Addr{addr("9.9.1.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.1.1"), ASN: 64991, ASName: "RELAY", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP gsmtp", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})

	// Dangling: the exchange's registered zone lapsed; no address at all.
	s.AddDomain(dataset.DomainRecord{Domain: "forgotten.org", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.gone-zone.net", Dangling: true}}})

	// Parked: the exchange resolves onto a sinkhole with port 25 closed.
	s.AddDomain(dataset.DomainRecord{Domain: "lapsed.net", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.parking-lot.net", Addrs: []netip.Addr{addr("9.9.2.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.2.1"), ASN: 64990, ASName: "PARKING", HasCensys: true, Parked: true})

	// Abuse cluster: six look-alike registrations share one cheap
	// exchange run by the bulk operator itself.
	for i := 0; i < 6; i++ {
		s.AddDomain(dataset.DomainRecord{Domain: fmt.Sprintf("cheap-pillz-dealz-%03d.xyz", i),
			MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.bulk-blast.xyz",
				Addrs: []netip.Addr{addr("9.9.3.1")}}}})
	}
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.3.1"), ASN: 64994, ASName: "BULK", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.bulk-blast.xyz ESMTP", BannerHost: "mx.bulk-blast.xyz", EHLOHost: "mx.bulk-blast.xyz",
		}})

	// Honest control: a real Google customer inside Google's AS.
	s.AddDomain(dataset.DomainRecord{Domain: "legit.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "aspmx.l.google.com", Addrs: []netip.Addr{addr("172.217.1.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("172.217.1.1"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP gsmtp", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})
	return s
}

func adversarialProfiles() []ProviderProfile {
	return []ProviderProfile{{ID: "google.com", ASNs: []asn.ASN{15169}}}
}

// TestHijackFlaggedNotCredited is the tentpole's core promise: a
// hijacked domain whose relay forges a big provider's banner must come
// back flagged, with not a sliver of credit for the forged provider.
func TestHijackFlaggedNotCredited(t *testing.T) {
	s := adversarialSnapshot()
	res := Infer(s, ApproachPriority, Config{Profiles: adversarialProfiles(), AbuseClusterMinDomains: 4})

	a := res.MX["mx1.hijack-relay.net"]
	if a == nil || !a.Untrusted || a.CreditAs != CreditUntrusted {
		t.Fatalf("hijack relay assignment = %+v, want untrusted sentinel credit", a)
	}
	att := attributionByDomain(res)["hijacked.com"]
	if !att.Untrusted {
		t.Error("hijacked.com attribution not marked untrusted")
	}
	if att.Credits["google.com"] != 0 {
		t.Errorf("hijacked.com credits the forged provider: %v", att.Credits)
	}
	if got := att.Primary(); got != CreditUntrusted {
		t.Errorf("hijacked.com primary = %q, want %q", got, CreditUntrusted)
	}

	// Exact pass counters over this snapshot: hijack relay, dangling
	// exchange, parked exchange, abuse exchange — four downgrades.
	if res.NumUntrusted != 4 {
		t.Errorf("NumUntrusted = %d, want 4", res.NumUntrusted)
	}
	// The honest Google customer keeps its credit.
	legit := attributionByDomain(res)["legit.com"]
	if got := legit.Primary(); got != "google.com" {
		t.Errorf("legit.com -> %q, want google.com", got)
	}
}

func TestDanglingAndParkedSentinels(t *testing.T) {
	s := adversarialSnapshot()
	res := Infer(s, ApproachPriority, Config{Profiles: adversarialProfiles()})

	if a := res.MX["mx.gone-zone.net"]; a == nil || a.CreditAs != CreditDangling {
		t.Errorf("dangling exchange = %+v, want %q credit", a, CreditDangling)
	}
	if a := res.MX["mx.parking-lot.net"]; a == nil || a.CreditAs != CreditParked {
		t.Errorf("parked exchange = %+v, want %q credit", a, CreditParked)
	}

	// A parked address that still answers SMTP is not "parked" in the
	// takeover sense: the sinkhole rule requires port 25 closed.
	s2 := dataset.NewSnapshot("2021-06", "test")
	s2.AddDomain(dataset.DomainRecord{Domain: "alive.net", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.alive.net", Addrs: []netip.Addr{addr("9.9.2.9")}}}})
	s2.AddIP(dataset.IPInfo{Addr: addr("9.9.2.9"), ASN: 64990, HasCensys: true, Parked: true, Port25Open: true,
		Scan: &dataset.ScanInfo{Banner: "mx.alive.net ESMTP", BannerHost: "mx.alive.net", EHLOHost: "mx.alive.net"}})
	res2 := Infer(s2, ApproachPriority, Config{})
	if a := res2.MX["mx.alive.net"]; a.Untrusted {
		t.Errorf("open-port parked exchange wrongly flagged: %+v", a)
	}
}

func TestAbuseClusterRule(t *testing.T) {
	// Gated off (the default): the cluster keeps its plain attribution.
	s := adversarialSnapshot()
	res := Infer(s, ApproachPriority, Config{Profiles: adversarialProfiles()})
	if a := res.MX["mx.bulk-blast.xyz"]; a.Untrusted {
		t.Errorf("abuse rule fired with the gate off: %+v", a)
	}

	// Gated on: flagged low-trust, but the credit stands on the bulk
	// operator — the attribution is factually right.
	res = Infer(s, ApproachPriority, Config{Profiles: adversarialProfiles(), AbuseClusterMinDomains: 4})
	a := res.MX["mx.bulk-blast.xyz"]
	if !a.Untrusted || a.CreditAs != "" || a.ProviderID != "bulk-blast.xyz" {
		t.Fatalf("abuse exchange = %+v, want untrusted with credit standing", a)
	}
	if !strings.Contains(a.Reason, "look-alike") {
		t.Errorf("abuse reason = %q", a.Reason)
	}

	// Short honest stems never qualify, no matter how popular: a big
	// provider's exchange with thousands of short-named customers stays
	// trusted.
	s3 := dataset.NewSnapshot("2021-06", "test")
	for i := 0; i < 40; i++ {
		s3.AddDomain(dataset.DomainRecord{Domain: fmt.Sprintf("d%06d.com", i),
			MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.shared-host.net",
				Addrs: []netip.Addr{addr("9.9.4.1")}}}})
	}
	s3.AddIP(dataset.IPInfo{Addr: addr("9.9.4.1"), ASN: 64000, HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{Banner: "mx.shared-host.net ESMTP", BannerHost: "mx.shared-host.net", EHLOHost: "mx.shared-host.net"}})
	res3 := Infer(s3, ApproachPriority, Config{AbuseClusterMinDomains: 4})
	if a := res3.MX["mx.shared-host.net"]; a.Untrusted {
		t.Errorf("short-stem shared exchange wrongly flagged: %+v", a)
	}
}

// TestBannerClaimDanglingUntrusted covers the misidentification check's
// dangling rule: a banner claim failing the AS check whose MX registered
// domain has lapsed must not be "corrected" to the nonexistent
// registrant — it surfaces as untrusted.
func TestBannerClaimDanglingUntrusted(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "victim.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.lapsed-zone.net", Dangling: true,
			Addrs: []netip.Addr{addr("9.9.5.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.5.1"), ASN: 64999, ASName: "SQUATTER", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})
	res := Infer(s, ApproachPriority, Config{Profiles: adversarialProfiles()})
	a := res.MX["mx.lapsed-zone.net"]
	if a == nil || !a.Untrusted || a.CreditAs != CreditUntrusted {
		t.Fatalf("assignment = %+v, want untrusted (not corrected to lapsed-zone.net)", a)
	}
	if a.ProviderID == "lapsed-zone.net" && a.CreditAs == "" {
		t.Error("claim was reverted to the nonexistent registered domain")
	}
}

// misidCase drives one heuristic of checkMisidentifications in
// isolation: one domain, one exchange, one address, with the scan
// observation and profiles chosen to trip exactly one rule.
type misidCase struct {
	name     string
	scan     *dataset.ScanInfo
	ipASN    asn.ASN
	profiles []ProviderProfile

	wantProvider  string
	wantCorrected bool
	wantReason    string // substring of the final reason
}

func runMisidCase(t *testing.T, tc misidCase) (*Result, *MXAssignment) {
	t.Helper()
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "customer.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.customer.com", Addrs: []netip.Addr{addr("9.9.6.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.6.1"), ASN: tc.ipASN, HasCensys: true, Port25Open: true, Scan: tc.scan})
	res := Infer(s, ApproachPriority, Config{Profiles: tc.profiles})
	a := res.MX["mx.customer.com"]
	if a == nil {
		t.Fatal("no assignment for mx.customer.com")
	}
	if a.ProviderID != tc.wantProvider {
		t.Errorf("provider = %q, want %q", a.ProviderID, tc.wantProvider)
	}
	if a.Corrected != tc.wantCorrected {
		t.Errorf("corrected = %v, want %v (reason %q)", a.Corrected, tc.wantCorrected, a.Reason)
	}
	if tc.wantReason != "" && !strings.Contains(a.Reason, tc.wantReason) {
		t.Errorf("reason = %q, want substring %q", a.Reason, tc.wantReason)
	}
	return res, a
}

// TestMisidentificationHeuristics exercises each of the four step-4
// corner-case rules in isolation.
func TestMisidentificationHeuristics(t *testing.T) {
	googleProfile := ProviderProfile{ID: "google.com", ASNs: []asn.ASN{15169},
		VPSPatterns: []string{"*vps*.google.com"}, DedicatedPatterns: []string{"mx?.google.com"}}
	bannerClaim := func(host string) *dataset.ScanInfo {
		return &dataset.ScanInfo{Banner: host + " ESMTP", BannerHost: host, EHLOHost: host}
	}
	certClaim := func(names ...string) *dataset.ScanInfo {
		return &dataset.ScanInfo{
			Banner: names[0] + " ESMTP", BannerHost: names[0], EHLOHost: names[0],
			STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-" + names[0], CertNames: names,
		}
	}

	cases := []misidCase{
		{
			// Heuristic 1, failing: a banner claim from outside every
			// known Google AS reverts to the MX registered domain.
			name: "banner-as-fail", scan: bannerClaim("mx.google.com"), ipASN: 64999,
			profiles:     []ProviderProfile{googleProfile},
			wantProvider: "customer.com", wantCorrected: true, wantReason: "outside its AS",
		},
		{
			// Heuristic 1, passing: the same claim from inside the AS is
			// verified and kept.
			name: "banner-as-pass", scan: bannerClaim("smtp-in.google.com"), ipASN: 15169,
			profiles:     []ProviderProfile{googleProfile},
			wantProvider: "google.com", wantCorrected: false, wantReason: "banner claim inside provider AS",
		},
		{
			// Heuristic 2 via banner: inside the AS, but the host name
			// matches the VPS pattern — a customer machine on rented
			// infrastructure.
			name: "banner-vps", scan: bannerClaim("vps123.google.com"), ipASN: 15169,
			profiles:     []ProviderProfile{googleProfile},
			wantProvider: "customer.com", wantCorrected: true, wantReason: "VPS naming",
		},
		{
			// Heuristic 2 via certificate.
			name: "cert-vps", scan: certClaim("vps9.google.com"), ipASN: 15169,
			profiles:     []ProviderProfile{googleProfile},
			wantProvider: "customer.com", wantCorrected: true, wantReason: "VPS naming",
		},
		{
			// Heuristic 3: a dedicated host pattern is genuinely
			// provider-operated — kept with a verification note.
			name: "cert-dedicated", scan: certClaim("mx3.google.com"), ipASN: 15169,
			profiles:     []ProviderProfile{googleProfile},
			wantProvider: "google.com", wantCorrected: false, wantReason: "dedicated host pattern",
		},
		{
			// Heuristic 4: the customer's certificate served from a
			// different profiled provider's AS whose banner agrees with
			// that provider (the utexas.edu/Ironport case).
			name: "cert-customer",
			scan: &dataset.ScanInfo{
				Banner: "esa1.iphmx.com ESMTP", BannerHost: "esa1.iphmx.com", EHLOHost: "esa1.iphmx.com",
				STARTTLS: true, CertPresent: true, CertValid: true,
				CertFingerprint: "fp-customer", CertNames: []string{"mx.customer.com"},
			},
			ipASN:        16417,
			profiles:     []ProviderProfile{{ID: "customer.com"}, {ID: "iphmx.com", ASNs: []asn.ASN{16417}}},
			wantProvider: "iphmx.com", wantCorrected: true, wantReason: "customer certificate",
		},
		{
			// No rule fires: the cert claim stands with no contrary
			// evidence.
			name: "cert-no-evidence", scan: certClaim("inbound7.google.com"), ipASN: 15169,
			profiles:     []ProviderProfile{googleProfile},
			wantProvider: "google.com", wantCorrected: false, wantReason: "no contrary evidence",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runMisidCase(t, tc) })
	}
}

// TestMisidentificationHeuristicOrder pins the order-dependent
// combinations: when several rules could match, the earlier one decides.
func TestMisidentificationHeuristicOrder(t *testing.T) {
	// A host matching BOTH the VPS and dedicated patterns: the VPS rule
	// runs first, so the claim is corrected, not verified.
	both := ProviderProfile{ID: "google.com", ASNs: []asn.ASN{15169},
		VPSPatterns: []string{"mx-vps?.google.com"}, DedicatedPatterns: []string{"mx-*.google.com"}}
	runMisidCase(t, misidCase{
		name: "vps-beats-dedicated",
		scan: &dataset.ScanInfo{
			Banner: "mx-vps1.google.com ESMTP", BannerHost: "mx-vps1.google.com", EHLOHost: "mx-vps1.google.com",
			STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-both", CertNames: []string{"mx-vps1.google.com"},
		},
		ipASN: 15169, profiles: []ProviderProfile{both},
		wantProvider: "customer.com", wantCorrected: true, wantReason: "VPS naming",
	})

	// The banner AS check runs before the VPS check: a claim failing AS
	// membership reverts even when a VPS pattern would also match.
	runMisidCase(t, misidCase{
		name:  "as-beats-vps",
		scan:  &dataset.ScanInfo{Banner: "vps5.google.com ESMTP", BannerHost: "vps5.google.com", EHLOHost: "vps5.google.com"},
		ipASN: 64999,
		profiles: []ProviderProfile{{ID: "google.com", ASNs: []asn.ASN{15169},
			VPSPatterns: []string{"*vps*.google.com"}}},
		wantProvider: "customer.com", wantCorrected: true, wantReason: "outside its AS",
	})
}

// TestTrustPassRunsAfterMisidentification pins the pass ordering: a
// step-4 correction on a dangling exchange is then downgraded by the
// trust pass, so the final credit is the sentinel, not the fallback.
func TestTrustPassRunsAfterMisidentification(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "victim.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.stale.net", Dangling: true,
			Addrs: []netip.Addr{addr("9.9.7.1")}}}})
	// The cert (not banner) claims Google from outside its AS: step 4's
	// cert path leaves it (no VPS/dedicated/hosting evidence), then the
	// trust pass sees the dangling exchange.
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.7.1"), ASN: 64999, HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
			STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-stale", CertNames: []string{"mx.google.com"},
		}})
	res := Infer(s, ApproachPriority, Config{Profiles: adversarialProfiles()})
	a := res.MX["mx.stale.net"]
	if a == nil || !a.Untrusted || a.CreditAs != CreditDangling {
		t.Fatalf("assignment = %+v, want dangling sentinel after step 4", a)
	}
}

// TestTrustStatsLeaveMemoAlone pins the trust statistics' memory to the
// exchange population: pass A observes every domain once, so a domain's
// own name must not land in the shared psl memo, which would then hold
// one key per domain of the corpus.
func TestTrustStatsLeaveMemoAlone(t *testing.T) {
	memo := psl.NewMemo(nil)
	ts := newTrustStats()
	exchanges := []string{"mx.one.net", "mx.two.net", "mx.three.net"}
	for i := 0; i < 3000; i++ {
		d := dataset.DomainRecord{Domain: fmt.Sprintf("cheap-pillz-dealz-%04d.xyz", i),
			MX: []dataset.MXObs{{Preference: 10, Exchange: exchanges[i%3]}}}
		ts.observe(&d, d.PrimaryMX(), memo)
	}
	if n := memo.Size(); n != 0 {
		t.Errorf("memo holds %d hosts after observing 3000 domains, want 0", n)
	}
	if stem, n, total := ts.topStem("mx.one.net"); stem != "cheap-pillz-dealz-.xyz" || n != 1000 || total != 1000 {
		t.Errorf("topStem(mx.one.net) = %q %d/%d, want cheap-pillz-dealz-.xyz 1000/1000", stem, n, total)
	}
}
