package core

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"mxmap/internal/asn"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// table3Snapshot builds the exact scenario of the paper's Table 3:
//
//	third-party1.com  MX mx1.provider.com -> 1.2.3.4 (cert mx1/mx2.provider.com)
//	third-party2.com  MX mx2.provider.com -> 2.3.4.5 (cert mx2/mx1.provider.com)
//	myvps.com         MX mx.myvps.com     -> 3.4.5.6 (cert myvps.provider.com, a VPS)
//	selfhosted.com    MX mx.selfhosted.com-> 4.5.6.7 (no cert, banner "ip-4-5-6-7")
func table3Snapshot() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "third-party1.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx1.provider.com", Addrs: []netip.Addr{addr("1.2.3.4")}}}})
	s.AddDomain(dataset.DomainRecord{Domain: "third-party2.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx2.provider.com", Addrs: []netip.Addr{addr("2.3.4.5")}}}})
	s.AddDomain(dataset.DomainRecord{Domain: "myvps.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.myvps.com", Addrs: []netip.Addr{addr("3.4.5.6")}}}})
	s.AddDomain(dataset.DomainRecord{Domain: "selfhosted.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.selfhosted.com", Addrs: []netip.Addr{addr("4.5.6.7")}}}})

	s.AddIP(dataset.IPInfo{Addr: addr("1.2.3.4"), ASN: 64500, ASName: "PROVIDER", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx1.provider.com ESMTP", BannerHost: "mx1.provider.com", EHLOHost: "mx1.provider.com",
			STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-cert1", CertNames: []string{"mx1.provider.com", "mx2.provider.com"},
		}})
	s.AddIP(dataset.IPInfo{Addr: addr("2.3.4.5"), ASN: 64500, ASName: "PROVIDER", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx2.provider.com ESMTP", BannerHost: "mx2.provider.com", EHLOHost: "mx2.provider.com",
			STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-cert2", CertNames: []string{"mx2.provider.com", "mx1.provider.com"},
		}})
	s.AddIP(dataset.IPInfo{Addr: addr("3.4.5.6"), ASN: 64500, ASName: "PROVIDER", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "myvps.provider.com ESMTP", BannerHost: "myvps.provider.com", EHLOHost: "myvps.provider.com",
			STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-vps", CertNames: []string{"myvps.provider.com"},
		}})
	s.AddIP(dataset.IPInfo{Addr: addr("4.5.6.7"), ASN: 64501, ASName: "OTHER", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "ip-4-5-6-7 ready", BannerHost: "ip-4-5-6-7", EHLOHost: "ip-4-5-6-7",
		}})
	return s
}

func providerProfiles() []ProviderProfile {
	return []ProviderProfile{{
		ID:          "provider.com",
		ASNs:        []asn.ASN{64500},
		VPSPatterns: []string{"*vps*.provider.com"},
	}}
}

func TestPaperTable3Priority(t *testing.T) {
	s := table3Snapshot()
	res := Infer(s, ApproachPriority, Config{Profiles: providerProfiles(), ConfidenceThreshold: 2})
	want := map[string]string{
		"third-party1.com": "provider.com",
		"third-party2.com": "provider.com",
		"myvps.com":        "myvps.com",
		"selfhosted.com":   "selfhosted.com",
	}
	got := primaryByDomain(res)
	for d, w := range want {
		if got[d] != w {
			t.Errorf("%s -> %q, want %q", d, got[d], w)
		}
	}
	if res.NumExamined == 0 {
		t.Error("step 4 examined nothing")
	}
	if res.NumCorrected == 0 {
		t.Error("step 4 corrected nothing (expected myvps correction)")
	}
	// The VPS correction must carry a reason.
	a := res.MX["mx.myvps.com"]
	if a == nil || !a.Corrected || a.Reason == "" {
		t.Errorf("myvps assignment = %+v", a)
	}
}

func TestPaperTable3CertGrouping(t *testing.T) {
	s := table3Snapshot()
	ips := make(map[netip.Addr]dataset.IPInfo)
	for _, info := range s.IPs {
		ips[info.Addr] = info
	}
	keys := []netip.Addr{addr("1.2.3.4"), addr("2.3.4.5"), addr("3.4.5.6"), addr("4.5.6.7")}
	groups := groupCertificates(collectCerts(ips, keys), psl.NewMemo(nil))
	// Two groups: {cert1, cert2} and {vps cert}.
	if groups.NumGroups() != 2 {
		t.Errorf("NumGroups = %d, want 2", groups.NumGroups())
	}
	// Both groups are represented by provider.com (the most common
	// registered domain).
	for _, fp := range []string{"fp-cert1", "fp-cert2", "fp-vps"} {
		rep, ok := groups.Representative(fp)
		if !ok || rep != "provider.com" {
			t.Errorf("Representative(%s) = (%q, %v), want provider.com", fp, rep, ok)
		}
	}
	if groups.GroupSize("fp-cert1") != 2 || groups.GroupSize("fp-vps") != 1 {
		t.Errorf("group sizes: cert1=%d vps=%d", groups.GroupSize("fp-cert1"), groups.GroupSize("fp-vps"))
	}
}

// table12Snapshot reproduces the paper's Tables 1 and 2 examples.
func table12Snapshot() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-06", "test")
	// netflix.com explicitly names Google in its MX.
	s.AddDomain(dataset.DomainRecord{Domain: "netflix.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "aspmx.l.google.com", Addrs: []netip.Addr{addr("172.217.222.26")}}}})
	// gsipartners.com hides Google behind its own MX name.
	s.AddDomain(dataset.DomainRecord{Domain: "gsipartners.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mailhost.gsipartners.com", Addrs: []netip.Addr{addr("173.194.201.27")}}}})
	// beats24-7.com uses a mail-security provider hosted in Google Cloud.
	s.AddDomain(dataset.DomainRecord{Domain: "beats24-7.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx10.mailspamprotection.com", Addrs: []netip.Addr{addr("35.192.135.139")}}}})
	// jeniustoto.net points at a Google web-hosting IP with no SMTP.
	s.AddDomain(dataset.DomainRecord{Domain: "jeniustoto.net", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "ghs.google.com", Addrs: []netip.Addr{addr("172.217.168.243")}}}})

	googleScan := &dataset.ScanInfo{
		Banner: "mx.google.com ESMTP", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		STARTTLS: true, CertPresent: true, CertValid: true,
		CertFingerprint: "fp-google", CertNames: []string{"mx.google.com", "aspmx2.googlemail.com", "mx1.smtp.goog"},
	}
	s.AddIP(dataset.IPInfo{Addr: addr("172.217.222.26"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: true, Scan: googleScan})
	s.AddIP(dataset.IPInfo{Addr: addr("173.194.201.27"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: true, Scan: googleScan})
	s.AddIP(dataset.IPInfo{Addr: addr("35.192.135.139"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "se26.mailspamprotection.com ESMTP", BannerHost: "se26.mailspamprotection.com",
			EHLOHost: "se26.mailspamprotection.com", STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-msp", CertNames: []string{"*.mailspamprotection.com", "se26.mailspamprotection.com"},
		}})
	s.AddIP(dataset.IPInfo{Addr: addr("172.217.168.243"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: false})
	return s
}

func TestPaperTables1And2(t *testing.T) {
	s := table12Snapshot()
	res := Infer(s, ApproachPriority, Config{})
	got := primaryByDomain(res)
	want := map[string]string{
		"netflix.com":     "google.com",
		"gsipartners.com": "google.com",
		"beats24-7.com":   "mailspamprotection.com",
		// jeniustoto falls back to the MX name; its lack of SMTP is
		// visible via HasSMTP below.
		"jeniustoto.net": "google.com",
	}
	for d, w := range want {
		if got[d] != w {
			t.Errorf("%s -> %q, want %q", d, got[d], w)
		}
	}
	byDomain := attributionByDomain(res)
	if byDomain["jeniustoto.net"].HasSMTP {
		t.Error("jeniustoto.net should have no SMTP server")
	}
	if !byDomain["netflix.com"].HasSMTP {
		t.Error("netflix.com should have an SMTP server")
	}
}

// TestPopularityCounters pins pass A's popularity counters through the
// one place they surface, MXAssignment.Confidence: the larger of the
// domains pointing at the exchange's busiest address and the domains
// pointing at its busiest certificate, each domain counted once.
func TestPopularityCounters(t *testing.T) {
	s := table12Snapshot()
	// A second domain reaches jeniustoto's scan-less address through
	// another exchange: two domains per address, no certificate.
	s.AddDomain(dataset.DomainRecord{Domain: "alsohosted.net", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "ghs2.example.net", Addrs: []netip.Addr{addr("172.217.168.243")}}}})
	// One domain listing an address under both primary exchanges still
	// counts once for it.
	s.AddDomain(dataset.DomainRecord{Domain: "twice.org", MX: []dataset.MXObs{
		{Preference: 5, Exchange: "a.twice.org", Addrs: []netip.Addr{addr("10.1.1.1")}},
		{Preference: 5, Exchange: "b.twice.org", Addrs: []netip.Addr{addr("10.1.1.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("10.1.1.1"), HasCensys: true})
	res := Infer(s, ApproachPriority, Config{})
	want := map[string]int{
		// netflix and gsipartners lead to the shared google certificate
		// via different addresses: one domain per address, two per cert.
		"aspmx.l.google.com":          2,
		"mailhost.gsipartners.com":    2,
		"mx10.mailspamprotection.com": 1,
		"ghs.google.com":              2,
		"ghs2.example.net":            2,
		"a.twice.org":                 1,
		"b.twice.org":                 1,
	}
	for ex, w := range want {
		if a := res.MX[ex]; a == nil || a.Confidence != w {
			t.Errorf("Confidence of %s = %+v, want %d", ex, a, w)
		}
	}
}

func TestMXOnlyMisattributesHiddenProvider(t *testing.T) {
	s := table12Snapshot()
	res := Infer(s, ApproachMXOnly, Config{})
	got := primaryByDomain(res)
	// MX-only sees mailhost.gsipartners.com and wrongly concludes
	// self-hosting — exactly the failure the paper highlights.
	if got["gsipartners.com"] != "gsipartners.com" {
		t.Errorf("gsipartners.com (MX-only) -> %q, want gsipartners.com", got["gsipartners.com"])
	}
	if got["netflix.com"] != "google.com" {
		t.Errorf("netflix.com (MX-only) -> %q", got["netflix.com"])
	}
}

func TestBannerBasedApproach(t *testing.T) {
	s := table12Snapshot()
	res := Infer(s, ApproachBannerBased, Config{})
	got := primaryByDomain(res)
	if got["gsipartners.com"] != "google.com" {
		t.Errorf("gsipartners.com (banner) -> %q, want google.com", got["gsipartners.com"])
	}
}

func TestCertBasedApproach(t *testing.T) {
	s := table12Snapshot()
	res := Infer(s, ApproachCertBased, Config{})
	got := primaryByDomain(res)
	if got["gsipartners.com"] != "google.com" {
		t.Errorf("gsipartners.com (cert) -> %q, want google.com", got["gsipartners.com"])
	}
	if got["beats24-7.com"] != "mailspamprotection.com" {
		t.Errorf("beats24-7.com (cert) -> %q", got["beats24-7.com"])
	}
}

func TestFalseBannerClaimCorrected(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "impostor.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.impostor.com", Addrs: []netip.Addr{addr("9.9.9.9")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("9.9.9.9"), ASN: 64999, ASName: "RANDOMHOST", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})
	profiles := []ProviderProfile{{ID: "google.com", ASNs: []asn.ASN{15169}}}

	res := Infer(s, ApproachPriority, Config{Profiles: profiles, ConfidenceThreshold: 5})
	got := primaryByDomain(res)
	if got["impostor.com"] != "impostor.com" {
		t.Errorf("impostor.com -> %q, want impostor.com (false claim corrected)", got["impostor.com"])
	}
	a := res.MX["mx.impostor.com"]
	if a == nil || !a.Corrected {
		t.Fatalf("assignment = %+v", a)
	}

	// Without profiles (step 4 disabled) the false claim survives —
	// the ablation the paper's step 4 exists to prevent.
	res2 := Infer(s, ApproachPriority, Config{})
	if primaryByDomain(res2)["impostor.com"] != "google.com" {
		t.Error("without step 4 the banner claim should be (wrongly) believed")
	}
}

func TestCustomerCertificateOnSecurityProvider(t *testing.T) {
	// The utexas.edu case: the university's certificate presented from an
	// e-mail security company's AS, whose banner names the company.
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "utexas.edu", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "inbound.utexas.edu", Addrs: []netip.Addr{addr("68.232.129.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("68.232.129.1"), ASN: 16417, ASName: "IRONPORT", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "esa1.iphmx.com ESMTP", BannerHost: "esa1.iphmx.com", EHLOHost: "esa1.iphmx.com",
			STARTTLS: true, CertPresent: true, CertValid: true,
			CertFingerprint: "fp-utexas", CertNames: []string{"inbound.mail.utexas.edu"},
		}})
	profiles := []ProviderProfile{
		{ID: "utexas.edu"},
		{ID: "iphmx.com", ASNs: []asn.ASN{16417}},
	}
	res := Infer(s, ApproachPriority, Config{Profiles: profiles, ConfidenceThreshold: 5})
	got := primaryByDomain(res)
	if got["utexas.edu"] != "iphmx.com" {
		t.Errorf("utexas.edu -> %q, want iphmx.com", got["utexas.edu"])
	}
}

func TestSplitCreditAcrossPrimaryMX(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "split.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.a-provider.com"},
		{Preference: 10, Exchange: "mx.b-provider.com"},
		{Preference: 20, Exchange: "mx.backup.com"},
	}})
	res := Infer(s, ApproachMXOnly, Config{})
	att := res.Domains[0]
	if len(att.Credits) != 2 {
		t.Fatalf("credits = %+v", att.Credits)
	}
	if math.Abs(att.Credits["a-provider.com"]-0.5) > 1e-9 || math.Abs(att.Credits["b-provider.com"]-0.5) > 1e-9 {
		t.Errorf("credits = %+v, want 0.5/0.5", att.Credits)
	}
	// The backup MX contributes nothing.
	if _, ok := att.Credits["backup.com"]; ok {
		t.Error("non-primary MX received credit")
	}
}

func TestSplitCreditWeightsRepeatedProviders(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "weighted.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx1.big.com"},
		{Preference: 10, Exchange: "mx2.big.com"},
		{Preference: 10, Exchange: "mx.small.net"},
	}})
	res := Infer(s, ApproachMXOnly, Config{})
	att := res.Domains[0]
	if math.Abs(att.Credits["big.com"]-2.0/3) > 1e-9 || math.Abs(att.Credits["small.net"]-1.0/3) > 1e-9 {
		t.Errorf("credits = %+v", att.Credits)
	}
}

func TestNoMXDomain(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "nomx.com"})
	res := Infer(s, ApproachPriority, Config{})
	att := res.Domains[0]
	if len(att.Credits) != 0 || att.HasSMTP {
		t.Errorf("attribution = %+v", att)
	}
	if att.Primary() != "" {
		t.Errorf("Primary = %q", att.Primary())
	}
}

func TestBannerEHLODisagreementIgnored(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "conflict.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.conflict.com", Addrs: []netip.Addr{addr("8.8.1.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("8.8.1.1"), HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			BannerHost: "mx.companya.com", EHLOHost: "mx.companyb.com",
		}})
	res := Infer(s, ApproachPriority, Config{})
	// Disagreeing banner/EHLO yields no banner ID; falls back to MX.
	if got := primaryByDomain(res)["conflict.com"]; got != "conflict.com" {
		t.Errorf("conflict.com -> %q, want conflict.com", got)
	}
}

func TestStrictBannerEHLOAgreement(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "halfsig.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.halfsig.com", Addrs: []netip.Addr{addr("8.8.2.2")}}}})
	// Only the EHLO names a provider; the banner is junk.
	s.AddIP(dataset.IPInfo{Addr: addr("8.8.2.2"), HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{BannerHost: "ip-8-8-2-2", EHLOHost: "mx.bigprovider.com"}})

	lenient := Infer(s, ApproachPriority, Config{})
	if got := primaryByDomain(lenient)["halfsig.com"]; got != "bigprovider.com" {
		t.Errorf("lenient -> %q, want bigprovider.com", got)
	}
	strict := Infer(s, ApproachPriority, Config{RequireBannerEHLOAgreement: true})
	if got := primaryByDomain(strict)["halfsig.com"]; got != "halfsig.com" {
		t.Errorf("strict -> %q, want halfsig.com", got)
	}
}

func TestMultiIPConsensusRequired(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "multi.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.multi.com", Addrs: []netip.Addr{addr("7.0.0.1"), addr("7.0.0.2")}}}})
	// Certs disagree across the two addresses; banners agree.
	s.AddIP(dataset.IPInfo{Addr: addr("7.0.0.1"), HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			BannerHost: "mx.shared.net", EHLOHost: "mx.shared.net",
			CertPresent: true, CertValid: true, CertFingerprint: "fp-a", CertNames: []string{"a.certone.com"},
		}})
	s.AddIP(dataset.IPInfo{Addr: addr("7.0.0.2"), HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			BannerHost: "mx.shared.net", EHLOHost: "mx.shared.net",
			CertPresent: true, CertValid: true, CertFingerprint: "fp-b", CertNames: []string{"b.certtwo.com"},
		}})
	res := Infer(s, ApproachPriority, Config{})
	a := res.MX["mx.multi.com"]
	if a.Source != SourceBanner || a.ProviderID != "shared.net" {
		t.Errorf("assignment = %+v, want banner consensus shared.net", a)
	}
}

func TestInvalidCertDoesNotProvideID(t *testing.T) {
	s := dataset.NewSnapshot("2021-06", "test")
	s.AddDomain(dataset.DomainRecord{Domain: "selfsigned.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.selfsigned.com", Addrs: []netip.Addr{addr("6.0.0.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: addr("6.0.0.1"), HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			BannerHost: "mx.selfsigned.com", EHLOHost: "mx.selfsigned.com",
			CertPresent: true, CertValid: false, CertFingerprint: "fp-ss", CertNames: []string{"mx.wrongname.org"},
		}})
	res := Infer(s, ApproachPriority, Config{})
	a := res.MX["mx.selfsigned.com"]
	if a.Source != SourceBanner {
		t.Errorf("source = %v, want banner (invalid cert skipped)", a.Source)
	}
	if a.ProviderID != "selfsigned.com" {
		t.Errorf("provider = %q", a.ProviderID)
	}
}

func TestApproachString(t *testing.T) {
	if ApproachPriority.String() != "priority-based" || ApproachMXOnly.String() != "MX-only" {
		t.Error("approach names changed")
	}
	if len(Approaches()) != 4 {
		t.Error("Approaches should list 4 entries")
	}
	if SourceCert.String() != "cert" || SourceNone.String() != "none" {
		t.Error("source names changed")
	}
}

// Property: per-domain credits always sum to ~1 for domains with MX.
func TestCreditsSumProperty(t *testing.T) {
	f := func(nMX uint8, samePref bool) bool {
		n := int(nMX%5) + 1
		d := dataset.DomainRecord{Domain: "p.com"}
		for i := 0; i < n; i++ {
			pref := uint16(10)
			if !samePref {
				pref = uint16(10 + i)
			}
			d.MX = append(d.MX, dataset.MXObs{
				Preference: pref,
				Exchange:   "mx" + string(rune('a'+i)) + ".host" + string(rune('a'+i)) + ".com",
			})
		}
		s := dataset.NewSnapshot("d", "c")
		s.AddDomain(d)
		res := Infer(s, ApproachMXOnly, Config{})
		sum := 0.0
		for _, c := range res.Domains[0].Credits {
			sum += c
		}
		return math.Abs(sum-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func primaryByDomain(res *Result) map[string]string {
	out := make(map[string]string, len(res.Domains))
	for i := range res.Domains {
		out[res.Domains[i].Domain] = res.Domains[i].Primary()
	}
	return out
}

func attributionByDomain(res *Result) map[string]DomainAttribution {
	out := make(map[string]DomainAttribution, len(res.Domains))
	for i := range res.Domains {
		out[res.Domains[i].Domain] = res.Domains[i]
	}
	return out
}

func BenchmarkInferPriority(b *testing.B) {
	s := table12Snapshot()
	// Inflate: many domains sharing the google MX plus unique self-hosted.
	for i := 0; i < 2000; i++ {
		name := "bulk" + itoa(i) + ".com"
		s.AddDomain(dataset.DomainRecord{Domain: name, MX: []dataset.MXObs{
			{Preference: 10, Exchange: "aspmx.l.google.com", Addrs: []netip.Addr{addr("172.217.222.26")}}}})
	}
	cfg := Config{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer(s, ApproachPriority, cfg)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
