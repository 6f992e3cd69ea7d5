package world

import (
	"context"
	"net/netip"
	"strings"
	"testing"

	"mxmap/internal/companies"

	"mxmap/internal/dns"
	"mxmap/internal/netsim"
	"mxmap/internal/smtp"
)

// testWorld generates a small world once per test binary.
var testWorldCache *World

func testWorld(t *testing.T) *World {
	t.Helper()
	if testWorldCache == nil {
		w, err := Generate(Config{Seed: 42, Scale: 0.01, TailProviders: 30, SelfISPs: 8})
		if err != nil {
			t.Fatal(err)
		}
		testWorldCache = w
	}
	return testWorldCache
}

func TestGenerateCorpusSizes(t *testing.T) {
	w := testWorld(t)
	if got := len(w.Corpus(CorpusAlexa).Domains); got != 935 {
		t.Errorf("alexa size = %d, want 935", got)
	}
	if got := len(w.Corpus(CorpusCOM).Domains); got != 5805 {
		t.Errorf("com size = %d, want 5805", got)
	}
	if got := len(w.Corpus(CorpusGOV).Domains); got != 800 {
		t.Errorf("gov size = %d (min clamp), want 800", got)
	}
	if len(w.Corpus(CorpusGOV).Dates) != 7 || len(w.Corpus(CorpusAlexa).Dates) != 9 {
		t.Error("snapshot date counts wrong")
	}
}

func TestStintsCoverAllSnapshots(t *testing.T) {
	w := testWorld(t)
	for _, c := range w.Corpora {
		for _, d := range c.Domains {
			if len(d.Stints) == 0 {
				t.Fatalf("%s: no stints", d.Name)
			}
			if d.Stints[0].From != 0 {
				t.Fatalf("%s: first stint starts at %d", d.Name, d.Stints[0].From)
			}
			for i := 1; i < len(d.Stints); i++ {
				if d.Stints[i].From != d.Stints[i-1].To+1 {
					t.Fatalf("%s: stint gap between %d and %d", d.Name, i-1, i)
				}
			}
			if last := d.Stints[len(d.Stints)-1]; last.To != len(c.Dates)-1 {
				t.Fatalf("%s: last stint ends at %d, want %d", d.Name, last.To, len(c.Dates)-1)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	w1, err := Generate(Config{Seed: 7, Scale: 0.002, TailProviders: 10, SelfISPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(Config{Seed: 7, Scale: 0.002, TailProviders: 10, SelfISPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := w1.Corpus(CorpusAlexa), w2.Corpus(CorpusAlexa)
	if len(c1.Domains) != len(c2.Domains) {
		t.Fatal("sizes differ")
	}
	for i := range c1.Domains {
		d1, d2 := c1.Domains[i], c2.Domains[i]
		if d1.Name != d2.Name || len(d1.Stints) != len(d2.Stints) {
			t.Fatalf("domain %d differs: %s vs %s", i, d1.Name, d2.Name)
		}
		for j := range d1.Stints {
			if d1.Stints[j] != d2.Stints[j] {
				t.Fatalf("%s stint %d differs: %+v vs %+v", d1.Name, j, d1.Stints[j], d2.Stints[j])
			}
		}
	}
}

// shareOfCompany measures the ground-truth share of a company at a
// snapshot (fraction of corpus domains assigned to it).
func shareOfCompany(w *World, corpus, company string, dateIdx int) float64 {
	c := w.Corpus(corpus)
	n := 0
	for _, d := range c.Domains {
		st := d.StintAt(dateIdx)
		if st == nil || st.Provider < 0 {
			continue
		}
		if w.Providers[st.Provider].Company.Name == company {
			n++
		}
	}
	return 100 * float64(n) / float64(len(c.Domains))
}

func selfHostedShare(w *World, corpus string, dateIdx int) float64 {
	c := w.Corpus(corpus)
	n := 0
	for _, d := range c.Domains {
		if st := d.StintAt(dateIdx); st != nil && st.Provider < 0 {
			n++
		}
	}
	return 100 * float64(n) / float64(len(c.Domains))
}

func TestMarketSharesTrackAnchors(t *testing.T) {
	w := testWorld(t)
	last := len(AllDates) - 1
	cases := []struct {
		corpus, company string
		dateIdx         int
		want, tol       float64
	}{
		{CorpusAlexa, "Google", last, 28.5, 6},
		{CorpusAlexa, "Microsoft", last, 10.8, 4},
		{CorpusCOM, "GoDaddy", last, 29.0, 4},
		{CorpusCOM, "Google", last, 9.4, 3},
		{CorpusGOV, "Microsoft", 6, 32.1, 8},
	}
	for _, c := range cases {
		got := shareOfCompany(w, c.corpus, c.company, c.dateIdx)
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s/%s share = %.1f%%, want %.1f±%.1f", c.corpus, c.company, got, c.want, c.tol)
		}
	}
}

func TestTrendsHavePaperDirection(t *testing.T) {
	w := testWorld(t)
	last := len(AllDates) - 1
	// Google and Microsoft grow; self-hosting declines (Figure 6a).
	for _, company := range []string{"Google", "Microsoft"} {
		start := shareOfCompany(w, CorpusAlexa, company, 0)
		end := shareOfCompany(w, CorpusAlexa, company, last)
		if end <= start {
			t.Errorf("%s share did not grow: %.1f -> %.1f", company, start, end)
		}
	}
	if start, end := selfHostedShare(w, CorpusAlexa, 0), selfHostedShare(w, CorpusAlexa, last); end >= start {
		t.Errorf("self-hosted share did not decline: %.1f -> %.1f", start, end)
	}
}

func TestNationalPreferences(t *testing.T) {
	w := testWorld(t)
	c := w.Corpus(CorpusAlexa)
	last := len(AllDates) - 1
	counts := map[string]map[string]int{}
	totals := map[string]int{}
	for _, d := range c.Domains {
		if d.Country == "" {
			continue
		}
		totals[d.Country]++
		st := d.StintAt(last)
		if st == nil || st.Provider < 0 {
			continue
		}
		name := w.Providers[st.Provider].Company.Name
		if counts[d.Country] == nil {
			counts[d.Country] = map[string]int{}
		}
		counts[d.Country][name]++
	}
	// Yandex dominates .ru, Tencent .cn; neither crosses over.
	if totals["RU"] > 20 {
		if counts["RU"]["Yandex"] <= counts["RU"]["Tencent"] {
			t.Errorf("RU: Yandex=%d Tencent=%d", counts["RU"]["Yandex"], counts["RU"]["Tencent"])
		}
		if counts["RU"]["Yandex"] == 0 {
			t.Error("RU has no Yandex domains")
		}
	}
	if totals["CN"] > 20 {
		if counts["CN"]["Tencent"] <= counts["CN"]["Yandex"] {
			t.Errorf("CN: Tencent=%d Yandex=%d", counts["CN"]["Tencent"], counts["CN"]["Yandex"])
		}
	}
	// US providers are in wide use in Brazil (the paper's 65% headline).
	if totals["BR"] > 20 {
		us := counts["BR"]["Google"] + counts["BR"]["Microsoft"]
		if 100*us/totals["BR"] < 30 {
			t.Errorf("BR Google+Microsoft share = %d%%, want substantial", 100*us/totals["BR"])
		}
	}
}

func TestTruthCompany(t *testing.T) {
	w := testWorld(t)
	sawSelf, sawProvider, sawNone := false, false, false
	for _, d := range w.Corpus(CorpusAlexa).Domains {
		st := d.StintAt(0)
		truth := w.TruthCompany(d, 0)
		switch {
		case st.Mode == ModeNoSMTP || st.Mode == ModeNoMXIP:
			if truth != "" {
				t.Errorf("%s mode %s truth = %q, want empty", d.Name, st.Mode, truth)
			}
			sawNone = true
		case st.Mode.SelfHosted():
			if truth != d.Name {
				t.Errorf("%s mode %s truth = %q, want domain itself", d.Name, st.Mode, truth)
			}
			sawSelf = true
		default:
			if truth == "" || truth == d.Name {
				t.Errorf("%s mode %s truth = %q", d.Name, st.Mode, truth)
			}
			sawProvider = true
		}
	}
	if !sawSelf || !sawProvider || !sawNone {
		t.Errorf("corpus lacks mode variety: self=%v provider=%v none=%v", sawSelf, sawProvider, sawNone)
	}
}

func TestMXRecordsWellFormed(t *testing.T) {
	w := testWorld(t)
	for _, c := range w.Corpora {
		for _, d := range c.Domains {
			for si := range d.Stints {
				st := &d.Stints[si]
				recs := w.MXRecords(d, st)
				if len(recs) == 0 {
					t.Fatalf("%s stint %d (%s): no MX records", d.Name, si, st.Mode)
				}
				for _, r := range recs {
					if r.Host == "" {
						t.Fatalf("%s: empty MX host", d.Name)
					}
					if st.Mode == ModeNoMXIP {
						if len(r.Addrs) != 0 {
							t.Fatalf("%s: no-mx-ip stint has addresses", d.Name)
						}
						continue
					}
					if len(r.Addrs) == 0 {
						t.Fatalf("%s (%s): MX %s has no addresses", d.Name, st.Mode, r.Host)
					}
					for _, a := range r.Addrs {
						if _, ok := w.Host(a); !ok {
							t.Fatalf("%s: MX address %s has no host entry", d.Name, a)
						}
					}
				}
			}
		}
	}
}

func TestMXRecordsDeterministic(t *testing.T) {
	w := testWorld(t)
	d := w.Corpus(CorpusAlexa).Domains[0]
	st := &d.Stints[0]
	r1 := w.MXRecords(d, st)
	r2 := w.MXRecords(d, st)
	if len(r1) != len(r2) {
		t.Fatal("MXRecords not deterministic")
	}
	for i := range r1 {
		if r1[i].Host != r2[i].Host || r1[i].Pref != r2[i].Pref {
			t.Fatal("MXRecords not deterministic")
		}
	}
}

func TestHostsHaveRoutableASNs(t *testing.T) {
	w := testWorld(t)
	missing := 0
	for addr, h := range w.Hosts {
		got, ok := w.Prefixes.Lookup(addr)
		if !ok {
			missing++
			continue
		}
		if got != h.ASN {
			t.Errorf("host %s: prefix table says %v, host says %v", addr, got, h.ASN)
		}
	}
	if missing > 0 {
		t.Errorf("%d hosts lack prefix coverage", missing)
	}
}

func TestCatalogResolution(t *testing.T) {
	w := testWorld(t)
	c := w.Corpus(CorpusAlexa)
	cat, err := w.CatalogAt(c.Dates[0])
	if err != nil {
		t.Fatal(err)
	}
	resolver := dns.CatalogResolver{Catalog: cat}
	ctx := context.Background()
	checked := 0
	for _, d := range c.Domains {
		st := d.StintAt(0)
		recs := w.MXRecords(d, st)
		mx, err := resolver.LookupMX(ctx, d.Name)
		if err != nil {
			t.Fatalf("%s (%s): LookupMX: %v", d.Name, st.Mode, err)
		}
		if len(mx) != len(recs) {
			t.Fatalf("%s: %d MX from DNS, %d generated", d.Name, len(mx), len(recs))
		}
		// Resolve each exchange and compare with the generated addresses.
		for _, rec := range recs {
			addrs, err := resolver.LookupA(ctx, rec.Host)
			if st.Mode == ModeNoMXIP {
				if err == nil {
					t.Fatalf("%s: no-mx-ip exchange resolved", d.Name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: LookupA(%s): %v", d.Name, rec.Host, err)
			}
			if len(addrs) != len(rec.Addrs) {
				t.Fatalf("%s: %s resolves to %d addrs, want %d", d.Name, rec.Host, len(addrs), len(rec.Addrs))
			}
		}
		checked++
		if checked >= 200 {
			break
		}
	}
}

func TestStartSMTPAndScan(t *testing.T) {
	w, err := Generate(Config{Seed: 3, Scale: 0.001, TailProviders: 10, SelfISPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New()
	fleet, err := w.StartSMTP(n)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if fleet.NumServers() == 0 {
		t.Fatal("no SMTP servers started")
	}
	// Scan one provider mail server end to end.
	google := w.providerByID["google.com"]
	if google == nil || len(google.MailIPs) == 0 {
		t.Fatal("google provider missing")
	}
	addr := google.MailIPs[0]
	res := smtp.Scan(context.Background(), netip.AddrPortFrom(addr, 25).String(), smtp.ScanConfig{Dialer: n})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.TLSHandshakeOK || len(res.PeerCertificates) == 0 {
		t.Fatalf("google scan: %+v", res)
	}
	if res.PeerCertificates[0].Subject.CommonName != "mx.google.com" {
		t.Errorf("google cert CN = %q", res.PeerCertificates[0].Subject.CommonName)
	}
}

func TestSelfHostedInfraPersonalities(t *testing.T) {
	w := testWorld(t)
	modes := map[Mode]bool{}
	for _, c := range w.Corpora {
		for _, d := range c.Domains {
			for si := range d.Stints {
				st := &d.Stints[si]
				if !st.Mode.SelfHosted() && st.Mode != ModeNoSMTP {
					continue
				}
				modes[st.Mode] = true
				switch st.Mode {
				case ModeVPS:
					h, ok := w.Host(d.VPSIP)
					if !ok || h.SMTP == nil || h.SMTP.Leaf == nil {
						t.Fatalf("%s: VPS host malformed", d.Name)
					}
				case ModeSelfJunk:
					h, _ := w.Host(d.OwnIP)
					if h.SMTP.Banner == "" || h.SMTP.Leaf != nil {
						t.Fatalf("%s: junk host should have junk banner, no TLS", d.Name)
					}
				case ModeFalseClaim:
					h, _ := w.Host(d.OwnIP)
					if h.SMTP.EHLOName != "mx.google.com" {
						t.Fatalf("%s: false-claim EHLO = %q", d.Name, h.SMTP.EHLOName)
					}
				case ModeNoSMTP:
					for _, rec := range w.MXRecords(d, st) {
						for _, a := range rec.Addrs {
							h, ok := w.Host(a)
							if !ok || h.SMTP != nil {
								t.Fatalf("%s: no-smtp target %s should have closed port", d.Name, a)
							}
						}
					}
				}
			}
		}
	}
	for _, m := range []Mode{ModeVPS, ModeSelfGood, ModeSelfSigned, ModeSelfJunk, ModeNoSMTP} {
		if !modes[m] {
			t.Errorf("world exercises no %s domains", m)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeVPS.String() != "vps" || Mode(99).String() == "" {
		t.Error("mode names broken")
	}
	if !ModeVPS.SelfHosted() || ModeExplicit.SelfHosted() {
		t.Error("SelfHosted classification broken")
	}
}

func BenchmarkGenerateSmallWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Seed: uint64(i + 1), Scale: 0.002, TailProviders: 10, SelfISPs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSPFRecordsWellFormed(t *testing.T) {
	w := testWorld(t)
	withSPF, total := 0, 0
	for _, c := range w.Corpora {
		for _, d := range c.Domains {
			st := d.StintAt(0)
			total++
			rec := w.SPFRecord(d, st)
			if rec == "" {
				continue
			}
			withSPF++
			if !strings.HasPrefix(rec, "v=spf1 ") {
				t.Fatalf("%s: malformed SPF %q", d.Name, rec)
			}
			if st.Mode == ModeNoSMTP || st.Mode == ModeNoMXIP {
				t.Fatalf("%s: SPF generated for mode %s", d.Name, st.Mode)
			}
		}
	}
	if ratio := float64(withSPF) / float64(total); ratio < 0.5 || ratio > 0.95 {
		t.Errorf("SPF coverage = %.2f, outside calibration", ratio)
	}
}

// TestTruthMailboxConsistency: behind a filtering service the eventual
// mailbox operator is Google, Microsoft or the customer itself, never
// the filter, and the published SPF policy reveals it; nobody else has
// one.
func TestTruthMailboxConsistency(t *testing.T) {
	w := testWorld(t)
	sawFiltered := false
	for _, d := range w.Corpus(CorpusAlexa).Domains {
		st := d.StintAt(0)
		if w.TruthCompany(d, 0) == "" || st.Provider < 0 {
			continue
		}
		p := w.Providers[st.Provider]
		rec := w.SPFRecord(d, st)
		if p.Company.Kind != companies.KindEmailSecurity {
			if strings.Count(rec, "include:") > 1 {
				t.Fatalf("%s: non-filtered domain publishes a second operator: %q", d.Name, rec)
			}
			continue
		}
		mb := w.mailboxProvider(st)
		if mb == nil {
			continue // the customer runs its own store
		}
		sawFiltered = true
		if name := mb.Company.Name; name != "Google" && name != "Microsoft" {
			t.Fatalf("%s: unexpected mailbox %q", d.Name, name)
		}
		if rec != "" && !strings.Contains(rec, "include:_spf."+p.ID+" include:_spf."+mb.ID) {
			t.Fatalf("%s: filtered SPF does not reveal %s: %q", d.Name, mb.ID, rec)
		}
	}
	if !sawFiltered {
		t.Error("no filtered-with-mailbox domains in corpus")
	}
}

func TestGovAgencyProvidersServeOnlyFederal(t *testing.T) {
	w := testWorld(t)
	c := w.Corpus(CorpusGOV)
	for _, d := range c.Domains {
		for si := range d.Stints {
			st := &d.Stints[si]
			if st.Provider < 0 {
				continue
			}
			p := w.Providers[st.Provider]
			if p.Company.Kind == companies.KindGovAgency && !d.Federal {
				t.Fatalf("%s: non-federal domain assigned to %s", d.Name, p.Company.Name)
			}
		}
	}
	// And agency providers never appear outside .gov.
	for _, corpus := range []string{CorpusAlexa, CorpusCOM} {
		for _, d := range w.Corpus(corpus).Domains {
			for si := range d.Stints {
				st := &d.Stints[si]
				if st.Provider >= 0 && w.Providers[st.Provider].Company.Kind == companies.KindGovAgency {
					t.Fatalf("%s (%s): assigned to gov agency", d.Name, corpus)
				}
			}
		}
	}
}
