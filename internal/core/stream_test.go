package core

import (
	"net/netip"
	"path/filepath"
	"testing"

	"mxmap/internal/asn"
	"mxmap/internal/benchdata"
	"mxmap/internal/dataset"
)

// TestInferStreamEquivalence pins what is left to pin now that there is
// one engine: its output depends on the records, not on the source that
// yields them or on the worker count. For every approach, InferStream
// over the snapshot file, InferStream over the same snapshot loaded into
// memory, and Infer over the loaded snapshot (the collecting wrapper)
// produce the same MX assignments and per-domain attributions, at
// Parallelism 1 and 4.
func TestInferStreamEquivalence(t *testing.T) {
	reversed := benchdata.Snapshot(300)
	for i, j := 0, len(reversed.Domains)-1; i < j; i, j = i+1, j-1 {
		reversed.Domains[i], reversed.Domains[j] = reversed.Domains[j], reversed.Domains[i]
	}
	snapshots := map[string]struct {
		snap     *dataset.Snapshot
		profiles []ProviderProfile
		abuseMin int
		unsorted bool
	}{
		"table3":    {table3Snapshot(), providerProfiles(), 0, false},
		"table12":   {table12Snapshot(), nil, 0, false},
		"benchdata": {benchdata.Snapshot(600), benchdataProfiles(), 0, false},
		// The hostile families: stale-glue hijack, dangling and parked
		// exchanges, an abuse cluster — the trust pass must be
		// source-independent too.
		"adversarial": {adversarialSnapshot(), adversarialProfiles(), 4, false},
		// Input order decides the exchange inventory's order and which
		// observation of an exchange is kept; neither source may sort.
		"unsorted": {reversed, benchdataProfiles(), 0, true},
	}
	dir := t.TempDir()
	for name, tc := range snapshots {
		if !tc.unsorted {
			tc.snap.SortDomains()
		}
		path := filepath.Join(dir, name+".jsonl.gz")
		if err := dataset.WriteFile(path, tc.snap); err != nil {
			t.Fatal(err)
		}
		// Compare disk-to-disk: serialization strips in-memory failure
		// classes on both sides (inference never reads them).
		loaded, err := dataset.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dataset.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, approach := range Approaches() {
			cfg := Config{Profiles: tc.profiles, ConfidenceThreshold: 2, Parallelism: 4,
				AbuseClusterMinDomains: tc.abuseMin}
			want := Infer(loaded, approach, cfg)
			t.Run(name+"/"+approach.String(), func(t *testing.T) {
				if want.NumDomains != len(loaded.Domains) || len(want.Domains) != len(loaded.Domains) {
					t.Fatalf("Infer: NumDomains %d, %d retained, want %d", want.NumDomains, len(want.Domains), len(loaded.Domains))
				}
				for _, src := range []struct {
					name string
					src  dataset.Source
				}{{"file", st}, {"memory", loaded}} {
					for _, workers := range []int{1, 4} {
						cfg.Parallelism = workers
						var emitted []DomainAttribution
						got, err := InferStream(src.src, approach, cfg, func(att DomainAttribution) {
							emitted = append(emitted, att)
						})
						if err != nil {
							t.Fatal(err)
						}
						if got.Domains != nil {
							t.Errorf("%s/%d: InferStream retained a Domains slice", src.name, workers)
						}
						got.Domains = emitted
						equalResults(t, want, got)
						if got.NumDomains != want.NumDomains {
							t.Errorf("%s/%d: NumDomains = %d, want %d", src.name, workers, got.NumDomains, want.NumDomains)
						}
					}
				}
			})
		}
	}
}

// TestExchangeInventoryFirstWins pins pass A's inventory contract, for
// both sources: an exchange listed by several domains is assigned once,
// from the observation of the first domain that lists it, and step 4 and
// the trust pass judge that same observation. Reversing the input flips
// every outcome.
func TestExchangeInventoryFirstWins(t *testing.T) {
	outside := dataset.DomainRecord{Domain: "outside.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.shared.net", Addrs: []netip.Addr{addr("9.9.9.1")}},
		{Preference: 10, Exchange: "mx.lapsed.org", Dangling: true}}}
	inside := dataset.DomainRecord{Domain: "inside.com", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.shared.net", Addrs: []netip.Addr{addr("8.8.8.1")}},
		{Preference: 10, Exchange: "mx.lapsed.org", Addrs: []netip.Addr{addr("8.8.8.1")}}}}
	bigScan := &dataset.ScanInfo{Banner: "mx.big.com ESMTP", BannerHost: "mx.big.com", EHLOHost: "mx.big.com"}
	cfg := Config{Profiles: []ProviderProfile{{ID: "big.com", ASNs: []asn.ASN{64500}}}}

	for _, tc := range []struct {
		name                     string
		order                    []dataset.DomainRecord
		provider, reason, credit string
		corrected                bool
		examined                 int
	}{
		{"outside first", []dataset.DomainRecord{outside, inside},
			"shared.net", "banner claims big.com outside its AS", CreditDangling, true, 1},
		{"inside first", []dataset.DomainRecord{inside, outside},
			"big.com", "verified: banner claim inside provider AS", "", false, 2},
	} {
		s := dataset.NewSnapshot("2021-06", "test")
		for _, d := range tc.order {
			s.AddDomain(d)
		}
		s.AddIP(dataset.IPInfo{Addr: addr("9.9.9.1"), ASN: 64999, HasCensys: true, Port25Open: true, Scan: bigScan})
		s.AddIP(dataset.IPInfo{Addr: addr("8.8.8.1"), ASN: 64500, HasCensys: true, Port25Open: true, Scan: bigScan})
		path := filepath.Join(t.TempDir(), "snap.jsonl")
		if err := dataset.WriteFile(path, s); err != nil {
			t.Fatal(err)
		}
		st, err := dataset.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []dataset.Source{s, st} {
			res, err := InferStream(src, ApproachPriority, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			shared := res.MX["mx.shared.net"]
			if shared.ProviderID != tc.provider || shared.Reason != tc.reason || shared.Corrected != tc.corrected || !shared.Examined {
				t.Errorf("%s (%T): mx.shared.net = %+v, want %s (%s)", tc.name, src, *shared, tc.provider, tc.reason)
			}
			if lapsed := res.MX["mx.lapsed.org"]; lapsed.CreditAs != tc.credit || lapsed.Untrusted != (tc.credit != "") {
				t.Errorf("%s (%T): mx.lapsed.org = %+v, want credit %q", tc.name, src, *lapsed, tc.credit)
			}
			if len(res.MX) != 2 || res.NumExamined != tc.examined {
				t.Errorf("%s (%T): %d assignments, %d examined, want 2 and %d", tc.name, src, len(res.MX), res.NumExamined, tc.examined)
			}
		}
	}
}
