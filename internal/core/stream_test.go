package core

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mxmap/internal/asn"
	"mxmap/internal/benchdata"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
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

// joinCorpus is a hand-written snapshot file for the deferred numCert
// join, every case the join could get wrong on one line each: a.com and
// b.com share an address set listed in different orders, a.com's two MX
// share an address, c.com's two addresses carry one fingerprint,
// d.com's are one missing from the IP section and one without a scan,
// e.com has no MX and f.com an MX without addresses, g.com's backup MX
// carries a certificate no primary address does, and the IP section is
// unsorted with 10.0.0.6 given twice, the last line winning.
const joinCorpus = `{"kind":"snapshot","header":{"date":"2021-06","corpus":"test"}}
{"kind":"domain","domain":{"domain":"a.com","mx":[{"pref":10,"exchange":"mx1.p.net","addrs":["10.0.0.1","10.0.0.3"]},{"pref":10,"exchange":"mx2.p.net","addrs":["10.0.0.3"]}]}}
{"kind":"domain","domain":{"domain":"b.com","mx":[{"pref":10,"exchange":"mx3.p.net","addrs":["10.0.0.3","10.0.0.1"]}]}}
{"kind":"domain","domain":{"domain":"c.com","mx":[{"pref":5,"exchange":"mx.c.com","addrs":["10.0.0.1","10.0.0.2"]}]}}
{"kind":"domain","domain":{"domain":"d.com","mx":[{"pref":10,"exchange":"mx.d.com","addrs":["10.0.0.5","10.0.0.4"]}]}}
{"kind":"domain","domain":{"domain":"e.com","mx":null}}
{"kind":"domain","domain":{"domain":"f.com","mx":[{"pref":10,"exchange":"mx.gone.net","dangling":true}]}}
{"kind":"domain","domain":{"domain":"g.com","mx":[{"pref":10,"exchange":"mx.g.com","addrs":["10.0.0.6"]},{"pref":20,"exchange":"backup.g.com","addrs":["10.0.0.7"]}]}}
{"kind":"domain","domain":{"domain":"h.com","mx":[{"pref":10,"exchange":"mx.h.com","addrs":["10.0.0.6","10.0.0.3"]}]}}
{"kind":"ip","ip":{"addr":"10.0.0.6","has_censys":true,"port25_open":true,"scan":{"banner":"old","cert_fp":"fpOld"}}}
{"kind":"ip","ip":{"addr":"10.0.0.3","has_censys":true,"port25_open":true,"scan":{"banner":"b","cert_fp":"fpB"}}}
{"kind":"ip","ip":{"addr":"10.0.0.1","has_censys":true,"port25_open":true,"scan":{"banner":"a","cert_fp":"fpA"}}}
{"kind":"ip","ip":{"addr":"10.0.0.7","has_censys":true,"port25_open":true,"scan":{"banner":"d","cert_fp":"fpD"}}}
{"kind":"ip","ip":{"addr":"10.0.0.2","has_censys":true,"port25_open":true,"scan":{"banner":"a2","cert_fp":"fpA"}}}
{"kind":"ip","ip":{"addr":"10.0.0.4","has_censys":true,"port25_open":false}}
{"kind":"ip","ip":{"addr":"10.0.0.6","has_censys":true,"port25_open":true,"scan":{"banner":"c","cert_fp":"fpC"}}}
`

// TestDeferredCertJoinMatchesPerDomain holds pass A's popularity
// counters, numCert joined over address sets after the walk, to a
// brute-force per-domain join over the IP table LoadIPs returns, on the
// file and on the snapshot it reads into.
func TestDeferredCertJoinMatchesPerDomain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "join.jsonl")
	if err := os.WriteFile(path, []byte(joinCorpus), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	ips, err := st.LoadIPs()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	wantIP, wantCert := make(map[netip.Addr]int), make(map[string]int)
	for _, d := range loaded.Domains {
		addrs := make(map[netip.Addr]bool)
		for _, mx := range d.PrimaryMX() {
			for _, a := range mx.Addrs {
				addrs[a] = true
			}
		}
		fps := make(map[string]bool)
		for a := range addrs {
			wantIP[a]++
			if info, ok := ips[a.String()]; ok && info.Scan != nil && info.Scan.CertFingerprint != "" {
				fps[info.Scan.CertFingerprint] = true
			}
		}
		for fp := range fps {
			wantCert[fp]++
		}
	}
	// The reference itself, by hand: fpOld lost to the later line, fpD
	// sits behind a backup MX only.
	if want := map[string]int{"fpA": 3, "fpB": 3, "fpC": 2}; !reflect.DeepEqual(wantCert, want) {
		t.Fatalf("reference numCert = %v, want %v", wantCert, want)
	}

	for _, src := range []dataset.Source{st, loaded} {
		inv, err := takeInventory(src, nil, psl.NewMemo(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inv.numIP, wantIP) {
			t.Errorf("%T: numIP = %v, want %v", src, inv.numIP, wantIP)
		}
		if !reflect.DeepEqual(inv.numCert, wantCert) {
			t.Errorf("%T: numCert = %v, want %v", src, inv.numCert, wantCert)
		}
		byText := make(map[string]dataset.IPInfo, len(inv.ips))
		for a, info := range inv.ips {
			byText[a.String()] = info
		}
		if !reflect.DeepEqual(byText, ips) {
			t.Errorf("%T: IP table differs from LoadIPs", src)
		}
		// {1,3} for a.com and b.com, then c.com's, d.com's, g.com's and
		// h.com's: one set per distinct address set, whatever its order.
		if inv.addrSets != 5 || inv.nDomains != 8 {
			t.Errorf("%T: %d address sets over %d domains, want 5 over 8", src, inv.addrSets, inv.nDomains)
		}
	}
}

// TestInferStreamMalformedIPLine pins what a damaged IP section does to
// inference now that pass A reads it: the walk's own error, naming the
// line, and not one attribution emitted.
func TestInferStreamMalformedIPLine(t *testing.T) {
	lines := strings.SplitAfter(joinCorpus, "\n")
	lines[12] = `{"kind":"ip","ip":{"addr":"10.0.0.300","has_censys":true,"port25_open":false}}` + "\n"
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, approach := range Approaches() {
		emits := 0
		_, err := InferStream(st, approach, Config{}, func(DomainAttribution) { emits++ })
		if want := "dataset: " + path + ": line 13: ParseAddr(\"10.0.0.300\"): IPv4 field has value >255"; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", approach, err, want)
		}
		if emits != 0 {
			t.Errorf("%s: %d attributions emitted before the error", approach, emits)
		}
	}
}

// TestPassesBuildEachTailOnce is the engine's work counter: over a
// Stream of n domains whose tails take k distinct values, pass A and
// pass B each do a tail's work exactly k times, and over the same
// snapshot in memory, whose records have no tail IDs, n times. A pass
// that went round its tail memo would build n times on both sources.
func TestPassesBuildEachTailOnce(t *testing.T) {
	const n = 3000
	dir := t.TempDir()
	for _, k := range []int{1, 7, 150, 1000} {
		s := dataset.NewSnapshot("2021-06", "com")
		for i := range n {
			j := i % k
			a := netip.AddrFrom4([4]byte{10, byte(j >> 8), byte(j), 1})
			d := dataset.DomainRecord{Domain: fmt.Sprintf("d%06d.com", i), Rank: i % 5, MX: []dataset.MXObs{
				{Preference: 10, Exchange: fmt.Sprintf("mx.p%04d.net", j), Addrs: []netip.Addr{a}},
				{Preference: 20, Exchange: "backup.example.net"},
			}}
			if j%3 == 1 {
				d.Delegation = dataset.DelegationStaleGlue
			}
			s.AddDomain(d)
		}
		path := filepath.Join(dir, fmt.Sprintf("k%d.jsonl", k))
		if err := dataset.WriteFile(path, s); err != nil {
			t.Fatal(err)
		}
		st, err := dataset.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []struct {
			name string
			src  dataset.Source
			want int
		}{{"stream", st, k}, {"memory", s, n}} {
			inv, err := takeInventory(src.src, newTrustStats(), psl.NewMemo(nil))
			if err != nil {
				t.Fatal(err)
			}
			if inv.tailBuilds != src.want || inv.nDomains != n {
				t.Errorf("k=%d %s: pass A built %d times over %d domains, want %d", k, src.name, inv.tailBuilds, inv.nDomains, src.want)
			}
			mx := make(map[string]*MXAssignment)
			for _, ex := range inv.exchanges {
				mx[ex.Exchange] = &MXAssignment{Exchange: ex.Exchange, ProviderID: ex.Exchange}
			}
			emitted := 0
			ds, builds, err := attributeDomains(src.src, inv.ips, mx, nil, nil, nil, func(att DomainAttribution) {
				if att.Credits[fmt.Sprintf("mx.p%04d.net", emitted%k)] != 1 {
					t.Fatalf("k=%d %s: domain %d: credits %v", k, src.name, emitted, att.Credits)
				}
				emitted++
			})
			if err != nil {
				t.Fatal(err)
			}
			if builds != src.want || ds.Reinferred != n || emitted != n {
				t.Errorf("k=%d %s: pass B built %d times, attributed %d domains and emitted %d, want %d, %d, %d",
					k, src.name, builds, ds.Reinferred, emitted, src.want, n, n)
			}
		}
	}
}

// passWatch is a source that tells, at any moment, whether a domain
// callback of a pass is running and which record it was handed. It
// keeps the tail IDs of the source it wraps.
type passWatch struct {
	dataset.Source
	rec    *dataset.DomainRecord // set while a domain callback runs
	emits  int                   // emits inside the current callback
	passes int
	named  int // records handed with a tail ID
}

func (w *passWatch) ForEachTail(domain func(*dataset.DomainRecord, int) error, ip func(*dataset.IPInfo) error) error {
	w.passes++
	return dataset.ForEachTail(w.Source, func(d *dataset.DomainRecord, tail int) error {
		w.rec, w.emits = d, 0
		if tail != dataset.NoTail {
			w.named++
		}
		err := domain(d, tail)
		w.rec = nil
		return err
	}, ip)
}

// TestEmitInsideDomainCallback holds InferStream's emit contract over
// both sources, for every approach: each attribution is emitted once,
// from inside the domain callback of the record it is of, so a wrapper
// of the source pairs the two without an index; over a Stream the
// wrapper still hands the engine its tail IDs.
func TestEmitInsideDomainCallback(t *testing.T) {
	snap := benchdata.Snapshot(300)
	snap.SortDomains()
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := dataset.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct {
		name  string
		src   dataset.Source
		named bool
	}{{"memory", snap, false}, {"stream", st, true}} {
		for _, approach := range Approaches() {
			w := &passWatch{Source: src.src}
			emitted := 0
			_, err := InferStream(w, approach, Config{Profiles: benchdataProfiles()}, func(att DomainAttribution) {
				switch {
				case w.rec == nil:
					t.Fatalf("%s/%s: %s emitted outside a domain callback", src.name, approach, att.Domain)
				case w.rec.Domain != att.Domain:
					t.Fatalf("%s/%s: %s emitted inside the callback of %s", src.name, approach, att.Domain, w.rec.Domain)
				case w.emits > 0:
					t.Fatalf("%s/%s: a second emit inside the callback of %s", src.name, approach, w.rec.Domain)
				}
				w.emits++
				emitted++
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.passes != 2 || emitted != len(snap.Domains) || (w.named > 0) != src.named {
				t.Errorf("%s/%s: %d passes, %d emits of %d domains, %d records with a tail ID",
					src.name, approach, w.passes, emitted, len(snap.Domains), w.named)
			}
		}
	}
}
