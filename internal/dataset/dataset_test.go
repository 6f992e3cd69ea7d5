package dataset

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleSnapshot() *Snapshot {
	s := NewSnapshot("2021-06", "alexa")
	s.AddDomain(DomainRecord{
		Domain: "netflix.example",
		Rank:   12,
		MX: []MXObs{
			{Preference: 5, Exchange: "aspmx.l.google.example", Addrs: []netip.Addr{addr("172.217.0.26")}},
			{Preference: 10, Exchange: "alt1.aspmx.l.google.example", Addrs: []netip.Addr{addr("172.217.0.27")}},
		},
	})
	s.AddDomain(DomainRecord{
		Domain: "noip.example",
		MX:     []MXObs{{Preference: 10, Exchange: "mx.noip.example"}},
	})
	s.AddIP(IPInfo{
		Addr: addr("172.217.0.26"), ASN: 15169, ASName: "GOOGLE",
		HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{
			Banner: "mx.google.example ESMTP ready", BannerHost: "mx.google.example",
			EHLOHost: "mx.google.example", STARTTLS: true,
			CertPresent: true, CertValid: true,
			CertFingerprint: "abc123", CertNames: []string{"mx.google.example"},
		},
	})
	s.AddIP(IPInfo{Addr: addr("172.217.0.27"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: false})
	return s
}

func TestPrimaryMX(t *testing.T) {
	d := DomainRecord{MX: []MXObs{
		{Preference: 20, Exchange: "b"},
		{Preference: 10, Exchange: "a1"},
		{Preference: 10, Exchange: "a2"},
		{Preference: 30, Exchange: "c"},
	}}
	got := d.PrimaryMX()
	if len(got) != 2 || got[0].Exchange != "a1" || got[1].Exchange != "a2" {
		t.Errorf("PrimaryMX = %+v", got)
	}
	var empty DomainRecord
	if empty.PrimaryMX() != nil {
		t.Error("PrimaryMX on empty record should be nil")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	s.SortDomains()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != s.Date || got.Corpus != s.Corpus {
		t.Errorf("header = %s/%s", got.Date, got.Corpus)
	}
	if !reflect.DeepEqual(s.Domains, got.Domains) {
		t.Errorf("domains mismatch:\n%+v\n%+v", s.Domains, got.Domains)
	}
	if !reflect.DeepEqual(s.IPs, got.IPs) {
		t.Errorf("ips mismatch:\n%+v\n%+v", s.IPs, got.IPs)
	}
}

// cloneDomain owns a record a pass handed out, keeping nil apart from
// empty the way the decoder does.
func cloneDomain(d *DomainRecord) DomainRecord {
	kept := *d
	if d.MX != nil {
		kept.MX = make([]MXObs, len(d.MX))
		copy(kept.MX, d.MX)
	}
	for i := range kept.MX {
		if a := kept.MX[i].Addrs; a != nil {
			kept.MX[i].Addrs = append(make([]netip.Addr, 0, len(a)), a...)
		}
	}
	return kept
}

// streamRead materializes data the way Read does, but through the other
// reader: a Stream over a file at path holding the same bytes.
func streamRead(t testing.TB, path string, data []byte) (*Snapshot, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		return nil, err
	}
	s := NewSnapshot(st.Date, st.Corpus)
	err = st.ForEach(
		func(d *DomainRecord) error { s.AddDomain(cloneDomain(d)); return nil },
		func(info *IPInfo) error { s.AddIP(*info); return nil },
	)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// TestReadErrors runs the malformed inputs through both readers of the
// one line loop: Read, and OpenStream followed by a ForEach pass.
func TestReadErrors(t *testing.T) {
	const header = "{\"kind\":\"snapshot\",\"header\":{\"date\":\"d\",\"corpus\":\"c\"}}\n"
	const domain = "{\"kind\":\"domain\",\"domain\":{\"domain\":\"x\",\"mx\":null}}\n"
	cases := []string{
		"",
		"\n\n",
		"{\"kind\":\"domain\",\"domain\":{\"domain\":\"x\"}}\n", // domain before header
		"{\"kind\":\"ip\",\"ip\":{\"addr\":\"1.2.3.4\"}}\n",     // ip before header
		"{\"kind\":\"wat\"}\n",                                  // unknown kind
		"not json\n",                                            //
		"{\"kind\":\"snapshot\"}\n",                             // header missing body
		"{\"kind\":\"snapshot\"}\n" + domain,                    // header missing body, then a record
		header + header,                                         // dup header
		// Damage past the first record, which is as far as OpenStream
		// looks: the pass has to find it.
		header + domain + header,
		header + domain + "{\"kind\":\"wat\"}\n",
		header + domain + "not json\n",
		header + domain + "{\"kind\":\"domain\"}\n", // record line without body
		header + domain + "{\"kind\":\"ip\"}\n",
	}
	path := filepath.Join(t.TempDir(), "in.jsonl")
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		}
		if _, err := streamRead(t, path, []byte(c)); err == nil {
			t.Errorf("Stream over %q succeeded, want error", c)
		}
	}
	// The table's building blocks are themselves well-formed.
	for _, c := range []string{header, header + domain} {
		if _, err := Read(strings.NewReader(c)); err != nil {
			t.Errorf("Read(%q): %v", c, err)
		}
		if _, err := streamRead(t, path, []byte(c)); err != nil {
			t.Errorf("Stream over %q: %v", c, err)
		}
	}
}

// TestStreamConcurrentPasses runs several passes over one *Stream at
// once (under -race): a pass only reads the Stream, whose header fields
// OpenStream alone sets. DiffStream of a stream against itself is the
// production shape of that, two pump goroutines over one value.
func TestStreamConcurrentPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	if err := WriteFile(path, buildSnapshot(200)); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nd, ni := 0, 0
			err := st.ForEach(
				func(*DomainRecord) error { nd++; return nil },
				func(*IPInfo) error { ni++; return nil },
			)
			if err != nil || nd != 200 || ni != 7 {
				t.Errorf("concurrent pass: %d domains, %d ips, %v", nd, ni, err)
			}
			if ips, err := st.LoadIPs(); err != nil || len(ips) != 7 {
				t.Errorf("concurrent LoadIPs: %d ips, %v", len(ips), err)
			}
		}()
	}
	wg.Wait()
	stats, err := DiffStream(st, st, nil)
	if want := (DiffStats{OldDomains: 200, NewDomains: 200, Unchanged: 200}); err != nil || stats != want {
		t.Errorf("DiffStream(st, st) = %+v, %v, want %+v", stats, err, want)
	}
	if st.Date != "2021-06" || st.Corpus != "alexa" {
		t.Errorf("header after passes = %s/%s", st.Date, st.Corpus)
	}
}

func TestValidFQDN(t *testing.T) {
	valid := []string{"mx.google.com", "a.b", "mail-1.example.co.uk", "se26.mailspamprotection.com"}
	for _, s := range valid {
		if !ValidFQDN(s) {
			t.Errorf("ValidFQDN(%q) = false", s)
		}
	}
	invalid := []string{"", "localhost", "IP-1-2-3-4", "a..b", ".a.b", "a.b.", "has space.com",
		"x", strings.Repeat("a", 64) + ".com", strings.Repeat("a.", 130) + "com", "bad!.com"}
	for _, s := range invalid {
		if ValidFQDN(s) {
			t.Errorf("ValidFQDN(%q) = true", s)
		}
	}
}

func TestClassifyHierarchy(t *testing.T) {
	s := NewSnapshot("2021-06", "test")
	mkDomain := func(name string, addrs ...netip.Addr) DomainRecord {
		return DomainRecord{Domain: name, MX: []MXObs{{Preference: 10, Exchange: "mx." + name, Addrs: addrs}}}
	}
	// Build one IP per rung of the ladder.
	s.AddIP(IPInfo{Addr: addr("10.0.0.2"), HasCensys: false})
	s.AddIP(IPInfo{Addr: addr("10.0.0.3"), HasCensys: true, Port25Open: false})
	s.AddIP(IPInfo{Addr: addr("10.0.0.4"), HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.d4.example", EHLOHost: "mx.d4.example", CertPresent: false}})
	s.AddIP(IPInfo{Addr: addr("10.0.0.5"), HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{BannerHost: "IP-10-0-0-5", CertPresent: true, CertValid: true, CertNames: []string{"mx.d5.example"}}})
	s.AddIP(IPInfo{Addr: addr("10.0.0.6"), HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.d6.example", CertPresent: true, CertValid: true, CertNames: []string{"mx.d6.example"}}})

	cases := []struct {
		d    DomainRecord
		want Category
	}{
		{mkDomain("d1.example"), CatNoMXIP},
		{mkDomain("d2.example", addr("10.0.0.2")), CatNoCensys},
		{mkDomain("d3.example", addr("10.0.0.3")), CatNoPort25},
		{mkDomain("d4.example", addr("10.0.0.4")), CatNoValidCert},
		{mkDomain("d5.example", addr("10.0.0.5")), CatNoValidBanner},
		{mkDomain("d6.example", addr("10.0.0.6")), CatComplete},
		// Unknown IP behaves like no Censys data.
		{mkDomain("d7.example", addr("10.9.9.9")), CatNoCensys},
	}
	for _, c := range cases {
		if got := s.Classify(&c.d); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.d.Domain, got, c.want)
		}
	}
}

func TestClassifyUsesBestSignalAcrossIPs(t *testing.T) {
	// A domain whose primary MX resolves to one dead IP and one complete
	// IP must classify as complete.
	s := NewSnapshot("2021-06", "test")
	s.AddIP(IPInfo{Addr: addr("10.1.0.1"), HasCensys: false})
	s.AddIP(IPInfo{Addr: addr("10.1.0.2"), HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.full.example", CertPresent: true, CertValid: true}})
	d := DomainRecord{Domain: "full.example", MX: []MXObs{
		{Preference: 10, Exchange: "mx.full.example", Addrs: []netip.Addr{addr("10.1.0.1"), addr("10.1.0.2")}},
	}}
	if got := s.Classify(&d); got != CatComplete {
		t.Errorf("Classify = %v, want CatComplete", got)
	}
}

func TestClassifyIgnoresNonPrimaryMX(t *testing.T) {
	// The secondary MX has full data, the primary none: classification
	// must follow the primary.
	s := NewSnapshot("2021-06", "test")
	s.AddIP(IPInfo{Addr: addr("10.2.0.2"), HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.backup.example", CertPresent: true, CertValid: true}})
	d := DomainRecord{Domain: "split.example", MX: []MXObs{
		{Preference: 10, Exchange: "mx.primary.example"},
		{Preference: 20, Exchange: "mx.backup.example", Addrs: []netip.Addr{addr("10.2.0.2")}},
	}}
	if got := s.Classify(&d); got != CatNoMXIP {
		t.Errorf("Classify = %v, want CatNoMXIP", got)
	}
}

func TestComputeBreakdownPartitions(t *testing.T) {
	s := sampleSnapshot()
	b := s.ComputeBreakdown()
	if b.Total != len(s.Domains) {
		t.Errorf("Total = %d, want %d", b.Total, len(s.Domains))
	}
	sum := 0
	for _, c := range Categories() {
		sum += b.Count(c)
	}
	if sum != b.Total {
		t.Errorf("category counts sum to %d, want %d", sum, b.Total)
	}
	if b.Count(CatComplete) != 1 || b.Count(CatNoMXIP) != 1 {
		t.Errorf("breakdown = %+v", b)
	}
}

func TestCategoryString(t *testing.T) {
	if CatNoValidCert.String() != "No Valid SSL Cert." {
		t.Errorf("CatNoValidCert = %q", CatNoValidCert)
	}
	if Category(99).String() != "Unknown" {
		t.Errorf("out of range = %q", Category(99))
	}
	if len(Categories()) != 6 {
		t.Errorf("Categories = %v", Categories())
	}
}

// Property: breakdown is a partition for arbitrary snapshots.
func TestBreakdownPartitionProperty(t *testing.T) {
	f := func(flags []uint8) bool {
		s := NewSnapshot("d", "c")
		for i, fl := range flags {
			ip := netip.AddrFrom4([4]byte{10, 3, byte(i >> 8), byte(i)})
			info := IPInfo{Addr: ip, HasCensys: fl&1 != 0, Port25Open: fl&2 != 0}
			if info.Port25Open {
				info.Scan = &ScanInfo{
					BannerHost:  map[bool]string{true: "mx.x.example", false: "junk"}[fl&4 != 0],
					CertPresent: fl&8 != 0,
					CertValid:   fl&16 != 0,
				}
			}
			s.AddIP(info)
			d := DomainRecord{Domain: "x", MX: []MXObs{{Preference: 1, Exchange: "mx"}}}
			if fl&32 != 0 {
				d.MX[0].Addrs = []netip.Addr{ip}
			}
			s.AddDomain(d)
		}
		b := s.ComputeBreakdown()
		sum := 0
		for _, c := range Categories() {
			sum += b.Count(c)
		}
		return sum == b.Total && b.Total == len(flags)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTable4Breakdown(b *testing.B) {
	s := sampleSnapshot()
	// Inflate to a realistic corpus slice.
	for i := 0; i < 5000; i++ {
		d := s.Domains[i%2]
		s.AddDomain(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeBreakdown()
	}
}
