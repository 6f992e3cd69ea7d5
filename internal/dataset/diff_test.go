package dataset

import (
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"
)

// diffWorldOld builds the "old" side of the diff fixtures: four domains
// across two providers plus one domain whose exchange address will
// rotate its certificate.
func diffWorldOld() *Snapshot {
	s := NewSnapshot("2021-01", "alexa")
	s.AddDomain(DomainRecord{
		Domain: "alpha.example", Rank: 1,
		MX: []MXObs{{Preference: 10, Exchange: "mx.prov-a.example", Addrs: []netip.Addr{addr("192.0.2.1")}}},
	})
	s.AddDomain(DomainRecord{
		Domain: "bravo.example", Rank: 2,
		MX: []MXObs{{Preference: 10, Exchange: "mx.prov-b.example", Addrs: []netip.Addr{addr("192.0.2.2")}}},
	})
	s.AddDomain(DomainRecord{
		Domain: "charlie.example", Rank: 3,
		MX: []MXObs{{Preference: 10, Exchange: "mx.prov-a.example", Addrs: []netip.Addr{addr("192.0.2.1")}}},
	})
	s.AddDomain(DomainRecord{
		Domain: "delta.example", Rank: 4,
		MX: []MXObs{{Preference: 10, Exchange: "mx.rotate.example", Addrs: []netip.Addr{addr("192.0.2.3")}}},
	})
	s.AddIP(IPInfo{Addr: addr("192.0.2.1"), ASN: 64500, ASName: "PROV-A", Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.prov-a.example", EHLOHost: "mx.prov-a.example"}})
	s.AddIP(IPInfo{Addr: addr("192.0.2.2"), ASN: 64501, ASName: "PROV-B", Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.prov-b.example", EHLOHost: "mx.prov-b.example"}})
	s.AddIP(IPInfo{Addr: addr("192.0.2.3"), ASN: 64502, ASName: "ROTATE", Port25Open: true,
		Scan: &ScanInfo{CertPresent: true, CertValid: true, CertFingerprint: "cert-v1",
			CertNames: []string{"mx.rotate.example"}}})
	return s
}

// diffWorldNew derives the "new" side: bravo's MX moves to prov-a,
// charlie disappears, echo appears, and delta's exchange address rotates
// its certificate while delta's own record bytes stay identical.
func diffWorldNew() *Snapshot {
	s := NewSnapshot("2021-02", "alexa")
	s.AddDomain(DomainRecord{
		Domain: "alpha.example", Rank: 1,
		MX: []MXObs{{Preference: 10, Exchange: "mx.prov-a.example", Addrs: []netip.Addr{addr("192.0.2.1")}}},
	})
	s.AddDomain(DomainRecord{
		Domain: "bravo.example", Rank: 2,
		MX: []MXObs{{Preference: 10, Exchange: "mx.prov-a.example", Addrs: []netip.Addr{addr("192.0.2.1")}}},
	})
	s.AddDomain(DomainRecord{
		Domain: "delta.example", Rank: 4,
		MX: []MXObs{{Preference: 10, Exchange: "mx.rotate.example", Addrs: []netip.Addr{addr("192.0.2.3")}}},
	})
	s.AddDomain(DomainRecord{
		Domain: "echo.example", Rank: 5,
		MX: []MXObs{{Preference: 10, Exchange: "mx.prov-b.example", Addrs: []netip.Addr{addr("192.0.2.2")}}},
	})
	s.AddIP(IPInfo{Addr: addr("192.0.2.1"), ASN: 64500, ASName: "PROV-A", Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.prov-a.example", EHLOHost: "mx.prov-a.example"}})
	s.AddIP(IPInfo{Addr: addr("192.0.2.2"), ASN: 64501, ASName: "PROV-B", Port25Open: true,
		Scan: &ScanInfo{BannerHost: "mx.prov-b.example", EHLOHost: "mx.prov-b.example"}})
	s.AddIP(IPInfo{Addr: addr("192.0.2.3"), ASN: 64502, ASName: "ROTATE", Port25Open: true,
		Scan: &ScanInfo{CertPresent: true, CertValid: true, CertFingerprint: "cert-v2",
			CertNames: []string{"mx.rotate.example"}}})
	return s
}

var diffWorldWantChanges = []Change{
	{Domain: "bravo.example", Kind: DiffChanged},
	{Domain: "charlie.example", Kind: DiffRemoved},
	{Domain: "delta.example", Kind: DiffChanged}, // via cert-v1 -> cert-v2 on its address
	{Domain: "echo.example", Kind: DiffAdded},
}

var diffWorldWantStats = DiffStats{
	OldDomains: 4, NewDomains: 4,
	Added: 1, Removed: 1, Changed: 2, Unchanged: 1,
	IPsChanged: 1,
}

func TestDiffStreamMatchesSnapshots(t *testing.T) {
	dir := t.TempDir()
	old, new := diffWorldOld(), diffWorldNew()
	old.SortDomains()
	new.SortDomains()
	oldPath := filepath.Join(dir, "old.jsonl")
	newPath := filepath.Join(dir, "new.jsonl.gz")
	if err := WriteFile(oldPath, old); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(newPath, new); err != nil {
		t.Fatal(err)
	}
	oldSt, err := OpenStream(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newSt, err := OpenStream(newPath)
	if err != nil {
		t.Fatal(err)
	}
	var got []Change
	stats, err := DiffStream(oldSt, newSt, func(c Change) error {
		got = append(got, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats != diffWorldWantStats {
		t.Errorf("stats = %+v, want %+v", stats, diffWorldWantStats)
	}
	if !reflect.DeepEqual(got, diffWorldWantChanges) {
		t.Errorf("changes = %+v, want %+v", got, diffWorldWantChanges)
	}
}

func TestDiffStreamStopEarly(t *testing.T) {
	dir := t.TempDir()
	old, new := diffWorldOld(), diffWorldNew()
	old.SortDomains()
	new.SortDomains()
	oldPath := filepath.Join(dir, "old.jsonl")
	newPath := filepath.Join(dir, "new.jsonl")
	if err := WriteFile(oldPath, old); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(newPath, new); err != nil {
		t.Fatal(err)
	}
	oldSt, _ := OpenStream(oldPath)
	newSt, _ := OpenStream(newPath)
	seen := 0
	_, err := DiffStream(oldSt, newSt, func(Change) error {
		seen++
		return ErrStop
	})
	if err != nil {
		t.Fatalf("ErrStop surfaced as error: %v", err)
	}
	if seen != 1 {
		t.Errorf("callback ran %d times after ErrStop, want 1", seen)
	}
}
