package core

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"testing"

	"mxmap/internal/dataset"
)

// TestInferStreamAllocs pins the engine's per-domain work. Over an
// in-memory snapshot, every record is its own tail: pass A counts
// addresses as netip.Addr in reused buffers and pass B reuses its
// primary-MX slice, so what a domain costs is the attribution it emits
// (its credit map, two objects). Over the same snapshot's file, a
// Stream names each record's tail, both passes do a tail's work once,
// and the domains of a tail share its credit map: what a domain costs
// is its name, which each of the two passes decodes. Everything else
// scales with the distinct IPs and exchanges, seven of each here.
func TestInferStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := dataset.NewSnapshot("2021-06", "alexa")
	const n = 2000
	for i := 0; i < n; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, byte(i % 7), 1})
		s.AddDomain(dataset.DomainRecord{
			Domain: fmt.Sprintf("d%05d.example", i),
			Rank:   i + 1,
			MX:     []dataset.MXObs{{Preference: 10, Exchange: fmt.Sprintf("mx.prov%d.example", i%7), Addrs: []netip.Addr{a}}},
		})
	}
	for i := 0; i < 7; i++ {
		host := fmt.Sprintf("mx.prov%d.example", i)
		s.AddIP(dataset.IPInfo{
			Addr: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}), HasCensys: true, Port25Open: true,
			Scan: &dataset.ScanInfo{BannerHost: host, EHLOHost: host},
		})
	}
	s.SortDomains()
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := dataset.WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		src     dataset.Source
		ceiling float64
		want    string
	}{
		{"snapshot", s, 2.5, "2.1: a per-domain allocation is back"},
		{"stream", st, 2.2, "2.0, the two names: a per-domain allocation is back, or the credit maps are no longer shared"},
	} {
		var emitted int
		allocs := testing.AllocsPerRun(5, func() {
			emitted = 0
			if _, err := InferStream(tc.src, ApproachPriority, Config{}, func(DomainAttribution) { emitted++ }); err != nil {
				t.Fatal(err)
			}
		})
		if emitted != n {
			t.Fatalf("%s: emitted %d attributions, want %d", tc.name, emitted, n)
		}
		t.Logf("%s: %.3f objects/domain", tc.name, allocs/n)
		if perDomain := allocs / n; perDomain > tc.ceiling {
			t.Errorf("%s: InferStream allocates %.2f objects/domain (%.0f total for %d domains), want %s",
				tc.name, perDomain, allocs, n, tc.want)
		}
	}
}
