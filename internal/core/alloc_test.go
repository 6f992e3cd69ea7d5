package core

import (
	"fmt"
	"net/netip"
	"testing"

	"mxmap/internal/dataset"
)

// TestInferStreamAllocs pins the engine's per-domain work over an
// in-memory snapshot: pass A counts addresses as netip.Addr in reused
// buffers and pass B reuses its primary-MX slice, so what a domain
// costs is the attribution it emits (its credit map, two objects). Everything else
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
	var emitted int
	allocs := testing.AllocsPerRun(5, func() {
		emitted = 0
		if _, err := InferStream(s, ApproachPriority, Config{}, func(DomainAttribution) { emitted++ }); err != nil {
			t.Fatal(err)
		}
	})
	if emitted != n {
		t.Fatalf("emitted %d attributions, want %d", emitted, n)
	}
	if perDomain := allocs / n; perDomain > 2.5 {
		t.Errorf("InferStream allocates %.2f objects/domain (%.0f total for %d domains), want 2.1: a per-domain allocation is back",
			perDomain, allocs, n)
	}
}
