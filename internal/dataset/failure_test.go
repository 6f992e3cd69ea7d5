package dataset

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

func TestFailureClassTransient(t *testing.T) {
	transient := map[FailureClass]bool{
		FailDNSTimeout: true, FailDNSServFail: true,
		FailConnTimeout: true, FailConnReset: true,
	}
	for _, c := range Classes() {
		if got := c.Transient(); got != transient[c] {
			t.Errorf("%s: Transient = %v, want %v", c, got, transient[c])
		}
		if got := c.Failed(); got != (c != FailOK) {
			t.Errorf("%s: Failed = %v", c, got)
		}
	}
}

// TestHealthReport renders a run's report both ways: the text table
// and the JSON sidecar, which reads back field for field.
func TestHealthReport(t *testing.T) {
	h := &Health{
		Domains:   map[FailureClass]int{FailOK: 2, FailNXDomain: 1, FailDNSTimeout: 1},
		Exchanges: map[FailureClass]int{FailOK: 2, FailDNSTimeout: 1},
		IPs:       map[FailureClass]int{FailOK: 1, FailConnRefused: 1, FailNotCovered: 1},
		Coverage:  2.0 / 3.0,
		Stats:     CollectionStats{DNSRetries: 2, ScanRetries: 1, BreakerOpens: 1},
	}
	if got := OKRate(h.Domains); got != 0.5 {
		t.Errorf("domain ok rate = %v, want 0.5", got)
	}
	var text bytes.Buffer
	if err := h.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"domains (4 total, 50.0% ok)", "nxdomain", "conn-refused", "not-covered", "coverage 66.7%", "dns=2 scan=1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	var js bytes.Buffer
	if err := h.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Health
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("health JSON round-trip: %v", err)
	}
	if !reflect.DeepEqual(&back, h) {
		t.Errorf("round-tripped health = %+v, want %+v", back, *h)
	}
}

// TestTaxonomyInvisibleInJSONL pins the byte-compatibility contract: the
// run's health report a snapshot carries in memory must not leak into
// the serialized snapshot.
func TestTaxonomyInvisibleInJSONL(t *testing.T) {
	s := NewSnapshot("2021-06", "alexa")
	s.AddDomain(DomainRecord{Domain: "a.test", MX: []MXObs{{Exchange: "mx.a.test"}}})
	s.AddIP(IPInfo{Addr: netip.MustParseAddr("10.0.0.1"), HasCensys: true})
	s.Stats = CollectionStats{DNSRetries: 9}
	s.Health = &Health{
		Domains:   map[FailureClass]int{FailDNSTimeout: 1},
		Exchanges: map[FailureClass]int{FailDNSServFail: 1},
		IPs:       map[FailureClass]int{FailConnReset: 1},
		Stats:     s.Stats,
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"fail", "retries", "dns-", "conn-", "breaker", "stats"} {
		if strings.Contains(buf.String(), banned) {
			t.Errorf("serialized snapshot leaks %q:\n%s", banned, buf.String())
		}
	}
	// TLSFailed does serialize (it is an observation, not bookkeeping) —
	// but only when set.
	s2 := NewSnapshot("2021-06", "alexa")
	s2.AddIP(IPInfo{Addr: netip.MustParseAddr("10.0.0.1"), HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{Banner: "x", STARTTLS: true}})
	buf.Reset()
	if _, err := s2.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "tls_failed") {
		t.Error("tls_failed serialized despite being false")
	}
	s2.AddIP(IPInfo{Addr: netip.MustParseAddr("10.0.0.1"), HasCensys: true, Port25Open: true,
		Scan: &ScanInfo{Banner: "x", STARTTLS: true, TLSFailed: true}})
	buf.Reset()
	if _, err := s2.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var roundtrip *Snapshot
	roundtrip, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := roundtrip.IP(netip.MustParseAddr("10.0.0.1"))
	if info.Scan == nil || !info.Scan.TLSFailed {
		t.Errorf("TLSFailed lost in round-trip: %+v", info.Scan)
	}
}
