package dns

import (
	"strings"
	"testing"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("example.com")
	z.MustAdd(RR{Name: "example.com.", Type: TypeSOA, TTL: 300, Data: SOAData{
		MName: "ns1.example.com.", RName: "hostmaster.example.com.",
		Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}})
	z.MustAdd(RR{Name: "example.com.", Type: TypeNS, TTL: 300, Data: NSData{Host: "ns1.example.com."}})
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 300, Data: MXData{Preference: 10, Exchange: "mx1.example.com."}})
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 300, Data: MXData{Preference: 20, Exchange: "mx2.example.com."}})
	z.MustAdd(RR{Name: "mx1.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.10")}})
	z.MustAdd(RR{Name: "mx2.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.11")}})
	z.MustAdd(RR{Name: "www.example.com.", Type: TypeCNAME, TTL: 300, Data: CNAMEData{Target: "web.example.com."}})
	z.MustAdd(RR{Name: "web.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.20")}})
	z.MustAdd(RR{Name: "ext.example.com.", Type: TypeCNAME, TTL: 300, Data: CNAMEData{Target: "host.other.net."}})
	z.MustAdd(RR{Name: "*.wild.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.30")}})
	z.MustAdd(RR{Name: "txtonly.example.com.", Type: TypeTXT, TTL: 300, Data: TXTData{Strings: []string{"v=spf1 -all"}}})
	return z
}

func TestZoneLookupDirect(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("example.com", TypeMX)
	if res.RCode != RCodeSuccess || len(res.Answers) != 2 {
		t.Fatalf("MX lookup: rcode=%v answers=%d", res.RCode, len(res.Answers))
	}
}

func TestZoneLookupNXDomain(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("nope.example.com", TypeA)
	if res.RCode != RCodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", res.RCode)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type != TypeSOA {
		t.Errorf("authority = %+v, want SOA", res.Authority)
	}
}

func TestZoneLookupNoData(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("txtonly.example.com", TypeA)
	if res.RCode != RCodeSuccess || len(res.Answers) != 0 {
		t.Errorf("NODATA lookup: rcode=%v answers=%d", res.RCode, len(res.Answers))
	}
	if len(res.Authority) != 1 {
		t.Errorf("NODATA should carry SOA, got %+v", res.Authority)
	}
}

func TestZoneCNAMEChase(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("www.example.com", TypeA)
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %+v, want CNAME + A", res.Answers)
	}
	if res.Answers[0].Type != TypeCNAME || res.Answers[1].Type != TypeA {
		t.Errorf("answer types = %v, %v", res.Answers[0].Type, res.Answers[1].Type)
	}
	if a := res.Answers[1].Data.(AData).Addr.String(); a != "192.0.2.20" {
		t.Errorf("final A = %s", a)
	}
}

func TestZoneCNAMEOutOfZone(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("ext.example.com", TypeA)
	if len(res.Answers) != 1 || res.Answers[0].Type != TypeCNAME {
		t.Fatalf("answers = %+v, want lone CNAME", res.Answers)
	}
}

func TestZoneCNAMEQueryType(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("www.example.com", TypeCNAME)
	if len(res.Answers) != 1 || res.Answers[0].Type != TypeCNAME {
		t.Fatalf("explicit CNAME query: %+v", res.Answers)
	}
}

func TestZoneWildcard(t *testing.T) {
	z := testZone(t)
	res := z.Lookup("anything.wild.example.com", TypeA)
	if len(res.Answers) != 1 {
		t.Fatalf("wildcard miss: %+v", res)
	}
	if got := res.Answers[0].Name; got != "anything.wild.example.com." {
		t.Errorf("wildcard answer owner = %q, want query name", got)
	}
	// The wildcard owner itself is not matched by the wildcard.
	res = z.Lookup("wild.example.com", TypeA)
	if res.RCode != RCodeNXDomain {
		t.Errorf("wildcard apex rcode = %v, want NXDOMAIN", res.RCode)
	}
}

func TestZoneCNAMELoopBounded(t *testing.T) {
	z := NewZone("loop.test")
	z.MustAdd(RR{Name: "a.loop.test.", Type: TypeCNAME, TTL: 1, Data: CNAMEData{Target: "b.loop.test."}})
	z.MustAdd(RR{Name: "b.loop.test.", Type: TypeCNAME, TTL: 1, Data: CNAMEData{Target: "a.loop.test."}})
	done := make(chan struct{})
	go func() {
		z.Lookup("a.loop.test", TypeA)
		close(done)
	}()
	select {
	case <-done:
	case <-timeoutC(t):
		t.Fatal("CNAME loop lookup did not terminate")
	}
}

func timeoutC(t *testing.T) <-chan struct{} {
	t.Helper()
	c := make(chan struct{})
	go func() {
		// Generous bound; the loop check is purely CPU.
		for i := 0; i < 1e8; i++ {
			_ = i
		}
		close(c)
	}()
	return c
}

func TestZoneRejects(t *testing.T) {
	z := NewZone("example.com")
	// Out of zone.
	if err := z.Add(RR{Name: "other.net.", Type: TypeA, Data: AData{Addr: mustAddr("10.0.0.1")}}); err == nil {
		t.Error("Add accepted out-of-zone record")
	}
	// Mismatched data.
	if err := z.Add(RR{Name: "a.example.com.", Type: TypeMX, Data: AData{Addr: mustAddr("10.0.0.1")}}); err == nil {
		t.Error("Add accepted mismatched data")
	}
	// CNAME conflicts.
	z.MustAdd(RR{Name: "c.example.com.", Type: TypeA, Data: AData{Addr: mustAddr("10.0.0.1")}})
	if err := z.Add(RR{Name: "c.example.com.", Type: TypeCNAME, Data: CNAMEData{Target: "x.example.com."}}); err == nil {
		t.Error("Add accepted CNAME next to A")
	}
	z.MustAdd(RR{Name: "d.example.com.", Type: TypeCNAME, Data: CNAMEData{Target: "x.example.com."}})
	if err := z.Add(RR{Name: "d.example.com.", Type: TypeA, Data: AData{Addr: mustAddr("10.0.0.1")}}); err == nil {
		t.Error("Add accepted A next to CNAME")
	}
}

func TestZoneRemove(t *testing.T) {
	z := testZone(t)
	z.Remove("example.com", TypeMX)
	if res := z.Lookup("example.com", TypeMX); len(res.Answers) != 0 {
		t.Errorf("MX records remain after Remove: %+v", res.Answers)
	}
	// Name still exists (NS/SOA), so NODATA not NXDOMAIN.
	if res := z.Lookup("example.com", TypeMX); res.RCode != RCodeSuccess {
		t.Errorf("rcode after remove = %v", res.RCode)
	}
	z.Remove("mx1.example.com", TypeANY)
	if res := z.Lookup("mx1.example.com", TypeA); res.RCode != RCodeNXDomain {
		t.Errorf("rcode after remove ANY = %v", res.RCode)
	}
}

// TestZoneWriteParseRoundTrip pins the text worldgen dumps: origin line,
// then tab-separated records in Records order (name, type code, data).
func TestZoneWriteParseRoundTrip(t *testing.T) {
	const want = `$ORIGIN example.com.
*.wild.example.com.	300	IN	A	192.0.2.30
example.com.	300	IN	NS	ns1.example.com.
example.com.	300	IN	SOA	ns1.example.com. hostmaster.example.com. 1 7200 900 1209600 300
example.com.	300	IN	MX	10 mx1.example.com.
example.com.	300	IN	MX	20 mx2.example.com.
ext.example.com.	300	IN	CNAME	host.other.net.
mx1.example.com.	300	IN	A	192.0.2.10
mx2.example.com.	300	IN	A	192.0.2.11
txtonly.example.com.	300	IN	TXT	"v=spf1 -all"
web.example.com.	300	IN	A	192.0.2.20
www.example.com.	300	IN	CNAME	web.example.com.
`
	var sb strings.Builder
	n, err := testZone(t).WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want || n != int64(len(want)) {
		t.Errorf("WriteTo wrote %d bytes:\n%s\nwant %d:\n%s", n, sb.String(), len(want), want)
	}
}

func TestCatalogFindZone(t *testing.T) {
	c := NewCatalog()
	com := NewZone("com")
	example := NewZone("example.com")
	c.AddZone(com)
	c.AddZone(example)
	if z := c.FindZone("a.example.com"); z != example {
		t.Error("FindZone did not pick most specific zone")
	}
	if z := c.FindZone("other.com"); z != com {
		t.Error("FindZone did not fall back to parent zone")
	}
	if z := c.FindZone("other.net"); z != nil {
		t.Error("FindZone returned zone for non-authoritative name")
	}
}

func TestCatalogResolveCrossZoneCNAME(t *testing.T) {
	c := NewCatalog()
	z1 := NewZone("example.com")
	z1.MustAdd(RR{Name: "mail.example.com.", Type: TypeCNAME, TTL: 1, Data: CNAMEData{Target: "mx.provider.net."}})
	z2 := NewZone("provider.net")
	z2.MustAdd(RR{Name: "mx.provider.net.", Type: TypeA, TTL: 1, Data: AData{Addr: mustAddr("198.51.100.5")}})
	c.AddZone(z1)
	c.AddZone(z2)
	m := c.Resolve(Question{Name: "mail.example.com.", Type: TypeA, Class: ClassIN})
	if len(m.Answers) != 2 {
		t.Fatalf("answers = %+v", m.Answers)
	}
	if m.Answers[1].Data.(AData).Addr.String() != "198.51.100.5" {
		t.Errorf("cross-zone chase failed: %+v", m.Answers)
	}
}

func TestCatalogResolveRefused(t *testing.T) {
	c := NewCatalog()
	m := c.Resolve(Question{Name: "x.unknown.", Type: TypeA, Class: ClassIN})
	if m.Header.RCode != RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", m.Header.RCode)
	}
}

func BenchmarkZoneLookup(b *testing.B) {
	z := NewZone("bench.com")
	for i := 0; i < 1000; i++ {
		name := "host" + string(rune('a'+i%26)) + ".bench.com."
		z.Add(RR{Name: name, Type: TypeA, TTL: 1, Data: AData{Addr: mustAddr("10.0.0.1")}})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Lookup("hostm.bench.com", TypeA)
	}
}
