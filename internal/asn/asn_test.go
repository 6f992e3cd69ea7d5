package asn

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustAddr(s string) netip.Addr     { return netip.MustParseAddr(s) }

func TestTableLongestPrefixMatch(t *testing.T) {
	tb := NewTable()
	inserts := []struct {
		p   string
		asn ASN
	}{
		{"10.0.0.0/8", 100},
		{"10.1.0.0/16", 200},
		{"10.1.2.0/24", 300},
		{"192.0.2.0/24", 400},
		{"0.0.0.0/0", 1},
	}
	for _, in := range inserts {
		if err := tb.Insert(mustPrefix(in.p), in.asn); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		addr string
		want ASN
	}{
		{"10.2.3.4", 100},
		{"10.1.9.9", 200},
		{"10.1.2.3", 300},
		{"192.0.2.200", 400},
		{"8.8.8.8", 1}, // default route
	}
	for _, c := range cases {
		got, ok := tb.Lookup(mustAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = (%v, %v), want %v", c.addr, got, ok, c.want)
		}
	}
}

func TestTableNoMatch(t *testing.T) {
	tb := NewTable()
	tb.Insert(mustPrefix("10.0.0.0/8"), 100)
	if _, ok := tb.Lookup(mustAddr("11.0.0.1")); ok {
		t.Error("Lookup matched uncovered address")
	}
	if _, ok := tb.Lookup(mustAddr("2001:db8::1")); ok {
		t.Error("Lookup matched IPv6 address with empty v6 table")
	}
}

func TestTableOverwrite(t *testing.T) {
	tb := NewTable()
	tb.Insert(mustPrefix("10.0.0.0/8"), 100)
	tb.Insert(mustPrefix("10.0.0.0/8"), 200)
	if got, _ := tb.Lookup(mustAddr("10.1.1.1")); got != 200 {
		t.Errorf("overwrite failed: %v", got)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

func TestTableHostRoute(t *testing.T) {
	tb := NewTable()
	tb.Insert(mustPrefix("192.0.2.1/32"), 999)
	if got, ok := tb.Lookup(mustAddr("192.0.2.1")); !ok || got != 999 {
		t.Errorf("host route: (%v, %v)", got, ok)
	}
	if _, ok := tb.Lookup(mustAddr("192.0.2.2")); ok {
		t.Error("host route matched neighbor")
	}
}

func TestTableIPv6LongestPrefixMatch(t *testing.T) {
	tb := NewTable()
	if err := tb.Insert(mustPrefix("2001:db8::/32"), 100); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(mustPrefix("2001:db8:1::/48"), 200); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(mustPrefix("fd00::/8"), 300); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		want ASN
	}{
		{"2001:db8::1", 100},
		{"2001:db8:1::99", 200},
		{"fd12:3456::1", 300},
	}
	for _, c := range cases {
		got, ok := tb.Lookup(mustAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = (%v, %v), want %v", c.addr, got, ok, c.want)
		}
	}
	if _, ok := tb.Lookup(mustAddr("2002::1")); ok {
		t.Error("uncovered v6 address matched")
	}
	// Families are fully independent.
	if _, ok := tb.Lookup(mustAddr("32.1.13.184")); ok {
		t.Error("v4 address matched v6-only table")
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTableDualStackRoundTrip(t *testing.T) {
	tb := NewTable()
	tb.Insert(mustPrefix("2001:db8::/32"), 2)
	tb.Insert(mustPrefix("10.0.0.0/8"), 1)
	checkWriteTo(t, tb, "10.0.0.0\t8\t1\n2001:db8::\t32\t2\n")
}

// checkWriteTo compares the table's prefix2as text, and the byte count
// WriteTo reports, with want.
func checkWriteTo(t *testing.T, tb *Table, want string) {
	t.Helper()
	var sb strings.Builder
	n, err := tb.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want || n != int64(len(want)) {
		t.Errorf("WriteTo wrote %d bytes %q, want %d bytes %q", n, sb.String(), len(want), want)
	}
}

func TestTablePrefixesSorted(t *testing.T) {
	tb := NewTable()
	tb.Insert(mustPrefix("10.1.0.0/16"), 2)
	tb.Insert(mustPrefix("10.0.0.0/8"), 1)
	tb.Insert(mustPrefix("9.0.0.0/8"), 3)
	got := tb.Prefixes()
	if len(got) != 3 {
		t.Fatalf("Prefixes len = %d", len(got))
	}
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"}
	for i, e := range got {
		if e.Prefix.String() != want[i] {
			t.Errorf("Prefixes[%d] = %s, want %s", i, e.Prefix, want[i])
		}
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	tb := NewTable()
	tb.Insert(mustPrefix("172.16.0.0/12"), 4808)
	tb.Insert(mustPrefix("10.1.0.0/16"), 15169)
	tb.Insert(mustPrefix("10.0.0.0/8"), 100)
	tb.Insert(mustPrefix("8.0.0.0/8"), 3356)
	checkWriteTo(t, tb, "8.0.0.0\t8\t3356\n10.0.0.0\t8\t100\n10.1.0.0\t16\t15169\n172.16.0.0\t12\t4808\n")
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(AS{Number: 15169, Name: "GOOGLE", Org: "Google LLC", CountryCode: "US"})
	r.Register(AS{Number: 8075, Name: "MICROSOFT", Org: "Microsoft Corp", CountryCode: "US"})
	a, ok := r.Lookup(15169)
	if !ok || a.Name != "GOOGLE" {
		t.Errorf("Lookup = (%+v, %v)", a, ok)
	}
	if _, ok := r.Lookup(1); ok {
		t.Error("Lookup found unregistered AS")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if got := ASN(15169).String(); got != "AS15169" {
		t.Errorf("ASN.String = %q", got)
	}
}

// Property: an inserted /24's covering address always resolves to its ASN
// when no more-specific prefix exists.
func TestInsertLookupProperty(t *testing.T) {
	f := func(a, b, c byte, asn uint32) bool {
		tb := NewTable()
		addr := netip.AddrFrom4([4]byte{a, b, c, 0})
		if err := tb.Insert(netip.PrefixFrom(addr, 24), ASN(asn)); err != nil {
			return false
		}
		probe := netip.AddrFrom4([4]byte{a, b, c, 123})
		got, ok := tb.Lookup(probe)
		return ok && got == ASN(asn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: more-specific prefixes always win over less-specific ones.
func TestMoreSpecificWinsProperty(t *testing.T) {
	f := func(a, b byte) bool {
		tb := NewTable()
		tb.Insert(netip.PrefixFrom(netip.AddrFrom4([4]byte{a, 0, 0, 0}), 8), 1)
		tb.Insert(netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, 0, 0}), 16), 2)
		got, ok := tb.Lookup(netip.AddrFrom4([4]byte{a, b, 9, 9}))
		if !ok || got != 2 {
			return false
		}
		other := b + 1
		got, ok = tb.Lookup(netip.AddrFrom4([4]byte{a, other, 9, 9}))
		if other == b { // wrapped; both octets equal
			return ok && got == 2
		}
		return ok && got == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func buildBenchTable(b *testing.B, n int) *Table {
	b.Helper()
	tb := NewTable()
	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte{byte(10 + i%100), byte(i / 256 % 256), byte(i % 256), 0})
		if err := tb.Insert(netip.PrefixFrom(addr, 24), ASN(i)); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

func BenchmarkASNLookupTrie(b *testing.B) {
	tb := buildBenchTable(b, 10000)
	probe := mustAddr("10.3.7.77")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(probe)
	}
}

// BenchmarkASNLookupLinear is the ablation baseline: scanning all prefixes
// linearly instead of walking the trie.
func BenchmarkASNLookupLinear(b *testing.B) {
	tb := buildBenchTable(b, 10000)
	entries := tb.Prefixes()
	probe := mustAddr("10.3.7.77")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var best Entry
		for _, e := range entries {
			if e.Prefix.Contains(probe) && e.Prefix.Bits() >= best.Prefix.Bits() {
				best = e
			}
		}
		_ = best
	}
}
