package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"mxmap/internal/psl"
)

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, host string
		want          bool
	}{
		{"vps*.secureserver.net", "vps123.secureserver.net", true},
		{"vps*.secureserver.net", "vps.secureserver.net", true},
		{"vps*.secureserver.net", "mailstore1.secureserver.net", false},
		{"vps*.secureserver.net", "vps123.evil.net", false},
		{"s*-*-*.secureserver.net", "s1-2-3.secureserver.net", true},
		{"s*-*-*.secureserver.net", "s1-2.secureserver.net", false},
		{"s*-*-*.secureserver.net", "s1-2-3.x.secureserver.net", false},
		{"*.shared.godaddy.com", "shared01.shared.godaddy.com", true},
		{"*.shared.godaddy.com", "a.b.shared.godaddy.com", false}, // * excludes dots
		{"mx?.provider.com", "mx1.provider.com", true},
		{"mx?.provider.com", "mx10.provider.com", false},
		{"mx?.provider.com", "mx..provider.com", false},
		{"exact.host.com", "exact.host.com", true},
		{"exact.host.com", "EXACT.HOST.COM", true}, // case-insensitive
		{"exact.host.com", "exact.host.org", false},
		{"*", "label", true},
		{"*", "two.labels", false},
		{"", "", true},
		{"", "x", false},
		{"**", "anything", true},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "abc", true},
		{"a*b*c", "acb", false},
	}
	for _, c := range cases {
		if got := GlobMatch(c.pattern, c.host); got != c.want {
			t.Errorf("GlobMatch(%q, %q) = %v, want %v", c.pattern, c.host, got, c.want)
		}
	}
}

// Property: a host always matches the pattern formed by replacing one of
// its label-internal runs with '*'.
func TestGlobMatchProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		host := fmt.Sprintf("srv%d-%d.provider.net", a, b)
		return GlobMatch("srv*-*.provider.net", host) &&
			GlobMatch("srv*.provider.net", host) &&
			!GlobMatch("srv*.provider.org", host)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupCertificatesTransitivity(t *testing.T) {
	// A-B share x, B-C share y: all three must land in one group even
	// though A and C share nothing directly.
	certList := []Cert{
		{Fingerprint: "a", Names: []string{"x.p1.com", "only-a.p1.com"}, Valid: true},
		{Fingerprint: "b", Names: []string{"x.p1.com", "y.p2.net"}, Valid: true},
		{Fingerprint: "c", Names: []string{"y.p2.net", "only-c.p2.net"}, Valid: true},
		{Fingerprint: "d", Names: []string{"z.unrelated.org"}, Valid: true},
	}
	g := groupCertificates(certList, psl.NewMemo(nil))
	if g.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", g.NumGroups())
	}
	ra, _ := g.Representative("a")
	rb, _ := g.Representative("b")
	rc, _ := g.Representative("c")
	rd, _ := g.Representative("d")
	if ra != rb || rb != rc {
		t.Errorf("transitive group split: %q %q %q", ra, rb, rc)
	}
	if rd == ra {
		t.Errorf("unrelated cert joined the group: %q", rd)
	}
	// p1.com occurs 3 times (x twice, only-a once), p2.net 3 times; tie
	// breaks lexicographically to p1.com.
	if ra != "p1.com" {
		t.Errorf("representative = %q, want p1.com", ra)
	}
	if g.GroupSize("a") != 3 || g.GroupSize("d") != 1 {
		t.Errorf("group sizes: %d, %d", g.GroupSize("a"), g.GroupSize("d"))
	}
}

func TestGroupCertificatesRepresentativeByCount(t *testing.T) {
	// The representative is the most common registered domain across the
	// dataset, not the first seen.
	certList := []Cert{
		{Fingerprint: "1", Names: []string{"rare.alt.net", "mx1.big.com"}},
		{Fingerprint: "2", Names: []string{"mx2.big.com"}},
		{Fingerprint: "3", Names: []string{"mx3.big.com"}},
	}
	g := groupCertificates(certList, psl.NewMemo(nil))
	rep, ok := g.Representative("1")
	if !ok || rep != "big.com" {
		t.Errorf("representative = (%q, %v), want big.com", rep, ok)
	}
}

func TestGroupCertificatesNoUsableNames(t *testing.T) {
	certList := []Cert{
		{Fingerprint: "junk", Names: []string{"localhost"}},
		{Fingerprint: "empty", Names: nil},
	}
	g := groupCertificates(certList, psl.NewMemo(nil))
	if rep, ok := g.Representative("junk"); !ok || rep != "localhost" {
		t.Errorf("junk representative = (%q, %v)", rep, ok)
	}
	if _, ok := g.Representative("missing"); ok {
		t.Error("representative for unknown fingerprint")
	}
}

// Property: grouping is a partition — every input certificate has exactly
// one representative, and singleton-group mode never merges anything.
func TestGroupingPartitionProperty(t *testing.T) {
	f := func(links []uint8) bool {
		if len(links) > 20 {
			links = links[:20]
		}
		var certList []Cert
		for i, l := range links {
			// Each cert links to a "chain" name chosen by the input,
			// creating arbitrary group structures.
			certList = append(certList, Cert{
				Fingerprint: fmt.Sprintf("fp%d", i),
				Names: []string{
					fmt.Sprintf("own%d.example%d.com", i, i),
					fmt.Sprintf("link%d.shared.net", int(l)%5),
				},
			})
		}
		grouped := groupCertificates(certList, psl.NewMemo(nil))
		single := singletonGroups(certList, psl.NewMemo(nil))
		for _, c := range certList {
			if _, ok := grouped.Representative(c.Fingerprint); !ok {
				return false
			}
			if single.GroupSize(c.Fingerprint) != 1 {
				return false
			}
		}
		return grouped.NumGroups() <= len(certList) && single.NumGroups() == len(certList)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
