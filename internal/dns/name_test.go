package dns

import (
	"strings"
	"testing"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.COM", "example.com."},
		{"example.com.", "example.com."},
		{"", "."},
		{".", "."},
		{"  a.b  ", "a.b."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTrimmedName(t *testing.T) {
	if got := TrimmedName("Foo.Bar."); got != "foo.bar" {
		t.Errorf("TrimmedName = %q", got)
	}
	if got := TrimmedName("."); got != "" {
		t.Errorf("TrimmedName(.) = %q, want empty", got)
	}
}

func TestCheckName(t *testing.T) {
	valid := []string{
		"example.com", "a.b.c.d.e", "xn--dmin-moa0i.example", "_dmarc.example.com",
		"mx-1.example.com", "123.example.com", ".", "", "*.example.com",
		strings.Repeat("a", 63) + ".com",
	}
	for _, n := range valid {
		if err := CheckName(n); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", n, err)
		}
	}
	invalid := []string{
		"-bad.example.com", "bad-.example.com", "ba*d.example.com",
		"exa mple.com", "a..b", strings.Repeat("a", 64) + ".com",
		strings.Repeat("a.", 140) + "com", "under_score.example.com",
	}
	for _, n := range invalid {
		if err := CheckName(n); err == nil {
			t.Errorf("CheckName(%q) = nil, want error", n)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"a.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", "a.example.com", false},
		{"badexample.com", "example.com", false},
		{"anything.at.all", ".", true},
		{"a.example.com.", "EXAMPLE.com", true},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestParentAndLabels(t *testing.T) {
	if got := Parent("a.b.c"); got != "b.c." {
		t.Errorf("Parent(a.b.c) = %q", got)
	}
	if got := Parent("com"); got != "." {
		t.Errorf("Parent(com) = %q", got)
	}
	if got := Parent("."); got != "." {
		t.Errorf("Parent(.) = %q", got)
	}
	if got := SplitLabels("a.b.c."); len(got) != 3 || got[0] != "a" {
		t.Errorf("SplitLabels = %q", got)
	}
	if got := SplitLabels("."); len(got) != 0 {
		t.Errorf("SplitLabels(.) = %q", got)
	}
}
