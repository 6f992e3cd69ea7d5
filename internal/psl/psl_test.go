package psl

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisteredDomainBasic(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"example.com", "example.com", true},
		{"www.example.com", "example.com", true},
		{"a.b.c.example.com", "example.com", true},
		{"example.co.uk", "example.co.uk", true},
		{"www.example.co.uk", "example.co.uk", true},
		{"example.gov", "example.gov", true},
		{"sub.agency.gov", "agency.gov", true},
		{"example.com.br", "example.com.br", true},
		{"mx1.provider.com", "provider.com", true},
		{"aspmx.l.google.com", "google.com", true},
		{"mx1.smtp.goog", "smtp.goog", true},
		// Bare public suffixes have no registered domain.
		{"com", "", false},
		{"co.uk", "", false},
		{"gov", "", false},
		{"blogspot.com", "", false},
		// Unknown TLD: default rule * applies, suffix is rightmost label.
		{"foo.bar.unknowntld", "bar.unknowntld", true},
		{"unknowntld", "", false},
		// Degenerate inputs.
		{"", "", false},
		{".", "", false},
		{"..", "", false},
		{".com", "", false},
		{"example..com", "", false},
	}
	for _, c := range cases {
		got, ok := RegisteredDomain(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("RegisteredDomain(%q) = (%q, %v), want (%q, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestRegisteredDomainNormalization(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"EXAMPLE.COM", "example.com"},
		{"Example.Co.UK", "example.co.uk"},
		{"example.com.", "example.com"},
		{"  example.com  ", "example.com"},
	}
	for _, c := range cases {
		got, ok := RegisteredDomain(c.in)
		if !ok || got != c.want {
			t.Errorf("RegisteredDomain(%q) = (%q, %v), want (%q, true)", c.in, got, ok, c.want)
		}
	}
}

func TestWildcardAndException(t *testing.T) {
	// *.kawasaki.jp is a wildcard suffix; city.kawasaki.jp is an exception.
	cases := []struct {
		in    string
		reg   string
		regOK bool
	}{
		{"foo.bar.kawasaki.jp", "foo.bar.kawasaki.jp", true},
		{"bar.kawasaki.jp", "", false},
		{"city.kawasaki.jp", "city.kawasaki.jp", true},
		{"www.city.kawasaki.jp", "city.kawasaki.jp", true},
		{"example.co.jp", "example.co.jp", true},
	}
	for _, c := range cases {
		reg, ok := RegisteredDomain(c.in)
		if reg != c.reg || ok != c.regOK {
			t.Errorf("RegisteredDomain(%q) = (%q, %v), want (%q, %v)", c.in, reg, ok, c.reg, c.regOK)
		}
	}
}

func TestPrivateSection(t *testing.T) {
	reg, ok := RegisteredDomain("myblog.blogspot.com")
	if !ok || reg != "myblog.blogspot.com" {
		t.Errorf("RegisteredDomain(myblog.blogspot.com) = (%q, %v), want itself", reg, ok)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"foo.*.bar", // interior wildcard
		"!com",      // single-label exception
		"foo..bar",  // empty label
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestParseIgnoresCommentsAndBlankLines(t *testing.T) {
	l, err := Parse(strings.NewReader("// header\n\ncom\nnet // trailing\n  \n"))
	if err != nil {
		t.Fatal(err)
	}
	// "net // trailing" should parse as rule "net" per the whitespace rule.
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	if got, ok := l.RegisteredDomain("a.net"); !ok || got != "a.net" {
		t.Errorf("RegisteredDomain(a.net) = (%q, %v)", got, ok)
	}
}

// Property: the registered domain is always a suffix of the input and is
// one label on a public suffix (a name with no registered domain).
func TestRegisteredDomainProperties(t *testing.T) {
	labels := []string{"a", "mail", "mx1", "www", "example", "corp", "x9"}
	tlds := []string{"com", "co.uk", "gov", "jp", "co.jp", "unknowntld", "com.br"}
	f := func(i, j, k uint8, depth uint8) bool {
		name := tlds[int(k)%len(tlds)]
		for d := 0; d < int(depth%4)+1; d++ {
			name = labels[(int(i)+d*int(j)+d)%len(labels)] + "." + name
		}
		reg, ok := Default.RegisteredDomain(name)
		if !ok {
			return false // we always prepended at least one label
		}
		if !strings.HasSuffix(name, reg) && name != reg {
			return false
		}
		_, below := Default.RegisteredDomain(reg[strings.IndexByte(reg, '.')+1:])
		return !below
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RegisteredDomain is idempotent — applying it to its own output
// returns the same value.
func TestRegisteredDomainIdempotent(t *testing.T) {
	f := func(sub uint8) bool {
		names := []string{
			"a.b.example.com", "x.example.co.uk", "deep.sub.tree.example.gov",
			"www.foo.com.br", "m.n.o.p.example.ru",
		}
		name := names[int(sub)%len(names)]
		reg1, ok1 := Default.RegisteredDomain(name)
		if !ok1 {
			return false
		}
		reg2, ok2 := Default.RegisteredDomain(reg1)
		return ok2 && reg1 == reg2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkRegisteredDomain(b *testing.B) {
	names := []string{
		"www.example.com", "mx1.provider.co.uk", "a.b.c.d.example.gov",
		"foo.bar.kawasaki.jp", "city.kawasaki.jp", "x.unknowntld",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Default.RegisteredDomain(names[i%len(names)])
	}
}
