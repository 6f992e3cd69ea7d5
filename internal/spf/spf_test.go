package spf

import (
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

func TestParseBasic(t *testing.T) {
	rec, err := Parse("v=spf1 include:_spf.google.com ~all")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Mechanisms) != 2 {
		t.Fatalf("mechanisms = %+v", rec.Mechanisms)
	}
	if rec.Mechanisms[0].Kind != MechInclude || rec.Mechanisms[0].Domain != "_spf.google.com" {
		t.Errorf("m0 = %+v", rec.Mechanisms[0])
	}
	if rec.Mechanisms[1].Kind != MechAll || rec.Mechanisms[1].Qualifier != QSoftFail {
		t.Errorf("m1 = %+v", rec.Mechanisms[1])
	}
}

func TestParseMechanismZoo(t *testing.T) {
	rec, err := Parse("v=spf1 ip4:192.0.2.0/24 ip4:198.51.100.7 ip6:2001:db8::/32 a mx a:mail.example.com mx:other.example.com/24 exists:%{i}.sbl.example.org -all")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []MechKind{MechIP4, MechIP4, MechIP6, MechA, MechMX, MechA, MechMX, MechExists, MechAll}
	if len(rec.Mechanisms) != len(kinds) {
		t.Fatalf("count = %d", len(rec.Mechanisms))
	}
	for i, k := range kinds {
		if rec.Mechanisms[i].Kind != k {
			t.Errorf("m%d kind = %v, want %v", i, rec.Mechanisms[i].Kind, k)
		}
	}
	if rec.Mechanisms[1].Prefix.String() != "198.51.100.7/32" {
		t.Errorf("bare ip4 = %v", rec.Mechanisms[1].Prefix)
	}
	if rec.Mechanisms[6].Domain != "other.example.com" {
		t.Errorf("mx dual-cidr domain = %q", rec.Mechanisms[6].Domain)
	}
	if rec.Mechanisms[8].Qualifier != QFail {
		t.Errorf("all qualifier = %c", rec.Mechanisms[8].Qualifier)
	}
}

func TestParseRedirectAndModifiers(t *testing.T) {
	rec, err := Parse("v=spf1 exp=explain.example.com redirect=_spf.provider.net")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Redirect != "_spf.provider.net" {
		t.Errorf("redirect = %q", rec.Redirect)
	}
	if len(rec.Mechanisms) != 0 {
		t.Errorf("mechanisms = %+v", rec.Mechanisms)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"not spf at all", ErrNotSPF},
		{"v=spf2 all", ErrNotSPF},
		{"v=spf1 include:", ErrSyntax},
		{"v=spf1 ip4:banana", ErrSyntax},
		{"v=spf1 ip4:", ErrSyntax},
		{"v=spf1 all:arg", ErrSyntax},
		{"v=spf1 wat", ErrSyntax},
		{"v=spf1 redirect=", ErrSyntax},
	}
	for _, c := range cases {
		if _, err := Parse(c.in); !errors.Is(err, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, err, c.want)
		}
	}
}

// FuzzParse holds Parse to what the analysis relies on, over the one-
// record misconfiguration classes of "Lazy Gatekeepers" (PAPERS.md): it
// never panics; it answers ErrNotSPF exactly when the first field is not
// v=spf1 in any case; and a record it accepts has only known mechanism
// kinds, ip4/ip6 networks that are valid, masked and of the mechanism's
// family (and no network elsewhere), and is the record Parse gives for
// the same fields joined by single spaces.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"v=spf1 include:_spf.google.com ~all",
		"v=spf1 +all",
		"v=spf1 v=spf1 -all",
		"v=spf1 include: -all",
		"v=spf1 ip4:0.0.0.0/0 ip6:::/0",
		"v=spf1 ip4:192.0.2.1/24 -all",
		"v=spf1 ip4:10.0.0.0/33",
		"v=spf1 ip6:2001:db8::1/129",
		"v=spf1 ip4:2001:db8::/32 ip6:192.0.2.0/24",
		"v=spf1 " + strings.Repeat("a:h.example.com ", 300) + "-all",
		"V=SPF1 Include:_SPF.Example.COM IP4:192.0.2.0/24 ?ALL",
		"  v=spf1\t mx \n a/24  redirect=_spf.example.net  ",
		"v=spf10 all",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, txt string) {
		rec, err := Parse(txt)
		fields := strings.Fields(txt)
		isSPF := len(fields) > 0 && strings.EqualFold(fields[0], "v=spf1")
		if errors.Is(err, ErrNotSPF) == isSPF {
			t.Fatalf("Parse(%q) = %v with first field an spf version: %v", txt, err, isSPF)
		}
		if err != nil {
			if rec != nil || !(errors.Is(err, ErrNotSPF) || errors.Is(err, ErrSyntax)) {
				t.Fatalf("Parse(%q) = %+v, %v", txt, rec, err)
			}
			return
		}
		for _, m := range rec.Mechanisms {
			_, known := mechNames[m.Kind]
			ok := known
			switch m.Kind {
			case MechIP4:
				ok = ok && m.Prefix.IsValid() && m.Prefix == m.Prefix.Masked() && m.Prefix.Addr().Is4()
			case MechIP6:
				ok = ok && m.Prefix.IsValid() && m.Prefix == m.Prefix.Masked() && m.Prefix.Addr().Is6()
			default:
				ok = ok && m.Prefix == (netip.Prefix{})
			}
			if !ok {
				t.Fatalf("Parse(%q): bad mechanism %+v", txt, m)
			}
		}
		again, err := Parse(strings.Join(fields, " "))
		if err != nil || !reflect.DeepEqual(rec, again) {
			t.Fatalf("Parse(%q) = %+v, but its joined fields give %+v, %v", txt, rec, again, err)
		}
	})
}
