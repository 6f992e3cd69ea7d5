package companies

import (
	"testing"

	"mxmap/internal/asn"
)

func TestCuratedTable5Inventory(t *testing.T) {
	d := Curated()
	// The paper's Table 5: Microsoft and ProofPoint provider IDs.
	msIDs := []string{"outlook.com", "office365.us", "hotmail.com", "outlook.cn", "outlook.de"}
	for _, id := range msIDs {
		c, ok := d.CompanyFor(id)
		if !ok || c.Name != "Microsoft" {
			t.Errorf("CompanyFor(%q) = %v, want Microsoft", id, c)
		}
	}
	ppIDs := []string{"gpphosted.com", "ppops.net", "pphosted.com", "ppe-hosted.com"}
	for _, id := range ppIDs {
		c, ok := d.CompanyFor(id)
		if !ok || c.Name != "ProofPoint" {
			t.Errorf("CompanyFor(%q) = %v, want ProofPoint", id, c)
		}
	}
}

func TestCompanyNameFallsBackToID(t *testing.T) {
	d := Curated()
	if got := d.CompanyName("tiny-provider.example"); got != "tiny-provider.example" {
		t.Errorf("CompanyName fallback = %q", got)
	}
	if got := d.CompanyName("GOOGLE.COM"); got != "Google" {
		t.Errorf("CompanyName case folding = %q", got)
	}
}

func TestRegisterOverrides(t *testing.T) {
	d := NewDirectory()
	d.Register(Company{Name: "First", ProviderIDs: []string{"x.com"}})
	d.Register(Company{Name: "Second", ProviderIDs: []string{"x.com"}})
	if got := d.CompanyName("x.com"); got != "Second" {
		t.Errorf("override = %q", got)
	}
	if len(d.Companies()) != 2 {
		t.Errorf("Companies = %d", len(d.Companies()))
	}
}

func TestByKind(t *testing.T) {
	kinds := make(map[string]Kind)
	for _, c := range Curated().Companies() {
		kinds[c.Name] = c.Kind
	}
	for _, want := range []string{"ProofPoint", "Mimecast", "Barracuda", "Cisco Ironport", "AppRiver"} {
		if k, ok := kinds[want]; !ok || k != KindEmailSecurity {
			t.Errorf("%s: kind %v (listed: %v), want %v", want, k, ok, KindEmailSecurity)
		}
	}
	if k := kinds["Google"]; k == KindEmailSecurity {
		t.Errorf("Google has kind %v", k)
	}
}

func TestKindString(t *testing.T) {
	if KindMailHosting.String() != "mail-hosting" || Kind(99).String() != "other" {
		t.Error("kind names changed")
	}
}

func TestCuratedCountries(t *testing.T) {
	d := Curated()
	cases := map[string]string{"Google": "US", "Yandex": "RU", "Tencent": "CN", "OVH": "FR"}
	for name, country := range cases {
		found := false
		for _, c := range d.Companies() {
			if c.Name == name {
				found = true
				if c.Country != country {
					t.Errorf("%s country = %s, want %s", name, c.Country, country)
				}
			}
		}
		if !found {
			t.Errorf("company %s missing", name)
		}
	}
}

func TestASNsPopulated(t *testing.T) {
	d := Curated()
	g, _ := d.CompanyFor("google.com")
	if len(g.ASNs) == 0 || g.ASNs[0] != asn.ASN(15169) {
		t.Errorf("Google ASNs = %v", g.ASNs)
	}
}
