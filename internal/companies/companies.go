// Package companies aggregates provider IDs (registered domains emitted by
// the inference methodology) into the companies that operate them — the
// manual mapping step the paper describes in §4.4 and documents in
// Table 5.
//
// A Directory is the lookup structure; Curated returns the directory used
// throughout the experiments, combining the associations published in the
// paper with the synthetic providers the world generator creates.
package companies

import (
	"sort"
	"strings"
	"sync"

	"mxmap/internal/asn"
)

// Kind classifies what a company sells, which drives which panel of
// Figure 6 it appears in.
type Kind int

// Company kinds.
const (
	// KindMailHosting providers run full mailbox services (Google,
	// Microsoft, Yandex, ...).
	KindMailHosting Kind = iota
	// KindEmailSecurity providers filter inbound mail and forward it to
	// the customer (ProofPoint, Mimecast, ...).
	KindEmailSecurity
	// KindWebHosting companies bundle mail service with web hosting
	// (GoDaddy, OVH, ...).
	KindWebHosting
	// KindGovAgency marks government departments that run mail for other
	// agencies (hhs.gov, treasury.gov).
	KindGovAgency
	// KindOther covers everything else.
	KindOther
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMailHosting:
		return "mail-hosting"
	case KindEmailSecurity:
		return "email-security"
	case KindWebHosting:
		return "web-hosting"
	case KindGovAgency:
		return "gov-agency"
	default:
		return "other"
	}
}

// Company is one operating organization.
type Company struct {
	// Name is the display name used in tables and figures.
	Name string
	// Kind is the business classification.
	Kind Kind
	// Country is the ISO alpha-2 home jurisdiction.
	Country string
	// ProviderIDs lists registered domains the company operates mail
	// infrastructure under. Never exhaustive (per the paper's caveat).
	ProviderIDs []string
	// ASNs lists autonomous systems the company announces mail
	// infrastructure from.
	ASNs []asn.ASN
}

// Directory maps provider IDs to companies.
type Directory struct {
	mu        sync.RWMutex
	byID      map[string]*Company
	companies []*Company
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{byID: make(map[string]*Company)}
}

// Register adds a company and indexes its provider IDs. Later
// registrations win ID conflicts, enabling layered curation.
func (d *Directory) Register(c Company) *Company {
	d.mu.Lock()
	defer d.mu.Unlock()
	cp := c
	d.companies = append(d.companies, &cp)
	for _, id := range cp.ProviderIDs {
		d.byID[strings.ToLower(id)] = &cp
	}
	return &cp
}

// CompanyFor resolves a provider ID to its operating company.
func (d *Directory) CompanyFor(providerID string) (*Company, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.byID[strings.ToLower(providerID)]
	return c, ok
}

// CompanyName returns the display name for a provider ID, or the ID
// itself when unmapped — matching how the paper reports long-tail
// providers by their registered domain.
func (d *Directory) CompanyName(providerID string) string {
	if c, ok := d.CompanyFor(providerID); ok {
		return c.Name
	}
	return providerID
}

// Companies returns all registered companies sorted by name.
func (d *Directory) Companies() []*Company {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Company, len(d.companies))
	copy(out, d.companies)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Curated returns a directory seeded with the published associations the
// paper documents (Table 5 and the top-company discussion), expressed
// with the real provider IDs so the Table 5 reproduction prints the same
// inventory rows.
func Curated() *Directory {
	d := NewDirectory()
	for _, c := range curated {
		d.Register(c)
	}
	return d
}

// curated mirrors Table 5 plus the companies named across Figures 5-8 and
// Table 6. AS numbers follow the paper where published.
var curated = []Company{
	{Name: "Google", Kind: KindMailHosting, Country: "US",
		ProviderIDs: []string{"google.com", "googlemail.com", "smtp.goog"},
		ASNs:        []asn.ASN{15169}},
	{Name: "Microsoft", Kind: KindMailHosting, Country: "US",
		ProviderIDs: []string{"outlook.com", "office365.us", "hotmail.com", "outlook.cn", "outlook.de"},
		ASNs:        []asn.ASN{8075, 200517, 58593}},
	{Name: "ProofPoint", Kind: KindEmailSecurity, Country: "US",
		ProviderIDs: []string{"gpphosted.com", "ppops.net", "pphosted.com", "ppe-hosted.com"},
		ASNs:        []asn.ASN{52129, 26211, 22843, 13916, 15830}},
	{Name: "Mimecast", Kind: KindEmailSecurity, Country: "UK",
		ProviderIDs: []string{"mimecast.com", "mimecast.co.za"},
		ASNs:        []asn.ASN{30031}},
	{Name: "Barracuda", Kind: KindEmailSecurity, Country: "US",
		ProviderIDs: []string{"barracudanetworks.com", "ess.barracuda.com"},
		ASNs:        []asn.ASN{15324}},
	{Name: "Cisco Ironport", Kind: KindEmailSecurity, Country: "US",
		ProviderIDs: []string{"iphmx.com"},
		ASNs:        []asn.ASN{16417}},
	{Name: "AppRiver", Kind: KindEmailSecurity, Country: "US",
		ProviderIDs: []string{"arsmtp.com"},
		ASNs:        []asn.ASN{27357}},
	{Name: "MessageLabs", Kind: KindEmailSecurity, Country: "US",
		ProviderIDs: []string{"messagelabs.com"},
		ASNs:        []asn.ASN{21345}},
	{Name: "Sophos", Kind: KindEmailSecurity, Country: "UK",
		ProviderIDs: []string{"sophos.com", "reflexion.net"},
		ASNs:        []asn.ASN{14066}},
	{Name: "Solarwinds", Kind: KindEmailSecurity, Country: "US",
		ProviderIDs: []string{"spamexperts.com"},
		ASNs:        []asn.ASN{39572}},
	{Name: "TrendMicro", Kind: KindEmailSecurity, Country: "JP",
		ProviderIDs: []string{"trendmicro.com", "tmes.trendmicro.eu"},
		ASNs:        []asn.ASN{7588}},
	{Name: "Yandex", Kind: KindMailHosting, Country: "RU",
		ProviderIDs: []string{"yandex.ru", "yandex.net", "mx.yandex.net"},
		ASNs:        []asn.ASN{13238}},
	{Name: "Mail.Ru", Kind: KindMailHosting, Country: "RU",
		ProviderIDs: []string{"mail.ru"},
		ASNs:        []asn.ASN{47764}},
	{Name: "Tencent", Kind: KindMailHosting, Country: "CN",
		ProviderIDs: []string{"qq.com", "exmail.qq.com"},
		ASNs:        []asn.ASN{45090}},
	{Name: "Zoho", Kind: KindMailHosting, Country: "IN",
		ProviderIDs: []string{"zoho.com", "zoho.eu"},
		ASNs:        []asn.ASN{2639}},
	{Name: "Yahoo", Kind: KindMailHosting, Country: "US",
		ProviderIDs: []string{"yahoodns.net", "yahoo.com"},
		ASNs:        []asn.ASN{36647}},
	{Name: "Rackspace", Kind: KindMailHosting, Country: "US",
		ProviderIDs: []string{"emailsrvr.com", "rackspace.com"},
		ASNs:        []asn.ASN{33070}},
	{Name: "IntermediaCloud", Kind: KindMailHosting, Country: "US",
		ProviderIDs: []string{"intermedia.net"},
		ASNs:        []asn.ASN{16406}},
	{Name: "Beget", Kind: KindWebHosting, Country: "RU",
		ProviderIDs: []string{"beget.com", "beget.ru"},
		ASNs:        []asn.ASN{198610}},
	{Name: "GoDaddy", Kind: KindWebHosting, Country: "US",
		ProviderIDs: []string{"secureserver.net", "godaddy.com"},
		ASNs:        []asn.ASN{26496}},
	{Name: "OVH", Kind: KindWebHosting, Country: "FR",
		ProviderIDs: []string{"ovh.net", "ovh.com"},
		ASNs:        []asn.ASN{16276}},
	{Name: "UnitedInternet", Kind: KindWebHosting, Country: "DE",
		ProviderIDs: []string{"kundenserver.de", "1and1.com", "ui-dns.de", "ionos.com"},
		ASNs:        []asn.ASN{8560}},
	{Name: "EIG", Kind: KindWebHosting, Country: "US",
		ProviderIDs: []string{"websitewelcome.com", "bluehost.com", "hostgator.com"},
		ASNs:        []asn.ASN{46606}},
	{Name: "NameCheap", Kind: KindWebHosting, Country: "US",
		ProviderIDs: []string{"privateemail.com", "registrar-servers.com"},
		ASNs:        []asn.ASN{22612}},
	{Name: "Tucows", Kind: KindWebHosting, Country: "CA",
		ProviderIDs: []string{"hostedemail.com", "tucows.com"},
		ASNs:        []asn.ASN{15348}},
	{Name: "Strato", Kind: KindWebHosting, Country: "DE",
		ProviderIDs: []string{"rzone.de", "strato.de"},
		ASNs:        []asn.ASN{6724}},
	{Name: "Web.com Group", Kind: KindWebHosting, Country: "US",
		ProviderIDs: []string{"netsolmail.net", "web.com"},
		ASNs:        []asn.ASN{19871}},
	{Name: "Aruba", Kind: KindWebHosting, Country: "IT",
		ProviderIDs: []string{"aruba.it", "arubabusiness.it"},
		ASNs:        []asn.ASN{31034}},
	{Name: "SiteGround", Kind: KindWebHosting, Country: "BG",
		ProviderIDs: []string{"siteground.com", "mailspamprotection.com"},
		ASNs:        []asn.ASN{396982}},
	{Name: "NameCheap Registrar", Kind: KindOther, Country: "US",
		ProviderIDs: []string{"namecheaphosting.com"},
		ASNs:        nil},
	{Name: "Ukraine.ua", Kind: KindWebHosting, Country: "UA",
		ProviderIDs: []string{"ukraine.com.ua"},
		ASNs:        []asn.ASN{200000}},
	{Name: "hhs.gov", Kind: KindGovAgency, Country: "US",
		ProviderIDs: []string{"hhs.gov"},
		ASNs:        []asn.ASN{1999}},
	{Name: "treasury.gov", Kind: KindGovAgency, Country: "US",
		ProviderIDs: []string{"treasury.gov"},
		ASNs:        []asn.ASN{1998}},
}
