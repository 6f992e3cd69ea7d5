package world

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"strings"

	"mxmap/internal/asn"
	"mxmap/internal/certs"
	"mxmap/internal/companies"
)

// buildRoster creates every provider's simulated infrastructure: address
// space, AS announcements, mail-server fleets with certificates, and (for
// web hosts) shared-hosting servers and rentable cloud prefixes.
func (w *World) buildRoster() error {
	dir := companies.Curated()
	w.Directory = dir
	w.providerByID = make(map[string]*Provider)
	w.Hosts = make(map[netip.Addr]*Host)

	// Curated companies first, in stable (sorted) order.
	for _, c := range dir.Companies() {
		if err := w.addProvider(c); err != nil {
			return err
		}
	}
	// Long-tail providers: small mail hosts with their own modest fleets.
	for j := 0; j < w.Cfg.TailProviders; j++ {
		name := fmt.Sprintf("%s Mail", titleWord(w.rng))
		id := fmt.Sprintf("%s-mail%d.net", lowerWord(w.rng), j)
		c := w.Directory.Register(companies.Company{
			Name:        name,
			Kind:        companies.KindOther,
			Country:     tailCountry(w.rng),
			ProviderIDs: []string{id},
			ASNs:        []asn.ASN{asn.ASN(64512 + j)},
		})
		if err := w.addProvider(c); err != nil {
			return err
		}
	}
	return nil
}

// addProvider materializes one company as a provider with infrastructure.
func (w *World) addProvider(c *companies.Company) error {
	idx := len(w.Providers)
	p := &Provider{
		Company: c,
		ID:      c.ProviderIDs[0],
		index:   idx,
	}
	if len(c.ASNs) > 0 {
		p.ASN = c.ASNs[0]
	} else {
		p.ASN = asn.ASN(64000 + idx)
	}
	w.ASRegistry.Register(asn.AS{
		Number: p.ASN, Name: c.Name, Org: c.Name, CountryCode: c.Country,
	})

	// Address plan: curated company i mail space at 10.(1+i)/16, cloud
	// space at 10.(128+i)/16; tail providers at 172.16.j.0/24.
	var mailPrefix netip.Prefix
	if idx < 96 {
		mailPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(1 + idx), 0, 0}), 16)
		if c.Kind == companies.KindWebHosting || c.Name == "Google" {
			p.CloudPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(129 + idx), 0, 0}), 16)
			// Cloud space may be announced by the same AS: that ambiguity
			// (provider AS != provider mail service) is a corner case the
			// methodology must survive.
			if err := w.Prefixes.Insert(p.CloudPrefix, p.ASN); err != nil {
				return err
			}
		}
	} else {
		j := idx - 96
		mailPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(16 + j/256), byte(j % 256), 0}), 24)
	}
	if err := w.Prefixes.Insert(mailPrefix, p.ASN); err != nil {
		return err
	}

	fleet, hostPattern := fleetPlan(c)
	p.MailHosts = make([]string, fleet)
	for i := 0; i < fleet; i++ {
		p.MailHosts[i] = fmt.Sprintf(hostPattern, i+1) + "." + p.ID
	}
	leaves, err := w.issueFleetCerts(p, c)
	if err != nil {
		return err
	}

	// SiteGround's filtering fleet runs inside Google's cloud — the
	// beats24-7.com corner case from Table 1.
	hostASN := p.ASN
	base := mailPrefix.Addr().As4()
	if c.Name == "SiteGround" {
		if g, ok := w.providerByID["google.com"]; ok && g.CloudPrefix.IsValid() {
			base = g.CloudPrefix.Addr().As4()
			base[2] = 250 // dedicated slice of the cloud range
			hostASN = g.ASN
		}
	}

	for i := 0; i < fleet; i++ {
		var addr netip.Addr
		if mailPrefix.Bits() <= 16 {
			addr = netip.AddrFrom4([4]byte{base[0], base[1], byte(1 + i/250), byte(1 + i%250)})
		} else {
			// Small (/24) allocations keep their third octet.
			addr = netip.AddrFrom4([4]byte{base[0], base[1], base[2], byte(1 + i)})
		}
		p.MailIPs = append(p.MailIPs, addr)
		spec := &SMTPSpec{Hostname: p.MailHosts[i], Leaf: leaves[i]}
		w.Hosts[addr] = &Host{Addr: addr, ASN: hostASN, SMTP: spec}
		if w.Cfg.EnableIPv6 && c.Kind == companies.KindMailHosting {
			// Dual-stack twin: same server identity, IPv6 address.
			v6 := netip.AddrFrom16([16]byte{0xfd, 0x00, 0, byte(idx >> 8), byte(idx), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(1 + i)})
			p.MailIPv6s = append(p.MailIPv6s, v6)
			w.Hosts[v6] = &Host{Addr: v6, ASN: hostASN, SMTP: spec}
		}
	}
	if len(p.MailIPv6s) > 0 {
		v6Prefix := netip.PrefixFrom(netip.AddrFrom16([16]byte{0xfd, 0x00, 0, byte(idx >> 8), byte(idx)}), 40)
		if err := w.Prefixes.Insert(v6Prefix, p.ASN); err != nil {
			return err
		}
	}

	// Companies renting out cloud space run SMTP-less web frontends that
	// some customers point MX records at ("ghs.<provider>" style).
	if p.CloudPrefix.IsValid() {
		cbase := p.CloudPrefix.Addr().As4()
		for i := 0; i < 2; i++ {
			addr := netip.AddrFrom4([4]byte{cbase[0], cbase[1], 5, byte(1 + i)})
			p.WebFrontIPs = append(p.WebFrontIPs, addr)
			w.Hosts[addr] = &Host{Addr: addr, ASN: p.ASN, SMTP: nil}
		}
	}

	// Web hosts additionally run shared-hosting mail servers, reached by
	// customer-named MX records. Roughly half present valid certificates;
	// the rest have no STARTTLS — driving the paper's Table 4 cert-
	// availability rates.
	if c.Kind == companies.KindWebHosting {
		shared := 8
		sharedCert, err := w.CA.Issue(certs.LeafSpec{
			CommonName: "*.shared." + p.ID,
			DNSNames:   []string{"*.shared." + p.ID, "shared." + p.ID},
			Org:        c.Name,
		}, w.rng)
		if err != nil {
			return err
		}
		censys := CensysAlways
		if c.Name == "EIG" {
			// The paper reports Censys only intermittently scanned EIG.
			censys = CensysIntermittent
		}
		// Shared-hosting servers always sit in the company's own space,
		// even when its filtering fleet is hosted elsewhere.
		sharedBase := mailPrefix.Addr().As4()
		for i := 0; i < shared; i++ {
			addr := netip.AddrFrom4([4]byte{sharedBase[0], sharedBase[1], 10, byte(1 + i)})
			p.SharedIPs = append(p.SharedIPs, addr)
			spec := &SMTPSpec{Hostname: fmt.Sprintf("shared%02d.shared.%s", i+1, p.ID)}
			if i%2 == 0 {
				spec.Leaf = sharedCert
			}
			if i == 2 {
				// One shared server per web host is poorly configured:
				// valid certificate, but a useless banner — feeding the
				// "No Valid Banner/EHLO" row of Table 4.
				spec.Banner = "localhost ESMTP ready"
				spec.EHLOName = "localhost"
			}
			w.Hosts[addr] = &Host{Addr: addr, ASN: p.ASN, SMTP: spec, CensysMode: censys}
		}
	}

	w.Providers = append(w.Providers, p)
	for _, id := range c.ProviderIDs {
		w.providerByID[id] = p
	}
	return nil
}

// issueFleetCerts creates the certificates a provider's mail servers
// present, one entry per server in MailHosts order.
//
// Most providers share one certificate across the fleet. Large mail
// hosts mirror the real Google/googlemail.com situation: the fleet spans
// two registered domains covered by three certificates whose SAN lists
// overlap pairwise — exactly the configuration step 1's FQDN-overlap
// grouping exists to consolidate (and the NoCertGrouping ablation
// fragments).
func (w *World) issueFleetCerts(p *Provider, c *companies.Company) ([]*certs.Leaf, error) {
	fleet := len(p.MailHosts)
	if c.Kind == companies.KindMailHosting && fleet >= 6 {
		alt := strings.SplitN(p.ID, ".", 2)[0] + "-mailinfra.net"
		certA, err := w.CA.Issue(certs.LeafSpec{
			CommonName: "mx." + p.ID,
			DNSNames: []string{"mx." + p.ID,
				p.MailHosts[0], p.MailHosts[1], p.MailHosts[2]},
			Org: c.Name,
		}, w.rng)
		if err != nil {
			return nil, err
		}
		// The bridge certificate carries names from both domains.
		certC, err := w.CA.Issue(certs.LeafSpec{
			CommonName: "mx." + p.ID,
			DNSNames:   []string{"mx." + p.ID, p.MailHosts[3], "mx." + alt},
			Org:        c.Name,
		}, w.rng)
		if err != nil {
			return nil, err
		}
		certB, err := w.CA.Issue(certs.LeafSpec{
			CommonName: "mx." + alt,
			DNSNames:   []string{"mx." + alt, "mx5." + alt, "mx6." + alt},
			Org:        c.Name,
		}, w.rng)
		if err != nil {
			return nil, err
		}
		out := make([]*certs.Leaf, fleet)
		for i := range out {
			switch {
			case i < 3:
				out[i] = certA
			case i == 3:
				out[i] = certC
			default:
				out[i] = certB
			}
		}
		return out, nil
	}
	sans := []string{"mx." + p.ID}
	sans = append(sans, p.MailHosts...)
	leaf, err := w.CA.Issue(certs.LeafSpec{
		CommonName: "mx." + p.ID,
		DNSNames:   sans,
		Org:        c.Name,
	}, w.rng)
	if err != nil {
		return nil, err
	}
	out := make([]*certs.Leaf, fleet)
	for i := range out {
		out[i] = leaf
	}
	return out, nil
}

// fleetPlan sizes a provider's mail fleet and names its hosts.
func fleetPlan(c *companies.Company) (n int, pattern string) {
	switch c.Kind {
	case companies.KindMailHosting:
		return 6, "mx%d"
	case companies.KindEmailSecurity:
		return 4, "mx0%d"
	case companies.KindWebHosting:
		return 4, "mailstore%d"
	case companies.KindGovAgency:
		return 2, "mailgw%d"
	default:
		return 2, "mx%d"
	}
}

// cloudAddr allocates the next address from the provider's cloud prefix.
func (p *Provider) cloudAddr() (netip.Addr, error) {
	if !p.CloudPrefix.IsValid() {
		return netip.Addr{}, fmt.Errorf("world: provider %s has no cloud prefix", p.ID)
	}
	p.cloudNext++
	n := p.cloudNext
	if n >= 230*250 {
		return netip.Addr{}, fmt.Errorf("world: cloud prefix of %s exhausted", p.ID)
	}
	base := p.CloudPrefix.Addr().As4()
	return netip.AddrFrom4([4]byte{base[0], base[1], byte(20 + n/250), byte(1 + n%250)}), nil
}

// Word fragments for synthetic names; ASCII, host-legal.
var nameSyllables = []string{
	"al", "bar", "cor", "del", "eta", "for", "gal", "hel", "ion", "jur",
	"kap", "lun", "mar", "nor", "oro", "pal", "qui", "ros", "sol", "tor",
	"ula", "ver", "wes", "xan", "yor", "zen",
}

func lowerWord(rng *rand.Rand) string {
	n := 2 + rng.IntN(2)
	s := ""
	for i := 0; i < n; i++ {
		s += nameSyllables[rng.IntN(len(nameSyllables))]
	}
	return s
}

func titleWord(rng *rand.Rand) string {
	s := lowerWord(rng)
	return string(s[0]-'a'+'A') + s[1:]
}

// tailCountry picks a home country for a tail provider.
func tailCountry(rng *rand.Rand) string {
	countries := []string{"US", "DE", "FR", "GB", "NL", "RU", "JP", "BR", "CA", "IN"}
	return countries[rng.IntN(len(countries))]
}
