package world

import (
	"fmt"
	"slices"

	"mxmap/internal/dns"
)

// DateIndex returns the snapshot index of a date label within a corpus,
// or -1 when the corpus was not measured on that date.
func (c *Corpus) DateIndex(date string) int {
	return slices.Index(c.Dates, date)
}

// CatalogAt builds the authoritative DNS catalog for one snapshot date:
// provider zones (stable across snapshots) plus a zone for every corpus
// domain measured on that date, reflecting its assignment at the time.
// This catalog is what the OpenINTEL-like collector resolves against.
func (w *World) CatalogAt(date string) (*dns.Catalog, error) {
	cat := dns.NewCatalog()
	if err := w.addProviderZones(cat); err != nil {
		return nil, err
	}
	if err := w.addAdversaryZones(cat); err != nil {
		return nil, err
	}
	for _, c := range w.Corpora {
		idx := c.DateIndex(date)
		if idx < 0 {
			continue
		}
		for _, d := range c.Domains {
			st := d.StintAt(idx)
			if st == nil {
				continue
			}
			if st.Mode == ModeAdversarial && d.Adv != nil && d.Adv.Family == FamilyLame {
				// Lame delegation: the registry delegates the zone but no
				// server answers for it.
				continue
			}
			z, err := w.domainZone(d, st)
			if err != nil {
				return nil, err
			}
			cat.AddZone(z)
		}
	}
	return cat, nil
}

const zoneTTL = 3600

// addProviderZones installs one zone per provider ID carrying the A
// records for the provider's shared mail hosts.
func (w *World) addProviderZones(cat *dns.Catalog) error {
	for _, id := range w.sortedProviderIDs() {
		p := w.providerByID[id]
		z := dns.NewZone(id)
		if err := addApex(z, id); err != nil {
			return err
		}
		if id == p.ID {
			// The provider's SPF include target authorizes its outbound
			// fleet.
			mechs := "v=spf1"
			for _, ip := range p.MailIPs {
				mechs += " ip4:" + ip.String()
			}
			if err := z.Add(dns.RR{Name: "_spf." + id, Type: dns.TypeTXT, TTL: zoneTTL,
				Data: dns.TXTData{Strings: []string{mechs + " -all"}}}); err != nil {
				return err
			}
			// Mail host names live under the primary ID only.
			for i, h := range p.MailHosts {
				if err := z.Add(dns.RR{Name: h, Type: dns.TypeA, TTL: zoneTTL,
					Data: dns.AData{Addr: p.MailIPs[i%len(p.MailIPs)]}}); err != nil {
					return err
				}
				if i < len(p.MailIPv6s) {
					if err := z.Add(dns.RR{Name: h, Type: dns.TypeAAAA, TTL: zoneTTL,
						Data: dns.AAAAData{Addr: p.MailIPv6s[i]}}); err != nil {
						return err
					}
				}
			}
			for _, ip := range p.MailIPs {
				if err := z.Add(dns.RR{Name: "mx." + id, Type: dns.TypeA, TTL: zoneTTL,
					Data: dns.AData{Addr: ip}}); err != nil {
					return err
				}
			}
			// SMTP-less web frontends are reachable via a ghs.<id> name.
			for _, ip := range p.WebFrontIPs {
				if err := z.Add(dns.RR{Name: "ghs." + id, Type: dns.TypeA, TTL: zoneTTL,
					Data: dns.AData{Addr: ip}}); err != nil {
					return err
				}
			}
			// Shared-hosting servers get resolvable names too, so that
			// banner identities can be chased end to end.
			for i, ip := range p.SharedIPs {
				name := fmt.Sprintf("shared%02d.shared.%s", i+1, id)
				if err := z.Add(dns.RR{Name: name, Type: dns.TypeA, TTL: zoneTTL,
					Data: dns.AData{Addr: ip}}); err != nil {
					return err
				}
			}
		}
		cat.AddZone(z)
	}
	return nil
}

// domainZone builds one measured domain's zone for a stint.
func (w *World) domainZone(d *Domain, st *Stint) (*dns.Zone, error) {
	z := dns.NewZone(d.Name)
	apexNS := "ns1." + d.Name
	if st.Mode == ModeAdversarial && d.Adv != nil && d.Adv.Family == FamilyHijack {
		// Hijacked: the attacker serves the zone and its apex NS names the
		// attacker's nameservers — while the registry delegation still
		// points at the registrant's. That disagreement is the stale-glue
		// signature ProvenanceChecker.DelegationStale detects.
		apexNS = "ns1." + w.Adversary.HijackClusters[d.Adv.Cluster].DNSZone
	}
	if err := addApexNS(z, d.Name, apexNS); err != nil {
		return nil, err
	}
	if spfTxt := w.SPFRecord(d, st); spfTxt != "" {
		if err := z.Add(dns.RR{Name: d.Name, Type: dns.TypeTXT, TTL: zoneTTL,
			Data: dns.TXTData{Strings: []string{spfTxt}}}); err != nil {
			return nil, err
		}
	}
	for _, rec := range w.MXRecords(d, st) {
		if err := z.Add(dns.RR{Name: d.Name, Type: dns.TypeMX, TTL: zoneTTL,
			Data: dns.MXData{Preference: rec.Pref, Exchange: rec.Host}}); err != nil {
			return nil, err
		}
		if rec.OwnA {
			for _, a := range rec.Addrs {
				if err := z.Add(dns.RR{Name: rec.Host, Type: dns.TypeA, TTL: zoneTTL,
					Data: dns.AData{Addr: a}}); err != nil {
					return nil, err
				}
			}
		}
	}
	return z, nil
}

// addApex writes the SOA and NS boilerplate of a zone.
func addApex(z *dns.Zone, origin string) error {
	return addApexNS(z, origin, "ns1."+origin)
}

// addApexNS is addApex with an explicit apex nameserver host.
func addApexNS(z *dns.Zone, origin, ns string) error {
	if err := z.Add(dns.RR{Name: origin, Type: dns.TypeSOA, TTL: zoneTTL, Data: dns.SOAData{
		MName: ns, RName: "hostmaster." + origin,
		Serial: 2021060800, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}}); err != nil {
		return err
	}
	return z.Add(dns.RR{Name: origin, Type: dns.TypeNS, TTL: zoneTTL,
		Data: dns.NSData{Host: ns}})
}

// addAdversaryZones installs the zones the hostile infrastructure
// serves, one per registered zone of the adversary's host table. Lapsed
// zones are deliberately absent — their hosts resolve only through the
// ScenarioResolver's leftover glue.
func (w *World) addAdversaryZones(cat *dns.Catalog) error {
	if w.Adversary == nil {
		return nil
	}
	var z *dns.Zone
	origin := ""
	for _, h := range w.Adversary.hosts {
		if h.lapsed {
			continue
		}
		if h.zone != origin {
			origin = h.zone
			z = dns.NewZone(origin)
			if err := addApex(z, origin); err != nil {
				return err
			}
			cat.AddZone(z)
		}
		if err := z.Add(dns.RR{Name: h.host, Type: dns.TypeA, TTL: zoneTTL,
			Data: dns.AData{Addr: h.addr}}); err != nil {
			return err
		}
	}
	return nil
}
