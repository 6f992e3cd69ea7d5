package world

import (
	"fmt"
	"net/netip"

	"mxmap/internal/asn"
	"mxmap/internal/certs"
	"mxmap/internal/companies"
)

// MXRec is one concrete MX record for a domain at a snapshot, together
// with the A-record data its exchange resolves to.
type MXRec struct {
	// Pref is the MX preference.
	Pref uint16
	// Host is the exchange name.
	Host string
	// Addrs is what Host resolves to. For in-bailiwick hosts (OwnA) the
	// A records live in the domain's zone; otherwise the provider's zone
	// is authoritative and Addrs mirrors it.
	Addrs []netip.Addr
	// OwnA marks exchanges inside the domain's own zone.
	OwnA bool
}

// materializeHosts walks a corpus after assignment and creates the
// dedicated endpoints the domains' stints require: self-hosted servers,
// rented VPSes, and SMTP-less web frontends.
func (w *World) materializeHosts(c *Corpus) error {
	webhosts := w.webHostingProviders()
	if len(webhosts) == 0 {
		return fmt.Errorf("world: no web-hosting providers in roster")
	}
	for _, d := range c.Domains {
		for si := range d.Stints {
			st := &d.Stints[si]
			switch st.Mode {
			case ModeSelfGood, ModeSelfSigned, ModeSelfJunk, ModeFalseClaim:
				if !d.OwnIP.IsValid() {
					if err := w.createSelfHost(d, st.Mode, &w.selfNext); err != nil {
						return err
					}
				}
			case ModeVPS:
				if !d.VPSIP.IsValid() {
					wh := webhosts[int(st.Variant)%len(webhosts)]
					if err := w.createVPSHost(d, wh, st.Variant); err != nil {
						return err
					}
				}
			case ModeNoSMTP:
				// Most SMTP-less MX records point at a provider's shared
				// web frontend; only the customer-named minority needs a
				// dedicated web address.
				if st.Variant%20 == 0 && !d.WebIP.IsValid() {
					cloud := w.cloudOwnerFor(st, webhosts)
					addr, err := cloud.cloudAddr()
					if err != nil {
						return err
					}
					d.WebIP = addr
					w.Hosts[addr] = &Host{Addr: addr, ASN: cloud.ASN, SMTP: nil}
				}
			}
		}
	}
	return nil
}

// cloudOwnerFor picks whose web infrastructure an SMTP-less MX points at:
// the assigned provider when it rents cloud space (the jeniustoto.net
// case on Google), otherwise a web host chosen by variant.
func (w *World) cloudOwnerFor(st *Stint, webhosts []*Provider) *Provider {
	if st.Provider >= 0 {
		if p := w.Providers[st.Provider]; p.CloudPrefix.IsValid() {
			return p
		}
	}
	return webhosts[int(st.Variant)%len(webhosts)]
}

// createSelfHost allocates the domain's own mail server in ISP space and
// configures its SMTP personality per the mode.
func (w *World) createSelfHost(d *Domain, mode Mode, next *uint32) error {
	*next++
	n := *next
	isp := int(hash64(d.Name) % uint64(w.Cfg.SelfISPs))
	if n >= 250*250 {
		return fmt.Errorf("world: ISP space exhausted")
	}
	addr := netip.AddrFrom4([4]byte{100, byte(64 + isp), byte(1 + n/250), byte(1 + n%250)})
	d.OwnIP = addr

	hostname := "mx." + d.Name
	spec := &SMTPSpec{Hostname: hostname}
	switch mode {
	case ModeSelfGood:
		spec.Leaf = w.leaves.issue(w.CA, certs.LeafSpec{CommonName: hostname}, w.rng)
		if hash64(d.Name+"/banner")%5 == 0 {
			// Some otherwise well-run servers still ship a placeholder
			// banner: a valid certificate with no usable Banner/EHLO.
			spec.Banner = "localhost ESMTP ready"
			spec.EHLOName = "localhost"
		}
	case ModeSelfSigned:
		spec.Leaf = w.leaves.selfSigned(certs.LeafSpec{CommonName: hostname}, w.rng)
	case ModeSelfJunk:
		a4 := addr.As4()
		junk := fmt.Sprintf("ip-%d-%d-%d-%d", a4[0], a4[1], a4[2], a4[3])
		if hash64(d.Name)%4 == 0 {
			junk = "localhost"
		}
		spec.Banner = junk + " ESMTP service ready"
		spec.EHLOName = junk
	case ModeFalseClaim:
		spec.Banner = "mx.google.com ESMTP gmail-like ready"
		spec.EHLOName = "mx.google.com"
	}
	censys := CensysAlways
	if hash64(d.Name+"/censys")%100 < 12 {
		censys = CensysNever
	}
	w.Hosts[addr] = &Host{Addr: addr, ASN: asn.ASN(65000 + isp), SMTP: spec, CensysMode: censys}
	return nil
}

// createVPSHost allocates a rented VPS at the web host and gives it the
// hosting company's subdomain identity — the configuration step 4 of the
// methodology has to unwind.
func (w *World) createVPSHost(d *Domain, wh *Provider, variant uint32) error {
	addr, err := wh.cloudAddr()
	if err != nil {
		return err
	}
	d.VPSIP = addr
	var vpsName string
	if variant%2 == 0 {
		vpsName = fmt.Sprintf("vps%d.%s", 1000+variant%9000, wh.ID)
	} else {
		a4 := addr.As4()
		vpsName = fmt.Sprintf("s%d-%d-%d.%s", a4[1], a4[2], a4[3], wh.ID)
	}
	spec := &SMTPSpec{Hostname: vpsName}
	if variant%5 != 0 {
		// Hosting companies let VPS tenants obtain certificates under
		// these names (the secureserver.net behavior in §3.1.4).
		spec.Leaf = w.leaves.issue(w.CA, certs.LeafSpec{CommonName: vpsName}, w.rng)
	} else {
		spec.Leaf = w.leaves.selfSigned(certs.LeafSpec{CommonName: vpsName}, w.rng)
	}
	w.Hosts[addr] = &Host{Addr: addr, ASN: wh.ASN, SMTP: spec}
	return nil
}

// webHostingProviders lists roster members that rent out infrastructure.
func (w *World) webHostingProviders() []*Provider {
	var out []*Provider
	for _, p := range w.Providers {
		if p.Company.Kind == companies.KindWebHosting {
			out = append(out, p)
		}
	}
	return out
}

// MXRecords derives the concrete MX configuration of a domain during a
// stint. The derivation is deterministic in (domain, stint).
func (w *World) MXRecords(d *Domain, st *Stint) []MXRec {
	v := uint64(st.Variant)
	switch st.Mode {
	case ModeExplicit:
		p := w.Providers[st.Provider]
		first := int(v) % len(p.MailHosts)
		recs := []MXRec{providerMX(p, first, 10)}
		if v%3 != 0 && len(p.MailHosts) > 1 {
			second := (first + 1) % len(p.MailHosts)
			recs = append(recs, providerMX(p, second, 20))
		}
		return recs
	case ModeHidden:
		p := w.Providers[st.Provider]
		host := "mailhost." + d.Name
		if v%2 == 0 {
			host = "mx." + d.Name
		}
		addrs := []netip.Addr{p.MailIPs[int(v)%len(p.MailIPs)]}
		if v%4 == 0 && len(p.MailIPs) > 1 {
			addrs = append(addrs, p.MailIPs[(int(v)+1)%len(p.MailIPs)])
		}
		return []MXRec{{Pref: 10, Host: host, Addrs: addrs, OwnA: true}}
	case ModeSharedHosting:
		p := w.Providers[st.Provider]
		return []MXRec{{
			Pref: 10, Host: "mx." + d.Name, OwnA: true,
			Addrs: []netip.Addr{p.SharedIPs[int(v)%len(p.SharedIPs)]},
		}}
	case ModeVPS:
		return []MXRec{{Pref: 10, Host: "mx." + d.Name, Addrs: []netip.Addr{d.VPSIP}, OwnA: true}}
	case ModeSelfGood, ModeSelfSigned, ModeSelfJunk, ModeFalseClaim:
		return []MXRec{{Pref: 10, Host: "mx." + d.Name, Addrs: []netip.Addr{d.OwnIP}, OwnA: true}}
	case ModeNoSMTP:
		if v%20 == 0 {
			// Customer-named MX to a dedicated web address.
			return []MXRec{{Pref: 10, Host: "web." + d.Name, Addrs: []netip.Addr{d.WebIP}, OwnA: true}}
		}
		// Provider-named web frontend (ghs.google.com style). The name
		// resolves to every frontend address.
		owner := w.cloudOwnerFor(st, w.webHostingProviders())
		return []MXRec{{
			Pref: 10, Host: "ghs." + owner.ID,
			Addrs: append([]netip.Addr(nil), owner.WebFrontIPs...),
		}}
	case ModeAdversarial:
		hosts, _ := w.advPrimary(st)
		return w.Adversary.mxRecords(*d.Adv, v, hosts)
	case ModeNoMXIP:
		if st.Provider >= 0 {
			// A dangling provider-named MX: the name's zone exists but the
			// host was retired, so it no longer resolves.
			p := w.Providers[st.Provider]
			return []MXRec{{Pref: 10, Host: fmt.Sprintf("retired-mx%d.%s", v%4, p.ID)}}
		}
		return []MXRec{{Pref: 10, Host: "mx." + d.Name, OwnA: true}}
	default:
		return nil
	}
}

// SPFRecord derives the domain's published SPF policy during a stint, or
// "" when the domain publishes none. Provider customers include their
// provider's _spf zone; customers of filtering services usually also
// include their real mailbox provider — the paper's §3.4 observation
// that SPF can reveal the eventual provider behind the first MX hop.
func (w *World) SPFRecord(d *Domain, st *Stint) string {
	h := hash64(d.Name + "/spf")
	switch st.Mode {
	case ModeExplicit, ModeHidden:
		p := w.Providers[st.Provider]
		if p.Company.Kind == companies.KindEmailSecurity {
			if h%100 >= 90 {
				return ""
			}
			rec := "v=spf1 include:_spf." + p.ID
			if mb := w.mailboxProvider(st); mb != nil {
				rec += " include:_spf." + mb.ID
			}
			return rec + " ~all"
		}
		if h%100 >= 85 {
			return ""
		}
		return "v=spf1 include:_spf." + p.ID + " ~all"
	case ModeSharedHosting:
		if h%100 >= 70 {
			return ""
		}
		return "v=spf1 include:_spf." + w.Providers[st.Provider].ID + " -all"
	case ModeSelfGood, ModeSelfSigned, ModeSelfJunk, ModeFalseClaim:
		if h%100 >= 60 {
			return ""
		}
		return fmt.Sprintf("v=spf1 a mx ip4:%s -all", d.OwnIP)
	case ModeVPS:
		if h%100 >= 60 {
			return ""
		}
		return fmt.Sprintf("v=spf1 ip4:%s -all", d.VPSIP)
	default:
		return ""
	}
}

// mailboxProvider picks the eventual mailbox provider behind a filtering
// service, or nil when the customer runs its own store.
func (w *World) mailboxProvider(st *Stint) *Provider {
	switch st.Variant % 10 {
	case 0, 1, 2, 3, 4:
		if p, ok := w.providerByID["google.com"]; ok {
			return p
		}
	case 5, 6, 7:
		if p, ok := w.providerByID["outlook.com"]; ok {
			return p
		}
	}
	return nil
}

func providerMX(p *Provider, hostIdx int, pref uint16) MXRec {
	rec := MXRec{
		Pref:  pref,
		Host:  p.MailHosts[hostIdx],
		Addrs: []netip.Addr{p.MailIPs[hostIdx%len(p.MailIPs)]},
	}
	if hostIdx < len(p.MailIPv6s) {
		rec.Addrs = append(rec.Addrs, p.MailIPv6s[hostIdx])
	}
	return rec
}
