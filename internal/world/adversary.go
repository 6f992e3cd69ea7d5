package world

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"strings"

	"mxmap/internal/asn"
	"mxmap/internal/companies"
	"mxmap/internal/dns"
)

// ScenarioFamily names one hostile or pathological scenario the
// adversarial layer can impose on a domain. The honest family is the
// implicit default for every domain the layer does not touch.
type ScenarioFamily string

// Scenario families.
const (
	// FamilyHonest marks domains untouched by the adversarial layer.
	FamilyHonest ScenarioFamily = "honest"
	// FamilyDanglingNX: the MX record points at a name whose registered
	// zone has lapsed entirely — A/AAAA lookups answer NXDOMAIN. This is
	// the classic takeover precondition.
	FamilyDanglingNX ScenarioFamily = "dangling-nx"
	// FamilyDanglingParked: the MX target's registered domain expired and
	// was re-registered by a parking service, so the exchange resolves —
	// but onto parking addresses where nothing ever answers port 25.
	FamilyDanglingParked ScenarioFamily = "dangling-parked"
	// FamilyHijack: the registry delegation still names the original
	// registrant's servers, but the glue is stale — the attacker serves
	// the zone, publishes MX records into relay infrastructure it runs,
	// and the relays claim a big provider's identity in their banners.
	FamilyHijack ScenarioFamily = "hijack"
	// FamilyLame: the domain is delegated but no server answers for the
	// zone — a lame delegation, definitively broken.
	FamilyLame ScenarioFamily = "lame"
	// FamilyAbuse: clusters of look-alike throwaway domains sharing one
	// cheap bulk-mail exchange — the spam-campaign signature.
	FamilyAbuse ScenarioFamily = "abuse"
	// FamilyBLBFO: backup-looks-better-failover topologies — priority
	// tiers, weight-skewed equal-preference sets, and domains served only
	// by a backup-MX provider (after Ruohonen's BLBFO taxonomy).
	FamilyBLBFO ScenarioFamily = "blbfo"
)

// BLBFO topology labels.
const (
	// TopologyTiered: three priority tiers, the last pointing at the
	// shared backup-MX relay.
	TopologyTiered = "tiered"
	// TopologySkewed: two equal-preference primaries (weight skew) plus a
	// lower-priority backup relay.
	TopologySkewed = "skewed"
	// TopologyBackupOnly: every MX record points at the backup-MX
	// provider; the "primary" never existed.
	TopologyBackupOnly = "backup-only"
)

// AdvSpec pins a domain's adversarial scenario.
type AdvSpec struct {
	// Family is the scenario family.
	Family ScenarioFamily
	// Cluster indexes the hijack or abuse cluster the domain belongs to.
	Cluster int
	// Topology is the BLBFO topology label for FamilyBLBFO.
	Topology string
}

// OracleEntry is the machine-readable per-domain ground truth the
// adversarial layer retains, consumed by the misidentification scorer.
type OracleEntry struct {
	// Domain is the measured registered domain.
	Domain string `json:"domain"`
	// Family is the scenario family (honest for untouched domains).
	Family ScenarioFamily `json:"family"`
	// Truth is the ground-truth operator bucket at the final snapshot:
	// a company name, the domain itself, or "" when no mail service (or
	// no trustworthy one) exists.
	Truth string `json:"truth,omitempty"`
	// Forged is the provider identity an attacker claims; crediting it
	// is the misidentification the scorer counts.
	Forged string `json:"forged,omitempty"`
	// ExpectFlagged marks domains a robust inference must surface as
	// low-trust rather than attribute at face value.
	ExpectFlagged bool `json:"expect_flagged,omitempty"`
	// Detail carries the family-specific sub-label (cluster zone, BLBFO
	// topology).
	Detail string `json:"detail,omitempty"`
}

// Adversarial infrastructure sizing.
const (
	numHijackClusters = 2
	numAbuseClusters  = 2
	numParkedZones    = 2
	numGoneZones      = 4
)

// HijackCluster is one stale-glue hijack operation: an attacker DNS
// zone serving forged answers for its victims, and relay hosts (in a
// lapsed zone, reachable only through leftover glue) that impersonate a
// big provider.
type HijackCluster struct {
	// RelayZone is the lapsed registered zone the relay hosts live in.
	RelayZone string
	// DNSZone is the attacker's registered nameserver zone; victims'
	// served apex NS points here while the registry delegation does not.
	DNSZone string
	// RelayHosts are the relay exchange names.
	RelayHosts []string
	// RelayAddrs are the relays' addresses (parallel to RelayHosts).
	RelayAddrs []netip.Addr
	// Forged is the provider identity the relays claim in their banners.
	Forged string
}

// AbuseCluster is one bulk-mail operation: a cheap shared exchange and
// the naming stem its look-alike member domains share.
type AbuseCluster struct {
	// Zone is the operator's registered zone.
	Zone string
	// Exchange is the shared MX exchange name.
	Exchange string
	// Stem is the shared look-alike naming stem of member domains.
	Stem string
	// Company is the operator's directory name.
	Company string
}

// abuseSuffix ends every look-alike member name.
const abuseSuffix = ".xyz"

// memberName is the look-alike name of the cluster's n-th member: the
// shared stem, then n zero-padded to width digits.
func (ac AbuseCluster) memberName(width, n int) string {
	var buf [48]byte
	b := append(buf[:0], ac.Stem...)
	b = append(b, '-')
	b = appendPadded(b, width, n)
	return string(append(b, abuseSuffix...))
}

// BackupRelayInfo is the shared backup-MX provider BLBFO topologies
// point their low-priority (or only) records at.
type BackupRelayInfo struct {
	// Zone is the provider's registered zone.
	Zone string
	// Hosts are the relay exchange names.
	Hosts []string
	// Company is the provider's directory name.
	Company string
}

// Adversary is the one definition of the hostile layer, shared by World
// and FlatWorld: the fixtures (zones, hosts, addresses, ASNs, directory
// entries) and, per family, the MX shape, the ground-truth operator and
// the oracle entry. A world decides only WHICH domains turn hostile and
// hands each one's AdvSpec to the methods below.
type Adversary struct {
	// ParkedIPs are the parking service's sinkhole addresses; port 25 is
	// closed forever.
	ParkedIPs []netip.Addr
	// ParkedZones are parking-operator zones that swallowed expired MX
	// target domains (dangling-parked family).
	ParkedZones []string
	// GoneZones are lapsed zones dangling-nx MX targets point into;
	// nothing serves them and the registry has dropped them.
	GoneZones []string
	// HijackClusters are the stale-glue hijack operations.
	HijackClusters []HijackCluster
	// AbuseClusters are the bulk-mail operations.
	AbuseClusters []AbuseCluster
	// BackupRelay is the shared backup-MX provider.
	BackupRelay BackupRelayInfo

	// hosts is every name of the layer — the exchanges its MX records
	// point at and the attackers' nameservers — in zone order. Catalog
	// zones, the registry view, leftover glue and the flat resolver's
	// answers are all read off this one table.
	hosts []advHost
	// prefixes is the address space the layer announces.
	prefixes []netip.Prefix
}

// advHost is one row of the adversary's host table.
type advHost struct {
	zone, host string
	// addr is what host resolves to; invalid when it no longer resolves.
	addr netip.Addr
	// lapsed marks a zone the registry dropped: nothing serves it, and
	// the host resolves only through leftover glue, if any.
	lapsed bool
}

// advCycle spreads selected domains over families round-robin; hijack
// and abuse appear twice so their clusters gather enough members to
// exercise the cluster-level inference rules.
var advCycle = []ScenarioFamily{
	FamilyDanglingNX, FamilyDanglingParked, FamilyHijack, FamilyLame,
	FamilyAbuse, FamilyBLBFO, FamilyHijack, FamilyAbuse,
}

// abuseStems are the look-alike naming stems, one per abuse cluster.
var abuseStems = []string{"bargain-pharma-dealz", "prize-claim-rewardz"}

// blbfoTopologies cycles over the Ruohonen failover shapes.
var blbfoTopologies = []string{TopologyTiered, TopologySkewed, TopologyBackupOnly}

// HasAdversarial reports whether the world carries an adversarial layer.
func (w *World) HasAdversarial() bool { return w.Adversary != nil }

// ParkedAddr reports whether addr belongs to a known domain-parking
// service — the external parking-IP feed the collector consults.
func (w *World) ParkedAddr(addr netip.Addr) bool { return w.Adversary.Parked(addr) }

// Parked reports whether addr is one of the parking sinkholes. Safe on
// a nil Adversary (always false), so honest worlds wire it as well.
func (a *Adversary) Parked(addr netip.Addr) bool {
	return a != nil && slices.Contains(a.ParkedIPs, addr)
}

// newAdversary creates the hostile shared infrastructure in a world's
// registries: address space and AS announcements, directory entries for
// the operators that legitimately exist, and — through addHost — what
// listens on each address (spec nil: port 25 closed). It consumes no
// randomness, issues no certificate and starts no server. To add a
// family, add its fixtures here and an arm to newAdvSpec, mxRecords,
// truth and OracleEntry; both worlds pick it up from there.
func newAdversary(reg *asn.Registry, prefixes *asn.Table, dir *companies.Directory,
	addHost func(netip.Addr, asn.ASN, *SMTPSpec)) (*Adversary, error) {
	a := &Adversary{}
	announce := func(as asn.AS, net24 [4]byte) error {
		as.CountryCode = "US"
		reg.Register(as)
		prefix := netip.PrefixFrom(netip.AddrFrom4(net24), 24)
		a.prefixes = append(a.prefixes, prefix)
		return prefixes.Insert(prefix, as.Number)
	}

	// Parking service: a /24 of sinkhole addresses, port 25 closed.
	parkASN := asn.ASN(64990)
	if err := announce(asn.AS{Number: parkASN, Name: "ParkZone", Org: "ParkZone Holdings"},
		[4]byte{100, 126, 0, 0}); err != nil {
		return nil, err
	}
	for k := 0; k < numParkedZones; k++ {
		addr := netip.AddrFrom4([4]byte{100, 126, 0, byte(1 + k)})
		zone := fmt.Sprintf("parked-claims%02d.net", k)
		a.ParkedIPs = append(a.ParkedIPs, addr)
		a.ParkedZones = append(a.ParkedZones, zone)
		addHost(addr, parkASN, nil)
		a.hosts = append(a.hosts, advHost{zone: zone, host: "mx." + zone, addr: addr})
	}
	for k := 0; k < numGoneZones; k++ {
		zone := fmt.Sprintf("gone-mail%02d.net", k)
		a.GoneZones = append(a.GoneZones, zone)
		a.hosts = append(a.hosts, advHost{zone: zone, host: "mx." + zone, lapsed: true})
	}

	// Hijack clusters: relays in lapsed zones, reachable via stale glue,
	// claiming a big provider's identity with no certificate to back it.
	for k := 0; k < numHijackClusters; k++ {
		hjASN := asn.ASN(64991 + k)
		if err := announce(asn.AS{Number: hjASN, Name: fmt.Sprintf("BPH-%d", k),
			Org: fmt.Sprintf("Bulletproof Hosting %d", k)}, [4]byte{100, 125, byte(k), 0}); err != nil {
			return nil, err
		}
		hc := HijackCluster{
			RelayZone: fmt.Sprintf("hijack%02d-relay.net", k),
			DNSZone:   fmt.Sprintf("hijack%02d-dns.net", k),
			Forged:    "Google",
		}
		for i := 0; i < 2; i++ {
			host := fmt.Sprintf("mx%d.%s", i+1, hc.RelayZone)
			addr := netip.AddrFrom4([4]byte{100, 125, byte(k), byte(1 + i)})
			hc.RelayHosts = append(hc.RelayHosts, host)
			hc.RelayAddrs = append(hc.RelayAddrs, addr)
			addHost(addr, hjASN, &SMTPSpec{
				Hostname: host,
				Banner:   "mx.google.com ESMTP gsmtp",
				EHLOName: "mx.google.com",
			})
			a.hosts = append(a.hosts, advHost{zone: hc.RelayZone, host: host, addr: addr, lapsed: true})
		}
		// The attacker's nameserver zone is registered, and served off
		// the first relay.
		a.hosts = append(a.hosts, advHost{zone: hc.DNSZone, host: "ns1." + hc.DNSZone, addr: hc.RelayAddrs[0]})
		a.HijackClusters = append(a.HijackClusters, hc)
	}

	// Abuse clusters: one cheap exchange each, registered to a bulk-mail
	// shell company so attribution has a name to land on.
	for k := 0; k < numAbuseClusters; k++ {
		abASN := asn.ASN(64994 + k)
		company := fmt.Sprintf("Bulk Blast Mail %02d", k)
		if err := announce(asn.AS{Number: abASN, Name: fmt.Sprintf("BULK-%d", k), Org: company},
			[4]byte{100, 124, byte(k), 0}); err != nil {
			return nil, err
		}
		ac := AbuseCluster{
			Zone:    fmt.Sprintf("bulk%02d-mail.xyz", k),
			Stem:    abuseStems[k%len(abuseStems)],
			Company: company,
		}
		ac.Exchange = "mx." + ac.Zone
		addr := netip.AddrFrom4([4]byte{100, 124, byte(k), 1})
		addHost(addr, abASN, &SMTPSpec{Hostname: ac.Exchange})
		a.hosts = append(a.hosts, advHost{zone: ac.Zone, host: ac.Exchange, addr: addr})
		dir.Register(companies.Company{
			Name: company, Kind: companies.KindOther, Country: "US",
			ProviderIDs: []string{ac.Zone}, ASNs: []asn.ASN{abASN},
		})
		a.AbuseClusters = append(a.AbuseClusters, ac)
	}

	// Backup-MX relay: a legitimate (if bare-bones) store-and-forward
	// provider the BLBFO topologies share.
	brASN := asn.ASN(64997)
	br := BackupRelayInfo{Zone: "backup-relay-mail.net", Company: "Backup MX Relay"}
	if err := announce(asn.AS{Number: brASN, Name: "BACKUPMX", Org: br.Company},
		[4]byte{100, 123, 0, 0}); err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		host := fmt.Sprintf("mx%d.%s", i+1, br.Zone)
		addr := netip.AddrFrom4([4]byte{100, 123, 0, byte(1 + i)})
		br.Hosts = append(br.Hosts, host)
		addHost(addr, brASN, &SMTPSpec{Hostname: host})
		a.hosts = append(a.hosts, advHost{zone: br.Zone, host: host, addr: addr})
	}
	dir.Register(companies.Company{
		Name: br.Company, Kind: companies.KindOther, Country: "US",
		ProviderIDs: []string{br.Zone}, ASNs: []asn.ASN{brASN},
	})
	a.BackupRelay = br
	return a, nil
}

// registerAccessISPs announces the access-ISP plan self-hosted mail
// servers live in: block k is 100.(64+k)/16 out of 100.64/10, origin
// AS 65000+k. The adversary's fixtures sit in the top of the same /10,
// so a plan that reaches them is refused: it would hand honest domains
// the relay, sinkhole and bulk addresses.
func registerAccessISPs(reg *asn.Registry, prefixes *asn.Table, blocks int, adv *Adversary) error {
	for k := 0; k < blocks; k++ {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(64 + k), 0, 0}), 16)
		if adv != nil {
			for _, p := range adv.prefixes {
				if prefix.Overlaps(p) {
					return fmt.Errorf("world: access ISP block %d (%s) overlaps the adversary's %s; a hostile world holds at most %d blocks", k, prefix, p, k)
				}
			}
		}
		a := asn.ASN(65000 + k)
		reg.Register(asn.AS{
			Number: a, Name: fmt.Sprintf("ISP-%d", k),
			Org: fmt.Sprintf("Access ISP %d", k), CountryCode: "US",
		})
		if err := prefixes.Insert(prefix, a); err != nil {
			return err
		}
	}
	return nil
}

// newAdvSpec places the n-th member of a family: hijack and abuse
// members round-robin over their clusters, BLBFO members over the
// failover shapes.
func newAdvSpec(fam ScenarioFamily, n int) AdvSpec {
	spec := AdvSpec{Family: fam}
	switch fam {
	case FamilyHijack:
		spec.Cluster = n % numHijackClusters
	case FamilyAbuse:
		spec.Cluster = n % numAbuseClusters
	case FamilyBLBFO:
		spec.Topology = blbfoTopologies[n%len(blbfoTopologies)]
	}
	return spec
}

// applyAdversarial rewrites the final stint of a deterministic sample of
// corpus domains into adversarial scenarios. It runs after assignment
// closes and before hosts materialize; its randomness is a private
// stream, so honest worlds (Adversarial == 0) are untouched.
func (w *World) applyAdversarial(c *Corpus) {
	n := int(w.Cfg.Adversarial * float64(len(c.Domains)))
	if n <= 0 {
		return
	}
	if n > len(c.Domains) {
		n = len(c.Domains)
	}
	rng := rand.New(rand.NewPCG(w.Cfg.Seed, hash64(c.Name+"/adversarial")))
	perm := rng.Perm(len(c.Domains))
	last := len(c.Dates) - 1
	counts := make(map[ScenarioFamily]int)
	for k := 0; k < n; k++ {
		d := c.Domains[perm[k]]
		fam := advCycle[k%len(advCycle)]
		spec := newAdvSpec(fam, counts[fam])
		if fam == FamilyAbuse {
			w.renameAbuseDomain(d, spec.Cluster, counts[fam])
		}
		counts[fam]++
		d.Adv = &spec
		w.rewriteFinalStint(d, &spec, last, rng)
	}
}

// renameAbuseDomain gives an abuse-cluster member its look-alike name.
func (w *World) renameAbuseDomain(d *Domain, cluster, member int) {
	ac := w.Adversary.AbuseClusters[cluster]
	for {
		name := ac.memberName(3, member)
		if !w.usedNames[name] {
			w.usedNames[name] = true
			d.Name = name
			d.Country = ""
			return
		}
		member += numAbuseClusters
	}
}

// rewriteFinalStint turns the domain's last snapshot into the
// adversarial scenario, splitting the closing stint when it spans
// earlier (still honest) snapshots.
func (w *World) rewriteFinalStint(d *Domain, spec *AdvSpec, last int, rng *rand.Rand) {
	st := &d.Stints[len(d.Stints)-1]
	if st.From < last {
		st.To = last - 1
		d.Stints = append(d.Stints, Stint{
			From: last, To: last,
			Provider: st.Provider,
			Variant:  rng.Uint32(),
		})
		st = &d.Stints[len(d.Stints)-1]
	} else {
		st.Variant = rng.Uint32()
	}
	st.Mode = ModeAdversarial
	if spec.Family == FamilyBLBFO && st.Provider < 0 {
		// BLBFO needs a real primary provider; pick one deterministically.
		st.Provider = int(st.Variant) % len(w.Providers)
	}
}

// advPrimary returns the MX hosts and company name of an adversarial
// stint's primary provider — what the BLBFO arms of mxRecords and truth
// build on; empty for a stint that never had one.
func (w *World) advPrimary(st *Stint) (hosts []string, company string) {
	if st.Provider < 0 {
		return nil, ""
	}
	p := w.Providers[st.Provider]
	return p.MailHosts, p.Company.Name
}

// truth is the ground-truth operator bucket of a hostile domain;
// primary is the company behind its BLBFO primary tier.
func (a *Adversary) truth(spec AdvSpec, primary string) string {
	switch spec.Family {
	case FamilyHijack:
		// The registrant lost control; mail flows to the attacker's
		// relay zone. No legitimate operator exists to credit.
		return a.HijackClusters[spec.Cluster].RelayZone
	case FamilyAbuse:
		return a.AbuseClusters[spec.Cluster].Company
	case FamilyBLBFO:
		if spec.Topology == TopologyBackupOnly {
			return a.BackupRelay.Company
		}
		return primary
	default:
		// Dangling, parked, lame: the mail service is gone.
		return ""
	}
}

// mxRecords derives the MX set of a hostile domain from its scenario, a
// per-domain variant and the MX hosts of its primary provider (BLBFO
// only). Addrs stay empty: no exchange here is in the domain's own zone.
func (a *Adversary) mxRecords(spec AdvSpec, variant uint64, primary []string) []MXRec {
	switch spec.Family {
	case FamilyDanglingNX:
		return []MXRec{{Pref: 10, Host: "mx." + a.GoneZones[variant%uint64(len(a.GoneZones))]}}
	case FamilyDanglingParked:
		return []MXRec{{Pref: 10, Host: "mx." + a.ParkedZones[variant%uint64(len(a.ParkedZones))]}}
	case FamilyHijack:
		hc := a.HijackClusters[spec.Cluster]
		recs := []MXRec{{Pref: 10, Host: hc.RelayHosts[0]}}
		if variant%2 == 0 {
			recs = append(recs, MXRec{Pref: 20, Host: hc.RelayHosts[1]})
		}
		return recs
	case FamilyLame:
		// The zone is never served; no records are reachable anyway.
		return nil
	case FamilyAbuse:
		return []MXRec{{Pref: 10, Host: a.AbuseClusters[spec.Cluster].Exchange}}
	case FamilyBLBFO:
		br := a.BackupRelay
		first, second := primary[0], primary[1%len(primary)]
		switch spec.Topology {
		case TopologyTiered:
			return []MXRec{{Pref: 10, Host: first}, {Pref: 20, Host: second}, {Pref: 30, Host: br.Hosts[0]}}
		case TopologySkewed:
			return []MXRec{{Pref: 10, Host: first}, {Pref: 10, Host: second}, {Pref: 20, Host: br.Hosts[1]}}
		default: // backup-only: no primary of its own at all
			return []MXRec{{Pref: 10, Host: br.Hosts[0]}, {Pref: 20, Host: br.Hosts[1]}}
		}
	}
	return nil
}

// OracleEntry is the machine-readable ground truth of one domain: spec
// is its scenario (Family honest for an untouched domain, on which a
// may be nil) and truth its operator bucket.
func (a *Adversary) OracleEntry(domain string, spec AdvSpec, truth string) OracleEntry {
	e := OracleEntry{Domain: domain, Family: spec.Family, Truth: truth}
	switch spec.Family {
	case FamilyDanglingNX, FamilyDanglingParked:
		e.ExpectFlagged = true
	case FamilyHijack:
		hc := a.HijackClusters[spec.Cluster]
		e.ExpectFlagged = true
		e.Forged = hc.Forged
		e.Detail = hc.RelayZone
	case FamilyAbuse:
		e.ExpectFlagged = true
		e.Detail = a.AbuseClusters[spec.Cluster].Zone
	case FamilyBLBFO:
		e.Detail = spec.Topology
	}
	return e
}

// Oracle returns the per-domain ground truth of a corpus at its final
// snapshot, one entry per domain, honest domains included (they anchor
// the scorer's baseline).
func (w *World) Oracle(corpusName string) []OracleEntry {
	c := w.Corpus(corpusName)
	if c == nil {
		return nil
	}
	last := len(c.Dates) - 1
	out := make([]OracleEntry, 0, len(c.Domains))
	for _, d := range c.Domains {
		spec := AdvSpec{Family: FamilyHonest}
		if d.Adv != nil {
			spec = *d.Adv
		}
		out = append(out, w.Adversary.OracleEntry(d.Name, spec, w.TruthCompany(d, last)))
	}
	return out
}

// lookup returns the addresses of one of the layer's own hosts, served
// or leftover glue alike; nil for any other name.
func (a *Adversary) lookup(host string) []netip.Addr {
	var addrs []netip.Addr
	for _, h := range a.hosts {
		if h.host == host && h.addr.IsValid() {
			addrs = append(addrs, h.addr)
		}
	}
	return addrs
}

// zoneLapsed reports whether host sits in namespace the layer's story
// has the registry drop: a gone zone or a hijack relay zone.
func (a *Adversary) zoneLapsed(host string) bool {
	h := strings.TrimSuffix(host, ".")
	for _, r := range a.hosts {
		if cut := len(h) - len(r.zone); r.lapsed && strings.HasSuffix(h, r.zone) && (cut == 0 || h[cut-1] == '.') {
			return true
		}
	}
	return false
}

// ScenarioResolver layers a registry-side view of the namespace over a
// catalog: it knows which zones are registered, what the parent-side
// delegation says, which delegations are lame, and which lapsed names
// still resolve through leftover glue. It implements dns.Resolver,
// dns.TXTResolver and dns.ProvenanceChecker.
type ScenarioResolver struct {
	inner dns.CatalogResolver
	// registered holds every zone the registry still delegates.
	registered map[string]bool
	// apexNS is the parent-side NS host per registered zone, frozen at
	// delegation time.
	apexNS map[string]string
	// lame marks registered zones no server answers for.
	lame map[string]bool
	// glue maps lapsed-zone hosts to the addresses their leftover glue
	// still resolves to.
	glue map[string][]netip.Addr
}

// ScenarioResolverAt builds the date's resolver: the catalog for
// serving-side answers plus the registry view derived from the world.
func (w *World) ScenarioResolverAt(catalog *dns.Catalog, date string) *ScenarioResolver {
	sr := &ScenarioResolver{
		inner:      dns.CatalogResolver{Catalog: catalog},
		registered: make(map[string]bool),
		apexNS:     make(map[string]string),
		lame:       make(map[string]bool),
		glue:       make(map[string][]netip.Addr),
	}
	register := func(zone string) {
		sr.registered[zone] = true
		sr.apexNS[zone] = "ns1." + zone
	}
	for _, id := range w.sortedProviderIDs() {
		register(id)
	}
	for _, c := range w.Corpora {
		idx := c.DateIndex(date)
		for _, d := range c.Domains {
			register(d.Name)
			if idx < 0 || d.Adv == nil {
				continue
			}
			if st := d.StintAt(idx); st != nil && st.Mode == ModeAdversarial && d.Adv.Family == FamilyLame {
				sr.lame[d.Name] = true
			}
		}
	}
	if a := w.Adversary; a != nil {
		for _, h := range a.hosts {
			switch {
			case !h.lapsed:
				register(h.zone)
			case h.addr.IsValid():
				// A lapsed zone is NOT registered, but its old glue records
				// still resolve its hosts.
				sr.glue[h.host] = append(sr.glue[h.host], h.addr)
			}
		}
	}
	return sr
}

// enclosingZone walks name's suffixes to the closest registered zone.
func (sr *ScenarioResolver) enclosingZone(name string) (string, bool) {
	n := strings.ToLower(dns.TrimmedName(name))
	for n != "" {
		if sr.registered[n] {
			return n, true
		}
		_, rest, ok := strings.Cut(n, ".")
		if !ok {
			break
		}
		n = rest
	}
	return "", false
}

// gate applies the registry view before a catalog query: names outside
// any registered zone do not exist; names in lame zones fail with
// ErrLame.
func (sr *ScenarioResolver) gate(name string) error {
	zone, ok := sr.enclosingZone(name)
	if !ok {
		return fmt.Errorf("%w: %s", dns.ErrNXDomain, name)
	}
	if sr.lame[zone] {
		return fmt.Errorf("%w: %s", dns.ErrLame, zone)
	}
	return nil
}

// LookupMX implements dns.Resolver.
func (sr *ScenarioResolver) LookupMX(ctx context.Context, domain string) ([]dns.MXData, error) {
	if err := sr.gate(domain); err != nil {
		return nil, err
	}
	return sr.inner.LookupMX(ctx, domain)
}

// LookupA implements dns.Resolver.
func (sr *ScenarioResolver) LookupA(ctx context.Context, host string) ([]netip.Addr, error) {
	if addrs, ok := sr.glue[strings.ToLower(dns.TrimmedName(host))]; ok {
		return append([]netip.Addr(nil), addrs...), nil
	}
	if err := sr.gate(host); err != nil {
		return nil, err
	}
	return sr.inner.LookupA(ctx, host)
}

// LookupAAAA implements dns.Resolver.
func (sr *ScenarioResolver) LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error) {
	if _, ok := sr.glue[strings.ToLower(dns.TrimmedName(host))]; ok {
		// Glue is IPv4-only in this world.
		return nil, fmt.Errorf("%w: AAAA for %s", dns.ErrNoData, host)
	}
	if err := sr.gate(host); err != nil {
		return nil, err
	}
	return sr.inner.LookupAAAA(ctx, host)
}

// LookupTXT implements dns.TXTResolver.
func (sr *ScenarioResolver) LookupTXT(ctx context.Context, domain string) ([]string, error) {
	if err := sr.gate(domain); err != nil {
		return nil, err
	}
	return sr.inner.LookupTXT(ctx, domain)
}

// DelegationStale implements dns.ProvenanceChecker: it compares the
// parent-side NS host against the apex NS set the serving zone answers
// with; any served NS the registry does not know about means the
// delegation's control has drifted — the stale-glue hijack signature.
func (sr *ScenarioResolver) DelegationStale(ctx context.Context, domain string) bool {
	if ctx.Err() != nil {
		return false
	}
	name := strings.ToLower(dns.TrimmedName(domain))
	want, ok := sr.apexNS[name]
	if !ok {
		return false
	}
	resp := sr.inner.Catalog.Resolve(dns.Question{
		Name: dns.CanonicalName(name), Type: dns.TypeNS, Class: dns.ClassIN,
	})
	if resp.Header.RCode != dns.RCodeSuccess {
		return false
	}
	for _, rr := range resp.Answers {
		if ns, isNS := rr.Data.(dns.NSData); isNS {
			if !strings.EqualFold(dns.TrimmedName(ns.Host), want) {
				return true
			}
		}
	}
	return false
}

// ZoneGone implements dns.ProvenanceChecker: a host with no enclosing
// registered zone sits in lapsed namespace; whatever it still resolves
// to is leftover glue.
func (sr *ScenarioResolver) ZoneGone(_ context.Context, host string) bool {
	_, ok := sr.enclosingZone(host)
	return !ok
}
