// Package world generates the synthetic Internet that stands in for the
// paper's measurement subjects: a roster of mail-service companies
// (mail hosts, e-mail security services, web hosts) with simulated server
// fleets, AS numbers and address space; three domain corpora (a stable
// Alexa-like list, random .com registrations, and .gov); and a
// longitudinal assignment of every domain to a provider across nine
// semi-annual snapshots, calibrated so that the reproduced figures have
// the paper's published shape.
//
// The generator retains ground truth (which company really operates every
// endpoint), which is what the accuracy evaluation in Section 3.3 needs
// in place of the authors' manual labelling.
//
// All randomness derives from Config.Seed; generation is deterministic.
package world

import (
	"fmt"
	"math/rand/v2"
	"net/netip"

	"mxmap/internal/asn"
	"mxmap/internal/certs"
	"mxmap/internal/companies"
)

// Snapshot date labels used across the study.
var (
	// AllDates are the nine semi-annual snapshots of the Alexa and .com
	// corpora.
	AllDates = []string{
		"2017-06", "2017-12", "2018-06", "2018-12", "2019-06",
		"2019-12", "2020-06", "2020-12", "2021-06",
	}
	// GovDates are the seven snapshots of the .gov corpus (OpenINTEL
	// coverage of .gov starts in 2018).
	GovDates = AllDates[2:]
)

// Corpus names.
const (
	CorpusAlexa = "alexa"
	CorpusCOM   = "com"
	CorpusGOV   = "gov"
)

// Paper-scale corpus sizes (Section 4.1).
const (
	paperAlexaSize = 93538
	paperCOMSize   = 580537
	paperGOVSize   = 3496
)

// Mode captures how a domain's mail service is concretely provisioned —
// which MX idiom it uses and which corner case (if any) it embodies.
type Mode uint8

// Modes.
const (
	// ModeExplicit names the provider in the MX record (netflix.com
	// style).
	ModeExplicit Mode = iota
	// ModeHidden uses a customer-named MX that resolves into the
	// provider's address space (gsipartners.com style).
	ModeHidden
	// ModeSharedHosting uses a customer-named mx.<domain> record
	// pointing at a web host's shared mail servers.
	ModeSharedHosting
	// ModeVPS is self-hosting on a rented VPS whose certificate and
	// banner carry the hosting company's subdomain (the myvps.com case).
	// Ground truth: the domain itself.
	ModeVPS
	// ModeSelfGood is self-hosting with a browser-trusted certificate
	// under the domain's own name.
	ModeSelfGood
	// ModeSelfSigned is self-hosting with a self-signed certificate.
	ModeSelfSigned
	// ModeSelfJunk is self-hosting with no TLS and a non-FQDN banner
	// ("ip-1-2-3-4" style).
	ModeSelfJunk
	// ModeFalseClaim is self-hosting while claiming a big provider's
	// identity in Banner/EHLO (the impersonation corner case).
	ModeFalseClaim
	// ModeNoSMTP points MX at web-hosting infrastructure that runs no
	// SMTP service (the jeniustoto.net case).
	ModeNoSMTP
	// ModeNoMXIP has an MX record whose exchange never resolves.
	ModeNoMXIP
	// ModeAdversarial marks a stint driven by the adversarial scenario
	// layer; the concrete behavior comes from the domain's AdvSpec.
	ModeAdversarial
	numModes
)

var modeNames = [...]string{
	"explicit", "hidden", "shared-hosting", "vps", "self-good",
	"self-signed", "self-junk", "false-claim", "no-smtp", "no-mx-ip",
	"adversarial",
}

// String names the mode.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// SelfHosted reports whether ground truth for the mode is the domain
// itself rather than a provider company.
func (m Mode) SelfHosted() bool {
	switch m {
	case ModeVPS, ModeSelfGood, ModeSelfSigned, ModeSelfJunk, ModeFalseClaim:
		return true
	}
	return false
}

// Config parameterizes world generation.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Scale multiplies the paper's corpus sizes (default 0.05). Scale 1.0
	// reproduces full corpus sizes at a significant memory cost.
	Scale float64
	// TailProviders is the number of long-tail small providers competing
	// for the residual market (default 150).
	TailProviders int
	// SelfISPs is the number of access ISPs hosting self-run mail
	// servers (default 40; at most 59 beside an adversarial layer, whose
	// fixtures take the address blocks above).
	SelfISPs int
	// EnableIPv6 gives large mail hosts dual-stack server fleets (AAAA
	// records alongside A). The paper's method is IPv4-only; this knob
	// exercises its stated future-work extension.
	EnableIPv6 bool
	// Adversarial is the fraction of each corpus (0..1) turned into
	// hostile scenario families at the final snapshot: dangling MX,
	// parked exchanges, stale-glue hijacks, lame delegations, abuse
	// clusters and BLBFO failover topologies. 0 (the default) disables
	// the layer entirely — honest worlds are byte-identical to worlds
	// generated before it existed.
	Adversarial float64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.TailProviders == 0 {
		c.TailProviders = 150
	}
	if c.SelfISPs == 0 {
		c.SelfISPs = 40
	}
	return c
}

// Provider is one mail-operating company with concrete simulated
// infrastructure.
type Provider struct {
	// Company links to the directory entry (name, kind, country, IDs).
	Company *companies.Company
	// ID is the primary provider ID (a registered domain).
	ID string
	// MailHosts are the provider-operated shared MX host names,
	// resolving round-robin onto MailIPs.
	MailHosts []string
	// MailIPs are the provider's inbound mail server addresses.
	MailIPs []netip.Addr
	// MailIPv6s are the servers' IPv6 twins (parallel to MailIPs) when
	// the world is generated dual-stack; empty otherwise.
	MailIPv6s []netip.Addr
	// SharedIPs are shared-hosting mail servers (web hosts only) that
	// customer-named MX records point at.
	SharedIPs []netip.Addr
	// WebFrontIPs are web-hosting frontends with no SMTP service; MX
	// records occasionally point at them (the jeniustoto.net case).
	WebFrontIPs []netip.Addr
	// CloudPrefix, when valid, is address space the company rents out
	// (VPS ranges, web-hosting frontends).
	CloudPrefix netip.Prefix
	// ASN is the provider's primary autonomous system.
	ASN asn.ASN

	// index within World.Providers.
	index int
	// cloudNext allocates addresses out of CloudPrefix.
	cloudNext uint32
}

// Host is one simulated network endpoint.
type Host struct {
	// Addr is the endpoint's address.
	Addr netip.Addr
	// ASN is the origin AS announcing the address.
	ASN asn.ASN
	// SMTP describes the mail service; nil means port 25 is closed.
	SMTP *SMTPSpec
	// CensysMode controls scanning-service coverage of this address.
	CensysMode CensysMode
}

// SMTPSpec configures the SMTP service on a host.
type SMTPSpec struct {
	// Hostname is the identity used in banner and EHLO by default.
	Hostname string
	// Banner overrides the banner identity (e.g. "ip-1-2-3-4").
	Banner string
	// EHLOName overrides the EHLO identity.
	EHLOName string
	// Leaf is the STARTTLS certificate; nil disables STARTTLS.
	Leaf *certs.Leaf
}

// CensysMode controls simulated scan coverage.
type CensysMode uint8

// Censys coverage modes.
const (
	// CensysAlways: the scanning service covers this address in every
	// snapshot.
	CensysAlways CensysMode = iota
	// CensysNever: the address is a permanent blind spot (opt-out,
	// blocking).
	CensysNever
	// CensysIntermittent: covered only in even-numbered snapshots — the
	// EIG quirk the paper reports.
	CensysIntermittent
)

// CoveredAt reports coverage for the snapshot index.
func (c CensysMode) CoveredAt(dateIdx int) bool {
	switch c {
	case CensysAlways:
		return true
	case CensysIntermittent:
		return dateIdx%2 == 0
	default:
		return false
	}
}

// Stint is one contiguous run of snapshots during which a domain keeps
// the same provider and provisioning mode.
type Stint struct {
	// From and To are inclusive snapshot indexes (corpus-relative).
	From, To int
	// Provider indexes World.Providers; -1 means self-hosted.
	Provider int
	// Mode is the provisioning idiom for the stint.
	Mode Mode
	// Variant seeds deterministic per-stint choices (which provider
	// servers, how many MX records).
	Variant uint32
}

// Domain is one measured registered domain.
type Domain struct {
	// Name is the registered domain.
	Name string
	// Rank is the Alexa rank (1-based); 0 elsewhere.
	Rank int
	// Country is the ccTLD-derived country code, "" for gTLDs.
	Country string
	// Federal marks US federal .gov domains.
	Federal bool
	// Stints is the provider timeline covering every snapshot index.
	Stints []Stint
	// OwnIP is the address used when the domain self-hosts (allocated
	// lazily; invalid when never used).
	OwnIP netip.Addr
	// VPSIP is the address of the domain's rented VPS when ModeVPS ever
	// applies.
	VPSIP netip.Addr
	// WebIP is a web-hosting address used by ModeNoSMTP.
	WebIP netip.Addr
	// Adv is the domain's adversarial scenario, nil for honest domains.
	Adv *AdvSpec
}

// StintAt returns the stint covering the snapshot index.
func (d *Domain) StintAt(dateIdx int) *Stint {
	for i := range d.Stints {
		if d.Stints[i].From <= dateIdx && dateIdx <= d.Stints[i].To {
			return &d.Stints[i]
		}
	}
	return nil
}

// Corpus is one domain list with its snapshot dates.
type Corpus struct {
	// Name is CorpusAlexa, CorpusCOM or CorpusGOV.
	Name string
	// Dates are the snapshot labels measured for this corpus.
	Dates []string
	// Domains holds the corpus members.
	Domains []*Domain
}

// World is a fully generated synthetic Internet.
type World struct {
	// Cfg echoes the effective generation parameters.
	Cfg Config
	// CA signs all browser-trusted certificates in the world.
	CA *certs.CA
	// Trust is the browser root program.
	Trust *certs.TrustStore
	// Prefixes is the prefix-to-AS table.
	Prefixes *asn.Table
	// ASRegistry describes every AS.
	ASRegistry *asn.Registry
	// Directory maps provider IDs to companies, covering both the
	// curated roster and generated tail providers.
	Directory *companies.Directory
	// Providers is the full provider roster (curated + tail).
	Providers []*Provider
	// Hosts indexes every endpoint by address.
	Hosts map[netip.Addr]*Host
	// Corpora indexes the three corpora by name.
	Corpora map[string]*Corpus
	// Adversary holds the hostile shared infrastructure (attacker
	// relays, bulk-mail exchanges, parking addresses); nil unless
	// Cfg.Adversarial > 0.
	Adversary *Adversary

	providerByID map[string]*Provider
	rng          *rand.Rand
	// leaves queues the certificates Generate draws; it makes them all
	// before it returns.
	leaves leafBatch
	// selfNext sequences dedicated self-hosted server addresses across
	// all corpora so they never collide.
	selfNext uint32
	// usedNames keeps corpus domain names globally unique.
	usedNames map[string]bool
}

// Corpus returns the named corpus.
func (w *World) Corpus(name string) *Corpus { return w.Corpora[name] }

// Host returns the endpoint at addr, if any.
func (w *World) Host(addr netip.Addr) (*Host, bool) {
	h, ok := w.Hosts[addr]
	return h, ok
}

// TruthCompany returns the ground-truth operator for a domain at a
// snapshot: the provider's company name, or the domain itself when
// self-hosted (including VPS self-hosting), or "" when the domain's MX
// leads to no mail service at all.
func (w *World) TruthCompany(d *Domain, dateIdx int) string {
	st := d.StintAt(dateIdx)
	if st == nil {
		return ""
	}
	if st.Mode == ModeNoSMTP || st.Mode == ModeNoMXIP {
		return ""
	}
	if st.Mode == ModeAdversarial {
		_, company := w.advPrimary(st)
		return w.Adversary.truth(*d.Adv, company)
	}
	if st.Provider < 0 || st.Mode.SelfHosted() {
		return d.Name
	}
	return w.Providers[st.Provider].Company.Name
}
