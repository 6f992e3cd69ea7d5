package world

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"mxmap/internal/asn"
	"mxmap/internal/certs"
	"mxmap/internal/companies"
	"mxmap/internal/dns"
	"mxmap/internal/netsim"
	"mxmap/internal/smtp"
)

// FlatConfig parameterizes a FlatWorld.
type FlatConfig struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// NumDomains is the corpus size. Unlike Config.Scale there is no
	// cap: tens of millions of domains cost no more memory than ten.
	NumDomains int
	// Corpus selects the share table (default CorpusCOM, the corpus the
	// paper measures at half-million scale).
	Corpus string
	// AdversarialPercent turns this share of the corpus hostile, split
	// evenly across the six scenario families (percent; 0 disables and
	// keeps honest worlds exactly as before). The adversary's fixtures
	// take the top of the self-hosting address range, so a hostile world
	// holds at most 59<<16 domains.
	AdversarialPercent float64
}

// noMXPercent is the flat world's share of domains with no MX record at
// all (the resolver answers NoData, the paper's "no mail service"
// case).
const noMXPercent = 2.0

// flatTailProviders is the number of synthetic long-tail providers
// splitting a flat world's residual market.
const flatTailProviders = 40

// flatProvider is one mail company in a flat world: a couple of MX
// hosts, a handful of addresses, one certificate.
type flatProvider struct {
	company string
	id      string
	asn     asn.ASN
	// hosts are the MX exchange names; addrs[i] are host i's addresses.
	hosts []string
	addrs [][]netip.Addr
	// leaf is the STARTTLS certificate covering all hosts; nil means
	// banner-only servers.
	leaf *certs.Leaf
	// threshold is the cumulative assignment bound: a domain with
	// assignment draw u < threshold belongs to the first provider whose
	// threshold exceeds u.
	threshold float64
}

// FlatWorld is the million-domain counterpart of World: domains are a
// pure function of their index — name, provider assignment, addresses
// are all computed on demand — so corpus size costs no memory. The
// trade is depth for scale: one snapshot date, no stint timelines, no
// per-domain corner-case modes beyond self-hosting, provider shares
// taken from the paper's final-snapshot calibration.
//
// It plugs into the same measurement stack as World: Resolver answers
// MX/A/AAAA with dns semantics, Dialer serves a real SMTP conversation
// (banner, EHLO, STARTTLS with the provider's CA-signed certificate)
// over an in-process pipe for every dial.
type FlatWorld struct {
	Cfg FlatConfig
	// Trust validates the world's certificates.
	Trust *certs.TrustStore
	// Prefixes and ASRegistry map the world's address plan to ASNs.
	Prefixes   *asn.Table
	ASRegistry *asn.Registry
	// Directory maps provider IDs to companies for analysis.
	Directory *companies.Directory

	providers  []*flatProvider
	byID       map[string]*flatProvider
	byAddr     map[netip.Addr]*SMTPSpec
	adv        *Adversary
	selfCut    float64 // assignment draws below this self-host
	advCut     float64 // ... below this are adversarial ...
	noMXCut    float64 // ... and below this have no MX at all
	digits     int
	namePrefix string
	nameSuffix string
	// assignKey and advKey are the FNV-1a states after the key prefixes
	// "flat/<seed>/assign/" and "flat/<seed>/adv/"; a draw continues one
	// over the index's digits (indexHash).
	assignKey, advKey uint64
}

// NewFlatWorld builds the provider roster and address plan. Cost is
// O(providers), independent of NumDomains.
func NewFlatWorld(cfg FlatConfig) (*FlatWorld, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Corpus == "" {
		cfg.Corpus = CorpusCOM
	}
	if cfg.NumDomains <= 0 {
		return nil, fmt.Errorf("world: flat world needs a domain count")
	}
	anchors := anchorsFor(cfg.Corpus)
	if anchors == nil {
		return nil, fmt.Errorf("world: unknown corpus %q", cfg.Corpus)
	}
	fw := &FlatWorld{
		Cfg:        cfg,
		Prefixes:   asn.NewTable(),
		ASRegistry: asn.NewRegistry(),
		Directory:  companies.Curated(),
		byID:       make(map[string]*flatProvider),
		byAddr:     make(map[netip.Addr]*SMTPSpec),
		// Each domain is its own registered domain ("d000000042.com"),
		// so self-hosting attribution (provider ID == registered domain)
		// works exactly as in the full world.
		namePrefix: "d",
		nameSuffix: ".com",
		digits:     9,
	}
	seed := "flat/" + strconv.FormatUint(cfg.Seed, 10)
	fw.assignKey, fw.advKey = hash64(seed+"/assign/"), hash64(seed+"/adv/")
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x666c6174)) // "flat"
	ca, err := certs.NewCA("Flat World Root CA", rng)
	if err != nil {
		return nil, err
	}
	fw.Trust = certs.NewTrustStore(ca)

	byName := make(map[string]*companies.Company)
	for _, c := range fw.Directory.Companies() {
		byName[c.Name] = c
	}

	advPct := cfg.AdversarialPercent
	if advPct < 0 || advPct > 50 {
		return nil, fmt.Errorf("world: adversarial share %.1f%% outside [0, 50]", advPct)
	}
	var selfPct float64 // the corpus's calibrated self-hosting share
	// The adversarial band sits between the no-MX cut and the
	// self-hosting band; everything above shifts up by its share.
	cum := noMXPercent + advPct
	fw.noMXCut = noMXPercent / 100
	fw.advCut = cum / 100
	for _, a := range anchors {
		if a.company == selfHostedKey {
			selfPct = a.end
			continue
		}
		c, ok := byName[a.company]
		if !ok || len(c.ProviderIDs) == 0 {
			continue // share folds into the long tail
		}
		cum += a.end
		p := &flatProvider{
			company:   a.company,
			id:        c.ProviderIDs[0],
			threshold: cum, // provisional, shifted below
		}
		if len(c.ASNs) > 0 {
			p.asn = c.ASNs[0]
		}
		fw.providers = append(fw.providers, p)
	}
	// Self-hosting sits between the adversarial band and the provider
	// ladder, so the provider thresholds all shift up by its share.
	fw.selfCut = (noMXPercent + advPct + selfPct) / 100
	for _, p := range fw.providers {
		p.threshold = (p.threshold + selfPct) / 100
	}
	// The long tail splits the residue evenly.
	last := fw.selfCut
	if n := len(fw.providers); n > 0 {
		last = fw.providers[n-1].threshold
	}
	residue := 1.0 - last
	if residue < 0 {
		return nil, fmt.Errorf("world: %s shares exceed 100%%", cfg.Corpus)
	}
	for j := 0; j < flatTailProviders; j++ {
		id := fmt.Sprintf("tail%03d-mail.net", j)
		p := &flatProvider{
			company:   id, // unmapped long tail keeps its provider ID
			id:        id,
			threshold: last + residue*float64(j+1)/flatTailProviders,
		}
		fw.providers = append(fw.providers, p)
	}

	// Materialize infrastructure: two MX hosts of two addresses each,
	// a /16 per provider, one CA-signed certificate for the curated
	// providers (the long tail is banner-only).
	var leaves leafBatch
	for i, p := range fw.providers {
		if p.asn == 0 {
			p.asn = asn.ASN(64000 + i)
		}
		fw.ASRegistry.Register(asn.AS{
			Number: p.asn, Name: p.company, Org: p.company, CountryCode: "US",
		})
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(1 + i), 0, 0}), 16)
		if err := fw.Prefixes.Insert(prefix, p.asn); err != nil {
			return nil, err
		}
		p.hosts = []string{"mx1." + p.id, "mx2." + p.id}
		if p.company != p.id { // curated provider: browser-trusted TLS
			p.leaf = leaves.issue(ca, certs.LeafSpec{
				CommonName: p.hosts[0],
				DNSNames:   p.hosts,
				Org:        p.company,
			}, rng)
		}
		p.addrs = make([][]netip.Addr, len(p.hosts))
		for h := range p.hosts {
			spec := &SMTPSpec{Hostname: p.hosts[h], Leaf: p.leaf}
			for k := 0; k < 2; k++ {
				a := netip.AddrFrom4([4]byte{10, byte(1 + i), byte(h), byte(1 + k)})
				p.addrs[h] = append(p.addrs[h], a)
				fw.byAddr[a] = spec
			}
		}
		fw.byID[p.id] = p
	}
	if err := leaves.make(); err != nil {
		return nil, err
	}

	if advPct > 0 {
		// Sinkholes get no entry in byAddr, so dials to them are refused.
		fw.adv, err = newAdversary(fw.ASRegistry, fw.Prefixes, fw.Directory,
			func(a netip.Addr, _ asn.ASN, spec *SMTPSpec) {
				if spec != nil {
					fw.byAddr[a] = spec
				}
			})
		if err != nil {
			return nil, err
		}
	}
	// Access ISPs for the self-hosted tail: one /16 per 65k domains out
	// of 100.64/10 (indexes map 1:1 onto addresses, so nothing is
	// stored per domain).
	blocks := (cfg.NumDomains + (1 << 16) - 1) >> 16
	if blocks > 64 {
		return nil, fmt.Errorf("world: flat world caps at %d domains", 64<<16)
	}
	if err := registerAccessISPs(fw.ASRegistry, fw.Prefixes, blocks, fw.adv); err != nil {
		return nil, fmt.Errorf("%w (one block per %d flat domains)", err, 1<<16)
	}
	return fw, nil
}

// NumDomains reports the corpus size.
func (fw *FlatWorld) NumDomains() int { return fw.Cfg.NumDomains }

// DomainName returns the i-th domain's name. Names encode their index,
// which is what lets the resolver answer for any of them statelessly.
// Abuse-family domains carry look-alike names instead of the canonical
// pattern; both encode the same index.
func (fw *FlatWorld) DomainName(i int) string { return fw.name(i, fw.draw(i)) }

// name is DomainName given the index's draw u.
func (fw *FlatWorld) name(i int, u float64) string {
	if spec, _ := fw.advSpec(i, u); spec.Family == FamilyAbuse {
		return fw.adv.AbuseClusters[spec.Cluster].memberName(fw.digits, i)
	}
	var buf [32]byte
	b := append(buf[:0], fw.namePrefix...)
	b = appendPadded(b, fw.digits, i)
	return string(append(b, fw.nameSuffix...))
}

// appendPadded appends n ≥ 0 in decimal, zero-padded to width digits:
// fmt's %0*d without the formatter.
func appendPadded(b []byte, width, n int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for k := len(d); k < width; k++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// DomainIndex inverts DomainName, accepting whichever spelling —
// canonical or look-alike — is the name of the index. Callers scoring
// inference output against OracleAt use it to map measured domains back
// to their indices without materializing the corpus.
//
// A name only resolves when it is the canonical spelling for its index —
// a look-alike name for an honest index (or vice versa) stays NXDOMAIN.
func (fw *FlatWorld) DomainIndex(name string) (int, bool) {
	i, _, ok := fw.index(name)
	return i, ok
}

// index is DomainIndex with the index's draw, which a lookup passes
// down to everything it asks about the domain.
func (fw *FlatWorld) index(name string) (i int, u float64, ok bool) {
	if i, ok := fw.parseIndex(name, fw.namePrefix, fw.nameSuffix); ok {
		u := fw.draw(i)
		return i, u, fw.family(u) != FamilyAbuse
	}
	if fw.adv != nil {
		for k, ac := range fw.adv.AbuseClusters {
			if i, ok := fw.parseIndex(name, ac.Stem+"-", abuseSuffix); ok {
				u := fw.draw(i)
				spec, _ := fw.advSpec(i, u)
				return i, u, spec.Family == FamilyAbuse && spec.Cluster == k
			}
		}
	}
	return 0, 0, false
}

// parseIndex extracts the in-range index between a prefix and suffix.
func (fw *FlatWorld) parseIndex(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != fw.digits {
		return 0, false
	}
	i, err := strconv.Atoi(mid)
	if err != nil || i < 0 || i >= fw.Cfg.NumDomains {
		return 0, false
	}
	return i, true
}

// draw is the domain's assignment coordinate in [0,1). FNV alone is
// visibly non-uniform on sequential keys, so the hash goes through a
// murmur-style finalizer before becoming a share coordinate.
func (fw *FlatWorld) draw(i int) float64 {
	return float64(indexHash(fw.assignKey, i)>>11) / float64(1<<53)
}

// indexHash is the finalized FNV-1a hash of "flat/<seed><purpose><i>",
// the key of each per-domain draw, given key, the state after the
// prefix before <i>: only the index's digits are hashed per draw.
func indexHash(key uint64, i int) uint64 {
	var buf [20]byte
	return mix64(fnv64(key, strconv.AppendInt(buf[:0], int64(i), 10)))
}

// mix64 is the murmur3 finalizer: every input bit reaches every output
// bit, so disjoint bit ranges of the result are independent draws.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// provider resolves a domain's draw to its provider, or nil for
// self-hosted domains, with ok=false when the domain has no MX.
func (fw *FlatWorld) provider(u float64) (p *flatProvider, ok bool) {
	if u < fw.advCut {
		// Below the no-MX cut nothing exists; in [noMXCut, advCut) the
		// domain is adversarial and callers route through family.
		return nil, false
	}
	if u < fw.selfCut {
		return nil, true
	}
	// The ladder is small (tens of rungs); binary search is overkill.
	for _, p := range fw.providers {
		if u < p.threshold {
			return p, true
		}
	}
	return fw.providers[len(fw.providers)-1], true
}

// TruthCompany returns the ground-truth operator bucket for domain i:
// the company name, the domain itself when self-hosted, or "" for no
// mail service.
func (fw *FlatWorld) TruthCompany(i int) string {
	u := fw.draw(i)
	if spec, variant := fw.advSpec(i, u); spec.Family != FamilyHonest {
		return fw.adv.truth(spec, fw.advPrimary(variant).company)
	}
	p, ok := fw.provider(u)
	switch {
	case !ok:
		return ""
	case p == nil:
		return fw.name(i, u)
	default:
		return p.company
	}
}

// selfIP maps a self-hosted domain index to its dedicated address.
func (fw *FlatWorld) selfIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{100, byte(64 + i>>16), byte(i >> 8), byte(i)})
}

// selfIndex inverts selfIP.
func (fw *FlatWorld) selfIndex(a netip.Addr) (int, bool) {
	b := a.As4()
	if b[0] != 100 || b[1] < 64 || b[1] >= 128 {
		return 0, false
	}
	i := int(b[1]-64)<<16 | int(b[2])<<8 | int(b[3])
	if i >= fw.Cfg.NumDomains {
		return 0, false
	}
	return i, true
}

// Resolver returns the world's DNS side.
func (fw *FlatWorld) Resolver() dns.Resolver { return flatResolver{fw} }

// Dialer returns the world's SMTP side.
func (fw *FlatWorld) Dialer() smtp.Dialer { return flatDialer{fw} }

// flatResolver computes DNS answers from domain indexes.
type flatResolver struct{ fw *FlatWorld }

func (r flatResolver) LookupMX(_ context.Context, domain string) ([]dns.MXData, error) {
	i, u, ok := r.fw.index(domain)
	if !ok {
		return nil, dns.ErrNXDomain
	}
	if spec, variant := r.fw.advSpec(i, u); spec.Family != FamilyHonest {
		if spec.Family == FamilyLame {
			return nil, fmt.Errorf("dns: lame delegation for %s: %w", domain, dns.ErrLame)
		}
		recs := r.fw.adv.mxRecords(spec, variant, r.fw.advPrimary(variant).hosts)
		mxs := make([]dns.MXData, len(recs))
		for k, rec := range recs {
			mxs[k] = dns.MXData{Preference: rec.Pref, Exchange: rec.Host}
		}
		return mxs, nil
	}
	p, hasMail := r.fw.provider(u)
	if !hasMail {
		return nil, dns.ErrNoData
	}
	if p == nil {
		return []dns.MXData{{Preference: 10, Exchange: "mail." + domain}}, nil
	}
	return []dns.MXData{
		{Preference: 10, Exchange: p.hosts[0]},
		{Preference: 20, Exchange: p.hosts[1]},
	}, nil
}

func (r flatResolver) LookupA(_ context.Context, host string) ([]netip.Addr, error) {
	if r.fw.adv != nil {
		if addrs := r.fw.adv.lookup(host); addrs != nil {
			return addrs, nil
		}
	}
	if rest, ok := strings.CutPrefix(host, "mail."); ok {
		if i, u, ok := r.fw.index(rest); ok {
			if p, hasMail := r.fw.provider(u); hasMail && p == nil {
				return []netip.Addr{r.fw.selfIP(i)}, nil
			}
		}
		return nil, dns.ErrNXDomain
	}
	_, id, ok := strings.Cut(host, ".")
	if !ok {
		return nil, dns.ErrNXDomain
	}
	p := r.fw.byID[id]
	if p == nil {
		return nil, dns.ErrNXDomain
	}
	for h, name := range p.hosts {
		if name == host {
			return append([]netip.Addr(nil), p.addrs[h]...), nil
		}
	}
	return nil, dns.ErrNXDomain
}

func (r flatResolver) LookupAAAA(_ context.Context, host string) ([]netip.Addr, error) {
	// The flat world is IPv4-only; the name exists, the type doesn't.
	if _, err := r.LookupA(context.Background(), host); err != nil {
		return nil, err
	}
	return nil, dns.ErrNoData
}

// flatDialer serves an SMTP conversation over an in-process pipe for
// every dial: no listener fleet, no per-host goroutines at rest — the
// server for an address exists only while a connection to it does.
type flatDialer struct{ fw *FlatWorld }

func (d flatDialer) DialContext(ctx context.Context, _, address string) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ap, err := netip.ParseAddrPort(address)
	if err != nil {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: err}
	}
	spec, err := d.fw.hostAt(ap.Addr())
	if err != nil {
		return nil, err
	}
	srv, err := smtp.NewServer(spec.serverConfig())
	if err != nil {
		return nil, err
	}
	client, server := netsim.Pipe()
	go srv.Serve(&oneShotListener{
		conn: server,
		addr: &net.TCPAddr{IP: ap.Addr().AsSlice(), Port: int(ap.Port())},
	})
	return client, nil
}

// hostAt resolves an address to its serving identity, or a
// connection-refused error for addresses nothing listens on.
func (fw *FlatWorld) hostAt(a netip.Addr) (*SMTPSpec, error) {
	if h, ok := fw.byAddr[a]; ok {
		return h, nil
	}
	if i, ok := fw.selfIndex(a); ok {
		u := fw.draw(i)
		if p, hasMail := fw.provider(u); hasMail && p == nil {
			// Self-hosted box: banner-only identity under the domain's
			// own name, no TLS.
			return &SMTPSpec{Hostname: "mail." + fw.name(i, u)}, nil
		}
	}
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

// oneShotListener adapts one pipe end to the net.Listener surface
// smtp.Server expects: it yields its connection once, then reports
// closed, so the Serve loop exits after handing off the session.
type oneShotListener struct {
	mu   sync.Mutex
	conn net.Conn
	addr net.Addr
}

func (l *oneShotListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return nil, net.ErrClosed
	}
	c := l.conn
	l.conn = nil
	return c, nil
}

func (l *oneShotListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	return nil
}

func (l *oneShotListener) Addr() net.Addr { return l.addr }
