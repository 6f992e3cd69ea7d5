package core

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"mxmap/internal/asn"
	"mxmap/internal/benchdata"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
)

// This file holds the paper's method written naively — every step as
// its text states it, over string-keyed maps, with no memo, no
// inventory index, no deferred join and no per-tail work — and a fuzz
// target that holds the engine to it. The reference is slow on purpose:
// certificates are grouped by merging any two groups that share a name
// until no two do, popularity is counted domain by domain, and step 4
// and the trust pass are applied to each exchange as written.

// refResult is what the reference concludes: one assignment per
// exchange and one attribution per domain, in input order.
type refResult struct {
	mx                                      map[string]*MXAssignment
	domains                                 []DomainAttribution
	numExamined, numCorrected, numUntrusted int
}

// refNorm lower-cases a host name and drops its surrounding space and
// trailing dot.
func refNorm(h string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(h)), ".")
}

// refPrimary is a domain's most preferred MX records, in record order:
// step 5's "most preferred MX record set".
func refPrimary(d dataset.DomainRecord) []dataset.MXObs {
	var out []dataset.MXObs
	for _, mx := range d.MX {
		best := true
		for _, other := range d.MX {
			if other.Preference < mx.Preference {
				best = false
			}
		}
		if best {
			out = append(out, mx)
		}
	}
	return out
}

// refAddrs is the distinct addresses of a primary set, as text.
func refAddrs(primary []dataset.MXObs) []string {
	var out []string
	for _, mx := range primary {
		for _, a := range mx.Addrs {
			if !slices.Contains(out, a.String()) {
				out = append(out, a.String())
			}
		}
	}
	return out
}

// refReg is the registered domain of a host, when it is a plausible FQDN.
func refReg(host string) string {
	host = refNorm(host)
	if !dataset.ValidFQDN(host) {
		return ""
	}
	reg, ok := psl.Default.RegisteredDomain(host)
	if !ok {
		return ""
	}
	return reg
}

// refMXID is the MX record's own registered domain, or the normalized
// name when it has none.
func refMXID(exchange string) string {
	h := refNorm(exchange)
	if reg, ok := psl.Default.RegisteredDomain(h); ok {
		return reg
	}
	return h
}

// refInfer runs the reference over s.
func refInfer(s *dataset.Snapshot, approach Approach, cfg Config) refResult {
	if cfg.ConfidenceThreshold == 0 {
		cfg.ConfidenceThreshold = 5
	}
	// The exchanges of every primary set, each as the first domain that
	// lists it saw it, and the popularity counters: per address, the
	// domains whose primary set reaches it; per certificate, the domains
	// whose primary set reaches an address presenting it.
	var order []string
	first := map[string]dataset.MXObs{}
	numIP := map[string]int{}
	numCert := map[string]int{}
	for _, d := range s.Domains {
		primary := refPrimary(d)
		for _, mx := range primary {
			if _, ok := first[mx.Exchange]; !ok {
				first[mx.Exchange] = mx
				order = append(order, mx.Exchange)
			}
		}
		var fps []string
		for _, a := range refAddrs(primary) {
			numIP[a]++
			if info, ok := s.IPs[a]; ok && info.Scan != nil && info.Scan.CertFingerprint != "" && !slices.Contains(fps, info.Scan.CertFingerprint) {
				fps = append(fps, info.Scan.CertFingerprint)
			}
		}
		for _, fp := range fps {
			numCert[fp]++
		}
	}

	// Step 1: the certificates, each as the first address (in text
	// order) presenting it shows it, grouped by shared names; a group is
	// named by its most common registered domain across all
	// certificates, ties to the lexicographically first.
	var keys []string
	for k := range s.IPs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var certs []Cert
	for _, k := range keys {
		sc := s.IPs[k].Scan
		if sc == nil || !sc.CertPresent || sc.CertFingerprint == "" || slices.ContainsFunc(certs, func(c Cert) bool { return c.Fingerprint == sc.CertFingerprint }) {
			continue
		}
		certs = append(certs, Cert{Fingerprint: sc.CertFingerprint, Names: sc.CertNames})
	}
	repOf := map[string]string{}
	if approach == ApproachCertBased || approach == ApproachPriority {
		regCount := map[string]int{}
		for _, c := range certs {
			for _, n := range c.Names {
				if reg, ok := psl.Default.RegisteredDomain(n); ok {
					regCount[reg]++
				}
			}
		}
		var groups [][]int
		for i := range certs {
			groups = append(groups, []int{i})
		}
		for merged := !cfg.DisableCertGrouping; merged; {
			merged = false
			for i := 0; i < len(groups) && !merged; i++ {
				for j := i + 1; j < len(groups) && !merged; j++ {
					if refShareName(certs, groups[i], groups[j]) {
						groups[i] = append(groups[i], groups[j]...)
						sort.Ints(groups[i])
						groups = append(groups[:j], groups[j+1:]...)
						merged = true
					}
				}
			}
		}
		for _, g := range groups {
			var best, fallback string
			for _, i := range g {
				for _, n := range certs[i].Names {
					n = refNorm(n)
					if n == "" {
						continue
					}
					if fallback == "" {
						fallback = n
					}
					reg, ok := psl.Default.RegisteredDomain(n)
					if ok && (best == "" || regCount[reg] > regCount[best] || (regCount[reg] == regCount[best] && reg < best)) {
						best = reg
					}
				}
			}
			if best == "" {
				best = fallback
			}
			for _, i := range g {
				repOf[certs[i].Fingerprint] = best
			}
		}
	}

	// Step 2: a certificate ID from a valid certificate, and a
	// Banner/EHLO ID from the two hosts when they do not disagree.
	certID := map[string]string{}
	bannerID := map[string]string{}
	for k, info := range s.IPs {
		sc := info.Scan
		if sc == nil {
			continue
		}
		if sc.CertPresent && sc.CertValid {
			certID[k] = repOf[sc.CertFingerprint]
		}
		b, e := refReg(sc.BannerHost), refReg(sc.EHLOHost)
		switch {
		case b != "" && e != "":
			if b == e {
				bannerID[k] = b
			}
		case cfg.RequireBannerEHLOAgreement:
		case b != "":
			bannerID[k] = b
		default:
			bannerID[k] = e
		}
	}

	// Step 3: certificate consensus, then Banner/EHLO consensus (in the
	// order and the approach chosen), then the MX record's own name.
	out := refResult{mx: map[string]*MXAssignment{}}
	for _, ex := range order {
		mx := first[ex]
		a := &MXAssignment{Exchange: ex}
		for _, addr := range mx.Addrs {
			a.Confidence = max(a.Confidence, numIP[addr.String()])
			if info, ok := s.IPs[addr.String()]; ok && info.Scan != nil {
				a.Confidence = max(a.Confidence, numCert[info.Scan.CertFingerprint])
			}
		}
		signals := []struct {
			use bool
			ids map[string]string
			src Source
		}{
			{approach == ApproachCertBased || approach == ApproachPriority, certID, SourceCert},
			{approach == ApproachBannerBased || approach == ApproachPriority, bannerID, SourceBanner},
		}
		if cfg.PreferBannerOverCert {
			signals[0], signals[1] = signals[1], signals[0]
		}
		for _, sig := range signals {
			if id, ok := refConsensus(mx.Addrs, sig.ids); sig.use && ok {
				a.ProviderID, a.Source = id, sig.src
				break
			}
		}
		if a.Source == SourceNone {
			a.ProviderID, a.Source = refMXID(ex), SourceMX
		}
		out.mx[ex] = a
	}

	// Step 4, priority approach only: an assignment to a profiled
	// provider from a certificate or a banner, with confidence under the
	// threshold, is examined.
	if approach == ApproachPriority && len(cfg.Profiles) > 0 {
		profiles := map[string]ProviderProfile{}
		owner := map[asn.ASN]string{}
		for _, p := range cfg.Profiles {
			profiles[p.ID] = p
			for _, n := range p.ASNs {
				owner[n] = p.ID
			}
		}
		for _, ex := range order {
			mx, a := first[ex], out.mx[ex]
			prof, ok := profiles[a.ProviderID]
			if !ok || a.Source == SourceMX || !(a.Confidence < cfg.ConfidenceThreshold) {
				continue
			}
			a.Examined = true
			out.numExamined++
			fix := func(id string) {
				a.ProviderID, a.Corrected = id, true
				out.numCorrected++
			}
			vps := refHostMatches(s, mx.Addrs, prof.VPSPatterns)
			if a.Source == SourceBanner {
				inAS := false
				for _, addr := range mx.Addrs {
					if info, ok := s.IPs[addr.String()]; ok && slices.Contains(prof.ASNs, info.ASN) {
						inAS = true
					}
				}
				switch {
				case !inAS && mx.Dangling:
					a.Untrusted, a.CreditAs = true, CreditUntrusted
					out.numUntrusted++
				case !inAS || vps:
					fix(refMXID(ex))
				}
				continue
			}
			// A certificate: a VPS host is a customer machine, a
			// dedicated host is the provider's, and a certificate served
			// from inside another profiled provider's AS, whose banner
			// says that provider on every address, is its customer's.
			switch {
			case vps:
				fix(refMXID(ex))
			case refHostMatches(s, mx.Addrs, prof.DedicatedPatterns):
			default:
				host := ""
				for _, addr := range mx.Addrs {
					info, ok := s.IPs[addr.String()]
					o, owned := owner[info.ASN]
					if !ok || !owned || o == a.ProviderID || bannerID[addr.String()] != o || (host != "" && host != o) {
						host = ""
						break
					}
					host = o
				}
				if host != "" {
					fix(host)
				}
			}
		}
	}

	// The trust pass, priority approach only, on what step 4 left
	// trusted: stale glue behind any referring domain, a lapsed
	// exchange zone, parked addresses only, and (when on) the abuse
	// cluster.
	if approach == ApproachPriority {
		for _, ex := range order {
			mx, a := first[ex], out.mx[ex]
			if a.Untrusted {
				continue
			}
			stale, total := false, 0
			stems := map[string]int{}
			for _, d := range s.Domains {
				if !slices.ContainsFunc(refPrimary(d), func(m dataset.MXObs) bool { return m.Exchange == ex }) {
					continue
				}
				total++
				stale = stale || d.Delegation == dataset.DelegationStaleGlue
				h := refNorm(d.Domain)
				if reg, ok := psl.Default.RegisteredDomain(h); ok {
					h = reg
				}
				stems[strings.Map(func(r rune) rune {
					if r >= '0' && r <= '9' {
						return -1
					}
					return r
				}, h)]++
			}
			parked := len(mx.Addrs) > 0
			for _, addr := range mx.Addrs {
				info, ok := s.IPs[addr.String()]
				parked = parked && ok && info.Parked && !info.Port25Open
			}
			credit := ""
			switch {
			case stale:
				credit = CreditUntrusted
			case mx.Dangling:
				credit = CreditDangling
			case parked:
				credit = CreditParked
			}
			if credit != "" {
				a.Untrusted, a.CreditAs = true, credit
				out.numUntrusted++
				continue
			}
			top, n := "", 0
			for stem, c := range stems {
				if c > n || (c == n && stem < top) {
					top, n = stem, c
				}
			}
			if cfg.AbuseClusterMinDomains > 0 && total >= cfg.AbuseClusterMinDomains && len(top) >= abuseStemMinLen && 4*n >= 3*total {
				a.Untrusted = true
				out.numUntrusted++
			}
		}
	}

	// Step 5: each domain's credit split evenly over its primary MX
	// records, each record's share to its exchange's provider (or the
	// sentinel the trust pass chose).
	for _, d := range s.Domains {
		att := DomainAttribution{Domain: d.Domain, Rank: d.Rank, Credits: map[string]float64{}}
		primary := refPrimary(d)
		for _, mx := range primary {
			a := out.mx[mx.Exchange]
			att.Untrusted = att.Untrusted || a.Untrusted
			id := a.ProviderID
			if a.CreditAs != "" {
				id = a.CreditAs
			}
			if id != "" {
				att.Credits[id] += 1 / float64(len(primary))
			}
			for _, addr := range mx.Addrs {
				att.HasSMTP = att.HasSMTP || s.IPs[addr.String()].Port25Open
			}
		}
		out.domains = append(out.domains, att)
	}
	return out
}

// refShareName reports whether two certificate groups share a name.
func refShareName(certs []Cert, g, h []int) bool {
	for _, i := range g {
		for _, j := range h {
			for _, n := range certs[i].Names {
				for _, m := range certs[j].Names {
					if refNorm(n) != "" && refNorm(n) == refNorm(m) {
						return true
					}
				}
			}
		}
	}
	return false
}

// refConsensus is the one non-empty ID every address carries.
func refConsensus(addrs []netip.Addr, ids map[string]string) (string, bool) {
	id := ""
	for _, a := range addrs {
		v := ids[a.String()]
		if v == "" || (id != "" && v != id) {
			return "", false
		}
		id = v
	}
	return id, id != ""
}

// refHostMatches reports whether a certificate name or Banner/EHLO host
// behind the addresses matches one of the patterns.
func refHostMatches(s *dataset.Snapshot, addrs []netip.Addr, patterns []string) bool {
	for _, addr := range addrs {
		info, ok := s.IPs[addr.String()]
		if !ok || info.Scan == nil {
			continue
		}
		hosts := append(slices.Clone(info.Scan.CertNames), info.Scan.BannerHost, info.Scan.EHLOHost)
		for _, h := range hosts {
			for _, p := range patterns {
				if refNorm(h) != "" && GlobMatch(p, refNorm(h)) {
					return true
				}
			}
		}
	}
	return false
}

// checkReference holds InferStream over src to the reference over s,
// the snapshot src yields.
func checkReference(t testing.TB, name string, s *dataset.Snapshot, src dataset.Source, approach Approach, cfg Config) {
	t.Helper()
	want := refInfer(s, approach, cfg)
	var got []DomainAttribution
	res, err := InferStream(src, approach, cfg, func(att DomainAttribution) { got = append(got, att) })
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want.domains) {
		for i := range min(len(got), len(want.domains)) {
			if !reflect.DeepEqual(got[i], want.domains[i]) {
				t.Fatalf("%s: domain %d of %d:\n got  %+v\n want %+v", name, i, len(got), got[i], want.domains[i])
			}
		}
		t.Fatalf("%s: %d attributions, want %d", name, len(got), len(want.domains))
	}
	if len(res.MX) != len(want.mx) {
		t.Fatalf("%s: %d assignments, want %d", name, len(res.MX), len(want.mx))
	}
	for ex, w := range want.mx {
		g := res.MX[ex]
		if g == nil || g.ProviderID != w.ProviderID || g.Source != w.Source || g.Confidence != w.Confidence ||
			g.Examined != w.Examined || g.Corrected != w.Corrected || g.Untrusted != w.Untrusted || g.CreditAs != w.CreditAs {
			t.Fatalf("%s: exchange %s:\n got  %+v\n want %+v", name, ex, g, w)
		}
	}
	if res.NumExamined != want.numExamined || res.NumCorrected != want.numCorrected || res.NumUntrusted != want.numUntrusted {
		t.Fatalf("%s: examined/corrected/untrusted %d/%d/%d, want %d/%d/%d", name,
			res.NumExamined, res.NumCorrected, res.NumUntrusted, want.numExamined, want.numCorrected, want.numUntrusted)
	}
}

// checkSources writes s to a file and holds InferStream over the file
// read whole (a *Snapshot) and over the file streamed (a *Stream) to the
// reference over the snapshot read, for every approach.
func checkSources(t testing.TB, dir, name string, s *dataset.Snapshot, cfg Config) {
	t.Helper()
	path := filepath.Join(dir, "ref.jsonl")
	if err := dataset.WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(path)
	loaded, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, approach := range Approaches() {
		checkReference(t, name+"/snapshot/"+approach.String(), loaded, loaded, approach, cfg)
		checkReference(t, name+"/stream/"+approach.String(), loaded, st, approach, cfg)
	}
}

// The fuzz world's alphabet: exchanges, Banner/EHLO hosts, certificates
// (a fingerprint and its names), ASes and domain-name shapes, chosen so
// that few bytes reach every rung of the ladder and both profiles.
var (
	refExchanges = []string{"mx1.provider.com", "mx2.provider.com", "mx.myvps.com", "aspmx.l.google.com",
		"alt1.aspmx.l.google.com", "mx.bulk-blast.xyz", "mx1.hijack-relay.net", "mx.gone-zone.net",
		"mx.parking-lot.net", "mail.self.co.uk", "MX.Upper-Case.com.", "localhost"}
	refHosts = []string{"", "mx1.provider.com", "myvps.provider.com", "mx.google.com", "ip-4-5-6-7",
		"mx.bulk-blast.xyz", "relay.hijack-relay.net", "MX.GOOGLE.COM.", "s1-2-3.provider.com", "mail.self.co.uk"}
	refCerts = [][]string{
		{"mx1.provider.com", "mx2.provider.com"},
		{"mx2.provider.com", "mx3.provider.com"},
		{"myvps.provider.com"},
		{"mx.google.com", "smtp.google.com"},
		{"mx.bulk-blast.xyz", "bulk-blast.xyz"},
		{"customer.com"},
		{"mx3.provider.com", "other.net"},
		{"mail.self.co.uk"},
	}
	refASNs  = []asn.ASN{0, 64500, 15169, 64501}
	refNames = []string{"cheap-pillz-dealz-%03d.xyz", "shop%d.com", "b%d.co.uk", "x%d.example", "pharma-%d-bargains.net"}
)

// refProfiles are the step 4 profiles of the fuzz world.
func refProfiles() []ProviderProfile {
	return []ProviderProfile{
		{ID: "provider.com", ASNs: []asn.ASN{64500}, DedicatedPatterns: []string{"mx?.provider.com"},
			VPSPatterns: []string{"*vps*.provider.com", "s*-*-*.provider.com"}},
		{ID: "google.com", ASNs: []asn.ASN{15169}},
	}
}

// fuzzReader hands out the fuzz input a choice at a time; past its end
// every choice is 0.
type fuzzReader struct {
	b []byte
	i int
}

func (r *fuzzReader) pick(n int) int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1]) % n
}

// refWorld turns fuzz bytes into a snapshot and a Config: eight
// addresses (each may be missing from the IP table), up to six tails
// over the alphabet above, and 8 to 48 domains spread over them, so many
// domains share each tail.
func refWorld(data []byte) (*dataset.Snapshot, Config) {
	r := &fuzzReader{b: data}
	var cfg Config
	flags := r.pick(256)
	cfg.ConfidenceThreshold = 1 + r.pick(6)
	if flags&1 != 0 {
		cfg.Profiles = refProfiles()
	}
	if flags&2 != 0 {
		cfg.AbuseClusterMinDomains = 2 + r.pick(4)
	}
	cfg.RequireBannerEHLOAgreement = flags&4 != 0
	cfg.DisableCertGrouping = flags&8 != 0
	cfg.PreferBannerOverCert = flags&16 != 0
	cfg.Parallelism = 1 + flags>>5&1

	s := dataset.NewSnapshot("2021-06", "ref")
	addrs := make([]netip.Addr, 8)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	for _, a := range addrs {
		f := r.pick(64)
		if f&1 != 0 {
			continue // not in the IP table
		}
		info := dataset.IPInfo{Addr: a, HasCensys: true, Port25Open: f&2 != 0, Parked: f&4 != 0, ASN: refASNs[r.pick(len(refASNs))]}
		if f&8 != 0 {
			sc := &dataset.ScanInfo{BannerHost: refHosts[r.pick(len(refHosts))], EHLOHost: refHosts[r.pick(len(refHosts))]}
			if c := r.pick(len(refCerts) + 1); c > 0 {
				sc.CertPresent, sc.CertValid = true, f&16 != 0
				sc.CertFingerprint, sc.CertNames = fmt.Sprintf("fp%d", c), refCerts[c-1]
			}
			info.Scan = sc
		}
		s.AddIP(info)
	}
	type tail struct {
		mx         []dataset.MXObs
		delegation string
	}
	tails := make([]tail, 1+r.pick(6))
	for i := range tails {
		t := &tails[i]
		switch n := r.pick(5); n {
		case 0:
		case 1:
			t.mx = []dataset.MXObs{}
		default:
			for range n - 1 {
				ex := refExchanges[r.pick(len(refExchanges))]
				if slices.ContainsFunc(t.mx, func(m dataset.MXObs) bool { return m.Exchange == ex }) {
					continue // DNS keeps one record per exchange and preference
				}
				mx := dataset.MXObs{Preference: uint16(10 * (1 + r.pick(2))), Exchange: ex, Dangling: r.pick(4) == 0}
				for mask := r.pick(256); mask != 0; mask &= mask - 1 {
					if len(mx.Addrs) < 3 {
						mx.Addrs = append(mx.Addrs, addrs[bitsTrailing(mask)])
					}
				}
				t.mx = append(t.mx, mx)
			}
		}
		t.delegation = []string{"", "", dataset.DelegationStaleGlue, dataset.DelegationLame}[r.pick(4)]
	}
	for i := range 8 + r.pick(41) {
		t := tails[r.pick(len(tails))]
		s.AddDomain(dataset.DomainRecord{
			Domain: fmt.Sprintf(refNames[r.pick(len(refNames))], i), Rank: i % 3,
			MX: t.mx, Delegation: t.delegation,
		})
	}
	return s, cfg
}

func bitsTrailing(x int) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// FuzzInferReference holds the engine to refInfer: for any world the
// fuzz bytes make (see refWorld), InferStream over the snapshot read
// whole and over the same file streamed, for every approach, concludes
// what the reference concludes, assignment by assignment and attribution
// by attribution. The hand-built cases of the other tests (the paper's
// tables, the adversary families, the step 4 heuristics, a benchmark
// corpus) are held to it first, at every confidence threshold from 1 to
// 6, so step 4's threshold is met exactly somewhere.
func FuzzInferReference(f *testing.F) {
	dir := f.TempDir()
	hand := map[string]struct {
		snap     *dataset.Snapshot
		profiles []ProviderProfile
		abuseMin int
	}{
		"table3":      {table3Snapshot(), providerProfiles(), 0},
		"table12":     {table12Snapshot(), nil, 0},
		"adversarial": {adversarialSnapshot(), adversarialProfiles(), 4},
		"adv-next":    {adversarialSnapshotNext(), adversarialProfiles(), 4},
		"benchdata":   {benchdata.Snapshot(200), benchdataProfiles(), 0},
	}
	for name, tc := range hand {
		for threshold := 1; threshold <= 6; threshold++ {
			cfg := Config{Profiles: tc.profiles, ConfidenceThreshold: threshold, AbuseClusterMinDomains: tc.abuseMin}
			checkSources(f, dir, fmt.Sprintf("%s/threshold=%d", name, threshold), tc.snap, cfg)
		}
	}
	// Byte seeds, one per adversary family and rung: each is the
	// choices refWorld reads, in its order.
	for _, seed := range refSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, cfg := refWorld(data)
		checkSources(t, t.TempDir(), "fuzz", s, cfg)
	})
}

// refSeeds spells out worlds for refWorld: config flags, the threshold,
// eight address descriptions, the tails and the domains.
func refSeeds() [][]byte {
	// ip describes an address: flags (1 absent, 2 port 25 open, 4
	// parked, 8 scanned, 16 valid certificate), then its AS and, when
	// scanned, its banner and EHLO hosts and certificate.
	ip := func(flags, as, banner, ehlo, cert byte) []byte {
		if flags&1 != 0 {
			return []byte{flags}
		}
		if flags&8 == 0 {
			return []byte{flags, as}
		}
		return []byte{flags, as, banner, ehlo, cert}
	}
	// mx describes one record: exchange, preference (0 for 10, 1 for 20),
	// dangling (0) or not (1), and the address mask.
	mx := func(ex, pref, dangling, mask byte) []byte {
		return []byte{ex, pref, dangling, mask}
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// domains spreads n domains over the tails, all named by one shape.
	domains := func(n int, shape byte, tails ...byte) []byte {
		out := []byte{byte(n - 8)}
		for i := range n {
			out = append(out, tails[i%len(tails)], shape)
		}
		return out
	}
	// ips describes the eight addresses: provider.com's two certified
	// exchanges and a VPS, Google (whose certificate is not valid), a
	// self-hosted box, a parking sinkhole, a fifth address whose banner
	// is relay (a bulk mailer's, or a forged Google one), and a host
	// named like provider.com's rented machines.
	ips := func(relay byte) []byte {
		return cat(ip(2|8|16, 1, 1, 1, 1), ip(2|8|16, 1, 1, 1, 2), ip(2|8|16, 1, 2, 2, 3), ip(2|8, 2, 3, 3, 4),
			ip(2|8, 3, 4, 4, 0), ip(4, 0, 0, 0, 0), ip(2|8, 3, relay, relay, 5), ip(2|8|16, 1, 8, 8, 7))
	}
	// A tail is its record count plus one (0 for no MX, 1 for an empty
	// list), its records and its delegation (0 none, 2 stale glue, 3
	// lame); a world lists its tail count less one before them.
	return [][]byte{
		// Honest: a provider.com tail, a Google tail, a self-hosted one.
		cat([]byte{1, 4}, ips(5), []byte{2},
			[]byte{3}, mx(0, 0, 1, 1), mx(1, 0, 1, 2), []byte{0},
			[]byte{2}, mx(3, 0, 1, 8), []byte{0},
			[]byte{2}, mx(9, 0, 1, 128), []byte{0},
			domains(30, 1, 0, 0, 1, 2)),
		// Dangling-nx and dangling-parked beside honest domains.
		cat([]byte{1, 2}, ips(5), []byte{2},
			[]byte{2}, mx(7, 0, 0, 0), []byte{0},
			[]byte{2}, mx(8, 0, 1, 32), []byte{0},
			[]byte{2}, mx(0, 0, 1, 1), []byte{0},
			domains(12, 2, 0, 1, 2)),
		// Hijack: stale glue behind a relay whose banner claims Google
		// from outside Google's AS.
		cat([]byte{1, 3}, ips(3), []byte{1},
			[]byte{2}, mx(6, 0, 0, 64), []byte{2},
			[]byte{2}, mx(3, 0, 1, 8), []byte{0},
			domains(10, 3, 0, 1)),
		// Lame: no MX at all, and an empty list, beside an honest tail.
		cat([]byte{0, 1}, ips(5), []byte{2},
			[]byte{0}, []byte{3},
			[]byte{1}, []byte{0},
			[]byte{2}, mx(1, 0, 1, 2), []byte{0},
			domains(9, 1, 0, 1, 2)),
		// Abuse: a look-alike cluster on one bulk exchange, the rule on.
		cat([]byte{1 | 2, 2, 1}, ips(5), []byte{1},
			[]byte{2}, mx(5, 0, 1, 64), []byte{0},
			[]byte{2}, mx(0, 0, 1, 1), []byte{0},
			domains(20, 0, 0, 0, 0, 1)),
		// BLBFO: a tiered set, a backup-only one, and a skewed
		// equal-preference one over a VPS and Google.
		cat([]byte{1, 5}, ips(5), []byte{2},
			[]byte{4}, mx(0, 0, 1, 1), mx(1, 0, 1, 2), mx(5, 1, 1, 64), []byte{0},
			[]byte{3}, mx(9, 1, 1, 128), mx(11, 1, 1, 0), []byte{0},
			[]byte{4}, mx(2, 0, 1, 4), mx(3, 0, 1, 8), mx(4, 1, 1, 8), []byte{0},
			domains(24, 4, 0, 1, 2)),
		// The ablations and the strict banner rule, over the honest world.
		cat([]byte{1 | 4 | 8 | 16 | 32, 0}, ips(5), []byte{2},
			[]byte{3}, mx(0, 0, 1, 1), mx(1, 0, 1, 2), []byte{0},
			[]byte{2}, mx(3, 0, 1, 8), []byte{0},
			[]byte{2}, mx(2, 0, 1, 4), []byte{0},
			domains(16, 1, 0, 1, 2)),
		{},
		{0xff, 0xff, 0xff, 0xff},
	}
}
