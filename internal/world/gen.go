package world

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"

	"mxmap/internal/asn"
	"mxmap/internal/certs"
	"mxmap/internal/companies"
)

// Generate builds a complete world from the configuration.
func Generate(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	w := &World{
		Cfg:        cfg,
		Prefixes:   asn.NewTable(),
		ASRegistry: asn.NewRegistry(),
		Corpora:    make(map[string]*Corpus),
		rng:        rand.New(rand.NewPCG(cfg.Seed, 0x6d78)),
	}
	ca, err := certs.NewCA("Simulated Global Root CA", w.rng)
	if err != nil {
		return nil, err
	}
	w.CA = ca
	w.Trust = certs.NewTrustStore(ca)
	if err := w.buildRoster(); err != nil {
		return nil, err
	}
	if cfg.Adversarial > 0 {
		w.Adversary, err = newAdversary(w.ASRegistry, w.Prefixes, w.Directory,
			func(addr netip.Addr, n asn.ASN, spec *SMTPSpec) {
				w.Hosts[addr] = &Host{Addr: addr, ASN: n, SMTP: spec}
			})
		if err != nil {
			return nil, err
		}
	}
	if err := registerAccessISPs(w.ASRegistry, w.Prefixes, cfg.SelfISPs, w.Adversary); err != nil {
		return nil, err
	}
	for _, spec := range []struct {
		name  string
		size  int
		dates []string
	}{
		{CorpusAlexa, scaled(paperAlexaSize, cfg.Scale, 100), AllDates},
		{CorpusCOM, scaled(paperCOMSize, cfg.Scale, 100), AllDates},
		// The .gov corpus is small to begin with (3,496 domains); keep
		// enough of it at low scales that the few-percent security
		// providers of Figure 6h remain resolvable.
		{CorpusGOV, scaled(paperGOVSize, cfg.Scale, 800), GovDates},
	} {
		c, err := w.generateCorpus(spec.name, spec.size, spec.dates)
		if err != nil {
			return nil, err
		}
		w.Corpora[spec.name] = c
	}
	return w, nil
}

func scaled(n int, scale float64, minSize int) int {
	v := int(float64(n) * scale)
	if v < minSize {
		v = minSize
	}
	if v > n {
		v = n
	}
	return v
}

// assignCtx carries the per-corpus assignment machinery.
type assignCtx struct {
	w       *World
	corpus  *Corpus
	rng     *rand.Rand
	anchors []shareAnchor
	// options[i] describes one assignable bucket: a named provider, the
	// self-hosted pseudo-provider, or one tail provider.
	options []assignOption
	// cur[di] is the option index currently assigned to domain di.
	cur []int
}

// assignOption is one destination in the assignment distribution.
type assignOption struct {
	// provider index into World.Providers, or -1 for self-hosted.
	provider int
	// anchorIdx indexes assignCtx.anchors, or -1 for tail providers.
	anchorIdx int
	// tailWeight is the option's share of the tail bucket (0 for
	// anchored options).
	tailWeight float64
	// company is nil for self-hosted.
	company *companies.Company
}

// generateCorpus creates the domain list and its full longitudinal
// assignment.
func (w *World) generateCorpus(name string, size int, dates []string) (*Corpus, error) {
	c := &Corpus{Name: name, Dates: dates}
	rng := rand.New(rand.NewPCG(w.Cfg.Seed, hash64(name)))
	c.Domains = w.generateDomainNames(name, size, rng)

	ctx := &assignCtx{w: w, corpus: c, rng: rng, anchors: anchorsFor(name)}
	if err := ctx.buildOptions(); err != nil {
		return nil, err
	}
	ctx.assignInitial()
	for t := 1; t < len(dates); t++ {
		ctx.step(t)
	}
	ctx.closeStints(len(dates) - 1)
	if w.Cfg.Adversarial > 0 {
		w.applyAdversarial(c)
	}
	if err := w.materializeHosts(c); err != nil {
		return nil, err
	}
	return c, nil
}

// generateDomainNames synthesizes the corpus member names with corpus-
// appropriate TLDs, ranks and country codes. Names are unique across the
// whole world — the paper likewise makes its three corpora disjoint.
func (w *World) generateDomainNames(corpus string, size int, rng *rand.Rand) []*Domain {
	out := make([]*Domain, 0, size)
	if w.usedNames == nil {
		w.usedNames = make(map[string]bool)
	}
	uniqueName := func(tld string) string {
		for {
			n := lowerWord(rng)
			if rng.IntN(3) == 0 {
				n += "-" + lowerWord(rng)
			}
			if rng.IntN(4) == 0 {
				n += fmt.Sprintf("%d", rng.IntN(100))
			}
			name := n + "." + tld
			if !w.usedNames[name] {
				w.usedNames[name] = true
				return name
			}
		}
	}
	switch corpus {
	case CorpusAlexa:
		for i := 0; i < size; i++ {
			tld, country := drawAlexaTLD(rng)
			out = append(out, &Domain{Name: uniqueName(tld), Rank: i + 1, Country: country})
		}
	case CorpusCOM:
		for i := 0; i < size; i++ {
			out = append(out, &Domain{Name: uniqueName("com")})
		}
	case CorpusGOV:
		for i := 0; i < size; i++ {
			d := &Domain{Name: uniqueName("gov"), Federal: rng.Float64() < 0.15}
			out = append(out, d)
		}
	}
	return out
}

func drawAlexaTLD(rng *rand.Rand) (tld, country string) {
	r := rng.Float64()
	for _, cc := range ccTLDs {
		if r < cc.weight {
			return cc.tld, cc.country
		}
		r -= cc.weight
	}
	// Remainder: generic TLDs by weight.
	r = rng.Float64()
	for _, g := range gTLDs {
		if r < g.weight {
			return g.tld, ""
		}
		r -= g.weight
	}
	return "com", ""
}

// buildOptions resolves the anchor table and tail roster into assignable
// options.
func (ctx *assignCtx) buildOptions() error {
	byName := make(map[string]*Provider)
	for _, p := range ctx.w.Providers {
		byName[p.Company.Name] = p
	}
	for ai, a := range ctx.anchors {
		if a.company == selfHostedKey {
			ctx.options = append(ctx.options, assignOption{provider: -1, anchorIdx: ai})
			continue
		}
		p, ok := byName[a.company]
		if !ok {
			return fmt.Errorf("world: anchor company %q not in roster", a.company)
		}
		ctx.options = append(ctx.options, assignOption{provider: p.index, anchorIdx: ai, company: p.Company})
	}
	// Tail providers share the residual market with zipf-ish weights.
	var tails []*Provider
	for _, p := range ctx.w.Providers {
		if isTail(p) {
			tails = append(tails, p)
		}
	}
	totalW := 0.0
	weights := make([]float64, len(tails))
	for j := range tails {
		// Flattened zipf: the largest unnamed provider stays well below
		// the named companies, as in the paper's Table 6 long tail.
		weights[j] = 1.0 / float64(j+12)
		totalW += weights[j]
	}
	for j, p := range tails {
		ctx.options = append(ctx.options, assignOption{
			provider:   p.index,
			anchorIdx:  -1,
			tailWeight: weights[j] / totalW,
			company:    p.Company,
		})
	}
	return nil
}

// isTail reports whether the provider is a generated long-tail provider.
func isTail(p *Provider) bool {
	return p.ASN >= 64512 && p.ASN < 65000
}

// shareOf returns an option's target share (fraction, not percent) at a
// snapshot.
func (ctx *assignCtx) shareOf(opt assignOption, dateIdx int) float64 {
	n := len(ctx.corpus.Dates)
	if opt.anchorIdx >= 0 {
		return shareAt(ctx.anchors[opt.anchorIdx], dateIdx, n) / 100
	}
	anchored := 0.0
	for _, a := range ctx.anchors {
		anchored += shareAt(a, dateIdx, n)
	}
	tailShare := (100 - anchored) / 100
	if tailShare < 0 {
		tailShare = 0
	}
	return tailShare * opt.tailWeight
}

// weightFor computes the per-domain assignment weight of an option,
// applying national and rank preferences.
func (ctx *assignCtx) weightFor(d *Domain, opt assignOption, dateIdx int) float64 {
	wt := ctx.shareOf(opt, dateIdx)
	if wt <= 0 {
		return 0
	}
	name := ""
	kind := companies.KindOther
	if opt.company != nil {
		name = opt.company.Name
		kind = opt.company.Kind
	}
	// Government agency providers serve only federal .gov domains.
	if kind == companies.KindGovAgency && !d.Federal {
		return 0
	}
	// National preferences (Figure 8): multipliers for the big four in
	// each ccTLD, plus suppression of the home-market providers abroad.
	if d.Country != "" {
		if cc := ccTLDByCountry(d.Country); cc != nil {
			switch name {
			case "Google":
				wt *= cc.google
			case "Microsoft":
				wt *= cc.microsoft
			case "Tencent":
				wt *= cc.tencent
			case "Yandex":
				wt *= cc.yandex
			case "Mail.Ru", "Beget":
				if d.Country != "RU" {
					wt *= 0.05
				} else {
					wt *= 6
				}
			case "Ukraine.ua":
				if d.Country != "RU" {
					wt *= 0.05
				}
			}
		}
	} else {
		switch name {
		case "Tencent":
			wt *= 0.25 // mostly .cn + some gTLD Chinese businesses
		case "Yandex":
			wt *= 0.45
		}
	}
	// Rank preferences (Figure 5): popular domains skew to the majors
	// and security services; the long tail skews to regional hosts.
	if d.Rank > 0 && len(ctx.corpus.Domains) > 1 {
		p := float64(d.Rank-1) / float64(len(ctx.corpus.Domains)-1) // 0=top
		switch {
		case kind == companies.KindEmailSecurity:
			wt *= 2.8 - 2.3*p
		case name == "Yandex" || name == "Tencent" || name == "Mail.Ru" || name == "Beget" || name == "Ukraine.ua":
			wt *= 0.25 + 1.5*p
		case opt.anchorIdx < 0: // tail
			wt *= 0.5 + 1.0*p
		case opt.provider == -1: // self-hosted: slightly head-heavy
			wt *= 1.2 - 0.4*p
		}
	}
	return wt
}

// draw samples an option index for a domain from the weighted
// distribution at a snapshot; restrict (when non-nil) filters candidates.
func (ctx *assignCtx) draw(d *Domain, dateIdx int, restrict map[int]float64) int {
	total := 0.0
	for oi, opt := range ctx.options {
		wt := ctx.weightFor(d, opt, dateIdx)
		if restrict != nil {
			deficit, ok := restrict[oi]
			if !ok || deficit <= 0 {
				continue
			}
			wt *= deficit
		}
		total += wt
	}
	if total <= 0 {
		// Nothing eligible: fall back to self-hosting.
		return ctx.selfOption()
	}
	r := ctx.rng.Float64() * total
	for oi, opt := range ctx.options {
		wt := ctx.weightFor(d, opt, dateIdx)
		if restrict != nil {
			deficit, ok := restrict[oi]
			if !ok || deficit <= 0 {
				continue
			}
			wt *= deficit
		}
		if r < wt {
			return oi
		}
		r -= wt
	}
	return ctx.selfOption()
}

func (ctx *assignCtx) selfOption() int {
	for oi, opt := range ctx.options {
		if opt.provider == -1 {
			return oi
		}
	}
	return 0
}

// assignInitial draws the first-snapshot assignment and opens stints.
func (ctx *assignCtx) assignInitial() {
	ctx.cur = make([]int, len(ctx.corpus.Domains))
	for di, d := range ctx.corpus.Domains {
		oi := ctx.draw(d, 0, nil)
		ctx.cur[di] = oi
		mode := ctx.drawMode(d, ctx.options[oi])
		d.Stints = []Stint{{
			From: 0, To: 0,
			Provider: ctx.options[oi].provider,
			Mode:     mode,
			Variant:  ctx.rng.Uint32(),
		}}
	}
}

// step advances the assignment from snapshot t-1 to t: a small amount of
// organic churn plus count rebalancing toward the interpolated targets.
func (ctx *assignCtx) step(t int) {
	n := len(ctx.corpus.Domains)

	// Organic churn: domains reconsider their provider independent of
	// market drift, producing the bidirectional flows of Figure 7.
	const churnRate = 0.015
	for di, d := range ctx.corpus.Domains {
		if ctx.rng.Float64() < churnRate {
			ctx.moveDomain(di, ctx.draw(d, t, nil), t)
		}
	}

	// Rebalance: move each option's count by the absolute drift of its
	// target trajectory between the two steps, then shuffle surplus
	// domains to deficits. Using the current count as the base preserves
	// the national and rank structure while trends track the anchors;
	// the additive form lets an option that drew zero members recover.
	counts := make([]int, len(ctx.options))
	for _, oi := range ctx.cur {
		counts[oi]++
	}
	targets := make([]float64, len(ctx.options))
	for oi, opt := range ctx.options {
		drift := ctx.shareOf(opt, t) - ctx.shareOf(opt, t-1)
		targets[oi] = float64(counts[oi]) + drift*float64(n)
	}
	// Collect surplus domains.
	deficit := make(map[int]float64)
	var pool []int
	for oi := range ctx.options {
		diff := float64(counts[oi]) - targets[oi]
		if diff >= 1 {
			pool = append(pool, ctx.takeMembers(oi, int(diff))...)
		} else if diff < 0 {
			// Fractional deficits still register so that, at small corpus
			// sizes, slowly-growing providers can pick up domains.
			deficit[oi] = -diff
		}
	}
	ctx.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, di := range pool {
		oi := ctx.draw(ctx.corpus.Domains[di], t, deficit)
		ctx.moveDomain(di, oi, t)
		if deficit[oi] > 0 {
			deficit[oi]--
		}
	}
}

// takeMembers removes up to k random members from option oi's current
// holders and returns their indexes.
func (ctx *assignCtx) takeMembers(oi, k int) []int {
	var members []int
	for di, cur := range ctx.cur {
		if cur == oi {
			members = append(members, di)
		}
	}
	ctx.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	if k > len(members) {
		k = len(members)
	}
	return members[:k]
}

// moveDomain reassigns a domain at snapshot t, closing its current stint.
func (ctx *assignCtx) moveDomain(di, oi, t int) {
	if ctx.cur[di] == oi {
		return
	}
	d := ctx.corpus.Domains[di]
	last := &d.Stints[len(d.Stints)-1]
	if last.From == t {
		// Already moved this step (churn + rebalance): overwrite.
		last.Provider = ctx.options[oi].provider
		last.Mode = ctx.drawMode(d, ctx.options[oi])
		last.Variant = ctx.rng.Uint32()
		ctx.cur[di] = oi
		return
	}
	last.To = t - 1
	d.Stints = append(d.Stints, Stint{
		From: t, To: t,
		Provider: ctx.options[oi].provider,
		Mode:     ctx.drawMode(d, ctx.options[oi]),
		Variant:  ctx.rng.Uint32(),
	})
	ctx.cur[di] = oi
}

// closeStints extends every open stint to the final snapshot.
func (ctx *assignCtx) closeStints(lastIdx int) {
	for _, d := range ctx.corpus.Domains {
		d.Stints[len(d.Stints)-1].To = lastIdx
	}
}

// drawMode picks the provisioning idiom for a new stint.
func (ctx *assignCtx) drawMode(d *Domain, opt assignOption) Mode {
	r := ctx.rng.Float64()
	pick := func(table []struct {
		m Mode
		p float64
	}) Mode {
		for _, e := range table {
			if r < e.p {
				return e.m
			}
			r -= e.p
		}
		return table[0].m
	}
	if opt.provider == -1 {
		// A domain returning to self-hosting keeps its original setup so
		// its dedicated server retains one stable personality.
		for i := len(d.Stints) - 1; i >= 0; i-- {
			if d.Stints[i].Provider == -1 && d.Stints[i].Mode.SelfHosted() {
				return d.Stints[i].Mode
			}
		}
		return pick(selfModes)
	}
	switch opt.company.Kind {
	case companies.KindWebHosting:
		return pick(webHostModes)
	case companies.KindEmailSecurity:
		return pick(securityModes)
	case companies.KindGovAgency:
		return pick(govAgencyModes)
	default:
		return pick(mailHostModes)
	}
}

// Mode mixes per provider class. Probabilities sum to 1; they drive the
// Table 4 availability ladder and the Figure 4 approach-accuracy gaps.
var (
	mailHostModes = []struct {
		m Mode
		p float64
	}{
		{ModeExplicit, 0.855}, {ModeHidden, 0.08}, {ModeNoSMTP, 0.04}, {ModeNoMXIP, 0.025},
	}
	securityModes = []struct {
		m Mode
		p float64
	}{
		{ModeExplicit, 0.70}, {ModeHidden, 0.28}, {ModeNoMXIP, 0.02},
	}
	webHostModes = []struct {
		m Mode
		p float64
	}{
		{ModeExplicit, 0.52}, {ModeSharedHosting, 0.33}, {ModeNoSMTP, 0.10}, {ModeNoMXIP, 0.05},
	}
	govAgencyModes = []struct {
		m Mode
		p float64
	}{
		{ModeExplicit, 0.6}, {ModeHidden, 0.4},
	}
	selfModes = []struct {
		m Mode
		p float64
	}{
		{ModeSelfGood, 0.30}, {ModeSelfSigned, 0.28}, {ModeSelfJunk, 0.24},
		{ModeVPS, 0.14}, {ModeFalseClaim, 0.02}, {ModeNoMXIP, 0.02},
	}
)

func ccTLDByCountry(country string) *ccTLD {
	for i := range ccTLDs {
		if ccTLDs[i].country == country {
			return &ccTLDs[i]
		}
	}
	return nil
}

// hash64 derives a stable sub-seed from a string (FNV-1a).
func hash64[T string | []byte](s T) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sortedProviderIDs lists every provider ID, for deterministic zone
// building.
func (w *World) sortedProviderIDs() []string {
	ids := make([]string, 0, len(w.providerByID))
	for id := range w.providerByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
