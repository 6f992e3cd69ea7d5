package experiments

import (
	"context"
	"fmt"

	"mxmap/internal/analysis"
	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/parallel"
	"mxmap/internal/report"
	"mxmap/internal/world"
)

// Fig4 reproduces Figure 4: the relative accuracy of the four approaches
// on sampled domains (with SMTP servers) from each corpus, in both the
// random and unique-MX variants. sampleSize follows the paper's 200.
func (s *Study) Fig4(ctx context.Context, sampleSize int, seed uint64) (*report.Table, error) {
	t := report.NewTable(
		"Figure 4 — correctly inferred domains per approach (sample size varies with corpus)",
		"Sample", "N", "MX-only", "cert-based", "banner-based", "priority-based", "examined@4")
	for _, corpus := range Corpora() {
		date := s.LastDate(corpus)
		snap, err := s.Snapshot(ctx, corpus, date)
		if err != nil {
			return nil, err
		}
		dateIdx := s.World.Corpus(corpus).DateIndex(date)
		truth := s.truthIndex(corpus, dateIdx)
		for _, uniqueMX := range []bool{false, true} {
			cfg := analysis.AccuracyConfig{
				SampleSize: sampleSize,
				UniqueMX:   uniqueMX,
				Seed:       seed,
				Truth:      func(domain string) string { return truth[domain] },
				Company:    s.companyBucket,
				InferConfig: core.Config{
					Profiles: s.Profiles,
				},
			}
			results := analysis.EvaluateAccuracy(snap, cfg)
			label := corpus
			if uniqueMX {
				label += " w/Unique MX"
			}
			row := make([]string, 0, 7)
			row = append(row, label)
			var examined int
			cells := map[core.Approach]string{}
			n := 0
			for _, r := range results {
				cells[r.Approach] = fmt.Sprintf("%d (%.1f%%)", r.Correct, r.Percent())
				if r.Approach == core.ApproachPriority {
					examined = r.Examined
				}
				n = r.Total
			}
			row = append(row, fmt.Sprint(n),
				cells[core.ApproachMXOnly], cells[core.ApproachCertBased],
				cells[core.ApproachBannerBased], cells[core.ApproachPriority],
				fmt.Sprint(examined))
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Table4 reproduces Table 4: the data-availability breakdown of each
// corpus at the most recent snapshot.
func (s *Study) Table4(ctx context.Context) (*report.Table, error) {
	t := report.NewTable(
		"Table 4 — data availability breakdown (most recent snapshot)",
		"Category", "Alexa", "COM", "GOV")
	breakdowns := make(map[string]dataset.Breakdown)
	for _, corpus := range Corpora() {
		snap, err := s.Snapshot(ctx, corpus, s.LastDate(corpus))
		if err != nil {
			return nil, err
		}
		breakdowns[corpus] = snap.ComputeBreakdown()
	}
	for _, cat := range dataset.Categories() {
		t.AddRow(cat.String(),
			fmt.Sprint(breakdowns[world.CorpusAlexa].Count(cat)),
			fmt.Sprint(breakdowns[world.CorpusCOM].Count(cat)),
			fmt.Sprint(breakdowns[world.CorpusGOV].Count(cat)))
	}
	t.AddRow("Total",
		fmt.Sprint(breakdowns[world.CorpusAlexa].Total),
		fmt.Sprint(breakdowns[world.CorpusCOM].Total),
		fmt.Sprint(breakdowns[world.CorpusGOV].Total))
	return t, nil
}

// Table5 reproduces Table 5: the provider-ID inventory of two companies
// (Microsoft and ProofPoint) from the curated directory.
func (s *Study) Table5() *report.Table {
	t := report.NewTable(
		"Table 5 — provider IDs operated by Microsoft and ProofPoint",
		"Company", "Provider ID", "ASNs")
	dir := companies.Curated()
	for _, name := range []string{"Microsoft", "ProofPoint"} {
		for _, c := range dir.Companies() {
			if c.Name != name {
				continue
			}
			asns := ""
			for i, a := range c.ASNs {
				if i > 0 {
					asns += " "
				}
				asns += a.String()
			}
			for _, id := range c.ProviderIDs {
				t.AddRow(c.Name, id, asns)
			}
		}
	}
	return t
}

// Fig5 reproduces Figure 5: top-5 companies per corpus segment at the
// most recent snapshot. Alexa rank thresholds scale with the world so a
// 1/20-scale corpus uses top-50/500/5000 in place of 1k/10k/100k.
func (s *Study) Fig5(ctx context.Context) (*report.Table, error) {
	t := report.NewTable(
		"Figure 5 — top five companies per segment (most recent snapshot)",
		"Segment", "N", "#1", "#2", "#3", "#4", "#5")

	addSegment := func(res *core.Result, seg analysis.Segment) {
		shares, total := analysis.SegmentShares(res, s.World.Directory, seg, 5)
		row := []string{seg.Name, fmt.Sprint(total)}
		for _, sh := range shares {
			row = append(row, fmt.Sprintf("%s %.0f (%.1f%%)", sh.Company, sh.Domains, sh.Percent))
		}
		t.AddRow(row...)
	}

	alexaRes, err := s.Result(ctx, world.CorpusAlexa, s.LastDate(world.CorpusAlexa))
	if err != nil {
		return nil, err
	}
	alexaN := len(s.World.Corpus(world.CorpusAlexa).Domains)
	for _, k := range []int{1000, 10000, 100000} {
		scaledK := int(float64(k) * float64(alexaN) / 93538.0)
		if scaledK < 10 {
			scaledK = 10
		}
		if scaledK > alexaN {
			break
		}
		addSegment(alexaRes, analysis.Segment{
			Name:    fmt.Sprintf("Alexa top %d (scaled from %d)", scaledK, k),
			Include: analysis.RankAtMost(scaledK),
		})
	}
	addSegment(alexaRes, analysis.Segment{Name: "Alexa all"})

	comRes, err := s.Result(ctx, world.CorpusCOM, s.LastDate(world.CorpusCOM))
	if err != nil {
		return nil, err
	}
	addSegment(comRes, analysis.Segment{Name: "COM all"})

	govRes, err := s.Result(ctx, world.CorpusGOV, s.LastDate(world.CorpusGOV))
	if err != nil {
		return nil, err
	}
	federal := s.federalSet()
	addSegment(govRes, analysis.Segment{
		Name: "GOV federal",
		Include: func(att core.DomainAttribution) bool {
			return federal[att.Domain]
		},
	})
	addSegment(govRes, analysis.Segment{
		Name: "GOV other",
		Include: func(att core.DomainAttribution) bool {
			return !federal[att.Domain]
		},
	})
	return t, nil
}

func (s *Study) federalSet() map[string]bool {
	out := make(map[string]bool)
	for _, d := range s.World.Corpus(world.CorpusGOV).Domains {
		if d.Federal {
			out[d.Name] = true
		}
	}
	return out
}

// fig6Panels defines which companies each Figure 6 panel tracks.
var fig6Panels = []struct {
	key     string
	title   string
	corpus  string
	track   []string
	withTop bool
}{
	{"6a", "Top Companies in Alexa", world.CorpusAlexa,
		[]string{"Google", "Microsoft", "Yandex", "ProofPoint", "Mimecast"}, true},
	{"6b", "Popular E-mail Security Companies in Alexa", world.CorpusAlexa,
		[]string{"ProofPoint", "Mimecast", "Barracuda", "Cisco Ironport", "AppRiver"}, false},
	{"6c", "Popular Web Hosting Companies in Alexa", world.CorpusAlexa,
		[]string{"GoDaddy", "OVH", "UnitedInternet", "Ukraine.ua", "NameCheap"}, false},
	{"6d", "Top Companies in COM", world.CorpusCOM,
		[]string{"GoDaddy", "Google", "Microsoft", "UnitedInternet", "OVH"}, true},
	{"6e", "Popular E-mail Security Companies in COM", world.CorpusCOM,
		[]string{"ProofPoint", "Mimecast", "Barracuda", "Cisco Ironport", "AppRiver"}, false},
	{"6f", "Popular Web Hosting Companies in COM", world.CorpusCOM,
		[]string{"GoDaddy", "OVH", "UnitedInternet", "Ukraine.ua", "NameCheap"}, false},
	{"6g", "Top Companies in GOV", world.CorpusGOV,
		[]string{"Microsoft", "Google", "Barracuda", "ProofPoint", "Mimecast"}, true},
	{"6h", "Popular E-mail Security Companies in GOV", world.CorpusGOV,
		[]string{"ProofPoint", "Mimecast", "Barracuda", "Cisco Ironport", "AppRiver"}, false},
	{"6i", "Popular Web Hosting Companies in GOV", world.CorpusGOV,
		[]string{"GoDaddy", "OVH", "UnitedInternet", "Ukraine.ua", "NameCheap"}, false},
}

// Fig6 reproduces all nine panels of Figure 6: longitudinal market-share
// series per corpus for top companies, e-mail security services, and web
// hosting companies.
//
// The panels cover 25 distinct corpus-snapshots; those are measured
// concurrently (bounded by Study.Parallelism) and then inferred as
// per-corpus delta chains — each date diffed against its predecessor and
// only the churned domains re-attributed — before the serial assembly
// pass reads them from cache. The chained results are byte-identical to
// inferring every date from scratch (core.InferDelta's contract); only
// the work differs.
func (s *Study) Fig6(ctx context.Context) ([]*report.Chart, error) {
	if err := s.chainResults(ctx, s.fig6Keys()); err != nil {
		return nil, err
	}
	var charts []*report.Chart
	for _, panel := range fig6Panels {
		dates := s.World.Corpus(panel.corpus).Dates
		l := analysis.NewLongitudinal(dates)
		for _, date := range dates {
			res, err := s.Result(ctx, panel.corpus, date)
			if err != nil {
				return nil, err
			}
			topN := 0
			if panel.withTop {
				topN = 5
			}
			l.Add(date, res, s.World.Directory, panel.track, topN)
		}
		chart := report.NewChart(fmt.Sprintf("Figure %s — %s", panel.key, panel.title), dates)
		for _, name := range panel.track {
			chart.AddSeries(name, percents(l.Get(name)))
		}
		if panel.withTop {
			chart.AddSeries("Top5 Total", percents(l.Get("TopN Total")))
			chart.AddSeries("Self-Hosted", percents(l.Get(analysis.SelfHostedLabel)))
		} else {
			chart.AddSeries("Total", percents(l.Get("Tracked Total")))
		}
		charts = append(charts, chart)
	}
	return charts, nil
}

// corpusDate is one (corpus, date) snapshot key.
type corpusDate struct {
	corpus, date string
}

// fig6Keys lists the distinct corpus-snapshots Figure 6 needs, in
// deterministic panel order.
func (s *Study) fig6Keys() []corpusDate {
	seen := make(map[corpusDate]bool)
	var keys []corpusDate
	for _, panel := range fig6Panels {
		for _, date := range s.World.Corpus(panel.corpus).Dates {
			k := corpusDate{panel.corpus, date}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// chainResults brings the given corpus-snapshots into the result cache.
// Snapshots are measured concurrently; inference then walks each
// corpus's dates in order as a delta chain — every date after the first
// is diffed against its predecessor and only the churned domains are
// re-attributed. Afterwards every key is resident in the Study caches,
// holding results byte-identical to a from-scratch run per date.
func (s *Study) chainResults(ctx context.Context, keys []corpusDate) error {
	snapErrs := make([]error, len(keys))
	parallel.Run(len(keys), parallel.Workers(s.Parallelism), func(i int) {
		_, snapErrs[i] = s.Snapshot(ctx, keys[i].corpus, keys[i].date)
	})
	for _, err := range snapErrs {
		if err != nil {
			return err
		}
	}
	dates := make(map[string][]string)
	var corpora []string
	for _, k := range keys {
		if _, ok := dates[k.corpus]; !ok {
			corpora = append(corpora, k.corpus)
		}
		dates[k.corpus] = append(dates[k.corpus], k.date)
	}
	errs := make([]error, len(corpora))
	parallel.Run(len(corpora), parallel.Workers(s.Parallelism), func(i int) {
		errs[i] = s.chainCorpus(ctx, corpora[i], dates[corpora[i]])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chainCorpus infers one corpus's dates sequentially, anchoring on a
// full inference of the first date and carrying each result forward as
// the prior for the next date's incremental run.
func (s *Study) chainCorpus(ctx context.Context, corpus string, dates []string) error {
	prevRes, err := s.Result(ctx, corpus, dates[0])
	if err != nil {
		return err
	}
	prevSnap, err := s.Snapshot(ctx, corpus, dates[0])
	if err != nil {
		return err
	}
	for _, date := range dates[1:] {
		snap, err := s.Snapshot(ctx, corpus, date)
		if err != nil {
			return err
		}
		changed := make(map[string]bool)
		if _, err := dataset.DiffSnapshots(prevSnap, snap, func(c dataset.Change) error {
			if c.Kind != dataset.DiffRemoved {
				changed[c.Domain] = true
			}
			return nil
		}); err != nil {
			return err
		}
		res, _ := core.InferDelta(snap, core.ApproachPriority, core.Config{
			Profiles:    s.Profiles,
			Parallelism: s.Parallelism,
		}, prevRes, changed)
		s.setResult(corpus, date, res)
		prevSnap, prevRes = snap, res
	}
	return nil
}

func percents(points []analysis.SeriesPoint) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.Percent
	}
	return out
}

// Fig7 reproduces Figure 7: the churn flow matrix for Alexa domains
// between the first and last snapshots.
func (s *Study) Fig7(ctx context.Context) (*report.Table, error) {
	first, err := s.Result(ctx, world.CorpusAlexa, s.FirstDate(world.CorpusAlexa))
	if err != nil {
		return nil, err
	}
	last, err := s.Result(ctx, world.CorpusAlexa, s.LastDate(world.CorpusAlexa))
	if err != nil {
		return nil, err
	}
	named := []string{"Google", "Microsoft", "Yandex"}
	ch := analysis.ComputeChurn(first, last, s.World.Directory, named)
	t := report.NewTable(
		"Figure 7 — churn in mail providers, Alexa first to last snapshot (rows: from, cols: to)",
		append([]string{"From \\ To"}, append(append([]string(nil), ch.Categories...), "stayed", "left", "arrived")...)...)
	summaries := ch.Summarize()
	for i, from := range ch.Categories {
		row := []string{from}
		for _, to := range ch.Categories {
			row = append(row, fmt.Sprint(ch.Flow(from, to)))
		}
		row = append(row,
			fmt.Sprint(summaries[i].Stayed),
			fmt.Sprint(summaries[i].Left),
			fmt.Sprint(summaries[i].Arrived))
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8 reproduces Figure 8: national provider preferences — the share of
// each studied ccTLD's domains using Google, Microsoft, Tencent and
// Yandex at the most recent snapshot.
func (s *Study) Fig8(ctx context.Context) (*report.Table, error) {
	res, err := s.Result(ctx, world.CorpusAlexa, s.LastDate(world.CorpusAlexa))
	if err != nil {
		return nil, err
	}
	track := []string{"Google", "Microsoft", "Tencent", "Yandex"}
	cells := analysis.CCTLDPreferences(res, s.World.Directory, track)
	t := report.NewTable(
		"Figure 8 — mail provider preferences by ccTLD (most recent snapshot)",
		"ccTLD", "Google", "Microsoft", "Tencent", "Yandex")
	byTLD := make(map[string]map[string]float64)
	var order []string
	for _, c := range cells {
		m := byTLD[c.TLD]
		if m == nil {
			m = make(map[string]float64)
			byTLD[c.TLD] = m
			order = append(order, c.TLD)
		}
		m[c.Company] = c.Percent
	}
	for _, tld := range order {
		m := byTLD[tld]
		t.AddRow("."+tld,
			fmt.Sprintf("%.1f%%", m["Google"]),
			fmt.Sprintf("%.1f%%", m["Microsoft"]),
			fmt.Sprintf("%.1f%%", m["Tencent"]),
			fmt.Sprintf("%.1f%%", m["Yandex"]))
	}
	return t, nil
}

// ExtSPF evaluates the paper's §3.4 future-work extension: using SPF
// policies to discover the eventual mailbox provider behind the first MX
// hop, across all corpora at the most recent snapshot.
func (s *Study) ExtSPF(ctx context.Context) (*report.Table, error) {
	t := report.NewTable(
		"Extension — SPF-based eventual provider discovery (most recent snapshot)",
		"Corpus", "SPF coverage", "MX/SPF agree", "disagree", "filtered domains", "mailbox revealed", "top mailbox providers")
	for _, corpus := range Corpora() {
		date := s.LastDate(corpus)
		snap, err := s.Snapshot(ctx, corpus, date)
		if err != nil {
			return nil, err
		}
		res, err := s.Result(ctx, corpus, date)
		if err != nil {
			return nil, err
		}
		stats := analysis.ComputeSPF(snap, res, s.World.Directory)
		top := ""
		for i, sh := range stats.MailboxShares() {
			if i == 2 {
				break
			}
			if i > 0 {
				top += ", "
			}
			top += fmt.Sprintf("%s %.0f%%", sh.Company, sh.Percent)
		}
		t.AddRow(corpus,
			fmt.Sprintf("%d/%d (%.1f%%)", stats.WithSPF, stats.Total, 100*float64(stats.WithSPF)/float64(max(stats.Total, 1))),
			fmt.Sprint(stats.Agree), fmt.Sprint(stats.Disagree),
			fmt.Sprint(stats.FilteredTotal), fmt.Sprint(stats.FilteredWithMailbox), top)
	}
	return t, nil
}

// ExtConcentration quantifies the paper's consolidation narrative with
// market-concentration metrics per corpus over time: the HHI index, the
// top-4 concentration ratio, and the effective number of companies.
func (s *Study) ExtConcentration(ctx context.Context) (*report.Table, error) {
	t := report.NewTable(
		"Extension — provider market concentration over time (self-hosting excluded)",
		"Corpus", "Date", "HHI", "CR1", "CR4", "CR8", "effective companies")
	for _, corpus := range Corpora() {
		dates := s.World.Corpus(corpus).Dates
		for _, date := range []string{dates[0], dates[len(dates)/2], dates[len(dates)-1]} {
			res, err := s.Result(ctx, corpus, date)
			if err != nil {
				return nil, err
			}
			c := analysis.ComputeConcentration(res, s.World.Directory)
			t.AddRow(corpus, date,
				fmt.Sprintf("%.0f", c.HHI),
				fmt.Sprintf("%.1f%%", c.CR1),
				fmt.Sprintf("%.1f%%", c.CR4),
				fmt.Sprintf("%.1f%%", c.CR8),
				fmt.Sprintf("%.1f", c.EffectiveCompanies))
		}
	}
	return t, nil
}

// Table6 reproduces Table 6: the top 15 companies per corpus at the most
// recent snapshot, with domain counts and shares.
func (s *Study) Table6(ctx context.Context) (*report.Table, error) {
	t := report.NewTable(
		"Table 6 — top 15 companies per corpus (most recent snapshot)",
		"Rank", "Alexa", "COM", "GOV")
	type col struct {
		shares []analysis.Share
		total  float64
		pct    float64
	}
	cols := make(map[string]col)
	for _, corpus := range Corpora() {
		res, err := s.Result(ctx, corpus, s.LastDate(corpus))
		if err != nil {
			return nil, err
		}
		credits := analysis.CompanyCredits(res, s.World.Directory)
		shares := analysis.TopShares(credits, len(res.Domains), 15)
		var sumD, sumP float64
		for _, sh := range shares {
			sumD += sh.Domains
			sumP += sh.Percent
		}
		cols[corpus] = col{shares: shares, total: sumD, pct: sumP}
	}
	cell := func(corpus string, i int) string {
		c := cols[corpus]
		if i >= len(c.shares) {
			return ""
		}
		sh := c.shares[i]
		return fmt.Sprintf("%s %.0f (%.1f%%)", sh.Company, sh.Domains, sh.Percent)
	}
	for i := 0; i < 15; i++ {
		t.AddRow(fmt.Sprint(i+1),
			cell(world.CorpusAlexa, i), cell(world.CorpusCOM, i), cell(world.CorpusGOV, i))
	}
	t.AddRow("Total",
		fmt.Sprintf("%.0f (%.1f%%)", cols[world.CorpusAlexa].total, cols[world.CorpusAlexa].pct),
		fmt.Sprintf("%.0f (%.1f%%)", cols[world.CorpusCOM].total, cols[world.CorpusCOM].pct),
		fmt.Sprintf("%.0f (%.1f%%)", cols[world.CorpusGOV].total, cols[world.CorpusGOV].pct))
	return t, nil
}
