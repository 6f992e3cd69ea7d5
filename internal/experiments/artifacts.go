package experiments

import (
	"context"
	"fmt"

	"mxmap/internal/analysis"
	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/report"
	"mxmap/internal/world"
)

// Fig4 reproduces Figure 4 (Plan.Fig4) with a plan of its own.
func (s *Study) Fig4(ctx context.Context, sampleSize int, seed uint64) (*report.Table, error) {
	return runPlan(ctx, s, func(p *Plan) func() (*report.Table, error) { return p.Fig4(sampleSize, seed) })
}

// Fig4 reproduces Figure 4: the relative accuracy of the four approaches
// on sampled domains (with SMTP servers) from each corpus, in both the
// random and unique-MX variants. sampleSize follows the paper's 200.
func (p *Plan) Fig4(sampleSize int, seed uint64) func() (*report.Table, error) {
	rows := p.accuracy(sampleSize, seed, core.Config{Profiles: p.s.Profiles})
	return func() (*report.Table, error) {
		t := report.NewTable(
			"Figure 4 — correctly inferred domains per approach (sample size varies with corpus)",
			"Sample", "N", "MX-only", "cert-based", "banner-based", "priority-based", "examined@4")
		for _, r := range rows {
			// The results follow core.Approaches: MX-only, cert-based,
			// banner-based, then priority-based.
			prio := r.results[len(r.results)-1]
			row := []string{r.label, fmt.Sprint(prio.Total)}
			for _, res := range r.results {
				row = append(row, fmt.Sprintf("%d (%.1f%%)", res.Correct, res.Percent()))
			}
			t.AddRow(append(row, fmt.Sprint(prio.Examined))...)
		}
		return t, nil
	}
}

// accuracyRow is one Figure 4 sample: a corpus, random or unique-MX.
type accuracyRow struct {
	label   string
	results []analysis.AccuracyResult
}

// accuracy registers the grading of the four approaches, run with cfg,
// on Figure 4's six samples: a read of each corpus's last file. Run
// fills the rows, two per corpus in Corpora order.
func (p *Plan) accuracy(sampleSize int, seed uint64, cfg core.Config) []accuracyRow {
	s := p.s
	rows := make([]accuracyRow, 2*len(Corpora()))
	for i, corpus := range Corpora() {
		date := s.LastDate(corpus)
		p.read(corpus, date, func(src dataset.Source) error {
			truth := s.truthIndex(corpus, s.World.Corpus(corpus).DateIndex(date))
			for j, uniqueMX := range []bool{false, true} {
				results, err := analysis.EvaluateAccuracy(src, analysis.AccuracyConfig{
					SampleSize:  sampleSize,
					UniqueMX:    uniqueMX,
					Seed:        seed,
					Truth:       func(domain string) string { return truth[domain] },
					Company:     s.companyBucket,
					InferConfig: cfg,
				})
				if err != nil {
					return err
				}
				label := corpus
				if uniqueMX {
					label += " w/Unique MX"
				}
				rows[2*i+j] = accuracyRow{label, results}
			}
			return nil
		})
	}
	return rows
}

// Table4 reproduces Table 4 (Plan.Table4) with a plan of its own.
func (s *Study) Table4(ctx context.Context) (*report.Table, error) {
	return runPlan(ctx, s, (*Plan).Table4)
}

// Table4 reproduces Table 4: the data-availability breakdown of each
// corpus at the most recent snapshot, dataset.BreakdownOf each last
// file.
func (p *Plan) Table4() func() (*report.Table, error) {
	breakdowns := make([]dataset.Breakdown, len(Corpora())) // the columns' order
	for i, corpus := range Corpora() {
		p.read(corpus, p.s.LastDate(corpus), func(src dataset.Source) (err error) {
			breakdowns[i], err = dataset.BreakdownOf(src)
			return err
		})
	}
	return func() (*report.Table, error) {
		t := report.NewTable(
			"Table 4 — data availability breakdown (most recent snapshot)",
			"Category", "Alexa", "COM", "GOV")
		for _, cat := range dataset.Categories() {
			row := []string{cat.String()}
			for _, b := range breakdowns {
				row = append(row, fmt.Sprint(b.Count(cat)))
			}
			t.AddRow(row...)
		}
		total := []string{"Total"}
		for _, b := range breakdowns {
			total = append(total, fmt.Sprint(b.Total))
		}
		t.AddRow(total...)
		return t, nil
	}
}

// Table5 renders Table 5 (Study.Table5) in a plan: it reads no file.
func (p *Plan) Table5() func() (*report.Table, error) {
	return func() (*report.Table, error) { return p.s.Table5(), nil }
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

// Fig5 reproduces Figure 5 (Plan.Fig5) with a plan of its own.
func (s *Study) Fig5(ctx context.Context) (*report.Table, error) {
	return runPlan(ctx, s, (*Plan).Fig5)
}

// Fig5 reproduces Figure 5: top-5 companies per corpus segment at the
// most recent snapshot. Alexa rank thresholds scale with the world so a
// 1/20-scale corpus uses top-50/500/5000 in place of 1k/10k/100k.
func (p *Plan) Fig5() func() (*report.Table, error) {
	segs := p.fig5Segments()
	return func() (*report.Table, error) {
		t := report.NewTable(
			"Figure 5 — top five companies per segment (most recent snapshot)",
			"Segment", "N", "#1", "#2", "#3", "#4", "#5")
		for _, seg := range segs {
			row := []string{seg.Name, fmt.Sprint(seg.Domains())}
			for _, sh := range seg.TopShares(5) {
				row = append(row, fmt.Sprintf("%s %.0f (%.1f%%)", sh.Company, sh.Domains, sh.Percent))
			}
			t.AddRow(row...)
		}
		return t, nil
	}
}

// fig5Segments registers Figure 5's segments, in row order: the pass
// over each corpus's last file feeds that corpus's segments.
func (p *Plan) fig5Segments() []*analysis.Segment {
	s := p.s
	dir := s.World.Directory
	var alexa []*analysis.Segment
	alexaN := len(s.World.Corpus(world.CorpusAlexa).Domains)
	for _, k := range []int{1000, 10000, 100000} {
		scaledK := int(float64(k) * float64(alexaN) / 93538.0)
		if scaledK < 10 {
			scaledK = 10
		}
		if scaledK > alexaN {
			break
		}
		alexa = append(alexa, analysis.NewSegment(
			fmt.Sprintf("Alexa top %d (scaled from %d)", scaledK, k), analysis.RankAtMost(scaledK), dir))
	}
	alexa = append(alexa, analysis.NewSegment("Alexa all", nil, dir))
	federal := make(map[string]bool)
	for _, d := range s.World.Corpus(world.CorpusGOV).Domains {
		federal[d.Name] = d.Federal
	}
	var out []*analysis.Segment
	for _, c := range []struct {
		corpus string
		segs   []*analysis.Segment
	}{
		{world.CorpusAlexa, alexa},
		{world.CorpusCOM, []*analysis.Segment{analysis.NewSegment("COM all", nil, dir)}},
		{world.CorpusGOV, []*analysis.Segment{
			analysis.NewSegment("GOV federal", func(att core.DomainAttribution) bool { return federal[att.Domain] }, dir),
			analysis.NewSegment("GOV other", func(att core.DomainAttribution) bool { return !federal[att.Domain] }, dir),
		}},
	} {
		p.fold(c.corpus, s.LastDate(c.corpus), func(_ *dataset.DomainRecord, att core.DomainAttribution) {
			for _, seg := range c.segs {
				seg.Add(att)
			}
		})
		out = append(out, c.segs...)
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

// Fig6 reproduces Figure 6 (Plan.Fig6) with a plan of its own.
func (s *Study) Fig6(ctx context.Context) ([]*report.Chart, error) {
	return runPlan(ctx, s, (*Plan).Fig6)
}

// Fig6 reproduces all nine panels of Figure 6: longitudinal market-share
// series per corpus for top companies, e-mail security services, and web
// hosting companies. The panels read the market of every date of every
// corpus, 25 distinct keys; the serial assembly reads the panels'
// series off the keys' accumulators.
func (p *Plan) Fig6() func() ([]*report.Chart, error) {
	shares := make(map[corpusDate]*analysis.ShareAccumulator)
	for _, panel := range fig6Panels {
		for _, date := range p.s.World.Corpus(panel.corpus).Dates {
			shares[corpusDate{panel.corpus, date}] = p.shares(panel.corpus, date)
		}
	}
	return func() ([]*report.Chart, error) {
		var charts []*report.Chart
		for _, panel := range fig6Panels {
			dates := p.s.World.Corpus(panel.corpus).Dates
			l := analysis.NewLongitudinal()
			for _, date := range dates {
				topN := 0
				if panel.withTop {
					topN = 5
				}
				l.Add(shares[corpusDate{panel.corpus, date}], panel.track, topN)
			}
			chart := report.NewChart(fmt.Sprintf("Figure %s — %s", panel.key, panel.title), dates)
			for _, name := range panel.track {
				chart.AddSeries(name, l.Get(name))
			}
			if panel.withTop {
				chart.AddSeries("Top5 Total", l.Get("TopN Total"))
				chart.AddSeries("Self-Hosted", l.Get(analysis.SelfHostedLabel))
			} else {
				chart.AddSeries("Total", l.Get("Tracked Total"))
			}
			charts = append(charts, chart)
		}
		return charts, nil
	}
}

// Fig7 reproduces Figure 7 (Plan.Fig7) with a plan of its own.
func (s *Study) Fig7(ctx context.Context) (*report.Table, error) {
	return runPlan(ctx, s, (*Plan).Fig7)
}

// Fig7 reproduces Figure 7: the churn flow matrix for Alexa domains
// between the first and last snapshots. The two passes feed the two
// sides of one analysis.ChurnJoin, in either order or at once.
func (p *Plan) Fig7() func() (*report.Table, error) {
	join := analysis.NewChurnJoin(p.s.World.Directory, []string{"Google", "Microsoft", "Yandex"})
	p.fold(world.CorpusAlexa, p.s.FirstDate(world.CorpusAlexa), func(_ *dataset.DomainRecord, att core.DomainAttribution) { join.AddFirst(att) })
	p.fold(world.CorpusAlexa, p.s.LastDate(world.CorpusAlexa), func(_ *dataset.DomainRecord, att core.DomainAttribution) { join.AddLast(att) })
	return func() (*report.Table, error) {
		ch, err := join.Churn()
		if err != nil {
			return nil, err
		}
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
}

// Fig8 reproduces Figure 8 (Plan.Fig8) with a plan of its own.
func (s *Study) Fig8(ctx context.Context) (*report.Table, error) {
	return runPlan(ctx, s, (*Plan).Fig8)
}

// Fig8 reproduces Figure 8: national provider preferences — the share of
// each studied ccTLD's domains using Google, Microsoft, Tencent and
// Yandex at the most recent snapshot.
func (p *Plan) Fig8() func() (*report.Table, error) {
	prefs := analysis.NewCCTLDPreferences(p.s.World.Directory)
	p.fold(world.CorpusAlexa, p.s.LastDate(world.CorpusAlexa), func(_ *dataset.DomainRecord, att core.DomainAttribution) {
		prefs.Add(att)
	})
	return func() (*report.Table, error) {
		track := []string{"Google", "Microsoft", "Tencent", "Yandex"}
		t := report.NewTable(
			"Figure 8 — mail provider preferences by ccTLD (most recent snapshot)",
			append([]string{"ccTLD"}, track...)...)
		for _, tld := range prefs.TLDs() {
			row := []string{"." + tld}
			for _, company := range track {
				row = append(row, fmt.Sprintf("%.1f%%", prefs.Percent(tld, company)))
			}
			t.AddRow(row...)
		}
		return t, nil
	}
}

// ExtSPF evaluates the SPF extension (Plan.ExtSPF) with a plan of its
// own.
func (s *Study) ExtSPF(ctx context.Context) (*report.Table, error) {
	return runPlan(ctx, s, (*Plan).ExtSPF)
}

// ExtSPF evaluates the paper's §3.4 future-work extension: using SPF
// policies to discover the eventual mailbox provider behind the first MX
// hop, across all corpora at the most recent snapshot.
func (p *Plan) ExtSPF() func() (*report.Table, error) {
	stats := make([]*analysis.SPFStats, len(Corpora()))
	for i, corpus := range Corpora() {
		stats[i] = analysis.NewSPFStats(p.s.World.Directory)
		p.fold(corpus, p.s.LastDate(corpus), stats[i].Add)
	}
	return func() (*report.Table, error) {
		t := report.NewTable(
			"Extension — SPF-based eventual provider discovery (most recent snapshot)",
			"Corpus", "SPF coverage", "MX/SPF agree", "disagree", "filtered domains", "mailbox revealed", "top mailbox providers")
		for c, corpus := range Corpora() {
			stats := stats[c]
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
}

// ExtConcentration measures market concentration
// (Plan.ExtConcentration) with a plan of its own.
func (s *Study) ExtConcentration(ctx context.Context) (*report.Table, error) {
	return runPlan(ctx, s, (*Plan).ExtConcentration)
}

// ExtConcentration quantifies the paper's consolidation narrative with
// market-concentration metrics per corpus over time: the HHI index, the
// top-4 concentration ratio, and the effective number of companies.
func (p *Plan) ExtConcentration() func() (*report.Table, error) {
	type cell struct {
		corpus, date string
		acc          *analysis.ShareAccumulator
	}
	var cells []cell
	for _, corpus := range Corpora() {
		dates := p.s.World.Corpus(corpus).Dates
		for _, date := range []string{dates[0], dates[len(dates)/2], dates[len(dates)-1]} {
			cells = append(cells, cell{corpus, date, p.shares(corpus, date)})
		}
	}
	return func() (*report.Table, error) {
		t := report.NewTable(
			"Extension — provider market concentration over time (self-hosting excluded)",
			"Corpus", "Date", "HHI", "CR1", "CR4", "CR8", "effective companies")
		for _, c := range cells {
			m := c.acc.Concentration()
			t.AddRow(c.corpus, c.date,
				fmt.Sprintf("%.0f", m.HHI),
				fmt.Sprintf("%.1f%%", m.CR1),
				fmt.Sprintf("%.1f%%", m.CR4),
				fmt.Sprintf("%.1f%%", m.CR8),
				fmt.Sprintf("%.1f", m.EffectiveCompanies))
		}
		return t, nil
	}
}

// Table6 reproduces Table 6 (Plan.Table6) with a plan of its own.
func (s *Study) Table6(ctx context.Context) (*report.Table, error) {
	return runPlan(ctx, s, (*Plan).Table6)
}

// Table6 reproduces Table 6: the top 15 companies per corpus at the most
// recent snapshot, with domain counts and shares.
func (p *Plan) Table6() func() (*report.Table, error) {
	accs := make([]*analysis.ShareAccumulator, len(Corpora())) // the columns' order
	for i, corpus := range Corpora() {
		accs[i] = p.shares(corpus, p.s.LastDate(corpus))
	}
	return func() (*report.Table, error) {
		t := report.NewTable(
			"Table 6 — top 15 companies per corpus (most recent snapshot)",
			"Rank", "Alexa", "COM", "GOV")
		type col struct {
			shares []analysis.Share
			total  float64
			pct    float64
		}
		cols := make([]col, len(accs))
		for i, acc := range accs {
			shares := acc.TopShares(15)
			var sumD, sumP float64
			for _, sh := range shares {
				sumD += sh.Domains
				sumP += sh.Percent
			}
			cols[i] = col{shares: shares, total: sumD, pct: sumP}
		}
		for i := 0; i < 15; i++ {
			row := []string{fmt.Sprint(i + 1)}
			for _, c := range cols {
				cell := ""
				if i < len(c.shares) {
					sh := c.shares[i]
					cell = fmt.Sprintf("%s %.0f (%.1f%%)", sh.Company, sh.Domains, sh.Percent)
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		total := []string{"Total"}
		for _, c := range cols {
			total = append(total, fmt.Sprintf("%.0f (%.1f%%)", c.total, c.pct))
		}
		t.AddRow(total...)
		return t, nil
	}
}
