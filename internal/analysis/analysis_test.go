package analysis

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/psl"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// The analysis tests run against one small end-to-end measured world.
var (
	testW       *world.World
	testResults map[string]map[string]*core.Result // corpus -> date -> result
)

func setup(t *testing.T) (*world.World, map[string]map[string]*core.Result) {
	t.Helper()
	if testW != nil {
		return testW, testResults
	}
	w, err := world.Generate(world.Config{Seed: 5, Scale: 0.004, TailProviders: 20, SelfISPs: 6})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := scan.NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	results := make(map[string]map[string]*core.Result)
	cfg := core.Config{Profiles: testProfiles(w)}
	for _, corpus := range []string{world.CorpusAlexa, world.CorpusGOV} {
		results[corpus] = make(map[string]*core.Result)
		dates := w.Corpus(corpus).Dates
		for _, date := range []string{dates[0], dates[len(dates)-1]} {
			snap, err := sess.Snapshot(context.Background(), corpus, date)
			if err != nil {
				t.Fatal(err)
			}
			results[corpus][date] = core.Infer(snap, core.ApproachPriority, cfg)
		}
	}
	testW, testResults = w, results
	return w, results
}

func testProfiles(w *world.World) []core.ProviderProfile {
	var out []core.ProviderProfile
	for _, c := range w.Directory.Companies() {
		if len(c.ProviderIDs) == 0 {
			continue
		}
		out = append(out, core.ProviderProfile{
			ID:   c.ProviderIDs[0],
			ASNs: c.ASNs,
			VPSPatterns: []string{
				"vps*." + c.ProviderIDs[0], "s*-*-*." + c.ProviderIDs[0],
			},
			DedicatedPatterns: []string{
				"mailstore*." + c.ProviderIDs[0], "mx*." + c.ProviderIDs[0],
				"shared*.shared." + c.ProviderIDs[0],
			},
		})
	}
	return out
}

func TestCompanyOf(t *testing.T) {
	dir := companies.Curated()
	cases := []struct {
		domain, id, want string
	}{
		{"example.com", "google.com", "Google"},
		{"example.com", "outlook.com", "Microsoft"},
		{"example.com", "example.com", SelfHostedLabel},
		{"sub.example.co.uk", "example.co.uk", SelfHostedLabel},
		{"example.com", "tiny-host.net", "tiny-host.net"},
	}
	for _, c := range cases {
		if got := CompanyOf(c.domain, c.id, dir); got != c.want {
			t.Errorf("CompanyOf(%q, %q) = %q, want %q", c.domain, c.id, got, c.want)
		}
	}
}

// companyOfPSL is CompanyOf as it reads with psl.RegisteredDomain
// asked for every domain: FuzzCompanyOf's reference.
func companyOfPSL(domain, providerID string, dir *companies.Directory) string {
	if reg, ok := psl.RegisteredDomain(domain); ok && reg == providerID {
		return SelfHostedLabel
	}
	if providerID == domain {
		return SelfHostedLabel
	}
	if dir != nil {
		return dir.CompanyName(providerID)
	}
	return providerID
}

// FuzzCompanyOf holds CompanyOf, which asks the suffix list only when
// the provider could be the domain's registered domain, to the answer
// the list walk gives for every pair.
func FuzzCompanyOf(f *testing.F) {
	for _, seed := range [][2]string{
		{"example.com", "example.com"},
		{"sub.example.co.uk", "example.co.uk"},
		{"sub.example.co.uk", "co.uk"},
		{"example.com", "google.com"},
		{"Example.COM", "example.com"},
		{"mail.Example.com", "example.com"},
		{"example.com.", "example.com"},
		{"example.com.", "example.com."},
		{"example.com..", "example.com."},
		{" example.com", "example.com"},
		{"example.com\t", "example.com"},
		{"example.com\n.", "example.com"},
		{"bücher.de", "bücher.de"},
		{"mail.bücher.de", "bücher.de"},
		{"exam\u00a0ple.com", "exam\u00a0ple.com"},
		{"xfoo.com", "foo.com"},
		{"x.foo.com", "foo.com"},
		{"foo.com", "xfoo.com"},
		{"xfoo.com.", "foo.com"},
		{".foo.com", "foo.com"},
		{"a..foo.com", "foo.com"},
		{"com", "com"},
		{"foo.com", ""},
		{"", ""},
		{"foo.s3.amazonaws.com", "s3.amazonaws.com"},
		{"x.city.kawasaki.jp", "city.kawasaki.jp"},
	} {
		f.Add(seed[0], seed[1])
	}
	dir := companies.Curated()
	f.Fuzz(func(t *testing.T, domain, providerID string) {
		for _, d := range []*companies.Directory{nil, dir} {
			if got, want := CompanyOf(domain, providerID, d), companyOfPSL(domain, providerID, d); got != want {
				t.Errorf("CompanyOf(%q, %q) = %q, the list walk gives %q", domain, providerID, got, want)
			}
		}
	})
}

func TestMarketShareTopCompanies(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	res := results[world.CorpusAlexa][dates[len(dates)-1]]
	credits := CompanyCredits(res, w.Directory)
	shares := TopShares(credits, len(res.Domains), 5)
	if len(shares) != 5 {
		t.Fatalf("top shares = %d", len(shares))
	}
	// Figure 5: Google first, Microsoft second for Alexa.
	if shares[0].Company != "Google" {
		t.Errorf("top company = %s, want Google (shares: %+v)", shares[0].Company, shares)
	}
	if shares[1].Company != "Microsoft" {
		t.Errorf("second company = %s, want Microsoft", shares[1].Company)
	}
	if shares[0].Percent < 20 || shares[0].Percent > 40 {
		t.Errorf("Google share = %.1f%%, want ~28.5%%", shares[0].Percent)
	}
}

func TestGovTopCompanies(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusGOV).Dates
	res := results[world.CorpusGOV][dates[len(dates)-1]]
	shares, total := SegmentShares(res, w.Directory, Segment{Name: "all"}, 2)
	if total != len(res.Domains) {
		t.Fatalf("segment total = %d", total)
	}
	// Figure 5: Microsoft leads .gov.
	if len(shares) == 0 || shares[0].Company != "Microsoft" {
		t.Errorf("gov top = %+v, want Microsoft first", shares)
	}
}

func TestSegmentRankFilter(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	res := results[world.CorpusAlexa][dates[len(dates)-1]]
	_, totalAll := SegmentShares(res, w.Directory, Segment{}, 5)
	_, totalTop := SegmentShares(res, w.Directory, Segment{Include: RankAtMost(50)}, 5)
	if totalTop != 50 {
		t.Errorf("rank<=50 segment has %d domains", totalTop)
	}
	if totalAll <= totalTop {
		t.Errorf("totals: all=%d top=%d", totalAll, totalTop)
	}
}

func TestSelfHostedDeclines(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	first := results[world.CorpusAlexa][dates[0]]
	last := results[world.CorpusAlexa][dates[len(dates)-1]]
	_, pctFirst := SelfHostedCount(first, w.Directory)
	_, pctLast := SelfHostedCount(last, w.Directory)
	if pctLast >= pctFirst {
		t.Errorf("self-hosted share did not decline: %.1f%% -> %.1f%%", pctFirst, pctLast)
	}
	if pctFirst < 5 || pctFirst > 20 {
		t.Errorf("2017 self-hosted share = %.1f%%, want ~11.7%%", pctFirst)
	}
}

func TestLongitudinalSeries(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	l := NewLongitudinal([]string{dates[0], dates[len(dates)-1]})
	track := []string{"Google", "Microsoft"}
	l.Add(dates[0], results[world.CorpusAlexa][dates[0]], w.Directory, track, 5)
	l.Add(dates[len(dates)-1], results[world.CorpusAlexa][dates[len(dates)-1]], w.Directory, track, 5)
	g := l.Get("Google")
	if len(g) != 2 {
		t.Fatalf("google series = %+v", g)
	}
	if g[1].Percent <= g[0].Percent {
		t.Errorf("google series not growing: %+v", g)
	}
	if len(l.Get("TopN Total")) != 2 || len(l.Get(SelfHostedLabel)) != 2 {
		t.Error("aggregate series missing")
	}
}

func TestChurnMatrix(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	first := results[world.CorpusAlexa][dates[0]]
	last := results[world.CorpusAlexa][dates[len(dates)-1]]
	named := []string{"Google", "Microsoft", "Yandex"}
	ch := ComputeChurn(first, last, w.Directory, named)

	// Flows must partition the corpus.
	total := 0
	for _, f := range ch.Flows {
		total += f.Count
	}
	if total != len(first.Domains) {
		t.Errorf("flows sum to %d, want %d", total, len(first.Domains))
	}
	// The bulk of Google's 2017 domains stay with Google.
	if ch.Stayed("Google") == 0 {
		t.Error("no domains stayed with Google")
	}
	// Self-hosted must shrink, with some leavers going to Google or
	// Microsoft (the paper's highlighted flow).
	toBig := ch.Flow(SelfHostedLabel, "Google") + ch.Flow(SelfHostedLabel, "Microsoft")
	if out := ch.Outflow(SelfHostedLabel); out > 0 && toBig == 0 {
		t.Errorf("self-hosted leavers: %d, none to Google/Microsoft", out)
	}
}

func TestCCTLDPreferences(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	res := results[world.CorpusAlexa][dates[len(dates)-1]]
	track := []string{"Google", "Microsoft", "Tencent", "Yandex"}
	cells := CCTLDPreferences(res, w.Directory, track)
	if len(cells) == 0 {
		t.Fatal("no ccTLD cells")
	}
	get := func(tld, company string) float64 {
		for _, c := range cells {
			if c.TLD == tld && c.Company == company {
				return c.Percent
			}
		}
		return -1
	}
	// Yandex is essentially .ru-only; Tencent .cn-only (Figure 8).
	if ruY := get("ru", "Yandex"); ruY >= 0 {
		for _, tld := range []string{"br", "de", "uk", "jp"} {
			if other := get(tld, "Yandex"); other > ruY {
				t.Errorf("Yandex in .%s (%.1f%%) exceeds .ru (%.1f%%)", tld, other, ruY)
			}
		}
	}
	if cnT := get("cn", "Tencent"); cnT > 0 {
		if brT := get("br", "Tencent"); brT > cnT {
			t.Errorf("Tencent .br %.1f%% > .cn %.1f%%", brT, cnT)
		}
	}
}

// TestCountryOfDomain: the ccTLD of Figure 8 is the last label, whatever
// the public suffix; gTLD and dotless names are outside the analysis.
func TestCountryOfDomain(t *testing.T) {
	var res core.Result
	for _, domain := range []string{"example.ru", "example.cn", "example.com", "example.co.uk", "example"} {
		res.Domains = append(res.Domains, core.DomainAttribution{Domain: domain, Credits: map[string]float64{"p": 1}})
	}
	var got []string
	for _, c := range CCTLDPreferences(&res, nil, []string{"p"}) {
		got = append(got, fmt.Sprintf("%s=%g", c.TLD, c.Domains))
	}
	if want := "cn=1 ru=1 uk=1"; strings.Join(got, " ") != want {
		t.Errorf("cells = %v, want %s", got, want)
	}
	if len(CCTLDs()) != 15 {
		t.Errorf("CCTLDs = %v", CCTLDs())
	}
}

func TestAccuracyEvaluation(t *testing.T) {
	w, _ := setup(t)
	sess, err := scan.NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dates := w.Corpus(world.CorpusAlexa).Dates
	snap, err := sess.Snapshot(context.Background(), world.CorpusAlexa, dates[len(dates)-1])
	if err != nil {
		t.Fatal(err)
	}
	corpus := w.Corpus(world.CorpusAlexa)
	dateIdx := corpus.DateIndex(dates[len(dates)-1])
	byName := make(map[string]*world.Domain)
	for _, d := range corpus.Domains {
		byName[d.Name] = d
	}
	cfg := AccuracyConfig{
		SampleSize: 150,
		Seed:       9,
		Truth: func(domain string) string {
			d := byName[domain]
			if d == nil {
				return ""
			}
			truth := w.TruthCompany(d, dateIdx)
			if truth == d.Name {
				return SelfHostedLabel
			}
			return truth
		},
		Company: func(domain, providerID string) string {
			return CompanyOf(domain, providerID, w.Directory)
		},
		InferConfig: core.Config{Profiles: testProfiles(w)},
	}
	results := EvaluateAccuracy(snap, cfg)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byApproach := map[core.Approach]AccuracyResult{}
	for _, r := range results {
		byApproach[r.Approach] = r
		t.Logf("%s: %d/%d (%.1f%%), examined %d", r.Approach, r.Correct, r.Total, r.Percent(), r.Examined)
	}
	pr := byApproach[core.ApproachPriority]
	mx := byApproach[core.ApproachMXOnly]
	if pr.Percent() < 90 {
		t.Errorf("priority accuracy = %.1f%%", pr.Percent())
	}
	if pr.Correct < mx.Correct {
		t.Errorf("priority (%d) worse than MX-only (%d)", pr.Correct, mx.Correct)
	}

	// Unique-MX variant: MX-only should fall sharply (the paper's 40%
	// on .com unique-MX), since shared provider MX names are excluded.
	cfg.UniqueMX = true
	uniq := EvaluateAccuracy(snap, cfg)
	var uniqMX, uniqPr AccuracyResult
	for _, r := range uniq {
		switch r.Approach {
		case core.ApproachMXOnly:
			uniqMX = r
		case core.ApproachPriority:
			uniqPr = r
		}
	}
	if uniqMX.Total == 0 {
		t.Fatal("unique-MX frame empty")
	}
	if uniqMX.Percent() >= mx.Percent() {
		t.Errorf("unique-MX should hurt MX-only: %.1f%% vs %.1f%%", uniqMX.Percent(), mx.Percent())
	}
	if uniqPr.Percent() < uniqMX.Percent() {
		t.Errorf("priority (%.1f%%) below MX-only (%.1f%%) on unique-MX", uniqPr.Percent(), uniqMX.Percent())
	}
}

func TestTopSharesExcludesSelfHosted(t *testing.T) {
	credits := map[string]float64{"Google": 10, SelfHostedLabel: 50, "Microsoft": 5}
	shares := TopShares(credits, 100, 0)
	for _, s := range shares {
		if s.Company == SelfHostedLabel {
			t.Error("TopShares included self-hosted bucket")
		}
	}
	if len(shares) != 2 || shares[0].Company != "Google" {
		t.Errorf("shares = %+v", shares)
	}
	if math.Abs(shares[0].Percent-10) > 1e-9 {
		t.Errorf("percent = %f", shares[0].Percent)
	}
}

func TestChurnSummaryConsistency(t *testing.T) {
	w, results := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	ch := ComputeChurn(
		results[world.CorpusAlexa][dates[0]],
		results[world.CorpusAlexa][dates[len(dates)-1]],
		w.Directory, []string{"Google", "Microsoft", "Yandex"})
	summaries := ch.Summarize()
	startTotal, endTotal := 0, 0
	for _, s := range summaries {
		if s.Start != s.Stayed+s.Left || s.End != s.Stayed+s.Arrived {
			t.Errorf("%s: inconsistent summary %+v", s.Category, s)
		}
		startTotal += s.Start
		endTotal += s.End
	}
	if startTotal != endTotal || startTotal != len(results[world.CorpusAlexa][dates[0]].Domains) {
		t.Errorf("summary totals: start=%d end=%d corpus=%d",
			startTotal, endTotal, len(results[world.CorpusAlexa][dates[0]].Domains))
	}
}
