package analysis

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// The analysis tests run against one small end-to-end measured world:
// the snapshots of two corpora at their first and last dates, each
// folded by the test that reads it.
var (
	testW     *world.World
	testSnaps map[string]map[string]*dataset.Snapshot // corpus -> date -> snapshot
)

func setup(t *testing.T) (*world.World, map[string]map[string]*dataset.Snapshot) {
	t.Helper()
	if testW != nil {
		return testW, testSnaps
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
	snaps := make(map[string]map[string]*dataset.Snapshot)
	for _, corpus := range []string{world.CorpusAlexa, world.CorpusGOV} {
		snaps[corpus] = make(map[string]*dataset.Snapshot)
		dates := w.Corpus(corpus).Dates
		for _, date := range []string{dates[0], dates[len(dates)-1]} {
			snaps[corpus][date] = collect(t, sess, corpus, date)
		}
	}
	testW, testSnaps = w, snaps
	return w, snaps
}

// collect measures one corpus date of a session's world into memory:
// one collector, the memory sink, records in target order.
func collect(t *testing.T, sess *scan.WorldSession, corpus, date string) *dataset.Snapshot {
	t.Helper()
	col, err := sess.NewCollector(corpus, date)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	targets, err := sess.Targets(corpus)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := col.Collect(context.Background(), corpus, date, targets)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// pass folds every attribution of a priority-based run over snap.
func pass(t *testing.T, w *world.World, snap *dataset.Snapshot, folds ...func(core.DomainAttribution)) {
	t.Helper()
	_, err := Fold(snap, core.ApproachPriority, core.Config{Profiles: testProfiles(w)}, func(_ *dataset.DomainRecord, att core.DomainAttribution) {
		for _, fold := range folds {
			fold(att)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// shares is a pass that feeds one ShareAccumulator.
func shares(t *testing.T, w *world.World, snap *dataset.Snapshot) *ShareAccumulator {
	t.Helper()
	acc := NewShareAccumulator(w.Directory)
	pass(t, w, snap, acc.Add)
	return acc
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
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	top := shares(t, w, snaps[world.CorpusAlexa][dates[len(dates)-1]]).TopShares(5)
	if len(top) != 5 {
		t.Fatalf("top shares = %d", len(top))
	}
	// Figure 5: Google first, Microsoft second for Alexa.
	if top[0].Company != "Google" {
		t.Errorf("top company = %s, want Google (shares: %+v)", top[0].Company, top)
	}
	if top[1].Company != "Microsoft" {
		t.Errorf("second company = %s, want Microsoft", top[1].Company)
	}
	if top[0].Percent < 20 || top[0].Percent > 40 {
		t.Errorf("Google share = %.1f%%, want ~28.5%%", top[0].Percent)
	}
}

func TestGovTopCompanies(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusGOV).Dates
	snap := snaps[world.CorpusGOV][dates[len(dates)-1]]
	seg := NewSegment("all", nil, w.Directory)
	pass(t, w, snap, seg.Add)
	if seg.Domains() != len(snap.Domains) {
		t.Fatalf("segment total = %d", seg.Domains())
	}
	// Figure 5: Microsoft leads .gov.
	if shares := seg.TopShares(2); len(shares) == 0 || shares[0].Company != "Microsoft" {
		t.Errorf("gov top = %+v, want Microsoft first", shares)
	}
}

func TestSegmentRankFilter(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	all := NewSegment("all", nil, w.Directory)
	top := NewSegment("top 50", RankAtMost(50), w.Directory)
	pass(t, w, snaps[world.CorpusAlexa][dates[len(dates)-1]], all.Add, top.Add)
	if top.Domains() != 50 {
		t.Errorf("rank<=50 segment has %d domains", top.Domains())
	}
	if all.Domains() <= top.Domains() {
		t.Errorf("totals: all=%d top=%d", all.Domains(), top.Domains())
	}
}

func TestSelfHostedDeclines(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	_, pctFirst := SelfHostedCount(shares(t, w, snaps[world.CorpusAlexa][dates[0]]))
	_, pctLast := SelfHostedCount(shares(t, w, snaps[world.CorpusAlexa][dates[len(dates)-1]]))
	if pctLast >= pctFirst {
		t.Errorf("self-hosted share did not decline: %.1f%% -> %.1f%%", pctFirst, pctLast)
	}
	if pctFirst < 5 || pctFirst > 20 {
		t.Errorf("2017 self-hosted share = %.1f%%, want ~11.7%%", pctFirst)
	}
}

func TestLongitudinalSeries(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	l := NewLongitudinal()
	track := []string{"Google", "Microsoft"}
	for _, date := range []string{dates[0], dates[len(dates)-1]} {
		l.Add(shares(t, w, snaps[world.CorpusAlexa][date]), track, 5)
	}
	g := l.Get("Google")
	if len(g) != 2 {
		t.Fatalf("google series = %+v", g)
	}
	if g[1] <= g[0] {
		t.Errorf("google series not growing: %+v", g)
	}
	if len(l.Get("TopN Total")) != 2 || len(l.Get(SelfHostedLabel)) != 2 {
		t.Error("aggregate series missing")
	}
}

// churn joins the Alexa corpus's first and last snapshots.
func churn(t *testing.T, w *world.World, snaps map[string]map[string]*dataset.Snapshot) (*Churn, int) {
	t.Helper()
	dates := w.Corpus(world.CorpusAlexa).Dates
	join := NewChurnJoin(w.Directory, []string{"Google", "Microsoft", "Yandex"})
	first := snaps[world.CorpusAlexa][dates[0]]
	pass(t, w, first, join.AddFirst)
	pass(t, w, snaps[world.CorpusAlexa][dates[len(dates)-1]], join.AddLast)
	ch, err := join.Churn()
	if err != nil {
		t.Fatal(err)
	}
	return ch, len(first.Domains)
}

func TestChurnMatrix(t *testing.T) {
	w, snaps := setup(t)
	ch, domains := churn(t, w, snaps)

	// Flows must partition the corpus.
	total := 0
	for _, f := range ch.Flows {
		total += f.Count
	}
	if total != domains {
		t.Errorf("flows sum to %d, want %d", total, domains)
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

// TestChurnJoinRejectsOneSidedDomains: the join is a merge of two
// streams over one target list, so a domain on one side only, at either
// end or in the middle, is an error and not a silent skip.
func TestChurnJoinRejectsOneSidedDomains(t *testing.T) {
	att := func(domain string) core.DomainAttribution {
		return core.DomainAttribution{Domain: domain, HasSMTP: true, Credits: map[string]float64{"p.com": 1}}
	}
	for _, tc := range []struct {
		name        string
		first, last []string
		ok          bool
	}{
		{"same", []string{"a.com", "b.com"}, []string{"a.com", "b.com"}, true},
		{"first only at end", []string{"a.com", "b.com"}, []string{"a.com"}, false},
		{"last only at end", []string{"a.com"}, []string{"a.com", "b.com"}, false},
		{"first only in middle", []string{"a.com", "b.com", "c.com"}, []string{"a.com", "c.com"}, false},
		{"reordered", []string{"a.com", "b.com"}, []string{"b.com", "a.com"}, false},
	} {
		join := NewChurnJoin(nil, []string{"p.com"})
		for _, d := range tc.first {
			join.AddFirst(att(d))
		}
		for _, d := range tc.last {
			join.AddLast(att(d))
		}
		ch, err := join.Churn()
		switch {
		case tc.ok && (err != nil || ch.Stayed("p.com") != len(tc.first)):
			t.Errorf("%s: churn %+v, %v; want every domain staying with p.com", tc.name, ch, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: the join accepted streams that differ", tc.name)
		}
	}
}

// TestChurnJoinIgnoresPassOrder: a study runs the first and the last
// snapshot's passes at the same time, so the join may be fed the whole
// last side before the first, or the two interleaved; the Churn is the
// one fed first side first.
func TestChurnJoinIgnoresPassOrder(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	var first, last []core.DomainAttribution
	pass(t, w, snaps[world.CorpusAlexa][dates[0]], func(att core.DomainAttribution) { first = append(first, att) })
	pass(t, w, snaps[world.CorpusAlexa][dates[len(dates)-1]], func(att core.DomainAttribution) { last = append(last, att) })
	named := []string{"Google", "Microsoft", "Yandex"}
	want, _ := churn(t, w, snaps)
	for _, order := range []string{"last first", "interleaved"} {
		join := NewChurnJoin(w.Directory, named)
		switch order {
		case "last first":
			for _, att := range last {
				join.AddLast(att)
			}
			for _, att := range first {
				join.AddFirst(att)
			}
		case "interleaved":
			for i := range max(len(first), len(last)) {
				if i < len(last) {
					join.AddLast(last[i])
				}
				if i < len(first) {
					join.AddFirst(first[i])
				}
			}
		}
		got, err := join.Churn()
		if err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: churn %+v, want %+v", order, got, want)
		}
	}
}

func TestCCTLDPreferences(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	prefs := NewCCTLDPreferences(w.Directory)
	pass(t, w, snaps[world.CorpusAlexa][dates[len(dates)-1]], prefs.Add)
	tlds := prefs.TLDs()
	if len(tlds) == 0 {
		t.Fatal("no ccTLD rows")
	}
	get := func(tld, company string) float64 {
		if !slices.Contains(tlds, tld) {
			return -1
		}
		return prefs.Percent(tld, company)
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
	prefs := NewCCTLDPreferences(nil)
	for _, domain := range []string{"example.ru", "example.cn", "example.com", "example.co.uk", "example"} {
		prefs.Add(core.DomainAttribution{Domain: domain, Credits: map[string]float64{"p": 1}})
	}
	var got []string
	for _, tld := range prefs.TLDs() {
		got = append(got, fmt.Sprintf("%s=%g", tld, prefs.Percent(tld, "p")))
	}
	if want := "cn=100 ru=100 uk=100"; strings.Join(got, " ") != want {
		t.Errorf("cells = %v, want %s", got, want)
	}
	if len(studiedCCTLDs) != 15 {
		t.Errorf("studied ccTLDs = %v", studiedCCTLDs)
	}
}

func TestAccuracyEvaluation(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	snap := snaps[world.CorpusAlexa][dates[len(dates)-1]]
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
	results, err := EvaluateAccuracy(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	uniq, err := EvaluateAccuracy(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	w, snaps := setup(t)
	ch, domains := churn(t, w, snaps)
	summaries := ch.Summarize()
	startTotal, endTotal := 0, 0
	for _, s := range summaries {
		if s.Start != s.Stayed+s.Left || s.End != s.Stayed+s.Arrived {
			t.Errorf("%s: inconsistent summary %+v", s.Category, s)
		}
		startTotal += s.Start
		endTotal += s.End
	}
	if startTotal != endTotal || startTotal != domains {
		t.Errorf("summary totals: start=%d end=%d corpus=%d", startTotal, endTotal, domains)
	}
}
