package experiments

// End-to-end oracle scoring of the adversarial world: the same chain
// the committed MISID.json artifact pins — hostile generation, registry
// -aware collection, trust-pass inference, per-family accuracy — run as
// a test with the exact expected numbers inline. A robust inference
// must score 100% on every family at this seed: each hostile domain
// flagged (never credited to the forged provider), each honest domain
// attributed to its true operator, unflagged.

import (
	"context"
	"reflect"
	"testing"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/ledger"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

func misidScore(t *testing.T) *Misid {
	t.Helper()
	m, err := ScoreMisid(MisidWorld, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Study.Close() })
	return m
}

func TestMisidOracleScoring(t *testing.T) {
	m := misidScore(t)
	report := m.Misid

	// Exact per-family populations and verdicts at Seed 7 / Scale 0.003 /
	// Adversarial 0.25 — the numbers pinned in results/MISID.json.
	want := map[string]struct{ domains, graded, flagged int }{
		"abuse":           {17, 17, 17},
		"blbfo":           {9, 9, 0},
		"dangling-nx":     {9, 9, 9},
		"dangling-parked": {9, 9, 9},
		"hijack":          {17, 17, 17},
		"honest":          {210, 195, 0},
		"lame":            {9, 9, 0},
	}
	if len(report.Families) != len(want) {
		t.Fatalf("%d families scored, want %d", len(report.Families), len(want))
	}
	for _, fs := range report.Families {
		w, ok := want[fs.Family]
		if !ok {
			t.Errorf("unexpected family %q", fs.Family)
			continue
		}
		if fs.Domains != w.domains || fs.Graded != w.graded || fs.Flagged != w.flagged {
			t.Errorf("%s: domains/graded/flagged = %d/%d/%d, want %d/%d/%d",
				fs.Family, fs.Domains, fs.Graded, fs.Flagged, w.domains, w.graded, w.flagged)
		}
		if fs.Accuracy != 100 {
			t.Errorf("%s accuracy = %v%%, want 100%%", fs.Family, fs.Accuracy)
		}
		if fs.CreditedForged != 0 {
			t.Errorf("%s credited the forged provider %d times", fs.Family, fs.CreditedForged)
		}
	}
	if report.TotalDomains != 280 || report.TotalFlagged != 52 || report.CreditedForged != 0 {
		t.Errorf("totals: domains=%d flagged=%d credited_forged=%d, want 280/52/0",
			report.TotalDomains, report.TotalFlagged, report.CreditedForged)
	}
	ledger.Check(t, "MISID.json", m)
}

// TestMisidScoresTheFile scores the committed world's collection twice:
// over the study's file (ScoreMisid's report) and over the same corpus
// date collected into memory by one collector, the reference sink. A
// record in memory is exactly its line on disk, so the two reports are
// one, the lame family's grades included.
func TestMisidScoresTheFile(t *testing.T) {
	m := misidScore(t)
	s := m.Study
	col, err := s.session.NewCollector(m.Corpus, m.Date)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	targets, err := s.session.Targets(m.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := col.Collect(context.Background(), m.Corpus, m.Date, targets)
	if err != nil {
		t.Fatal(err)
	}
	var oracle []analysis.MisidOracle
	for _, e := range s.World.Oracle(m.Corpus) {
		oracle = append(oracle, misidOracle(e))
	}
	report, _, err := scoreMisid(snap, s.Profiles, 4, oracle, s.World.Directory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report, m.Misid) {
		t.Errorf("scored over the file: %+v\nin memory: %+v", report, m.Misid)
	}
}

// TestMisidHijackNeverCredited pins the headline robustness property at
// the attribution level: across the whole hostile corpus, not a single
// domain credits the impersonated provider through a hijack relay, and
// every hijack-family attribution carries the untrusted mark.
func TestMisidHijackNeverCredited(t *testing.T) {
	m := misidScore(t)
	s := m.Study
	forged := make(map[string]string) // hijacked domain → the provider it forges
	for _, e := range s.World.Oracle(world.CorpusAlexa) {
		if e.Family == world.FamilyHijack {
			forged[e.Domain] = e.Forged
		}
	}
	path, err := s.File(context.Background(), m.Corpus, m.Date)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	cfg := core.Config{Profiles: s.Profiles, AbuseClusterMinDomains: misidAbuseMin}
	_, err = analysis.Fold(st, core.ApproachPriority, cfg, func(_ *dataset.DomainRecord, att core.DomainAttribution) {
		f, ok := forged[att.Domain]
		if !ok {
			return
		}
		seen++
		if !att.Untrusted {
			t.Errorf("%s (hijack) not marked untrusted", att.Domain)
		}
		for id, credit := range att.Credits {
			if credit > 0 && analysis.CompanyOf(att.Domain, id, s.World.Directory) == f {
				t.Errorf("%s credits forged provider %s via %s", att.Domain, f, id)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(forged) {
		t.Errorf("%d of %d hijacked domains have an attribution", seen, len(forged))
	}
}

// TestMisidFailoverStructure sanity-checks the BLBFO correlation table:
// every topology the generator emits shows up, and the backup-provider
// rows cover exactly the backup-only oracle population.
func TestMisidFailoverStructure(t *testing.T) {
	m := misidScore(t)
	s, cells := m.Study, m.Failover
	byTopology := make(map[string]int)
	for _, c := range cells {
		byTopology[c.Topology] += c.Domains
	}
	backupOnly := 0
	for _, e := range s.World.Oracle(world.CorpusAlexa) {
		if e.Family == world.FamilyBLBFO && e.Detail == world.TopologyBackupOnly {
			backupOnly++
		}
	}
	if got := byTopology["backup-provider"]; got != backupOnly {
		t.Errorf("backup-provider topology covers %d domains, oracle has %d backup-only", got, backupOnly)
	}
	for _, topo := range []string{"single", "tiered", "backup-provider"} {
		if byTopology[topo] == 0 {
			t.Errorf("topology %q missing from the correlation table", topo)
		}
	}
}

// flatMisid takes a hostile flat world through the chain ScoreMisid
// runs on the materialised one — collect, priority inference with the
// abuse-cluster rule on — and returns what the scorer needs of it.
func flatMisid(t *testing.T, cfg world.FlatConfig) (*world.FlatWorld, *dataset.Snapshot, *core.Result, []analysis.MisidOracle) {
	t.Helper()
	fw, err := world.NewFlatWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]scan.Target, fw.NumDomains())
	oracle := make([]analysis.MisidOracle, fw.NumDomains())
	for i := range targets {
		targets[i] = scan.Target{Name: fw.DomainName(i)}
		oracle[i] = misidOracle(fw.OracleAt(i))
	}
	c := &scan.Collector{
		Resolver: fw.Resolver(), Dialer: fw.Dialer(), Trust: fw.Trust,
		Prefixes: fw.Prefixes, ASRegistry: fw.ASRegistry, Parked: fw.Parked,
	}
	defer c.Close()
	snap, err := c.Collect(context.Background(), fw.Cfg.Corpus, "2021-06", targets)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := scoreMisid(snap, analysis.ProviderProfiles(fw.Directory), 0, oracle, fw.Directory)
	if err != nil {
		t.Fatal(err)
	}
	return fw, snap, res, oracle
}

// TestFlatMisidAcrossSeeds scores hostile flat worlds with the scorer
// behind the committed MISID.json, over several seeds instead of the
// one pinned example: every family 100 %, the forged provider never
// credited.
func TestFlatMisidAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 7, 21} {
		fw, snap, _, oracle := flatMisid(t, world.FlatConfig{Seed: seed, NumDomains: 4000, AdversarialPercent: 12})
		report, _, err := scoreMisid(snap, analysis.ProviderProfiles(fw.Directory), 0, oracle, fw.Directory)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Families) != 7 {
			t.Errorf("seed %d: %d families scored, want the six hostile ones and honest", seed, len(report.Families))
		}
		for _, fs := range report.Families {
			if fs.Graded == 0 || fs.Accuracy != 100 || fs.CreditedForged != 0 {
				t.Errorf("seed %d: %s: %d/%d graded domains correct (%v%%), forged provider credited %d times; want 100%% and 0",
					seed, fs.Family, fs.Correct, fs.Graded, fs.Accuracy, fs.CreditedForged)
			}
		}
	}
}

// familyVerdict is what collection and inference concluded about a
// hostile domain and what its oracle entry demands of them, reduced to
// what must not depend on which world planted the domain.
type familyVerdict struct {
	Delegation    string // the record's delegation mark (lame, stale-glue)
	Untrusted     bool
	Sentinel      string // the sentinel bucket holding credit, "" for none
	ExpectFlagged bool
	Forged        string
}

// familyVerdicts reduces a scored run to one verdict per hostile
// family, failing the test when a family's domains disagree. A domain's
// trust verdict and sentinel credit are read off the assignments res
// holds for its primary exchanges, the ones step 5 credits.
func familyVerdicts(t *testing.T, which string, snap *dataset.Snapshot, res *core.Result, oracle []analysis.MisidOracle) map[string]familyVerdict {
	t.Helper()
	records := make(map[string]*dataset.DomainRecord, len(snap.Domains))
	for i := range snap.Domains {
		records[snap.Domains[i].Domain] = &snap.Domains[i]
	}
	out := make(map[string]familyVerdict)
	for _, e := range oracle {
		if e.Family == "honest" {
			continue
		}
		v := familyVerdict{ExpectFlagged: e.ExpectFlagged, Forged: e.Forged}
		if rec := records[e.Domain]; rec != nil {
			v.Delegation = rec.Delegation
			creditAs := make(map[string]bool)
			for _, mx := range rec.PrimaryMX() {
				if a := res.MX[mx.Exchange]; a != nil {
					v.Untrusted = v.Untrusted || a.Untrusted
					creditAs[a.CreditAs] = true
				}
			}
			for _, s := range []string{core.CreditUntrusted, core.CreditDangling, core.CreditParked} {
				if creditAs[s] {
					v.Sentinel += s
				}
			}
		}
		if prev, ok := out[e.Family]; ok && prev != v {
			t.Errorf("%s world, %s: %s reads %+v, an earlier member %+v", which, e.Family, e.Domain, v, prev)
		}
		out[e.Family] = v
	}
	return out
}

// TestAdversaryParity holds the two worlds to one adversary: a family
// planted in the materialised world and the same family planted in the
// flat one must leave the same delegation mark on the record, the same
// trust verdict and sentinel credit on the attribution, and the same
// demands in the oracle.
func TestAdversaryParity(t *testing.T) {
	m := misidScore(t)
	var oracle []analysis.MisidOracle
	for _, e := range m.Study.World.Oracle(world.CorpusAlexa) {
		oracle = append(oracle, misidOracle(e))
	}
	path, err := m.Study.File(context.Background(), m.Corpus, m.Date)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	materialised := familyVerdicts(t, "materialised", snap, m.Result, oracle)

	_, fsnap, fres, foracle := flatMisid(t, world.FlatConfig{Seed: 7, NumDomains: 4000, AdversarialPercent: 12})
	flat := familyVerdicts(t, "flat", fsnap, fres, foracle)

	if len(materialised) != 6 {
		t.Fatalf("materialised world plants %d hostile families, want 6", len(materialised))
	}
	if !reflect.DeepEqual(materialised, flat) {
		t.Errorf("family verdicts differ between the worlds:\nmaterialised %+v\nflat         %+v", materialised, flat)
	}
}
