package experiments

// End-to-end oracle scoring of the adversarial world: the same chain
// the committed MISID.json artifact pins — hostile generation, registry
// -aware collection, trust-pass inference, per-family accuracy — run as
// a test with the exact expected numbers inline. A robust inference
// must score 100% on every family at this seed: each hostile domain
// flagged (never credited to the forged provider), each honest domain
// attributed to its true operator, unflagged.

import (
	"testing"

	"mxmap/internal/analysis"
	"mxmap/internal/ledger"
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

// TestMisidHijackNeverCredited pins the headline robustness property at
// the attribution level: across the whole hostile corpus, not a single
// domain credits the impersonated provider through a hijack relay, and
// every hijack-family attribution carries the untrusted mark.
func TestMisidHijackNeverCredited(t *testing.T) {
	m := misidScore(t)
	s, atts := m.Study, analysis.Attributions(m.Result)
	for _, e := range s.World.Oracle(world.CorpusAlexa) {
		if e.Family != world.FamilyHijack {
			continue
		}
		att, ok := atts[e.Domain]
		if !ok {
			t.Fatalf("hijacked domain %s has no attribution", e.Domain)
		}
		if !att.Untrusted {
			t.Errorf("%s (hijack) not marked untrusted", e.Domain)
		}
		for id, credit := range att.Credits {
			if credit > 0 && analysis.CompanyOf(e.Domain, id, s.World.Directory) == e.Forged {
				t.Errorf("%s credits forged provider %s via %s", e.Domain, e.Forged, id)
			}
		}
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
