package analysis

import (
	"strings"
	"testing"

	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

func TestComputeSPFOnWorld(t *testing.T) {
	w, err := world.Generate(world.Config{Seed: 31, Scale: 0.004, TailProviders: 15, SelfISPs: 5})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := scan.NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	snap := collect(t, sess, world.CorpusAlexa, "2021-06")
	stats := NewSPFStats(w.Directory)
	if _, err := Fold(snap, core.ApproachPriority, core.Config{Profiles: testProfiles(w)}, stats.Add); err != nil {
		t.Fatal(err)
	}

	if stats.Total != len(snap.Domains) {
		t.Errorf("Total = %d", stats.Total)
	}
	if stats.WithSPF == 0 {
		t.Fatal("no SPF records collected")
	}
	coverage := float64(stats.WithSPF) / float64(stats.Total)
	if coverage < 0.4 || coverage > 0.95 {
		t.Errorf("SPF coverage = %.2f, outside generator calibration", coverage)
	}
	// Agreement should dominate for non-filtered domains: SPF and MX
	// point at the same organization for ordinary hosting.
	if stats.Agree <= stats.Disagree {
		t.Errorf("agree=%d disagree=%d", stats.Agree, stats.Disagree)
	}
	// Filtering-service customers must be present and most should reveal
	// a mailbox provider.
	if stats.FilteredTotal == 0 {
		t.Fatal("no security-filtered domains in sample")
	}
	if stats.FilteredWithMailbox == 0 {
		t.Error("SPF revealed no eventual providers behind filters")
	}

	// Cross-check against the world: every record carries the policy its
	// domain published, and the policy of some filtering-service
	// customer names a second operator, its mailbox provider.
	corpus := w.Corpus(world.CorpusAlexa)
	dateIdx := corpus.DateIndex("2021-06")
	byName := map[string]*world.Domain{}
	for _, d := range corpus.Domains {
		byName[d.Name] = d
	}
	checked := 0
	for i := range snap.Domains {
		rec := &snap.Domains[i]
		d := byName[rec.Domain]
		if d == nil || rec.SPF == "" {
			continue
		}
		st := d.StintAt(dateIdx)
		if want := w.SPFRecord(d, st); rec.SPF != want {
			t.Errorf("%s: collected SPF %q, published %q", rec.Domain, rec.SPF, want)
		}
		if st.Provider >= 0 && w.Providers[st.Provider].Company.Kind == companies.KindEmailSecurity &&
			strings.Count(rec.SPF, "include:") == 2 {
			checked++
		}
	}
	if checked == 0 {
		t.Error("no filtered-with-mailbox domains verified")
	}
	t.Logf("SPF coverage %.0f%%, agree/disagree/nosignal %d/%d/%d, filtered %d (mailbox revealed %d), verified %d",
		100*coverage, stats.Agree, stats.Disagree, stats.NoSignal,
		stats.FilteredTotal, stats.FilteredWithMailbox, checked)
	shares := stats.MailboxShares()
	if len(shares) == 0 {
		t.Error("no mailbox shares")
	}
}
