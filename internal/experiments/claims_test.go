package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/world"
)

// TestPaperClaims holds the Figure 4 and Figure 5 sentences of
// EXPERIMENTS.md on eight seeded worlds at Scale 0.003, every row and
// every seed. The sentences are narrowed to what holds on all eight;
// EXPERIMENTS.md quotes the paper for each and names the first seed on
// which the broader reading fails.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and measures eight worlds")
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s, err := NewStudy(world.Config{Seed: seed, Scale: 0.003})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fig4Claims(t, s, seed)
			fig5Claims(t, s)
		})
	}
}

// correct is one approach's correct count per Figure 4 row, and the
// count summed over the rows.
type correct struct {
	rows []int
	sum  int
}

// fig4Correct grades the four approaches run with cfg on Figure 4's six
// samples (200 domains, the paper's size) and returns each approach's
// correct counts.
func fig4Correct(t *testing.T, s *Study, seed uint64, cfg core.Config) (labels []string, byApproach map[core.Approach]*correct) {
	t.Helper()
	p := s.NewPlan()
	rows := p.accuracy(200, seed, cfg)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Figure 4 has %d rows, want 6", len(rows))
	}
	byApproach = make(map[core.Approach]*correct)
	for _, ap := range core.Approaches() {
		byApproach[ap] = &correct{}
	}
	for _, r := range rows {
		labels = append(labels, r.label)
		for _, res := range r.results {
			c := byApproach[res.Approach]
			c.rows = append(c.rows, res.Correct)
			c.sum += res.Correct
		}
	}
	return labels, byApproach
}

// fig4Claims: priority-based is at least as accurate as each other
// approach in every row and MX-only is below cert- and banner-based in
// every row; summed over the six rows the order is strict, priority >
// banner > cert > MX-only. Each ablation (no certificate grouping; no
// step-4 profiles) scores strictly below the full priority-based
// method, summed over the six rows.
func fig4Claims(t *testing.T, s *Study, seed uint64) {
	labels, full := fig4Correct(t, s, seed, core.Config{Profiles: s.Profiles})
	mx, cert, banner, prio := full[core.ApproachMXOnly], full[core.ApproachCertBased],
		full[core.ApproachBannerBased], full[core.ApproachPriority]
	for i, label := range labels {
		if prio.rows[i] < max(mx.rows[i], cert.rows[i], banner.rows[i]) {
			t.Errorf("Figure 4 %s: priority-based %d, below MX-only %d, cert-based %d or banner-based %d",
				label, prio.rows[i], mx.rows[i], cert.rows[i], banner.rows[i])
		}
		if mx.rows[i] >= min(cert.rows[i], banner.rows[i]) {
			t.Errorf("Figure 4 %s: MX-only %d, not below cert-based %d and banner-based %d",
				label, mx.rows[i], cert.rows[i], banner.rows[i])
		}
	}
	if !(prio.sum > banner.sum && banner.sum > cert.sum && cert.sum > mx.sum) {
		t.Errorf("Figure 4 over six rows: priority %d, banner %d, cert %d, MX-only %d; want strictly decreasing",
			prio.sum, banner.sum, cert.sum, mx.sum)
	}

	for name, cfg := range map[string]core.Config{
		"no certificate grouping": {Profiles: s.Profiles, DisableCertGrouping: true},
		"no step 4":               {},
	} {
		_, ablated := fig4Correct(t, s, seed, cfg)
		if got := ablated[core.ApproachPriority].sum; got >= prio.sum {
			t.Errorf("ablation %q scores %d over six rows, not below the full method's %d", name, got, prio.sum)
		}
	}
}

// fig5Claims: Google is #1 in the scaled 10k Alexa stratum and in all
// of Alexa, with Microsoft #2 there; GoDaddy leads .com with Google
// #2; Microsoft leads both .gov segments, with Google #2 outside the
// federal one. Every named place is strict: no tie with the next.
func fig5Claims(t *testing.T, s *Study) {
	p := s.NewPlan()
	segs := p.fig5Segments()
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"scaled from 10000": {"Google"},
		"Alexa all":         {"Google", "Microsoft"},
		"COM all":           {"GoDaddy", "Google"},
		"GOV federal":       {"Microsoft"},
		"GOV other":         {"Microsoft", "Google"},
	}
	seen := 0
	for _, seg := range segs {
		var order []string
		for key, companies := range want {
			if strings.Contains(seg.Name, key) {
				order = companies
				seen++
			}
		}
		top := seg.TopShares(len(order) + 1)
		for i, company := range order {
			if i >= len(top) || top[i].Company != company || i+1 < len(top) && top[i].Domains <= top[i+1].Domains {
				t.Errorf("Figure 5 %s: %s is not strictly #%d: %+v", seg.Name, company, i+1, top)
				break
			}
		}
	}
	if seen != len(want) {
		t.Errorf("Figure 5 has %d of the %d segments the claims name: %d segments", seen, len(want), len(segs))
	}
}
