package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mxmap/internal/world"
)

var cachedStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if cachedStudy == nil {
		s, err := NewStudy(world.Config{Seed: 21, Scale: 0.003, TailProviders: 20, SelfISPs: 6})
		if err != nil {
			t.Fatal(err)
		}
		cachedStudy = s
	}
	return cachedStudy
}

func TestFig4Artifact(t *testing.T) {
	s := study(t)
	tab, err := s.Fig4(context.Background(), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 6 {
		t.Errorf("Fig4 rows = %d, want 6 (3 corpora x 2 variants)", tab.NumRows())
	}
	var sb strings.Builder
	if err := tab.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alexa", "com w/Unique MX", "gov", "priority-based"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Fig4 output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestTable4Artifact(t *testing.T) {
	s := study(t)
	tab, err := s.Table4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 7 { // six categories + total
		t.Errorf("Table4 rows = %d", tab.NumRows())
	}
	var sb strings.Builder
	tab.WriteText(&sb)
	if !strings.Contains(sb.String(), "No Valid SSL Cert.") {
		t.Errorf("Table4 missing category:\n%s", sb.String())
	}
}

func TestTable5Artifact(t *testing.T) {
	s := study(t)
	tab := s.Table5()
	var sb strings.Builder
	tab.WriteText(&sb)
	for _, want := range []string{"outlook.com", "pphosted.com", "AS8075"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table5 missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFig5Artifact(t *testing.T) {
	s := study(t)
	tab, err := s.Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"Alexa all", "COM all", "GOV federal", "GOV other", "Google"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Artifact(t *testing.T) {
	s := study(t)
	charts, err := s.Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(charts) != 9 {
		t.Fatalf("Fig6 panels = %d, want 9", len(charts))
	}
	var sb strings.Builder
	for _, c := range charts {
		c.WriteText(&sb)
	}
	out := sb.String()
	for _, want := range []string{"Figure 6a", "Figure 6i", "Self-Hosted", "Mimecast"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 missing %q", want)
		}
	}
}

func TestFig7Artifact(t *testing.T) {
	s := study(t)
	tab, err := s.Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"Google", "Self-Hosted", "No SMTP", "Top100"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Artifact(t *testing.T) {
	s := study(t)
	tab, err := s.Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{".ru", ".cn", "Tencent", "Yandex"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig8 missing %q:\n%s", want, out)
		}
	}
}

func TestTable6Artifact(t *testing.T) {
	s := study(t)
	tab, err := s.Table6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 16 {
		t.Errorf("Table6 rows = %d, want 16", tab.NumRows())
	}
	var sb strings.Builder
	tab.WriteText(&sb)
	if !strings.Contains(sb.String(), "Google") || !strings.Contains(sb.String(), "GoDaddy") {
		t.Errorf("Table6 content:\n%s", sb.String())
	}
}

func TestSnapshotCaching(t *testing.T) {
	s := study(t)
	ctx := context.Background()
	a, err := s.Snapshot(ctx, world.CorpusGOV, s.LastDate(world.CorpusGOV))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Snapshot(ctx, world.CorpusGOV, s.LastDate(world.CorpusGOV))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("snapshot not cached")
	}
	// Inference is not cached: two passes over the cached snapshot fold
	// the same market.
	m1, err := s.Shares(ctx, world.CorpusGOV, s.LastDate(world.CorpusGOV))
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := s.Shares(ctx, world.CorpusGOV, s.LastDate(world.CorpusGOV))
	if m1.Domains() != len(a.Domains) || !reflect.DeepEqual(m1.Credits(), m2.Credits()) {
		t.Errorf("passes folded %d and %d domains of %d, credits equal: %v",
			m1.Domains(), m2.Domains(), len(a.Domains), reflect.DeepEqual(m1.Credits(), m2.Credits()))
	}
}

func TestTruthBucket(t *testing.T) {
	s := study(t)
	corpus := s.World.Corpus(world.CorpusAlexa)
	d := corpus.Domains[0]
	truth := s.truthIndex(world.CorpusAlexa, 0)
	got := truth[d.Name]
	want := s.World.TruthCompany(d, 0)
	if want == d.Name {
		want = "Self-Hosted"
	}
	if got != want {
		t.Errorf("truth bucket = %q, want %q", got, want)
	}
	if truth["not-in-corpus.test"] != "" || len(truth) != len(corpus.Domains) {
		t.Errorf("truth index holds %d domains, want the corpus's %d and no other", len(truth), len(corpus.Domains))
	}
}

func TestExtSPFArtifact(t *testing.T) {
	s := study(t)
	tab, err := s.ExtSPF(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Errorf("ExtSPF rows = %d, want 3", tab.NumRows())
	}
	var sb strings.Builder
	tab.WriteText(&sb)
	for _, want := range []string{"alexa", "com", "gov", "SPF coverage"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("ExtSPF missing %q:\n%s", want, sb.String())
		}
	}
}

func TestExtConcentrationArtifact(t *testing.T) {
	s := study(t)
	tab, err := s.ExtConcentration(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 9 { // 3 corpora x 3 dates
		t.Errorf("ExtConcentration rows = %d, want 9", tab.NumRows())
	}
	var sb strings.Builder
	tab.WriteText(&sb)
	if !strings.Contains(sb.String(), "HHI") {
		t.Errorf("ExtConcentration output:\n%s", sb.String())
	}
}
