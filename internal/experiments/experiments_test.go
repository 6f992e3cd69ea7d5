package experiments

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/netsim"
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

// TestSnapshotCaching: a key is collected once into one file, however
// often it is asked for, and two passes over that file fold the same
// market from every domain it holds.
func TestSnapshotCaching(t *testing.T) {
	s := study(t)
	ctx := context.Background()
	date := s.LastDate(world.CorpusGOV)
	before := s.collects.Load()
	a, err := s.File(ctx, world.CorpusGOV, date)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.File(ctx, world.CorpusGOV, date)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || s.collects.Load()-before > 1 {
		t.Errorf("files %s and %s, %d collections: snapshot not cached", a, b, s.collects.Load()-before)
	}
	snap, err := dataset.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	// Inference is not cached: two passes over the file fold the same
	// market.
	m1, err := s.Shares(ctx, world.CorpusGOV, date)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := s.Shares(ctx, world.CorpusGOV, date)
	if m1.Domains() != len(snap.Domains) || !reflect.DeepEqual(m1.Credits(), m2.Credits()) {
		t.Errorf("passes folded %d and %d domains of %d, credits equal: %v",
			m1.Domains(), m2.Domains(), len(snap.Domains), reflect.DeepEqual(m1.Credits(), m2.Credits()))
	}
}

// TestFullRunPassCount: a plan of every artifact collects each
// (corpus, date) once and makes one study priority pass per key, 25
// over the world's 25 keys, where one pass per figure and key made 46.
// The study is the one the artifact tests share, so other tests may
// have collected keys before: none is collected twice.
func TestFullRunPassCount(t *testing.T) {
	s := study(t)
	p := s.NewPlan()
	p.Fig4(100, 1)
	p.Table4()
	p.Table5()
	p.Fig5()
	p.Fig6()
	p.Fig7()
	p.Fig8()
	p.Table6()
	p.ExtSPF()
	p.ExtConcentration()
	before := s.passes.Load()
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if passes := s.passes.Load() - before; len(p.keys) != 25 || passes != 25 {
		t.Errorf("a full run plans %d keys and makes %d study passes, want 25 and 25", len(p.keys), passes)
	}
	if n := s.collects.Load(); n != 25 {
		t.Errorf("the study has run %d collections over 25 keys", n)
	}
}

// TestCancelledCollectionLeavesNoFile is the file counterpart of the
// goroutine leak gate: a study cancelled during a collection leaves no
// shard, .tmp or merged file of it, and Close removes its directory.
// Every host of the world swallows dials, so the collection's SMTP
// phase waits for the cancel.
func TestCancelledCollectionLeavesNoFile(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a second world generation")
	}
	s, err := NewStudy(world.Config{Seed: 21, Scale: 0.003, TailProviders: 20, SelfISPs: 6})
	if err != nil {
		t.Fatal(err)
	}
	for addr := range s.World.Hosts {
		s.session.Net.SetFault(addr, netsim.FaultBlackhole)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	if _, err := s.File(ctx, world.CorpusAlexa, s.LastDate(world.CorpusAlexa)); !errors.Is(err, context.Canceled) {
		t.Errorf("a cancelled collection returned %v", err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("the cancelled collection left %s", e.Name())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the study's directory outlived Close: %v", err)
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
