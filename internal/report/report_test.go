package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Top companies", "Rank", "Company", "Share")
	tb.AddRow("1", "Google", "28.5%")
	tb.AddRow("2", "Microsoft", "10.8%")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Top companies", "Rank", "Google", "10.8%", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped-extra")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "dropped-extra") {
		t.Error("extra cell not dropped")
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.AddRow("a,b", `say "hi"`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"a,b"`) || !strings.Contains(out, `"say ""hi"""`) {
		t.Errorf("CSV quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "name,note\n") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
}

func TestChartText(t *testing.T) {
	c := NewChart("Market share", []string{"2017", "2019", "2021"})
	c.AddSeries("Google", []float64{26.2, 27.3, 28.5})
	c.AddSeries("Self", []float64{11.7, 9.8, 7.9})
	var sb strings.Builder
	if err := c.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Market share", "Google", "26.20%", "2021"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Rising series must end on the tallest glyph; falling on the lowest.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	gLine := lines[2]
	if !strings.HasSuffix(gLine, "█") {
		t.Errorf("rising series sparkline wrong: %q", gLine)
	}
	sLine := lines[3]
	if !strings.HasSuffix(sLine, "▁") {
		t.Errorf("falling series sparkline wrong: %q", sLine)
	}
}

func TestSparklineFlat(t *testing.T) {
	if s := sparkline([]float64{5, 5, 5}); s != "▁▁▁" {
		t.Errorf("flat sparkline = %q", s)
	}
	if s := sparkline(nil); s != "" {
		t.Errorf("empty sparkline = %q", s)
	}
}
