package dataset

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFsckCleanSnapshot(t *testing.T) {
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := WriteFile(path, sampleSnapshot()); err != nil {
			t.Fatal(err)
		}
		r, err := Fsck(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != "snapshot" || !r.Clean || len(r.Problems) != 0 {
			t.Errorf("%s: fsck = %+v, want clean snapshot", name, r)
		}
		if r.Entries != 4 {
			t.Errorf("%s: entries = %d, want 4", name, r.Entries)
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "CLEAN") {
			t.Errorf("report text = %q", buf.String())
		}
	}
}

func TestFsckTruncatedGzipSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.jsonl.gz")
	if err := WriteFile(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean {
		t.Errorf("truncated gzip reported clean: %+v", r)
	}
	found := false
	for _, p := range r.Problems {
		if strings.Contains(p, "EOF") {
			found = true
		}
	}
	if !found {
		t.Errorf("problems = %v, want EOF damage", r.Problems)
	}
}

func TestFsckMalformedLineSalvage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	var buf bytes.Buffer
	if _, err := sampleSnapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the last line's JSON.
	content := buf.Bytes()
	content = append(content[:len(content)-10], []byte("garbage\n")...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean || !r.Recoverable {
		t.Errorf("fsck = %+v, want recoverable damage", r)
	}
	if !strings.Contains(r.Salvageable, "lines 1-") {
		t.Errorf("salvageable = %q", r.Salvageable)
	}
	// The intact prefix is reported in lines: a damaged snapshot has no
	// byte count to print.
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got := text.String(); strings.Contains(got, "bytes") || !strings.Contains(got, "salvageable: lines 1-4 (3 records)") {
		t.Errorf("report text = %q, want the intact lines 1-4 and no byte count", got)
	}
}

func TestFsckCrossRecordInvariants(t *testing.T) {
	dir := t.TempDir()

	// A domain referencing an address with no ip record.
	s := sampleSnapshot()
	delete(s.IPs, "172.217.0.27")
	missing := filepath.Join(dir, "missing-ip.jsonl")
	if err := WriteFile(missing, s); err != nil {
		t.Fatal(err)
	}
	r, err := Fsck(missing)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean {
		t.Error("missing ip record passed fsck")
	}
	assertProblem(t, r, "no ip record")

	// An orphan ip record no domain references.
	s = sampleSnapshot()
	s.AddIP(IPInfo{Addr: addr("198.51.100.9"), HasCensys: true})
	orphan := filepath.Join(dir, "orphan.jsonl")
	if err := WriteFile(orphan, s); err != nil {
		t.Fatal(err)
	}
	r, err = Fsck(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean {
		t.Error("orphan ip record passed fsck")
	}
	assertProblem(t, r, "referenced by no domain")

	// Duplicate domains.
	s = sampleSnapshot()
	s.AddDomain(s.Domains[1])
	dup := filepath.Join(dir, "dup.jsonl")
	if err := WriteFile(dup, s); err != nil {
		t.Fatal(err)
	}
	r, err = Fsck(dup)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean {
		t.Error("duplicate domain passed fsck")
	}
	assertProblem(t, r, "duplicate domain")
}

func assertProblem(t *testing.T, r *FsckReport, substr string) {
	t.Helper()
	for _, p := range r.Problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("problems = %v, want one containing %q", r.Problems, substr)
}

func TestFsckProblemCap(t *testing.T) {
	// A snapshot with far more invariant violations than the report cap.
	s := NewSnapshot("2021-06", "alexa")
	for i := 0; i < maxFsckProblems+15; i++ {
		s.AddIP(IPInfo{Addr: addr(fmt.Sprintf("203.0.113.%d", i+1)), HasCensys: true})
	}
	path := filepath.Join(t.TempDir(), "orphans.jsonl")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	r, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) != maxFsckProblems {
		t.Errorf("problems = %d, want capped at %d", len(r.Problems), maxFsckProblems)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "more problems") {
		t.Errorf("report does not mention the cap: %q", buf.String())
	}
}

func TestFsckNotGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean || r.Recoverable {
		t.Errorf("fsck = %+v, want corrupt", r)
	}
	assertProblem(t, r, "gzip")
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CORRUPT") {
		t.Errorf("report text = %q", buf.String())
	}
}

// TestFsckShard: the shard a crashed fleet run leaves behind loads as a
// snapshot, so fsck calls it clean; its footer is held to the merge
// reader's rules (counts equal the body's, nothing after it).
func TestFsckShard(t *testing.T) {
	dir := t.TempDir()
	ss := NewShardSet(filepath.Join(dir, "out.jsonl.gz"), "2021-06", "alexa")
	w := ss.NewWriter()
	snap := sampleSnapshot()
	if err := snap.ForEach(
		func(d *DomainRecord) error { return w.AddDomain(*d) },
		func(info *IPInfo) error { return w.AddIP(*info) },
	); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	shard := ss.Paths()[0]
	r, err := Fsck(shard)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean || r.Entries != 4 {
		t.Fatalf("fsck of a fresh shard = %+v, want clean with 4 entries", r)
	}
	requireDeflateLevel(t, shard)

	body, err := ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := body.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	footer := func(domains int, last string) string {
		return fmt.Sprintf(`{"kind":"footer","footer":{"seq":0,"domains":%d,"ips":2,"first_domain":"netflix.example","last_domain":%q}}`+"\n", domains, last)
	}
	for _, c := range []struct{ name, tail, want string }{
		{"miscounted", footer(3, "noip.example"), "disagree with body"},
		{"misranged", footer(2, "zzz.example"), `footer domain range ("netflix.example" to "zzz.example") disagrees with body ("netflix.example" to "noip.example")`},
		{"trailing", footer(2, "noip.example") + footer(2, "noip.example"), "after footer"},
		{"bodyless", `{"kind":"footer"}` + "\n", "footer"},
	} {
		path := filepath.Join(dir, c.name+".jsonl")
		if err := os.WriteFile(path, []byte(text.String()+c.tail), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Fsck(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Clean {
			t.Errorf("%s: fsck = %+v, want a problem", c.name, r)
		}
		assertProblem(t, r, c.want)
	}
}
