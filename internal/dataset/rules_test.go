package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// lineRuleProbes each break one line rule at line: a footer in mid-body
// that miscounts it, a domain line after an ip line, a shard's footer
// that miscounts the ips, a domain line without a name. Each is also
// named like shard 0, so Merge reads it as well.
var lineRuleProbes = func() []struct {
	name, text string
	line       int
} {
	const header = `{"kind":"snapshot","header":{"date":"2021-06","corpus":"alexa"}}` + "\n"
	const ip = `{"kind":"ip","ip":{"addr":"10.0.0.1","has_censys":false,"port25_open":false}}` + "\n"
	domain := func(name string) string {
		return `{"kind":"domain","domain":{"domain":"` + name + `","mx":null}}` + "\n"
	}
	footer := func(first, last string, domains, ips int) string {
		return fmt.Sprintf(`{"kind":"footer","footer":{"seq":0,"first_domain":%q,"last_domain":%q,"domains":%d,"ips":%d}}`+"\n",
			first, last, domains, ips)
	}
	return []struct {
		name, text string
		line       int
	}{
		{"footer mid-body", header + domain("a.example") + footer("a.example", "a.example", 2, 0) +
			domain("b.example") + footer("a.example", "b.example", 2, 0), 3},
		{"ip before domain", header + ip + domain("a.example") + footer("a.example", "a.example", 1, 1), 3},
		{"footer miscounts", header + domain("a.example") + ip + footer("a.example", "a.example", 1, 2), 4},
		{"domain without a name", header + domain("") + footer("", "", 1, 0), 2},
	}
}()

// TestReadersAgreeOnLineRules holds the readers of a snapshot file —
// ReadFile, OpenStream with a ForEach pass, Fsck, Merge and
// ResumeShardSet, which finds the probe as a leftover shard of p.jsonl —
// to one set of line rules: each rejects each probe, naming the same
// line in the same words. (Fsck's cross-record checks, duplicates and
// the domain-to-IP join, are its own by design and not among them.)
func TestReadersAgreeOnLineRules(t *testing.T) {
	atLine := regexp.MustCompile(`line \d+: .*`)
	said := func(err error) string {
		if err == nil {
			return "accepted"
		}
		return atLine.FindString(err.Error())
	}
	for _, p := range lineRuleProbes {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "p.shard-0000.jsonl")
			if err := os.WriteFile(path, []byte(p.text), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadFile(path)
			readFile := said(err)

			st, err := OpenStream(path)
			if err == nil {
				err = st.ForEach(func(*DomainRecord) error { return nil }, func(*IPInfo) error { return nil })
			}
			stream := said(err)

			rep, err := Fsck(path)
			if err != nil {
				t.Fatal(err)
			}
			fsck := "clean"
			for _, problem := range rep.Problems {
				if atLine.MatchString(problem) {
					fsck = atLine.FindString(problem)
					break
				}
			}

			_, err = Merge(filepath.Join(dir, "out.jsonl"), []string{path})
			merge := said(err)

			_, err = ResumeShardSet(filepath.Join(dir, "p.jsonl"), "2021-06", "alexa")
			resume := said(err)

			readers := []struct{ reader, said string }{
				{"ReadFile", readFile}, {"Stream", stream}, {"Fsck", fsck}, {"Merge", merge}, {"ResumeShardSet", resume},
			}
			want := regexp.MustCompile(fmt.Sprintf(`^line %d: `, p.line))
			for _, r := range readers {
				if !want.MatchString(r.said) || r.said != readFile {
					t.Errorf("%s says %q; want line %d, in the words ReadFile uses (%q)", r.reader, r.said, p.line, readFile)
				}
			}
		})
	}
}
