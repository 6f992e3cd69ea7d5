package mxmap_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCitedResultsAreTracked keeps docs, git and tests in step on what
// results/ holds. Every results/*.json a doc names must be a file git
// tracks, not one .gitignore silently drops; every tracked file must be
// named by some doc (no orphan artifact); and every tracked ledger —
// everything but the bench/ reports, BENCH_e2e_*.json, which are
// measurements — must be named in some _test.go, the test that compares
// it on every run (internal/ledger).
func TestCitedResultsAreTracked(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "results").Output()
	if err != nil {
		t.Skipf("not a git checkout, or no git: %v", err)
	}
	tracked := make(map[string]bool)
	for _, path := range strings.Fields(string(out)) {
		tracked[path] = true
	}
	cited := make(map[string]bool)
	pattern := regexp.MustCompile(`\bresults/[\w.-]+\.json\b`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range pattern.FindAllString(string(text), -1) {
			cited[path] = true
			if !tracked[path] {
				t.Errorf("%s cites %s, which git does not track (whitelist it in .gitignore and commit it, or stop citing it)", doc, path)
			}
		}
	}

	var tests strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		text, err := os.ReadFile(path)
		tests.Write(text)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range tracked {
		if !cited[path] {
			t.Errorf("git tracks %s but no doc cites it (cite it, or delete the orphan)", path)
		}
		name := filepath.Base(path)
		if !strings.HasPrefix(name, "BENCH_e2e_") && !strings.Contains(tests.String(), `"`+name+`"`) {
			t.Errorf("no _test.go names the ledger %s: nothing compares it (see internal/ledger)", path)
		}
	}
}
