package mxmap_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestCitedResultsAreTracked keeps the docs honest about what a fresh
// clone holds: every results/*.json that README.md, DESIGN.md or the
// verify skill names (the skill's recipes cmp against them) must be a
// file git tracks, not one .gitignore silently drops.
func TestCitedResultsAreTracked(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "results").Output()
	if err != nil {
		t.Skipf("not a git checkout, or no git: %v", err)
	}
	tracked := make(map[string]bool)
	for _, path := range strings.Fields(string(out)) {
		tracked[path] = true
	}
	cited := regexp.MustCompile(`\bresults/[\w.-]+\.json\b`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range cited.FindAllString(string(text), -1) {
			if !tracked[path] {
				t.Errorf("%s cites %s, which git does not track (whitelist it in .gitignore and commit it, or stop citing it)", doc, path)
			}
		}
	}
}
