package psl

import (
	"strings"
	"testing"
)

// refRules reads a rule list the way the published format
// (https://publicsuffix.org/list/) is read: one rule per line, each line
// only up to its first whitespace, "//" lines and blank ones skipped.
// Exceptions keep their "!".
func refRules(text string) []string {
	var rules []string
	for _, line := range strings.Split(text, "\n") {
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		exception := strings.HasPrefix(line, "!")
		line = strings.ToLower(strings.TrimPrefix(strings.TrimPrefix(line, "!"), "."))
		if exception {
			line = "!" + line
		}
		rules = append(rules, line)
	}
	return rules
}

// refRegisteredDomain is the published algorithm written out without
// List's index or its rule order: every rule is tried against every
// suffix of the name's labels; a matching exception prevails, and its
// public suffix is the rule less its leftmost label; otherwise the
// longest matching rule prevails; otherwise the default rule "*". The
// registered domain is the public suffix plus one label, if the name
// has one more.
func refRegisteredDomain(rules []string, host string) (string, bool) {
	host = strings.TrimSuffix(strings.ToLower(strings.TrimSpace(host)), ".")
	if host == "" {
		return "", false
	}
	labels := strings.Split(host, ".")
	for _, l := range labels {
		if l == "" {
			return "", false
		}
	}
	longest, exception := 0, 0
	for _, rule := range rules {
		ruleLabels := strings.Split(strings.TrimPrefix(rule, "!"), ".")
		for k := 1; k <= len(labels); k++ {
			suffix := labels[len(labels)-k:]
			if len(suffix) != len(ruleLabels) {
				continue
			}
			match := true
			for i := range suffix {
				match = match && (ruleLabels[i] == "*" || ruleLabels[i] == suffix[i])
			}
			switch {
			case !match:
			case strings.HasPrefix(rule, "!"):
				exception = max(exception, k-1)
			default:
				longest = max(longest, k)
			}
		}
	}
	public := 1
	switch {
	case exception > 0:
		public = exception
	case longest > 0:
		public = longest
	}
	if public >= len(labels) {
		return "", false
	}
	return strings.Join(labels[len(labels)-public-1:], "."), true
}

// fuzzRules is a small list made of the rule shapes that need the
// algorithm's precedence: wildcards, exceptions under them, an exception
// with no wildcard above it, an exception longer than the wildcard, and
// a wildcard whose parent is no rule.
const fuzzRules = `
com
uk
co.uk
*.sch.uk
!www.sch.uk
jp
*.kawasaki.jp
!city.kawasaki.jp
*.ck
!www.ck
!a.b.example
b.example
*.c.example
!x.y.c.example
*.nowhere
`

// FuzzRegisteredDomain holds List.RegisteredDomain and Memo's cached
// answers to the reference above, over Default and over fuzzRules.
func FuzzRegisteredDomain(f *testing.F) {
	for _, h := range append(memoHosts,
		"www.example.co.uk", "foo.bar.kawasaki.jp", "city.kawasaki.jp", "a.city.kawasaki.jp",
		"x.www.sch.uk", "www.sch.uk", "a.b.sch.uk", "www.ck", "x.y.ck", "a.b.example",
		"q.a.b.example", "x.y.c.example", "z.x.y.c.example", "y.c.example", "a.nowhere",
		"myblog.blogspot.com", "foo.bar.unknowntld", "A.B.C.EXAMPLE.", " com ", "*.kawasaki.jp") {
		f.Add(h)
	}
	type list struct {
		name  string
		list  *List
		memo  *Memo
		rules []string
	}
	small := MustParse(fuzzRules)
	lists := []list{
		{"Default", Default, NewMemo(Default), refRules(embeddedRules)},
		{"small", small, NewMemo(small), refRules(fuzzRules)},
	}
	f.Fuzz(func(t *testing.T, host string) {
		for _, l := range lists {
			want, wantOK := refRegisteredDomain(l.rules, host)
			if got, ok := l.list.RegisteredDomain(host); got != want || ok != wantOK {
				t.Fatalf("%s: List.RegisteredDomain(%q) = (%q, %v), reference (%q, %v)", l.name, host, got, ok, want, wantOK)
			}
			for pass := 0; pass < 2; pass++ { // the second is a cache hit
				if got, ok := l.memo.RegisteredDomain(host); got != want || ok != wantOK {
					t.Fatalf("%s: Memo.RegisteredDomain(%q) pass %d = (%q, %v), reference (%q, %v)", l.name, host, pass, got, ok, want, wantOK)
				}
			}
		}
	})
}
