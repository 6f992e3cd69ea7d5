// Package psl implements the Public Suffix List algorithm used to split a
// fully qualified domain name into its public suffix and its registered
// domain (also known as eTLD+1).
//
// The paper's methodology leans on registered-domain extraction in three
// places: turning certificate names into provider identities, turning
// Banner/EHLO hostnames into provider identities, and falling back to the
// registered-domain part of an MX record. The matching rules follow the
// algorithm published at https://publicsuffix.org/list/:
//
//   - A rule matches a domain when the rule's labels are a suffix of the
//     domain's labels, comparing label by label from the right.
//   - A label of "*" in a rule matches any single label.
//   - Rules prefixed with "!" are exceptions and win over wildcard rules.
//   - When no rule matches, the public suffix is the rightmost label.
//   - The prevailing rule is the matching rule with the most labels
//     (exceptions are treated as if they had one label fewer).
//
// The zero value of List is unusable; construct one with Parse or use the
// package-level Default list, which embeds a snapshot sufficient for the
// TLDs exercised by this repository's world generator and tests.
package psl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A rule is one parsed line of the public suffix list.
type rule struct {
	labels    []string // reversed: labels[0] is the TLD-most label
	exception bool
}

// List is an immutable, matchable set of public-suffix rules.
type List struct {
	// rules indexed by their rightmost (TLD) label for quick candidate
	// lookup. Wildcard-only rules (rare; none in practice) would index
	// under "*".
	byTLD map[string][]rule
	n     int
}

// Parse reads public-suffix rules, one per line, from r. Blank lines and
// comments ("//") are ignored, as is any text after the first whitespace on
// a line, matching the upstream file format.
func Parse(r io.Reader) (*List, error) {
	l := &List{byTLD: make(map[string][]rule)}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		ru, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("psl: line %d: %w", lineno, err)
		}
		tld := ru.labels[0]
		l.byTLD[tld] = append(l.byTLD[tld], ru)
		l.n++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("psl: %w", err)
	}
	// Exception rules first (they always prevail per the published
	// algorithm), then longest rules, so the first match found is the
	// prevailing one.
	for _, rules := range l.byTLD {
		sort.SliceStable(rules, func(i, j int) bool {
			if rules[i].exception != rules[j].exception {
				return rules[i].exception
			}
			return effectiveLen(rules[i]) > effectiveLen(rules[j])
		})
	}
	return l, nil
}

// MustParse is like Parse but panics on error. It is intended for
// package-level initialization of embedded lists.
func MustParse(s string) *List {
	l, err := Parse(strings.NewReader(s))
	if err != nil {
		panic(err)
	}
	return l
}

func parseRule(s string) (rule, error) {
	var ru rule
	if strings.HasPrefix(s, "!") {
		ru.exception = true
		s = s[1:]
	}
	s = strings.TrimPrefix(s, ".")
	s = strings.ToLower(s)
	if s == "" {
		return rule{}, fmt.Errorf("empty rule")
	}
	parts := strings.Split(s, ".")
	for i, p := range parts {
		if p == "" {
			return rule{}, fmt.Errorf("empty label in rule %q", s)
		}
		if p == "*" && i != 0 {
			// The PSL format technically allows interior wildcards but no
			// published rule uses them; rejecting keeps matching simple.
			return rule{}, fmt.Errorf("non-leading wildcard in rule %q", s)
		}
	}
	// Reverse so labels[0] is the TLD.
	ru.labels = make([]string, len(parts))
	for i, p := range parts {
		ru.labels[len(parts)-1-i] = p
	}
	if ru.exception && len(ru.labels) < 2 {
		return rule{}, fmt.Errorf("exception rule %q must have at least two labels", s)
	}
	return ru, nil
}

// effectiveLen is the label count used to pick the prevailing rule;
// exceptions count as one label fewer per the published algorithm.
func effectiveLen(r rule) int {
	if r.exception {
		return len(r.labels) - 1
	}
	return len(r.labels)
}

// Len reports the number of rules in the list.
func (l *List) Len() int { return l.n }

// suffixLen returns how many of the trailing labels of the normalized
// host h form the public suffix.
func (l *List) suffixLen(h string) int {
	for _, ru := range l.byTLD[h[strings.LastIndexByte(h, '.')+1:]] {
		if m, ok := matchRule(ru, h); ok {
			return m // rules are sorted longest-first
		}
	}
	return 1 // default rule "*": the suffix is the TLD itself
}

// matchRule reports whether ru matches the normalized host h, and if so
// how many trailing labels the resulting public suffix spans. Labels
// are taken from the right of h in place, not split out.
func matchRule(ru rule, h string) (int, bool) {
	end := len(h)
	for _, rl := range ru.labels {
		if end < 0 {
			return 0, false // the rule has more labels than h
		}
		start := strings.LastIndexByte(h[:end], '.') + 1
		if rl != "*" && rl != h[start:end] {
			return 0, false
		}
		end = start - 1
	}
	if ru.exception {
		// An exception rule's public suffix is the rule minus its leftmost
		// label.
		return len(ru.labels) - 1, true
	}
	return len(ru.labels), true
}

// RegisteredDomain returns the registered domain (eTLD+1) for the given
// host name: the public suffix plus one additional label. It returns
// ok=false when the name is empty, is itself a public suffix, or has no
// label to the left of the suffix. The result is a substring of the
// normalized name, so a name that is already normalized (lower case, no
// surrounding space, no trailing dot) costs no allocation.
func (l *List) RegisteredDomain(domain string) (reg string, ok bool) {
	h := normalize(domain)
	if h == "" {
		return "", false
	}
	// The registered domain starts where the suffixLen+1'th label from
	// the right does; start-1 is the dot before the label last taken.
	start := len(h) + 1
	for n := l.suffixLen(h) + 1; n > 0; n-- {
		if start == 0 {
			return "", false // h is its public suffix, or less
		}
		start = strings.LastIndexByte(h[:start-1], '.') + 1
	}
	return h[start:], true
}

// normalize lower-cases a host name and strips its surrounding space and
// one trailing dot. It returns "" for names that cannot be a valid host
// (empty, or with an empty label).
func normalize(domain string) string {
	h := strings.TrimSuffix(strings.ToLower(strings.TrimSpace(domain)), ".")
	if h == "" || h[0] == '.' || h[len(h)-1] == '.' || strings.Contains(h, "..") {
		return ""
	}
	return h
}

// RegisteredDomain extracts the registered domain using the Default list.
// See List.RegisteredDomain.
func RegisteredDomain(domain string) (string, bool) {
	return Default.RegisteredDomain(domain)
}
