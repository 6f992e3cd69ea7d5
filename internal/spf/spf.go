// Package spf implements the subset of the Sender Policy Framework
// (RFC 7208) needed for the paper's proposed future-work heuristic: the
// MX record only reveals the first delivery hop, so when a domain routes
// inbound mail through a filtering service, the SPF policy — which must
// authorize the real mailbox provider's outbound servers — often reveals
// the "eventual" provider (§3.4 of the paper).
//
// The package is the record parser only: one TXT string in, the v=spf1
// mechanisms and redirect= target out. Nothing here queries DNS; the
// analysis reads the direct includes of the record a snapshot stored.
package spf

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Qualifier is an SPF mechanism qualifier.
type Qualifier byte

// Qualifiers.
const (
	QPass     Qualifier = '+'
	QFail     Qualifier = '-'
	QSoftFail Qualifier = '~'
	QNeutral  Qualifier = '?'
)

// Mechanism kinds.
type MechKind int

// Mechanism kinds recognized by the parser.
const (
	MechAll MechKind = iota
	MechInclude
	MechA
	MechMX
	MechIP4
	MechIP6
	MechExists
	MechPTR
)

var mechNames = map[MechKind]string{
	MechAll: "all", MechInclude: "include", MechA: "a", MechMX: "mx",
	MechIP4: "ip4", MechIP6: "ip6", MechExists: "exists", MechPTR: "ptr",
}

// String names the mechanism kind.
func (k MechKind) String() string { return mechNames[k] }

// Mechanism is one parsed SPF term.
type Mechanism struct {
	// Qualifier defaults to QPass.
	Qualifier Qualifier
	// Kind selects the mechanism.
	Kind MechKind
	// Domain is the target of include/a/mx/exists/ptr (optional for the
	// latter three).
	Domain string
	// Prefix is the network of ip4/ip6.
	Prefix netip.Prefix
}

// Record is one parsed v=spf1 policy.
type Record struct {
	// Mechanisms in order of appearance.
	Mechanisms []Mechanism
	// Redirect is the redirect= modifier target, if any.
	Redirect string
}

// Errors.
var (
	// ErrNotSPF reports a TXT record that is not a v=spf1 policy.
	ErrNotSPF = errors.New("spf: not an spf record")
	// ErrSyntax reports a malformed policy.
	ErrSyntax = errors.New("spf: syntax error")
)

// Parse parses one TXT string as an SPF record.
func Parse(txt string) (*Record, error) {
	fields := strings.Fields(strings.TrimSpace(txt))
	if len(fields) == 0 || !strings.EqualFold(fields[0], "v=spf1") {
		return nil, ErrNotSPF
	}
	rec := &Record{}
	for _, f := range fields[1:] {
		lower := strings.ToLower(f)
		if target, ok := strings.CutPrefix(lower, "redirect="); ok {
			if target == "" {
				return nil, fmt.Errorf("%w: empty redirect", ErrSyntax)
			}
			rec.Redirect = target
			continue
		}
		if strings.Contains(lower, "=") {
			continue // unknown modifier (exp=, etc.): ignored per RFC
		}
		m, err := parseMechanism(lower)
		if err != nil {
			return nil, err
		}
		rec.Mechanisms = append(rec.Mechanisms, m)
	}
	return rec, nil
}

func parseMechanism(s string) (Mechanism, error) {
	m := Mechanism{Qualifier: QPass}
	switch {
	case s == "":
		return m, fmt.Errorf("%w: empty term", ErrSyntax)
	case s[0] == '+', s[0] == '-', s[0] == '~', s[0] == '?':
		m.Qualifier = Qualifier(s[0])
		s = s[1:]
	}
	name, arg, hasArg := strings.Cut(s, ":")
	switch name {
	case "all":
		m.Kind = MechAll
		if hasArg {
			return m, fmt.Errorf("%w: all takes no argument", ErrSyntax)
		}
	case "include":
		m.Kind = MechInclude
		if !hasArg || arg == "" {
			return m, fmt.Errorf("%w: include requires a domain", ErrSyntax)
		}
		m.Domain = arg
	case "a", "mx", "exists", "ptr":
		switch name {
		case "a":
			m.Kind = MechA
		case "mx":
			m.Kind = MechMX
		case "exists":
			m.Kind = MechExists
		case "ptr":
			m.Kind = MechPTR
		}
		// Strip any dual-cidr suffix ("a:dom/24" or "a/24").
		m.Domain = strings.SplitN(arg, "/", 2)[0]
	case "ip4", "ip6":
		if name == "ip4" {
			m.Kind = MechIP4
		} else {
			m.Kind = MechIP6
		}
		if !hasArg || arg == "" {
			return m, fmt.Errorf("%w: %s requires a network", ErrSyntax, name)
		}
		if !strings.Contains(arg, "/") {
			if name == "ip4" {
				arg += "/32"
			} else {
				arg += "/128"
			}
		}
		p, err := netip.ParsePrefix(arg)
		if err != nil {
			return m, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		if p.Addr().Is4() != (name == "ip4") {
			return m, fmt.Errorf("%w: %s network %s is of the other family", ErrSyntax, name, p)
		}
		m.Prefix = p.Masked()
	default:
		return m, fmt.Errorf("%w: unknown mechanism %q", ErrSyntax, name)
	}
	return m, nil
}
