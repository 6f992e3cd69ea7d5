// Package dns implements the subset of the Domain Name System needed to
// simulate the paper's active DNS measurement substrate: a binary wire
// codec for messages and the resource-record types that matter for mail
// measurement (A, AAAA, NS, CNAME, SOA, PTR, MX, TXT), an authoritative
// in-memory zone store served over UDP and TCP, and a stub resolver client
// with retry and truncation fallback.
//
// The codec follows RFC 1035 message formats including domain-name
// compression; the server follows standard authoritative semantics
// (CNAME chasing within a zone, NXDOMAIN vs NODATA distinction).
package dns

import (
	"errors"
	"strings"
)

// MaxNameLen is the maximum length of a domain name in its presentation
// form, per RFC 1035 §2.3.4 (255 octets on the wire; 253 visible chars).
const MaxNameLen = 253

// MaxLabelLen is the maximum length of a single label.
const MaxLabelLen = 63

var (
	// ErrNameTooLong reports a name exceeding MaxNameLen.
	ErrNameTooLong = errors.New("dns: name too long")
	// ErrBadName reports a syntactically invalid domain name.
	ErrBadName = errors.New("dns: invalid name")
)

// CanonicalName lower-cases a name and ensures exactly one trailing dot,
// the canonical form used as map keys throughout this package. The root is
// returned as ".".
func CanonicalName(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" || s == "." {
		return "."
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// TrimmedName returns the canonical name without its trailing dot, which
// is the form most callers outside this package work with. The root maps
// to the empty string.
func TrimmedName(s string) string {
	return strings.TrimSuffix(CanonicalName(s), ".")
}

// CheckName validates a domain name in presentation form. It accepts
// letters, digits and hyphens within labels plus underscore as a leading
// character (for service labels such as _dmarc), and enforces label and
// name length limits. The root name "." is valid. It performs no heap
// allocations, so the packing hot path can validate every name.
func CheckName(s string) error {
	s = strings.TrimSuffix(strings.TrimSpace(s), ".")
	if s == "" {
		return nil // root
	}
	if s[len(s)-1] == '.' {
		return ErrBadName // empty final label ("a..")
	}
	if len(s) > MaxNameLen {
		return ErrNameTooLong
	}
	for start := 0; start < len(s); {
		end := strings.IndexByte(s[start:], '.')
		if end < 0 {
			end = len(s)
		} else {
			end += start
		}
		if err := checkLabel(s[start:end]); err != nil {
			return err
		}
		start = end + 1
	}
	return nil
}

// isCanonicalName reports whether s is already in CanonicalName form
// (lower case, trailing dot, no surrounding space), letting hot paths
// skip the allocating normalization.
func isCanonicalName(s string) bool {
	if s == "" || s[len(s)-1] != '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		// Upper case needs lowering; control bytes and non-ASCII may be
		// trimmed or rejected by the slow path — defer to it.
		if ('A' <= c && c <= 'Z') || c <= ' ' || c >= 0x80 {
			return false
		}
	}
	return true
}

func checkLabel(label string) error {
	if label == "" || len(label) > MaxLabelLen {
		return ErrBadName
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-':
			if i == 0 || i == len(label)-1 {
				return ErrBadName
			}
		case c == '_':
			if i != 0 {
				return ErrBadName
			}
		case c == '*':
			// Wildcard label: only valid alone.
			if len(label) != 1 {
				return ErrBadName
			}
		default:
			return ErrBadName
		}
	}
	return nil
}

// IsSubdomain reports whether child is equal to or underneath parent,
// comparing canonically. Every name is a subdomain of the root.
func IsSubdomain(child, parent string) bool {
	c, p := CanonicalName(child), CanonicalName(parent)
	if p == "." {
		return true
	}
	if c == p {
		return true
	}
	return strings.HasSuffix(c, "."+p)
}

// SplitLabels splits a name into its labels, omitting the root. A canonical
// or non-canonical form is accepted.
func SplitLabels(s string) []string {
	s = strings.TrimSuffix(CanonicalName(s), ".")
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}

// Parent returns the name with its leftmost label removed, in canonical
// form. The parent of a single-label name is the root ".", and the parent
// of the root is the root.
func Parent(s string) string {
	c := CanonicalName(s)
	if c == "." {
		return "."
	}
	i := strings.Index(c, ".")
	rest := c[i+1:]
	if rest == "" {
		return "."
	}
	return rest
}
