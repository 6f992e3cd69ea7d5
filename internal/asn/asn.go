// Package asn maps IPv4 addresses to autonomous system numbers via
// longest-prefix match, standing in for CAIDA's Routeviews prefix-to-AS
// dataset that the paper uses to augment MX host addresses with routing
// information.
//
// The core structure is a binary Patricia-style trie over prefix bits.
// A Table is safe for concurrent readers after construction; mutation is
// guarded by a mutex so tables can also be built incrementally.
package asn

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"sync"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the conventional "AS15169" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// AS describes one autonomous system.
type AS struct {
	// Number is the AS number.
	Number ASN
	// Name is the short AS name, e.g. "GOOGLE".
	Name string
	// Org is the operating organization, e.g. "Google LLC".
	Org string
	// CountryCode is the ISO 3166-1 alpha-2 registration country.
	CountryCode string
}

// Registry resolves AS numbers to AS descriptions.
type Registry struct {
	mu sync.RWMutex
	as map[ASN]AS
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{as: make(map[ASN]AS)}
}

// Register adds or replaces an AS description.
func (r *Registry) Register(a AS) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.as[a.Number] = a
}

// Lookup returns the description for an ASN.
func (r *Registry) Lookup(n ASN) (AS, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.as[n]
	return a, ok
}

// Len reports the number of registered systems.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.as)
}

// node is a binary trie node. Children are indexed by the next prefix bit.
type node struct {
	children [2]*node
	// set marks a node that terminates an announced prefix.
	set bool
	asn ASN
}

// Table maps IP prefixes to origin ASNs with longest-prefix match. Both
// address families are supported (the paper's method is IPv4-based and
// names IPv6 as future work; this table implements that extension).
type Table struct {
	mu     sync.RWMutex
	root4  *node
	root6  *node
	n4, n6 int
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{root4: &node{}, root6: &node{}}
}

// Insert announces prefix as originated by asn. Inserting the same prefix
// twice overwrites the origin (mirroring a newer RIB snapshot).
func (t *Table) Insert(prefix netip.Prefix, asn ASN) error {
	if !prefix.IsValid() {
		return fmt.Errorf("asn: invalid prefix %s", prefix)
	}
	prefix = prefix.Masked()
	addr := prefix.Addr()
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur *node
	if addr.Is4() {
		cur = t.root4
	} else {
		cur = t.root6
	}
	raw := addr.As16()
	// IPv4 addresses occupy the last 4 bytes of the 16-byte form; start
	// bit indexing at the family's own most-significant bit.
	start := 0
	if addr.Is4() {
		start = 96
	}
	for i := 0; i < prefix.Bits(); i++ {
		b := bitAt(raw, start+i)
		if cur.children[b] == nil {
			cur.children[b] = &node{}
		}
		cur = cur.children[b]
	}
	if !cur.set {
		if addr.Is4() {
			t.n4++
		} else {
			t.n6++
		}
	}
	cur.set = true
	cur.asn = asn
	return nil
}

// Lookup returns the origin ASN of the longest announced prefix covering
// addr, or ok=false when no prefix covers it.
func (t *Table) Lookup(addr netip.Addr) (ASN, bool) {
	if !addr.IsValid() {
		return 0, false
	}
	addr = addr.Unmap()
	t.mu.RLock()
	defer t.mu.RUnlock()
	cur := t.root6
	maxBits := 128
	start := 0
	if addr.Is4() {
		cur = t.root4
		maxBits = 32
		start = 96
	}
	raw := addr.As16()
	var best ASN
	found := false
	for i := 0; ; i++ {
		if cur.set {
			best, found = cur.asn, true
		}
		if i == maxBits {
			break
		}
		next := cur.children[bitAt(raw, start+i)]
		if next == nil {
			break
		}
		cur = next
	}
	return best, found
}

// bitAt extracts bit i (MSB-first) of a 16-byte address.
func bitAt(raw [16]byte, i int) int {
	return int(raw[i/8] >> (7 - i%8) & 1)
}

// Len reports the number of announced prefixes across both families.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n4 + t.n6
}

// Prefixes returns all announced prefixes with their origins, IPv4 first
// then IPv6, each sorted by address then length. Useful for
// serialization and testing.
func (t *Table) Prefixes() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	collect := func(root *node, start int, mk func(raw [16]byte, depth int) netip.Prefix) []Entry {
		var out []Entry
		var walk func(n *node, raw [16]byte, depth int)
		walk = func(n *node, raw [16]byte, depth int) {
			if n == nil {
				return
			}
			if n.set {
				out = append(out, Entry{Prefix: mk(raw, depth), ASN: n.asn})
			}
			walk(n.children[0], raw, depth+1)
			i := start + depth
			if i < 128 {
				raw[i/8] |= 1 << (7 - i%8)
				walk(n.children[1], raw, depth+1)
			}
		}
		walk(root, [16]byte{}, 0)
		sort.Slice(out, func(i, j int) bool {
			ai, aj := out[i].Prefix.Addr(), out[j].Prefix.Addr()
			if ai != aj {
				return ai.Less(aj)
			}
			return out[i].Prefix.Bits() < out[j].Prefix.Bits()
		})
		return out
	}
	v4 := collect(t.root4, 96, func(raw [16]byte, depth int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte(raw[12:16])), depth)
	})
	v6 := collect(t.root6, 0, func(raw [16]byte, depth int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom16(raw), depth)
	})
	return append(v4, v6...)
}

// Entry is one announced prefix.
type Entry struct {
	Prefix netip.Prefix
	ASN    ASN
}

// WriteTo emits the table in CAIDA prefix2as format: "address<TAB>length
// <TAB>asn", one line per prefix. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range t.Prefixes() {
		n, err := fmt.Fprintf(w, "%s\t%d\t%d\n", e.Prefix.Addr(), e.Prefix.Bits(), e.ASN)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
