package dataset

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
)

// DiffKind classifies one domain's change between two snapshots.
type DiffKind int

// Diff kinds.
const (
	// DiffChanged means the domain exists in both snapshots but its
	// serialized record — or an IP observation it references — differs.
	DiffChanged DiffKind = iota
	// DiffAdded means the domain exists only in the new snapshot.
	DiffAdded
	// DiffRemoved means the domain exists only in the old snapshot.
	DiffRemoved
)

// String names the kind.
func (k DiffKind) String() string {
	switch k {
	case DiffChanged:
		return "changed"
	case DiffAdded:
		return "added"
	case DiffRemoved:
		return "removed"
	default:
		return fmt.Sprintf("DiffKind(%d)", int(k))
	}
}

// Change is one differing domain between two snapshots.
type Change struct {
	// Domain is the affected domain name.
	Domain string
	// Kind says how it differs.
	Kind DiffKind
}

// DiffStats summarizes a snapshot diff.
type DiffStats struct {
	// OldDomains and NewDomains count each side's domain records.
	OldDomains int `json:"old_domains"`
	NewDomains int `json:"new_domains"`
	// Added, Removed, Changed and Unchanged partition the merged domain
	// set: Added+Changed+Unchanged == NewDomains and
	// Removed+Changed+Unchanged == OldDomains.
	Added     int `json:"added"`
	Removed   int `json:"removed"`
	Changed   int `json:"changed"`
	Unchanged int `json:"unchanged"`
	// IPsChanged counts addresses whose serialized observation differs
	// between the sides (including addresses present on only one side).
	IPsChanged int `json:"ips_changed"`
}

// domainKey is one side's comparison key for a single domain: a
// fingerprint over the record's serialized form plus a flag marking
// whether the record references an address whose observation changed.
// Comparing keys instead of records keeps the merge O(1) per domain.
type domainKey struct {
	domain     string
	fp         uint64
	refChanged bool
}

// keyOf fingerprints one domain record. The FNV-1a hash runs over the
// record's canonical JSON, which serializes exactly the fields a
// snapshot file persists (MX sets with addresses, SPF, delegation,
// rank); the transient Failure field is not among them, so
// re-collection noise cannot masquerade as churn. buf is the caller's
// scratch for the JSON, returned for the next call.
func keyOf(d *DomainRecord, changedIPs map[string]bool, buf []byte) (domainKey, []byte) {
	buf = appendDomainRecord(buf[:0], d)
	h := fnv.New64a()
	h.Write(buf)
	k := domainKey{domain: d.Domain, fp: h.Sum64()}
	if len(changedIPs) > 0 {
		for i := range d.MX {
			for _, a := range d.MX[i].Addrs {
				if changedIPs[a.String()] {
					k.refChanged = true
					return k, buf
				}
			}
		}
	}
	return k, buf
}

// diffIPs compares two IP tables and returns the set of addresses whose
// serialized observation differs (certificate, banner, port-25 state,
// parked/ASN metadata — everything an attribution can read).
func diffIPs(old, new map[string]IPInfo) map[string]bool {
	changed := make(map[string]bool)
	var ob, nb []byte
	for addr, o := range old {
		n, ok := new[addr]
		if !ok {
			changed[addr] = true
			continue
		}
		ob, nb = appendIPRecord(ob[:0], &o), appendIPRecord(nb[:0], &n)
		if !bytes.Equal(ob, nb) {
			changed[addr] = true
		}
	}
	for addr := range new {
		if _, ok := old[addr]; !ok {
			changed[addr] = true
		}
	}
	return changed
}

// keySeq pulls domainKeys one at a time from a source; next returns
// ok=false at end of sequence. abort releases the source early.
type keySeq struct {
	next  func() (domainKey, bool, error)
	abort func()
}

// streamKeys adapts a Stream's callback iteration into a pull sequence
// via a pump goroutine, so two streams can be merge-joined in lockstep
// with O(1) domain memory.
func streamKeys(st *Stream, changedIPs map[string]bool) *keySeq {
	type item struct {
		key domainKey
		err error
	}
	ch := make(chan item, 64)
	stop := make(chan struct{})
	go func() {
		defer close(ch)
		var buf []byte
		err := st.ForEach(func(d *DomainRecord) error {
			var k domainKey
			k, buf = keyOf(d, changedIPs, buf)
			select {
			case ch <- item{key: k}:
				return nil
			case <-stop:
				return ErrStop
			}
		}, nil)
		if err != nil {
			select {
			case ch <- item{err: err}:
			case <-stop:
			}
		}
	}()
	var stopped bool
	return &keySeq{
		next: func() (domainKey, bool, error) {
			it, ok := <-ch
			if !ok {
				return domainKey{}, false, nil
			}
			if it.err != nil {
				return domainKey{}, false, it.err
			}
			return it.key, true, nil
		},
		abort: func() {
			if !stopped {
				stopped = true
				close(stop)
				for range ch { // release a pump blocked on send
				}
			}
		},
	}
}

// sliceKeys is the materialized-snapshot counterpart of streamKeys: the
// domain records are fingerprinted in sorted-name order up front.
func sliceKeys(s *Snapshot, changedIPs map[string]bool) *keySeq {
	order := make([]int, len(s.Domains))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.Domains[order[a]].Domain < s.Domains[order[b]].Domain
	})
	keys := make([]domainKey, len(order))
	var buf []byte
	for i, idx := range order {
		keys[i], buf = keyOf(&s.Domains[idx], changedIPs, buf)
	}
	pos := 0
	return &keySeq{
		next: func() (domainKey, bool, error) {
			if pos >= len(keys) {
				return domainKey{}, false, nil
			}
			k := keys[pos]
			pos++
			return k, true, nil
		},
		abort: func() {},
	}
}

// DiffStream compares two on-disk snapshots domain by domain and
// reports every difference through fn (which may be nil to collect
// stats only). The comparison covers the full observation surface that
// inference reads: the domain's MX records and addresses, SPF and
// delegation data, plus the certificate/banner/port-25 observations of
// every address the domain references — so a cert rotation on a shared
// exchange marks all its domains changed.
//
// Both files must store domains in sorted order, which canonical
// snapshot files (WriteFile / Merge output) guarantee; an out-of-order
// domain is reported as an error. Memory is bounded by the two IP
// tables — the domain sections stream through a merge-join.
//
// fn is invoked in merged sorted-domain order. A fn returning ErrStop
// ends the diff successfully with partial stats.
func DiffStream(old, new *Stream, fn func(Change) error) (DiffStats, error) {
	oldIPs, err := old.LoadIPs()
	if err != nil {
		return DiffStats{}, err
	}
	newIPs, err := new.LoadIPs()
	if err != nil {
		return DiffStats{}, err
	}
	changedIPs := diffIPs(oldIPs, newIPs)
	po := streamKeys(old, changedIPs)
	pn := streamKeys(new, changedIPs)
	defer po.abort()
	defer pn.abort()
	return mergeDiff(po, pn, len(changedIPs), fn)
}

// DiffSnapshots is DiffStream over materialized snapshots, sharing the
// same comparison semantics; domain order within each snapshot does not
// matter (records are fingerprinted in sorted-name order).
func DiffSnapshots(old, new *Snapshot, fn func(Change) error) (DiffStats, error) {
	changedIPs := diffIPs(old.IPs, new.IPs)
	return mergeDiff(sliceKeys(old, changedIPs), sliceKeys(new, changedIPs), len(changedIPs), fn)
}

// mergeDiff merge-joins two sorted key sequences, classifying each
// domain and enforcing the sorted-unique order contract.
func mergeDiff(po, pn *keySeq, ipsChanged int, fn func(Change) error) (DiffStats, error) {
	stats := DiffStats{IPsChanged: ipsChanged}
	emit := func(c Change) error {
		if fn == nil {
			return nil
		}
		return fn(c)
	}
	var prevOld, prevNew string
	advance := func(seq *keySeq, prev *string, side string) (domainKey, bool, error) {
		k, ok, err := seq.next()
		if err != nil || !ok {
			return k, ok, err
		}
		if *prev != "" && k.domain <= *prev {
			return k, false, fmt.Errorf("dataset: diff: %s snapshot domains not in sorted unique order (%q after %q)",
				side, k.domain, *prev)
		}
		*prev = k.domain
		return k, true, nil
	}
	o, okO, err := advance(po, &prevOld, "old")
	if err != nil {
		return stats, err
	}
	n, okN, err := advance(pn, &prevNew, "new")
	if err != nil {
		return stats, err
	}
	for okO || okN {
		switch {
		case !okN || (okO && o.domain < n.domain):
			stats.OldDomains++
			stats.Removed++
			if err := emit(Change{Domain: o.domain, Kind: DiffRemoved}); err != nil {
				if err == ErrStop {
					return stats, nil
				}
				return stats, err
			}
			if o, okO, err = advance(po, &prevOld, "old"); err != nil {
				return stats, err
			}
		case !okO || n.domain < o.domain:
			stats.NewDomains++
			stats.Added++
			if err := emit(Change{Domain: n.domain, Kind: DiffAdded}); err != nil {
				if err == ErrStop {
					return stats, nil
				}
				return stats, err
			}
			if n, okN, err = advance(pn, &prevNew, "new"); err != nil {
				return stats, err
			}
		default:
			stats.OldDomains++
			stats.NewDomains++
			if o.fp != n.fp || o.refChanged || n.refChanged {
				stats.Changed++
				if err := emit(Change{Domain: n.domain, Kind: DiffChanged}); err != nil {
					if err == ErrStop {
						return stats, nil
					}
					return stats, err
				}
			} else {
				stats.Unchanged++
			}
			if o, okO, err = advance(po, &prevOld, "old"); err != nil {
				return stats, err
			}
			if n, okN, err = advance(pn, &prevNew, "new"); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}
