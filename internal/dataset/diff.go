package dataset

import (
	"bytes"
	"fmt"
	"hash/fnv"
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
// record's canonical JSON, every field it has (MX sets with addresses,
// SPF, delegation, rank). buf is the caller's scratch for the JSON,
// returned for the next call.
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

// keySeq pulls one stream's domainKeys one at a time, fingerprinted by
// a pump goroutine running the stream's callback iteration, so two
// streams can be merge-joined in lockstep with O(1) domain memory.
type keySeq struct {
	side string // "old" or "new"
	prev string // the domain of the last key next returned
	ch   chan keyItem
	stop chan struct{}
}

type keyItem struct {
	key domainKey
	err error
}

func streamKeys(st *Stream, side string, changedIPs map[string]bool) *keySeq {
	s := &keySeq{side: side, ch: make(chan keyItem, 64), stop: make(chan struct{})}
	go func() {
		defer close(s.ch)
		var buf []byte
		err := st.ForEach(func(d *DomainRecord) error {
			var k domainKey
			k, buf = keyOf(d, changedIPs, buf)
			select {
			case s.ch <- keyItem{key: k}:
				return nil
			case <-s.stop:
				return ErrStop
			}
		}, nil)
		if err != nil {
			select {
			case s.ch <- keyItem{err: err}:
			case <-s.stop:
			}
		}
	}()
	return s
}

// next returns the next key, ok=false at the end of the stream. A key
// out of the sorted unique order the merge-join needs is an error.
func (s *keySeq) next() (domainKey, bool, error) {
	it, ok := <-s.ch
	if !ok || it.err != nil {
		return domainKey{}, false, it.err
	}
	if s.prev != "" && it.key.domain <= s.prev {
		return domainKey{}, false, fmt.Errorf("dataset: diff: %s snapshot domains not in sorted unique order (%q after %q)",
			s.side, it.key.domain, s.prev)
	}
	s.prev = it.key.domain
	return it.key, true, nil
}

// abort releases the pump, which may be blocked on a send; call it once.
func (s *keySeq) abort() {
	close(s.stop)
	for range s.ch {
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
	po := streamKeys(old, "old", changedIPs)
	pn := streamKeys(new, "new", changedIPs)
	defer po.abort()
	defer pn.abort()
	return mergeDiff(po, pn, len(changedIPs), fn)
}

// mergeDiff merge-joins two sorted key sequences, classifying each
// domain.
func mergeDiff(po, pn *keySeq, ipsChanged int, fn func(Change) error) (DiffStats, error) {
	stats := DiffStats{IPsChanged: ipsChanged}
	if fn == nil {
		fn = func(Change) error { return nil }
	}
	o, okO, err := po.next()
	if err != nil {
		return stats, err
	}
	n, okN, err := pn.next()
	if err != nil {
		return stats, err
	}
	for okO || okN {
		switch {
		case !okN || (okO && o.domain < n.domain):
			stats.OldDomains++
			stats.Removed++
			if err := fn(Change{Domain: o.domain, Kind: DiffRemoved}); err != nil {
				return stats, endOfPass(err)
			}
			if o, okO, err = po.next(); err != nil {
				return stats, err
			}
		case !okO || n.domain < o.domain:
			stats.NewDomains++
			stats.Added++
			if err := fn(Change{Domain: n.domain, Kind: DiffAdded}); err != nil {
				return stats, endOfPass(err)
			}
			if n, okN, err = pn.next(); err != nil {
				return stats, err
			}
		default:
			stats.OldDomains++
			stats.NewDomains++
			if o.fp != n.fp || o.refChanged || n.refChanged {
				stats.Changed++
				if err := fn(Change{Domain: n.domain, Kind: DiffChanged}); err != nil {
					return stats, endOfPass(err)
				}
			} else {
				stats.Unchanged++
			}
			if o, okO, err = po.next(); err != nil {
				return stats, err
			}
			if n, okN, err = pn.next(); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}
