package dns

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// A Zone holds the authoritative records for one DNS zone apex and the
// names beneath it.
type Zone struct {
	// Origin is the zone apex in canonical form.
	Origin string

	mu sync.RWMutex
	// records maps canonical owner name -> type -> record set.
	records map[string]map[Type][]RR
}

// NewZone creates an empty zone rooted at origin.
func NewZone(origin string) *Zone {
	return &Zone{
		Origin:  CanonicalName(origin),
		records: make(map[string]map[Type][]RR),
	}
}

// Add inserts a record into the zone. The owner name must be within the
// zone, and record data must be consistent with the record type.
func (z *Zone) Add(rr RR) error {
	rr.Name = CanonicalName(rr.Name)
	if err := CheckName(rr.Name); err != nil {
		return fmt.Errorf("zone %s: %w", z.Origin, err)
	}
	if !IsSubdomain(rr.Name, z.Origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.Origin, rr.Name)
	}
	if rr.Data == nil || rr.Data.RType() != rr.Type {
		return fmt.Errorf("zone %s: record %s has mismatched data", z.Origin, rr.Name)
	}
	if rr.Class == 0 {
		rr.Class = ClassIN
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	byType := z.records[rr.Name]
	if byType == nil {
		byType = make(map[Type][]RR)
		z.records[rr.Name] = byType
	}
	if rr.Type == TypeCNAME && (len(byType) > 1 || len(byType) == 1 && len(byType[TypeCNAME]) == 0) {
		return fmt.Errorf("zone %s: CNAME at %s conflicts with other data", z.Origin, rr.Name)
	}
	if rr.Type != TypeCNAME && len(byType[TypeCNAME]) > 0 {
		return fmt.Errorf("zone %s: data at %s conflicts with CNAME", z.Origin, rr.Name)
	}
	byType[rr.Type] = append(byType[rr.Type], rr)
	return nil
}

// MustAdd is Add but panics on error; for tests and generated worlds.
func (z *Zone) MustAdd(rr RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// Remove deletes all records of the given type at name. Removing TypeANY
// deletes the name entirely.
func (z *Zone) Remove(name string, typ Type) {
	name = CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	if typ == TypeANY {
		delete(z.records, name)
		return
	}
	if byType := z.records[name]; byType != nil {
		delete(byType, typ)
		if len(byType) == 0 {
			delete(z.records, name)
		}
	}
}

// LookupResult is the outcome of a zone lookup.
type LookupResult struct {
	// RCode is RCodeSuccess or RCodeNXDomain. A successful result with no
	// Answers is a NODATA response (name exists, type doesn't).
	RCode RCode
	// Answers holds matching records, including any CNAME chain walked.
	Answers []RR
	// Authority carries the SOA for negative responses, or the
	// delegation NS set when Delegated.
	Authority []RR
	// Delegated reports that the name falls under a zone cut: the zone
	// is not authoritative for it, Authority holds the child NS records
	// and Additional any available glue.
	Delegated bool
	// Additional carries glue addresses for a delegation.
	Additional []RR
}

// Lookup resolves (name, type) within the zone, following CNAME chains
// internal to the zone, distinguishing NXDOMAIN from NODATA, and
// returning referrals for names under a delegation point (an NS RRset at
// a name below the apex).
func (z *Zone) Lookup(name string, typ Type) LookupResult {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var res LookupResult
	cur := CanonicalName(name)
	if del := z.delegationLocked(cur); del != "" {
		res.Delegated = true
		res.Authority = withOwner(z.records[del][TypeNS], del)
		for _, ns := range res.Authority {
			host := CanonicalName(ns.Data.(NSData).Host)
			for _, typ := range []Type{TypeA, TypeAAAA} {
				res.Additional = append(res.Additional, withOwner(z.records[host][typ], host)...)
			}
		}
		return res
	}
	const maxChase = 16 // bound CNAME chains to defend against cycles
	for i := 0; i < maxChase; i++ {
		byType, exists := z.records[cur]
		if !exists {
			byType, exists = z.wildcardLocked(cur)
		}
		if !exists {
			if len(res.Answers) > 0 {
				// Broken CNAME chain: return what we have.
				return res
			}
			res.RCode = RCodeNXDomain
			res.Authority = z.soaLocked()
			return res
		}
		if rrs, ok := byType[typ]; ok && typ != TypeCNAME {
			res.Answers = append(res.Answers, withOwner(rrs, cur)...)
			return res
		}
		if typ == TypeCNAME {
			res.Answers = append(res.Answers, withOwner(byType[TypeCNAME], cur)...)
			return res
		}
		if cnames, ok := byType[TypeCNAME]; ok && len(cnames) > 0 {
			res.Answers = append(res.Answers, withOwner(cnames[:1], cur)...)
			target := CanonicalName(cnames[0].Data.(CNAMEData).Target)
			if !IsSubdomain(target, z.Origin) {
				// Chain leaves the zone; the resolver must continue.
				return res
			}
			cur = target
			continue
		}
		// Name exists with other types: NODATA.
		res.Authority = z.soaLocked()
		return res
	}
	// CNAME chase limit exceeded; report server failure semantics upstream
	// by returning what was accumulated.
	return res
}

// delegationLocked returns the deepest zone cut covering name: a name
// strictly below the apex, at or above the queried name, that carries an
// NS RRset. It returns "" when the zone is authoritative for the name.
func (z *Zone) delegationLocked(name string) string {
	// Collect candidate ancestors from the queried name up to (but not
	// including) the apex, then check the deepest first.
	var candidates []string
	for cur := name; cur != z.Origin && cur != "."; cur = Parent(cur) {
		if !IsSubdomain(cur, z.Origin) {
			return ""
		}
		candidates = append(candidates, cur)
	}
	// The topmost cut wins: names below the first delegation encountered
	// from the apex belong to the child zone, even if deeper NS records
	// are stored (they would be occluded data).
	for i := len(candidates) - 1; i >= 0; i-- {
		if byType, ok := z.records[candidates[i]]; ok && len(byType[TypeNS]) > 0 {
			return candidates[i]
		}
	}
	return ""
}

// wildcardLocked finds a `*.<parent>` entry covering name, per RFC 1034
// §4.3.3 semantics (closest enclosing wildcard; the wildcard does not
// match the name it sits at).
func (z *Zone) wildcardLocked(name string) (map[Type][]RR, bool) {
	parent := Parent(name)
	for IsSubdomain(parent, z.Origin) {
		if byType, ok := z.records["*."+parent]; ok {
			return byType, true
		}
		// Stop once an existing name is hit: empty non-terminals shadow
		// wildcards above them only if they exist explicitly.
		if parent == z.Origin {
			break
		}
		parent = Parent(parent)
	}
	return nil, false
}

func (z *Zone) soaLocked() []RR {
	if byType, ok := z.records[z.Origin]; ok {
		if soa := byType[TypeSOA]; len(soa) > 0 {
			return append([]RR(nil), soa...)
		}
	}
	return nil
}

// withOwner copies rrs setting each owner to name (needed for wildcard
// synthesis where the stored owner is "*.parent").
func withOwner(rrs []RR, name string) []RR {
	out := make([]RR, len(rrs))
	for i, rr := range rrs {
		rr.Name = name
		out[i] = rr
	}
	return out
}

// Records returns a sorted flat copy of every record in the zone.
func (z *Zone) Records() []RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []RR
	for _, byType := range z.records {
		for _, rrs := range byType {
			out = append(out, rrs...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Data.String() < out[j].Data.String()
	})
	return out
}

// Len returns the total number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, byType := range z.records {
		for _, rrs := range byType {
			n += len(rrs)
		}
	}
	return n
}

// WriteTo emits the zone in zone-file presentation format: an $ORIGIN
// line, then one record a line in Records order. It implements
// io.WriterTo; nothing here reads the text back.
func (z *Zone) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "$ORIGIN %s\n", z.Origin)
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, rr := range z.Records() {
		n, err := fmt.Fprintf(w, "%s\n", rr)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
