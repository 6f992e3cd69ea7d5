package dns

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
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

// WriteTo emits the zone in a minimal zone-file presentation format
// readable by ParseZone. It implements io.WriterTo.
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

// ParseZone reads the zone-file format produced by Zone.WriteTo plus the
// common conveniences of hand-written zone files: $ORIGIN and $TTL
// directives, "@" for the origin, ";" comments (outside quotes),
// parenthesized record data spanning multiple lines (the conventional
// SOA layout), and records that omit the TTL when a $TTL default exists.
// origin is used when the file carries no $ORIGIN.
func ParseZone(r io.Reader, origin string) (*Zone, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var z *Zone
	var defaultTTL uint32
	hasDefaultTTL := false
	lineno := 0
	ensure := func() *Zone {
		if z == nil {
			z = NewZone(origin)
		}
		return z
	}
	var pending strings.Builder
	openParens := 0
	for sc.Scan() {
		lineno++
		line := stripZoneComment(sc.Text())
		if openParens > 0 {
			pending.WriteString(" " + line)
			openParens += strings.Count(line, "(") - strings.Count(line, ")")
			if openParens > 0 {
				continue
			}
			line = pending.String()
			pending.Reset()
		} else {
			if opens := strings.Count(line, "(") - strings.Count(line, ")"); opens > 0 {
				pending.WriteString(line)
				openParens = opens
				continue
			}
		}
		line = strings.TrimSpace(strings.NewReplacer("(", " ", ")", " ").Replace(line))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "$ORIGIN") {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("dns: line %d: malformed $ORIGIN", lineno)
			}
			if z != nil {
				return nil, fmt.Errorf("dns: line %d: $ORIGIN after records", lineno)
			}
			z = NewZone(fields[1])
			continue
		}
		if strings.HasPrefix(line, "$TTL") {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("dns: line %d: malformed $TTL", lineno)
			}
			v, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("dns: line %d: bad $TTL %q", lineno, fields[1])
			}
			defaultTTL = uint32(v)
			hasDefaultTTL = true
			continue
		}
		zone := ensure()
		rr, err := parseRecordLine(line, zone.Origin, defaultTTL, hasDefaultTTL)
		if err != nil {
			return nil, fmt.Errorf("dns: line %d: %w", lineno, err)
		}
		if err := zone.Add(rr); err != nil {
			return nil, fmt.Errorf("dns: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if openParens > 0 {
		return nil, fmt.Errorf("dns: unbalanced parentheses at end of zone file")
	}
	return ensure(), nil
}

// ParseZones reads a concatenation of zone files (as emitted by writing
// several zones' WriteTo output into one stream), splitting on $ORIGIN
// directives, and returns a catalog of the parsed zones.
func ParseZones(r io.Reader) (*Catalog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	cat := NewCatalog()
	var block strings.Builder
	flush := func() error {
		if strings.TrimSpace(block.String()) == "" {
			block.Reset()
			return nil
		}
		z, err := ParseZone(strings.NewReader(block.String()), "")
		if err != nil {
			return err
		}
		cat.AddZone(z)
		block.Reset()
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "$ORIGIN") {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		block.WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return cat, nil
}

// stripZoneComment removes a trailing ";" comment, respecting quoted
// strings (TXT data may contain semicolons).
func stripZoneComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case '\\':
			i++
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

func parseRecordLine(line, origin string, defaultTTL uint32, hasDefaultTTL bool) (RR, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return RR{}, fmt.Errorf("too few fields in %q", line)
	}
	name := fields[0]
	if name == "@" {
		name = origin
	}
	rest := fields[1:]
	// The TTL column is optional when a $TTL default is in effect.
	var ttl uint64
	if v, err := strconv.ParseUint(rest[0], 10, 32); err == nil {
		ttl = v
		rest = rest[1:]
	} else if hasDefaultTTL {
		ttl = uint64(defaultTTL)
	} else {
		return RR{}, fmt.Errorf("bad TTL %q", rest[0])
	}
	if len(rest) < 2 {
		return RR{}, fmt.Errorf("too few fields in %q", line)
	}
	if !strings.EqualFold(rest[0], "IN") {
		return RR{}, fmt.Errorf("unsupported class %q", rest[0])
	}
	typ, ok := ParseType(rest[1])
	if !ok {
		return RR{}, fmt.Errorf("unsupported type %q", rest[1])
	}
	rr := RR{Name: name, TTL: uint32(ttl), Class: ClassIN, Type: typ}
	rdata := rest[2:]
	if len(rdata) == 0 {
		return RR{}, fmt.Errorf("missing rdata in %q", line)
	}
	switch typ {
	case TypeA, TypeAAAA:
		addr, err := netip.ParseAddr(rdata[0])
		if err != nil {
			return RR{}, err
		}
		if typ == TypeA {
			rr.Data = AData{Addr: addr}
		} else {
			rr.Data = AAAAData{Addr: addr}
		}
	case TypeNS:
		rr.Data = NSData{Host: rdata[0]}
	case TypeCNAME:
		rr.Data = CNAMEData{Target: rdata[0]}
	case TypePTR:
		rr.Data = PTRData{Target: rdata[0]}
	case TypeMX:
		if len(rdata) != 2 {
			return RR{}, fmt.Errorf("MX needs preference and exchange")
		}
		pref, err := strconv.ParseUint(rdata[0], 10, 16)
		if err != nil {
			return RR{}, fmt.Errorf("bad MX preference %q", rdata[0])
		}
		rr.Data = MXData{Preference: uint16(pref), Exchange: rdata[1]}
	case TypeTXT:
		// Re-join and split on quoted strings.
		joined := strings.Join(rdata, " ")
		ss, err := parseQuotedStrings(joined)
		if err != nil {
			return RR{}, err
		}
		rr.Data = TXTData{Strings: ss}
	case TypeSOA:
		if len(rdata) != 7 {
			return RR{}, fmt.Errorf("SOA needs 7 fields")
		}
		var soa SOAData
		soa.MName, soa.RName = rdata[0], rdata[1]
		nums := []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum}
		for i, f := range nums {
			v, err := strconv.ParseUint(rdata[2+i], 10, 32)
			if err != nil {
				return RR{}, fmt.Errorf("bad SOA field %q", rdata[2+i])
			}
			*f = uint32(v)
		}
		rr.Data = soa
	default:
		return RR{}, fmt.Errorf("unsupported type %s", typ)
	}
	return rr, nil
}

func parseQuotedStrings(s string) ([]string, error) {
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		if s[0] != '"' {
			return nil, fmt.Errorf("TXT string must be quoted near %q", s)
		}
		str, rest, err := unquoteOne(s)
		if err != nil {
			return nil, err
		}
		out = append(out, str)
		s = rest
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty TXT data")
	}
	return out, nil
}

func unquoteOne(s string) (string, string, error) {
	// s starts with a double quote; find the matching close, honoring \"
	var sb strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 < len(s) {
				i++
				sb.WriteByte(s[i])
			}
		case '"':
			return sb.String(), s[i+1:], nil
		default:
			sb.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}
