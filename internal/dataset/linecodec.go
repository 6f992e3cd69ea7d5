package dataset

import (
	"encoding/json"
	"math"
	"net/netip"
	"strconv"

	"mxmap/internal/asn"
)

// This file is the line codec of the two record shapes a snapshot is
// made of, `{"kind":"domain","domain":{…}}` and `{"kind":"ip","ip":{…}}`,
// written by hand so that the per-record path of stream, merge and
// spill spends no time in encoding/json's reflection and
// validity scan; it also writes the header line.
//
// The encoder is byte-identical to json.Encoder.Encode(jsonLine{…}). The
// decoder accepts exactly the canonical form, which is what the encoder
// emits: jsonLine's field order, no whitespace, strings made only of
// plain bytes (see plain), decimal numbers without sign or leading zero,
// dotted-quad IPv4 addresses, omitempty members present only when
// non-zero, and nothing after the closing "}}". It declines every other
// line, and a declined line is decoded by json.Unmarshal into the same
// jsonLine, so encoding/json remains the only reader of non-canonical
// input and the reference FuzzLineDecode and FuzzLineEncode compare
// with. Which of the two decodes a line follows from the line's bytes
// alone.
//
// The decoder (decodeCanonical) is a kernel for the lines the encoder
// writes, and every reader of the format goes through it: Merge's shard
// walk, each Stream pass, Read, ReadFile, fsck, DiffStream and a
// resume's read of leftover shards. It reads a line in one left-to-right pass. Where the form
// offers a choice (which member comes next, null or an array, another
// element or the end) it looks at the one byte that tells the choices
// apart and compares the chosen member name once, against a constant
// the compiler compares in a word or two; one-byte literals are
// compared as bytes, and a dotted quad is parsed octet by octet into a
// register. A walk that stores nothing allocates nothing; a stored
// record costs its own strings.
//
// Provider concentration makes a snapshot's domain lines repeat a few
// MX lists, so the part of a domain line after its name and rank, its
// tail, takes few distinct values. Each walk keeps a table of the tails
// it has decoded (tailTable): a line whose tail the table holds has its
// name and rank parsed and the rest of its record refilled from the
// table, not decoded again, the entry lending the record its MX and
// address arrays. The entry's index names the tail to the walk's
// callback (see Stream.ForEachTail), so a consumer can do the work a tail
// decides once per tail, too.

// plain marks the bytes encoding/json writes inside a string as
// themselves: printable ASCII other than the quote, the backslash and
// the three characters its HTML escaping rewrites.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// decodeLine decodes one non-empty snapshot line into l and returns the
// key Merge orders the line by: the domain name or the address text, nil
// for header and footer lines.
//
// A canonical domain or ip line fills the record l.Domain or l.IP
// already points at. A domain record is refilled in place, MX and every
// MX[i].Addrs reusing their arrays, so a caller that keeps a record
// across lines hands in a zeroed one. A nil pointer means the caller has
// no use for that record and the line is only walked, without
// allocating. tails, when not nil, is the walk's table of decoded
// domain-line tails, which the line is looked up in and may be added
// to; a line whose tail the table holds is lent the entry's arrays (see
// tailEntry.lend). tail says what the table made of a domain line's
// tail. Any other line resets l and goes through json.Unmarshal, which
// allocates the members the line carries, and has no tail.
func decodeLine(raw []byte, l *jsonLine, tails tailTable) (key []byte, tail lineTail, err error) {
	c := cursor{b: raw, tails: tails, tail: lineTail{id: NoTail}}
	if kind, key, ok := c.line(l.Domain, l.IP); ok {
		l.Kind = kind
		return key, c.tail, nil
	}
	*l = jsonLine{}
	if err := json.Unmarshal(raw, l); err != nil {
		return nil, lineTail{id: NoTail}, err
	}
	switch {
	case l.Kind == "domain" && l.Domain != nil:
		key = []byte(l.Domain.Domain)
	case l.Kind == "ip" && l.IP != nil && l.IP.Addr.IsValid():
		key = []byte(l.IP.Addr.String())
	}
	return key, lineTail{id: NoTail}, nil
}

// decodeCanonical is the hand-written half of decodeLine, the kernel
// its tests drive. ok is false when it declines the line, which may by
// then have overwritten part of the record.
func decodeCanonical(raw []byte, d *DomainRecord, info *IPInfo, tails tailTable) (kind string, key []byte, ok bool) {
	c := cursor{b: raw, tails: tails}
	return c.line(d, info)
}

// line walks the whole line, the kind's first letter telling the two
// prefixes apart.
func (c *cursor) line(d *DomainRecord, info *IPInfo) (kind string, key []byte, ok bool) {
	switch c.at(len(`{"kind":"`)) {
	case 'd':
		if string(c.take(36)) != `{"kind":"domain","domain":{"domain":` {
			return "", nil, false
		}
		key, ok = c.domainLine(d)
		return "domain", key, ok
	case 'i':
		if string(c.take(26)) != `{"kind":"ip","ip":{"addr":` {
			return "", nil, false
		}
		key, ok = c.ipLine(info)
		return "ip", key, ok
	}
	return "", nil, false
}

// cursor walks one line left to right. Every method reports whether the
// canonical form went on; after the first false the line is declined and
// the cursor is not used again. Where the form offers a choice, at
// looks at the byte that tells the choices apart, and take matches the
// chosen literal; char matches a one-byte literal. A domain line's tail
// is looked up in tails before it is walked, and tail says what the
// table made of it.
type cursor struct {
	b     []byte
	i     int
	tails tailTable // the walk's decoded tails; nil looks up nothing
	tail  lineTail
}

// lineTail is what the walk's table made of a domain line's tail: id is
// its entry's index, NoTail when the table does not hold it, and lent
// reports that the record was refilled from the entry.
type lineTail struct {
	id   int
	lent bool
}

// NoTail is the tail ID of a domain record whose tail a pass does not
// name: see Stream.ForEachTail and ForEachTail.
const NoTail = -1

// tailTable is a walk's table of decoded domain-line tails. A tail is
// the bytes of a canonical domain line after its name and rank, from
// `,"mx":` through the closing "}}"; what those bytes may be does not
// depend on the name or the rank, so a tail the decoder has accepted
// once is accepted on any line. An entry holds the tail's decoded
// members, or only its index in a walk that stores no domain record,
// where the key alone says "already validated". Only a tail whose whole
// line the decoder has accepted enters, and at most maxTails do:
// provider concentration puts the repeated MX lists among the first
// tails a walk meets, so the bound cuts the long tail of self-hosted
// ones. A tail longer than maxTailBytes (a long SPF policy) does not
// enter, so a table holds a few MiB at most whatever the lines.
type tailTable map[string]tailEntry

// maxTails and maxTailBytes bound a tailTable.
const (
	maxTails     = 1024
	maxTailBytes = 2 << 10
)

// tailEntry is a decoded tail: what a domain record holds past its name
// and rank, and the index it entered the table at.
type tailEntry struct {
	id         int
	stored     bool    // a walk that stores records entered it: mx, spf and delegation are set
	mx         []MXObs // nil for "mx":null
	spf        string
	delegation string
}

// tailBlock holds an entry's MX and address arrays in one allocation
// when the tail has at most slotMX exchanges and blockAddrs addresses,
// as most of a corpus's tails have.
type tailBlock struct {
	mx    [slotMX]MXObs
	addrs [blockAddrs]netip.Addr
}

const blockAddrs = slotMX * slotAddrs

// add enters tail, decoded into d (nil when the walk stores none), and
// returns its index, NoTail when the table is full or the tail too long.
// A tail held without its members (entered by a walk that stores none)
// keeps its index and gains them.
func (t tailTable) add(tail []byte, d *DomainRecord) int {
	e, held := t[string(tail)]
	if !held {
		if t == nil || len(t) >= maxTails || len(tail) > maxTailBytes {
			return NoTail
		}
		e.id = len(t)
	}
	if d != nil {
		e.stored, e.spf, e.delegation = true, d.SPF, d.Delegation
		e.mx = ownMX(d.MX)
	}
	t[string(tail)] = e
	return e.id
}

// ownMX returns a copy of mx in arrays of its own, each capped at its
// length: one block when it fits a tailBlock, two arrays when not.
func ownMX(mx []MXObs) []MXObs {
	switch {
	case mx == nil:
		return nil
	case len(mx) == 0:
		return []MXObs{} // empty, not nil, as the walk has it
	}
	n := 0
	for i := range mx {
		n += len(mx[i].Addrs)
	}
	var (
		out   []MXObs
		addrs []netip.Addr
	)
	if len(mx) <= slotMX && n <= blockAddrs {
		b := new(tailBlock)
		out, addrs = b.mx[:len(mx):len(mx)], b.addrs[:0:n]
	} else {
		out, addrs = make([]MXObs, len(mx)), make([]netip.Addr, 0, n)
	}
	for i := range mx {
		out[i] = MXObs{Preference: mx[i].Preference, Exchange: mx[i].Exchange, Dangling: mx[i].Dangling}
		if a := mx[i].Addrs; a != nil {
			addrs = append(addrs, a...)
			out[i].Addrs = addrs[len(addrs)-len(a) : len(addrs) : len(addrs)]
		}
	}
	return out
}

// lend refills d's members past its name and rank from e. d is lent e's
// MX and address arrays, which are read-only: a caller that decodes
// into d again first hands it arrays of its own, as a walk's slot does
// (see lineSlot.fill).
func (e *tailEntry) lend(d *DomainRecord) {
	d.MX, d.SPF, d.Delegation = e.mx, e.spf, e.delegation
}

// at returns the byte k places past the cursor, 0 past the end of the
// line. No canonical line holds a 0 byte, so 0 picks no choice.
func (c *cursor) at(k int) byte {
	if j := c.i + k; j < len(c.b) {
		return c.b[j]
	}
	return 0
}

// take consumes the next n bytes and returns them, or nil when fewer
// are left. A literal is matched as string(c.take(n)) against a
// constant of n bytes: one of at most 16 bytes, as every member name
// is, the compiler compares in a load or two, not in a call. A mismatch
// declines the line, so the bytes taken are not looked at again (a scan
// object's member, which may be absent, puts them back).
func (c *cursor) take(n int) []byte {
	if len(c.b)-c.i < n {
		return nil
	}
	c.i += n
	return c.b[c.i-n : c.i]
}

// char consumes ch if the line continues with it.
func (c *cursor) char(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// str consumes a quoted string of plain bytes and returns its contents.
func (c *cursor) str() ([]byte, bool) {
	if !c.char('"') {
		return nil, false
	}
	for i := c.i; i < len(c.b); i++ {
		if ch := c.b[i]; !plain[ch] {
			if ch != '"' {
				return nil, false
			}
			s := c.b[c.i:i]
			c.i = i + 1
			return s, true
		}
	}
	return nil, false
}

// nonEmptyStr is str for an omitempty member, which the writer leaves
// out when empty.
func (c *cursor) nonEmptyStr() ([]byte, bool) {
	s, ok := c.str()
	return s, ok && len(s) > 0
}

// uint consumes a decimal number in [0, max] without sign or leading zero.
func (c *cursor) uint(max uint64) (uint64, bool) {
	start := c.i
	var v uint64
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		if c.i-start == 19 { // a 20th digit could overflow uint64
			return 0, false
		}
		v = v*10 + uint64(c.b[c.i]-'0')
		c.i++
	}
	n := c.i - start
	if n == 0 || (n > 1 && c.b[start] == '0') || v > max {
		return 0, false
	}
	return v, true
}

// positive is uint for an omitempty member, absent when zero.
func (c *cursor) positive(max uint64) (uint64, bool) {
	v, ok := c.uint(max)
	return v, ok && v > 0
}

func (c *cursor) bool() (v, ok bool) {
	if c.at(0) == 't' {
		return true, string(c.take(4)) == "true"
	}
	return false, string(c.take(5)) == "false"
}

// ipv4 consumes a quoted dotted quad and returns the address and its
// text, in one pass: each octet is one to three digits, at most 255,
// and "0" is the only one that starts with a zero. The octets gather in
// a register, not in an array the address is then loaded from.
func (c *cursor) ipv4() (netip.Addr, []byte, bool) {
	b, i := c.b, c.i
	if i == len(b) || b[i] != '"' {
		return netip.Addr{}, nil, false
	}
	i++
	start := i
	var ip uint32
	for k := 0; k < 4; k++ {
		if i == len(b) || b[i]-'0' > 9 {
			return netip.Addr{}, nil, false
		}
		v := uint32(b[i] - '0')
		i++
		for n := 1; v != 0 && n < 3 && i < len(b) && b[i]-'0' <= 9; n++ {
			v = v*10 + uint32(b[i]-'0')
			i++
		}
		sep := byte('.')
		if k == 3 {
			sep = '"'
		}
		if v > 255 || i == len(b) || b[i] != sep {
			return netip.Addr{}, nil, false
		}
		ip = ip<<8 | v
		i++
	}
	c.i = i
	return netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}), b[start : i-1], true
}

// end consumes the two closing braces and requires the line to stop there.
func (c *cursor) end() bool {
	return len(c.b)-c.i == 2 && c.b[c.i] == '}' && c.b[c.i+1] == '}'
}

// domainLine walks the DomainRecord object after its `{"domain":` and
// the end of the line, storing into d unless it is nil. The members
// after the name are told apart by their first letter, two bytes past
// the comma that opens each. A tail the walk's table holds is not
// walked: its entry refills d, lending it the entry's arrays.
func (c *cursor) domainLine(d *DomainRecord) (key []byte, ok bool) {
	name, ok := c.str()
	if !ok {
		return nil, false
	}
	var rank uint64
	if c.at(2) == 'r' {
		if string(c.take(8)) != `,"rank":` {
			return nil, false
		}
		if rank, ok = c.positive(math.MaxInt); !ok {
			return nil, false
		}
	}
	tail := c.b[c.i:]
	if e, hit := c.tails[string(tail)]; hit && (e.stored || d == nil) {
		c.tail.id = e.id
		if d != nil {
			e.lend(d)
			d.Domain, d.Rank = string(name), int(rank)
			c.tail.lent = true
		}
		return name, true
	}
	if string(c.take(6)) != `,"mx":` {
		return nil, false
	}
	switch c.at(0) {
	case 'n':
		if string(c.take(4)) != "null" {
			return nil, false
		}
		if d != nil {
			d.MX = nil
		}
	case '[':
		c.i++
		n := 0
		for more := !c.char(']'); more; n++ {
			var mx *MXObs
			if d != nil {
				// Growing within the capacity finds the slot's previous
				// Addrs array again.
				if n < cap(d.MX) {
					d.MX = d.MX[:n+1]
				} else {
					d.MX = append(d.MX[:n], MXObs{})
				}
				mx = &d.MX[n]
			}
			if !c.mxObs(mx) {
				return nil, false
			}
			if more = c.char(','); !more && !c.char(']') {
				return nil, false
			}
		}
		if d != nil {
			if d.MX == nil {
				d.MX = []MXObs{} // "mx":[] is empty, not nil, as encoding/json has it
			}
			d.MX = d.MX[:n]
		}
	default:
		return nil, false
	}
	var spf, delegation []byte
	if c.at(2) == 's' {
		if string(c.take(7)) != `,"spf":` {
			return nil, false
		}
		if spf, ok = c.nonEmptyStr(); !ok {
			return nil, false
		}
	}
	if c.at(2) == 'd' {
		if string(c.take(14)) != `,"delegation":` {
			return nil, false
		}
		if delegation, ok = c.nonEmptyStr(); !ok {
			return nil, false
		}
	}
	if !c.end() {
		return nil, false
	}
	if d != nil {
		d.Domain, d.Rank, d.SPF, d.Delegation = string(name), int(rank), string(spf), string(delegation)
	}
	c.tail.id = c.tails.add(tail, d)
	return name, true
}

// mxObs walks one MX object, refilling mx (and its Addrs array) unless it
// is nil.
func (c *cursor) mxObs(mx *MXObs) bool {
	if string(c.take(8)) != `{"pref":` {
		return false
	}
	pref, ok := c.uint(math.MaxUint16)
	if !ok || string(c.take(12)) != `,"exchange":` {
		return false
	}
	exchange, ok := c.str()
	if !ok {
		return false
	}
	var addrs []netip.Addr
	if c.at(2) == 'a' {
		if string(c.take(10)) != `,"addrs":[` {
			return false
		}
		if mx != nil {
			addrs = mx.Addrs[:0]
		}
		for more := true; more; {
			a, _, ok := c.ipv4()
			if !ok {
				return false
			}
			if mx != nil {
				addrs = append(addrs, a)
			}
			if more = c.char(','); !more && !c.char(']') {
				return false
			}
		}
	}
	dangling := c.at(2) == 'd'
	if dangling && string(c.take(16)) != `,"dangling":true` || !c.char('}') {
		return false
	}
	if mx != nil {
		// Sorted domains of one provider repeat the exchange line after
		// line; the string of the slot's last use is kept when equal.
		if mx.Exchange != string(exchange) {
			mx.Exchange = string(exchange)
		}
		*mx = MXObs{Preference: uint16(pref), Exchange: mx.Exchange, Addrs: addrs, Dangling: dangling}
	}
	return true
}

// ipLine walks the IPInfo object after its `{"addr":` and the end of
// the line, storing into info unless it is nil. Nothing of info's
// previous value is reused: LoadIPs and inference's pass A keep the
// Scan pointer. "asn" and "as_name" part at their fourth byte past the
// comma, the other members at their first letter, as in domainLine.
func (c *cursor) ipLine(info *IPInfo) (key []byte, ok bool) {
	addr, text, ok := c.ipv4()
	if !ok {
		return nil, false
	}
	var origin uint64
	if c.at(4) == 'n' {
		if string(c.take(7)) != `,"asn":` {
			return nil, false
		}
		if origin, ok = c.positive(math.MaxUint32); !ok {
			return nil, false
		}
	}
	var asName []byte
	if c.at(2) == 'a' {
		if string(c.take(11)) != `,"as_name":` {
			return nil, false
		}
		if asName, ok = c.nonEmptyStr(); !ok {
			return nil, false
		}
	}
	if string(c.take(14)) != `,"has_censys":` {
		return nil, false
	}
	hasCensys, ok := c.bool()
	if !ok || string(c.take(15)) != `,"port25_open":` {
		return nil, false
	}
	open, ok := c.bool()
	if !ok {
		return nil, false
	}
	parked := c.at(2) == 'p'
	if parked && string(c.take(14)) != `,"parked":true` {
		return nil, false
	}
	var scan *ScanInfo
	if c.at(2) == 's' {
		if string(c.take(9)) != `,"scan":{` {
			return nil, false
		}
		if info != nil {
			scan = new(ScanInfo)
		}
		if !c.scanInfo(scan) {
			return nil, false
		}
	}
	if !c.end() {
		return nil, false
	}
	if info != nil {
		*info = IPInfo{Addr: addr, ASN: asn.ASN(origin), ASName: string(asName),
			HasCensys: hasCensys, Port25Open: open, Parked: parked, Scan: scan}
	}
	return text, true
}

// scanInfo walks the members of a ScanInfo object after its opening
// brace, through its closing one. Every member is omitempty, so each may
// be the first.
func (c *cursor) scanInfo(s *ScanInfo) bool {
	first := true
	member := func(name string) bool {
		at := c.i
		if (first || c.char(',')) && string(c.take(len(name))) == name {
			first = false
			return true
		}
		c.i = at
		return false
	}
	var banner, bannerHost, ehloHost, fingerprint []byte
	var names []string
	ok := true
	if member(`"banner":`) {
		banner, ok = c.nonEmptyStr()
	}
	if ok && member(`"banner_host":`) {
		bannerHost, ok = c.nonEmptyStr()
	}
	if ok && member(`"ehlo_host":`) {
		ehloHost, ok = c.nonEmptyStr()
	}
	if !ok {
		return false
	}
	startTLS := member(`"starttls":true`)
	certPresent := member(`"cert_present":true`)
	certValid := member(`"cert_valid":true`)
	if member(`"cert_fp":`) {
		if fingerprint, ok = c.nonEmptyStr(); !ok {
			return false
		}
	}
	if member(`"cert_names":[`) {
		for more := true; more; {
			name, ok := c.str()
			if !ok {
				return false
			}
			if s != nil {
				names = append(names, string(name))
			}
			if more = c.char(','); !more && !c.char(']') {
				return false
			}
		}
	}
	tlsFailed := member(`"tls_failed":true`)
	if !c.char('}') {
		return false
	}
	if s != nil {
		*s = ScanInfo{Banner: string(banner), BannerHost: string(bannerHost), EHLOHost: string(ehloHost),
			STARTTLS: startTLS, CertPresent: certPresent, CertValid: certValid,
			CertFingerprint: string(fingerprint), CertNames: names, TLSFailed: tlsFailed}
	}
	return true
}

// appendHeaderLine appends a snapshot's header line, newline included,
// as json.Encoder.Encode(jsonLine{Kind: "snapshot", Header: …}) writes it.
func appendHeaderLine(dst []byte, date, corpus string) []byte {
	dst = append(dst, `{"kind":"snapshot","header":{"date":`...)
	dst = AppendJSONString(dst, date)
	dst = append(dst, `,"corpus":`...)
	dst = AppendJSONString(dst, corpus)
	return append(dst, "}}\n"...)
}

// appendDomainLine appends the JSONL line of one domain record, newline
// included, as json.Encoder.Encode(jsonLine{Kind: "domain", Domain: d})
// writes it.
func appendDomainLine(dst []byte, d *DomainRecord) []byte {
	dst = append(dst, `{"kind":"domain","domain":`...)
	dst = appendDomainRecord(dst, d)
	return append(dst, "}\n"...)
}

// appendIPLine is appendDomainLine for an IP record.
func appendIPLine(dst []byte, info *IPInfo) []byte {
	dst = append(dst, `{"kind":"ip","ip":`...)
	dst = appendIPRecord(dst, info)
	return append(dst, "}\n"...)
}

// appendDomainRecord appends json.Marshal(d).
func appendDomainRecord(dst []byte, d *DomainRecord) []byte {
	dst = append(dst, `{"domain":`...)
	dst = AppendJSONString(dst, d.Domain)
	if d.Rank != 0 {
		dst = append(dst, `,"rank":`...)
		dst = strconv.AppendInt(dst, int64(d.Rank), 10)
	}
	dst = append(dst, `,"mx":`...)
	if d.MX == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range d.MX {
			mx := &d.MX[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"pref":`...)
			dst = strconv.AppendUint(dst, uint64(mx.Preference), 10)
			dst = append(dst, `,"exchange":`...)
			dst = AppendJSONString(dst, mx.Exchange)
			for j, a := range mx.Addrs {
				if j == 0 {
					dst = append(dst, `,"addrs":[`...)
				} else {
					dst = append(dst, ',')
				}
				dst = appendAddr(dst, a)
			}
			if len(mx.Addrs) > 0 {
				dst = append(dst, ']')
			}
			if mx.Dangling {
				dst = append(dst, `,"dangling":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendStringMember(dst, `,"spf":`, d.SPF)
	dst = appendStringMember(dst, `,"delegation":`, d.Delegation)
	return append(dst, '}')
}

// appendIPRecord appends json.Marshal(info).
func appendIPRecord(dst []byte, info *IPInfo) []byte {
	dst = append(dst, `{"addr":`...)
	dst = appendAddr(dst, info.Addr)
	if info.ASN != 0 {
		dst = append(dst, `,"asn":`...)
		dst = strconv.AppendUint(dst, uint64(info.ASN), 10)
	}
	dst = appendStringMember(dst, `,"as_name":`, info.ASName)
	dst = append(dst, `,"has_censys":`...)
	dst = strconv.AppendBool(dst, info.HasCensys)
	dst = append(dst, `,"port25_open":`...)
	dst = strconv.AppendBool(dst, info.Port25Open)
	if info.Parked {
		dst = append(dst, `,"parked":true`...)
	}
	if s := info.Scan; s != nil {
		// Every member writes a leading comma; the first one's becomes
		// the opening brace.
		dst = append(dst, `,"scan":`...)
		open := len(dst)
		dst = appendStringMember(dst, `,"banner":`, s.Banner)
		dst = appendStringMember(dst, `,"banner_host":`, s.BannerHost)
		dst = appendStringMember(dst, `,"ehlo_host":`, s.EHLOHost)
		if s.STARTTLS {
			dst = append(dst, `,"starttls":true`...)
		}
		if s.CertPresent {
			dst = append(dst, `,"cert_present":true`...)
		}
		if s.CertValid {
			dst = append(dst, `,"cert_valid":true`...)
		}
		dst = appendStringMember(dst, `,"cert_fp":`, s.CertFingerprint)
		for i, name := range s.CertNames {
			if i == 0 {
				dst = append(dst, `,"cert_names":[`...)
			} else {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, name)
		}
		if len(s.CertNames) > 0 {
			dst = append(dst, ']')
		}
		if s.TLSFailed {
			dst = append(dst, `,"tls_failed":true`...)
		}
		if len(dst) == open {
			dst = append(dst, '{')
		} else {
			dst[open] = '{'
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendStringMember appends an omitempty string member; name carries
// the leading comma and the colon.
func appendStringMember(dst []byte, name, s string) []byte {
	if s == "" {
		return dst
	}
	return AppendJSONString(append(dst, name...), s)
}

// AppendJSONString appends s as json.Marshal writes it. A string with
// any byte that needs escaping is json.Marshal's to write. The serve
// package's /v1/domain encoder writes its strings with it too.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendAddr appends a as encoding/json does, the quoted MarshalText
// form: "" for the zero Addr, which String would spell "invalid IP".
func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Is4() {
		dst = append(dst, '"')
		dst = a.AppendTo(dst)
		return append(dst, '"')
	}
	text, _ := a.MarshalText() // never fails
	return AppendJSONString(dst, string(text))
}
