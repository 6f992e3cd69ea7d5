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
// written by hand so that the per-record path of stream, merge and spill
// spends no time in encoding/json's reflection and validity scan.
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
// allocating. Any other line resets l and goes through json.Unmarshal,
// which allocates the members the line carries.
func decodeLine(raw []byte, l *jsonLine) (key []byte, err error) {
	if kind, key, ok := decodeCanonical(raw, l.Domain, l.IP); ok {
		l.Kind = kind
		return key, nil
	}
	*l = jsonLine{}
	if err := json.Unmarshal(raw, l); err != nil {
		return nil, err
	}
	switch {
	case l.Kind == "domain" && l.Domain != nil:
		key = []byte(l.Domain.Domain)
	case l.Kind == "ip" && l.IP != nil && l.IP.Addr.IsValid():
		key = []byte(l.IP.Addr.String())
	}
	return key, nil
}

// decodeCanonical is the hand-written half of decodeLine. ok is false
// when it declines the line, which may by then have overwritten part of
// the record.
func decodeCanonical(raw []byte, d *DomainRecord, info *IPInfo) (kind string, key []byte, ok bool) {
	c := cursor{b: raw}
	switch {
	case c.lit(`{"kind":"domain","domain":`):
		key, ok = c.domainLine(d)
		return "domain", key, ok
	case c.lit(`{"kind":"ip","ip":`):
		key, ok = c.ipLine(info)
		return "ip", key, ok
	}
	return "", nil, false
}

// cursor walks one line left to right. Every method reports whether the
// canonical form went on; after the first false the line is declined and
// the cursor is not used again.
type cursor struct {
	b []byte
	i int
}

// lit consumes s if the line continues with it.
func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// str consumes a quoted string of plain bytes and returns its contents.
func (c *cursor) str() ([]byte, bool) {
	if !c.lit(`"`) {
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
	if c.lit("true") {
		return true, true
	}
	return false, c.lit("false")
}

// ipv4 consumes a quoted dotted quad and returns the address and its text.
func (c *cursor) ipv4() (netip.Addr, []byte, bool) {
	if !c.lit(`"`) {
		return netip.Addr{}, nil, false
	}
	start := c.i
	var a [4]byte
	for k := range a {
		if k > 0 && !c.lit(".") {
			return netip.Addr{}, nil, false
		}
		v, ok := c.uint(255)
		if !ok {
			return netip.Addr{}, nil, false
		}
		a[k] = byte(v)
	}
	text := c.b[start:c.i]
	if !c.lit(`"`) {
		return netip.Addr{}, nil, false
	}
	return netip.AddrFrom4(a), text, true
}

// end consumes the two closing braces and requires the line to stop there.
func (c *cursor) end() bool {
	return c.lit("}}") && c.i == len(c.b)
}

// domainLine walks the DomainRecord object and the end of the line,
// storing into d unless it is nil.
func (c *cursor) domainLine(d *DomainRecord) (key []byte, ok bool) {
	if !c.lit(`{"domain":`) {
		return nil, false
	}
	name, ok := c.str()
	if !ok {
		return nil, false
	}
	var rank uint64
	if c.lit(`,"rank":`) {
		if rank, ok = c.positive(math.MaxInt); !ok {
			return nil, false
		}
	}
	if !c.lit(`,"mx":`) {
		return nil, false
	}
	switch {
	case c.lit("null"):
		if d != nil {
			d.MX = nil
		}
	case c.lit("["):
		n := 0
		for more := !c.lit("]"); more; n++ {
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
			if more = c.lit(","); !more && !c.lit("]") {
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
	if c.lit(`,"spf":`) {
		if spf, ok = c.nonEmptyStr(); !ok {
			return nil, false
		}
	}
	if c.lit(`,"delegation":`) {
		if delegation, ok = c.nonEmptyStr(); !ok {
			return nil, false
		}
	}
	if !c.end() {
		return nil, false
	}
	if d != nil {
		d.Domain, d.Rank, d.SPF, d.Delegation, d.Failure = string(name), int(rank), string(spf), string(delegation), ""
	}
	return name, true
}

// mxObs walks one MX object, refilling mx (and its Addrs array) unless it
// is nil.
func (c *cursor) mxObs(mx *MXObs) bool {
	if !c.lit(`{"pref":`) {
		return false
	}
	pref, ok := c.uint(math.MaxUint16)
	if !ok || !c.lit(`,"exchange":`) {
		return false
	}
	exchange, ok := c.str()
	if !ok {
		return false
	}
	var addrs []netip.Addr
	if c.lit(`,"addrs":[`) {
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
			if more = c.lit(","); !more && !c.lit("]") {
				return false
			}
		}
	}
	dangling := c.lit(`,"dangling":true`)
	if !c.lit("}") {
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

// ipLine walks the IPInfo object and the end of the line, storing into
// info unless it is nil. Nothing of info's previous value is reused:
// LoadIPs keeps the Scan pointer.
func (c *cursor) ipLine(info *IPInfo) (key []byte, ok bool) {
	if !c.lit(`{"addr":`) {
		return nil, false
	}
	addr, text, ok := c.ipv4()
	if !ok {
		return nil, false
	}
	var origin uint64
	if c.lit(`,"asn":`) {
		if origin, ok = c.positive(math.MaxUint32); !ok {
			return nil, false
		}
	}
	var asName []byte
	if c.lit(`,"as_name":`) {
		if asName, ok = c.nonEmptyStr(); !ok {
			return nil, false
		}
	}
	if !c.lit(`,"has_censys":`) {
		return nil, false
	}
	hasCensys, ok := c.bool()
	if !ok || !c.lit(`,"port25_open":`) {
		return nil, false
	}
	open, ok := c.bool()
	if !ok {
		return nil, false
	}
	parked := c.lit(`,"parked":true`)
	var scan *ScanInfo
	if c.lit(`,"scan":{`) {
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
		if (first || c.lit(",")) && c.lit(name) {
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
			if more = c.lit(","); !more && !c.lit("]") {
				return false
			}
		}
	}
	tlsFailed := member(`"tls_failed":true`)
	if !c.lit("}") {
		return false
	}
	if s != nil {
		*s = ScanInfo{Banner: string(banner), BannerHost: string(bannerHost), EHLOHost: string(ehloHost),
			STARTTLS: startTLS, CertPresent: certPresent, CertValid: certValid,
			CertFingerprint: string(fingerprint), CertNames: names, TLSFailed: tlsFailed}
	}
	return true
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
	dst = appendString(dst, d.Domain)
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
			dst = appendString(dst, mx.Exchange)
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
			dst = appendString(dst, name)
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
	return appendString(append(dst, name...), s)
}

// appendString appends s as a JSON string. A string with any byte that
// needs escaping is json.Marshal's to write.
func appendString(dst []byte, s string) []byte {
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
	return appendString(dst, string(text))
}
