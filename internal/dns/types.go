package dns

import (
	"fmt"
	"net/netip"
	"strings"
)

// Type is a DNS resource record type code.
type Type uint16

// Record type codes used by this package (RFC 1035 §3.2.2, RFC 3596).
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeNone: "NONE", TypeA: "A", TypeNS: "NS", TypeCNAME: "CNAME",
	TypeSOA: "SOA", TypePTR: "PTR", TypeMX: "MX", TypeTXT: "TXT",
	TypeAAAA: "AAAA", TypeANY: "ANY",
}

// String returns the standard mnemonic for the type, or TYPEn for unknown
// codes (RFC 3597 presentation).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class code. Only IN is used in practice.
type Class uint16

// Class codes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String returns the mnemonic for the class.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	default:
		return fmt.Sprintf("CLASS%d", uint16(c))
	}
}

// RCode is a DNS response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1).
const (
	RCodeSuccess  RCode = 0 // NOERROR
	RCodeFormat   RCode = 1 // FORMERR
	RCodeServFail RCode = 2 // SERVFAIL
	RCodeNXDomain RCode = 3 // NXDOMAIN
	RCodeNotImp   RCode = 4 // NOTIMP
	RCodeRefused  RCode = 5 // REFUSED
)

// String returns the standard mnemonic for the response code.
func (r RCode) String() string {
	switch r {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormat:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// OpCode is a DNS operation code. Only QUERY is implemented.
type OpCode uint8

// Operation codes.
const (
	OpQuery OpCode = 0
)

// An RR is a DNS resource record: a common header plus type-specific data.
type RR struct {
	// Name is the owner name in canonical form (lower case, trailing dot).
	Name string
	// Type is the record type; it determines which data field is set.
	Type Type
	// Class is almost always ClassIN.
	Class Class
	// TTL is the time-to-live in seconds.
	TTL uint32
	// Data holds the type-specific record data.
	Data RData
}

// String renders the record in zone-file presentation form.
func (rr RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", rr.Name, rr.TTL, rr.Class, rr.Type, rr.Data)
}

// RData is the interface implemented by all typed record data.
type RData interface {
	// RType returns the record type this data belongs to.
	RType() Type
	// String renders the data in zone-file presentation form.
	String() string
}

// AData is the RDATA of an A record.
type AData struct {
	Addr netip.Addr // must be IPv4
}

// RType implements RData.
func (AData) RType() Type { return TypeA }

// String implements RData.
func (d AData) String() string { return d.Addr.String() }

// AAAAData is the RDATA of an AAAA record.
type AAAAData struct {
	Addr netip.Addr // must be IPv6
}

// RType implements RData.
func (AAAAData) RType() Type { return TypeAAAA }

// String implements RData.
func (d AAAAData) String() string { return d.Addr.String() }

// NSData is the RDATA of an NS record.
type NSData struct {
	Host string
}

// RType implements RData.
func (NSData) RType() Type { return TypeNS }

// String implements RData.
func (d NSData) String() string { return d.Host }

// CNAMEData is the RDATA of a CNAME record.
type CNAMEData struct {
	Target string
}

// RType implements RData.
func (CNAMEData) RType() Type { return TypeCNAME }

// String implements RData.
func (d CNAMEData) String() string { return d.Target }

// PTRData is the RDATA of a PTR record.
type PTRData struct {
	Target string
}

// RType implements RData.
func (PTRData) RType() Type { return TypePTR }

// String implements RData.
func (d PTRData) String() string { return d.Target }

// MXData is the RDATA of an MX record: a 16-bit preference (lower is more
// preferred) and the exchange host name.
type MXData struct {
	Preference uint16
	Exchange   string
}

// RType implements RData.
func (MXData) RType() Type { return TypeMX }

// String implements RData.
func (d MXData) String() string { return fmt.Sprintf("%d %s", d.Preference, d.Exchange) }

// TXTData is the RDATA of a TXT record: one or more character strings of
// up to 255 bytes each.
type TXTData struct {
	Strings []string
}

// RType implements RData.
func (TXTData) RType() Type { return TypeTXT }

// String implements RData.
func (d TXTData) String() string {
	quoted := make([]string, len(d.Strings))
	for i, s := range d.Strings {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(quoted, " ")
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   string // primary name server
	RName   string // responsible mailbox, in domain-name form
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // negative-caching TTL
}

// RType implements RData.
func (SOAData) RType() Type { return TypeSOA }

// String implements RData.
func (d SOAData) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		d.MName, d.RName, d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}
