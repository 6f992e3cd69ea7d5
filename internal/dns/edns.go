package dns

// EDNS0 support (RFC 6891): the OPT pseudo-record lets clients advertise
// a UDP payload size beyond the classic 512-byte limit, which matters for
// MX answer sets of well-provisioned domains. The OPT record reuses the
// generic RR frame: CLASS carries the requestor's UDP payload size and
// TTL the extended RCODE and flags.

// TypeOPT is the EDNS0 pseudo-record type code.
const TypeOPT Type = 41

// OPTData is the (empty-bodied) RDATA of an OPT pseudo-record. The
// interesting values live in the RR header; use SetEDNS0/EDNS0UDPSize
// rather than building these by hand.
type OPTData struct{}

// RType implements RData.
func (OPTData) RType() Type { return TypeOPT }

// String implements RData.
func (OPTData) String() string { return "OPT" }

// MaxEDNSSize caps what a server will honor from clients.
const MaxEDNSSize = 4096

// SetEDNS0 attaches (or replaces) an OPT record advertising udpSize.
func (m *Message) SetEDNS0(udpSize uint16) {
	if udpSize < 512 {
		udpSize = 512
	}
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			m.Additional[i].Class = Class(udpSize)
			return
		}
	}
	m.Additional = append(m.Additional, RR{
		Name:  ".",
		Type:  TypeOPT,
		Class: Class(udpSize),
		Data:  OPTData{},
	})
}

// EDNS0UDPSize reports the advertised payload size of the message's OPT
// record, if present.
func (m *Message) EDNS0UDPSize() (uint16, bool) {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			size := uint16(rr.Class)
			if size < 512 {
				size = 512
			}
			return size, true
		}
	}
	return 0, false
}
