package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Wire-format errors.
var (
	ErrTruncatedMessage = errors.New("dns: truncated message")
	ErrBadPointer       = errors.New("dns: bad compression pointer")
	ErrBadRData         = errors.New("dns: malformed record data")
	ErrMessageTooLarge  = errors.New("dns: message exceeds 64KiB")
)

// maxMessageSize is the largest message the codec will produce; DNS length
// fields are 16-bit so this is a hard protocol limit.
const maxMessageSize = 1 << 16

// packer serializes a message with RFC 1035 §4.1.4 name compression.
// Packers are pooled (see AppendPack): the offsets map is cleared and
// reused across messages so the steady-state encode path performs zero
// heap allocations.
type packer struct {
	buf []byte
	// base is the offset within buf where the current message starts;
	// compression pointers are message-relative, so append-style packing
	// after a prefix (e.g. a TCP length header) stays correct.
	base int
	// offsets maps a canonical name suffix to the message-relative offset
	// where it was first written, enabling compression pointers. Keys are
	// substrings of the names being packed, so inserting them allocates
	// nothing.
	offsets map[string]int
}

func newPacker() *packer {
	return &packer{offsets: make(map[string]int, 16)}
}

func (p *packer) uint8(v uint8)   { p.buf = append(p.buf, v) }
func (p *packer) uint16(v uint16) { p.buf = binary.BigEndian.AppendUint16(p.buf, v) }
func (p *packer) uint32(v uint32) { p.buf = binary.BigEndian.AppendUint32(p.buf, v) }
func (p *packer) bytes(b []byte)  { p.buf = append(p.buf, b...) }
func (p *packer) str(s string)    { p.buf = append(p.buf, s...) }

// msgLen is the number of bytes written for the current message.
func (p *packer) msgLen() int { return len(p.buf) - p.base }

// name writes a domain name, emitting a compression pointer to an earlier
// occurrence of any suffix when possible. compress=false writes the name
// verbatim (used inside RDATA types where compression is prohibited;
// the types in this package all permit compression per RFC 1035, but the
// option is kept for strictness with TXT-embedded names and future types).
func (p *packer) name(name string, compress bool) error {
	if !isCanonicalName(name) {
		if strings.TrimSpace(name) != name {
			// CanonicalName would trim this into a different name. A
			// label that begins with whitespace can come off the wire;
			// like any other non-LDH label it is not ours to emit.
			return ErrBadName
		}
		name = CanonicalName(name)
	}
	if name == "." {
		p.uint8(0)
		return nil
	}
	if err := CheckName(name); err != nil {
		return err
	}
	// Iterate labels by index; every suffix key is a substring of name, so
	// the compression map never copies label data.
	for start := 0; start < len(name); {
		suffix := name[start:]
		if off, ok := p.offsets[suffix]; ok && compress {
			p.uint16(0xC000 | uint16(off))
			return nil
		}
		if off := p.msgLen(); off < 0x3FFF {
			p.offsets[suffix] = off
		}
		end := start + strings.IndexByte(suffix, '.') // canonical names end in "."
		label := name[start:end]
		p.uint8(uint8(len(label)))
		p.str(label)
		start = end + 1
	}
	p.uint8(0)
	return nil
}

// unpacker deserializes a wire-format message.
type unpacker struct {
	msg []byte
	off int
}

func (u *unpacker) remaining() int { return len(u.msg) - u.off }

func (u *unpacker) uint8() (uint8, error) {
	if u.remaining() < 1 {
		return 0, ErrTruncatedMessage
	}
	v := u.msg[u.off]
	u.off++
	return v, nil
}

func (u *unpacker) uint16() (uint16, error) {
	if u.remaining() < 2 {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint16(u.msg[u.off:])
	u.off += 2
	return v, nil
}

func (u *unpacker) uint32() (uint32, error) {
	if u.remaining() < 4 {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint32(u.msg[u.off:])
	u.off += 4
	return v, nil
}

func (u *unpacker) bytes(n int) ([]byte, error) {
	if n < 0 || u.remaining() < n {
		return nil, ErrTruncatedMessage
	}
	b := u.msg[u.off : u.off+n]
	u.off += n
	return b, nil
}

// nameInto reads a possibly-compressed domain name starting at the
// current offset, appending its ASCII-lowercased presentation form
// ("label.label.") to dst. The root name appends nothing — callers map
// an empty result to ".". Pointer chains are bounded to defend against
// loops. Appending into a caller-owned scratch buffer keeps the decode
// hot path allocation-free.
func (u *unpacker) nameInto(dst []byte) ([]byte, error) {
	off := u.off
	jumped := false
	const maxPointers = 32
	ptrs := 0
	n0 := len(dst)
	for {
		if off >= len(u.msg) {
			return dst, ErrTruncatedMessage
		}
		c := u.msg[off]
		switch {
		case c == 0:
			if !jumped {
				u.off = off + 1
			}
			return dst, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(u.msg) {
				return dst, ErrTruncatedMessage
			}
			ptr := int(binary.BigEndian.Uint16(u.msg[off:]) & 0x3FFF)
			if !jumped {
				u.off = off + 2
				jumped = true
			}
			if ptr >= off {
				// Pointers must point backwards; forward pointers enable
				// loops and are rejected.
				return dst, ErrBadPointer
			}
			ptrs++
			if ptrs > maxPointers {
				return dst, ErrBadPointer
			}
			off = ptr
		case c&0xC0 != 0:
			return dst, fmt.Errorf("dns: reserved label type %#x", c&0xC0)
		default:
			n := int(c)
			if off+1+n > len(u.msg) {
				return dst, ErrTruncatedMessage
			}
			for _, ch := range u.msg[off+1 : off+1+n] {
				if 'A' <= ch && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				dst = append(dst, ch)
			}
			dst = append(dst, '.')
			if len(dst)-n0 > MaxNameLen+1 {
				return dst, ErrNameTooLong
			}
			off += 1 + n
		}
	}
}

// packRData appends the wire form of data, returning an error for
// inconsistent data (e.g. an AData holding an IPv6 address).
func packRData(p *packer, data RData) error {
	switch d := data.(type) {
	case AData:
		if !d.Addr.Is4() {
			return fmt.Errorf("%w: A record with non-IPv4 address %s", ErrBadRData, d.Addr)
		}
		a4 := d.Addr.As4()
		p.bytes(a4[:])
	case AAAAData:
		if !d.Addr.Is6() || d.Addr.Is4() {
			return fmt.Errorf("%w: AAAA record with non-IPv6 address %s", ErrBadRData, d.Addr)
		}
		a16 := d.Addr.As16()
		p.bytes(a16[:])
	case NSData:
		return p.name(d.Host, true)
	case CNAMEData:
		return p.name(d.Target, true)
	case PTRData:
		return p.name(d.Target, true)
	case MXData:
		p.uint16(d.Preference)
		return p.name(d.Exchange, true)
	case TXTData:
		if len(d.Strings) == 0 {
			return fmt.Errorf("%w: TXT record with no strings", ErrBadRData)
		}
		for _, s := range d.Strings {
			if len(s) > 255 {
				return fmt.Errorf("%w: TXT string longer than 255 bytes", ErrBadRData)
			}
			p.uint8(uint8(len(s)))
			p.str(s)
		}
	case OPTData:
		// OPT carries no RDATA in this implementation (no EDNS options).
	case SOAData:
		if err := p.name(d.MName, true); err != nil {
			return err
		}
		if err := p.name(d.RName, true); err != nil {
			return err
		}
		p.uint32(d.Serial)
		p.uint32(d.Refresh)
		p.uint32(d.Retry)
		p.uint32(d.Expire)
		p.uint32(d.Minimum)
	default:
		return fmt.Errorf("%w: unsupported rdata type %T", ErrBadRData, data)
	}
	return nil
}

// rawData preserves RDATA of types this package does not interpret.
type rawData struct {
	typ  Type
	data []byte
}

// RType implements RData.
func (r rawData) RType() Type { return r.typ }

// String implements RData using RFC 3597 generic encoding.
func (r rawData) String() string { return fmt.Sprintf("\\# %d %x", len(r.data), r.data) }
