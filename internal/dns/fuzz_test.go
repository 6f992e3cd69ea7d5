package dns

import (
	"reflect"
	"testing"
)

// unpackSeeds is the corpus FuzzUnpack starts from, and what its
// long-lived scratch has decoded before it meets an input.
func unpackSeeds(t testing.TB) [][]byte {
	t.Helper()
	pack := func(m *Message) []byte {
		b, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	referral := NewQuery(0x1111, "www.child.com", TypeA).Reply()
	referral.Authority = []RR{
		{Name: "child.com.", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: NSData{Host: "ns1.child.com."}},
		{Name: "child.com.", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: NSData{Host: "ns2.child.com."}},
	}
	referral.Additional = []RR{
		{Name: "ns1.child.com.", Type: TypeA, Class: ClassIN, TTL: 3600, Data: AData{Addr: mustAddr("10.0.0.1")}},
		{Name: "ns2.child.com.", Type: TypeAAAA, Class: ClassIN, TTL: 3600, Data: AAAAData{Addr: mustAddr("2001:db8::2")}},
	}
	answer := NewQuery(0x2222, "example.com", TypeMX).Reply()
	answer.Header.Authoritative = true
	answer.Answers = []RR{
		{Name: "example.com.", Type: TypeMX, Class: ClassIN, TTL: 300, Data: MXData{Preference: 10, Exchange: "mx1.example.com."}},
		{Name: "example.com.", Type: TypeTXT, Class: ClassIN, TTL: 300, Data: TXTData{Strings: []string{"v=spf1 -all", "x"}}},
	}
	answer.Authority = []RR{{Name: "example.com.", Type: TypeSOA, Class: ClassIN, TTL: 300, Data: SOAData{
		MName: "ns1.example.com.", RName: "h.example.com.", Serial: 7, Refresh: 1, Retry: 2, Expire: 3, Minimum: 300}}}
	truncated := pack(answer)
	truncated = truncated[:len(truncated)-9] // mid-SOA
	opt := NewQuery(0x3333, "example.com", TypeMX)
	opt.SetEDNS0(1232)
	// A question whose name is a compression pointer to itself, and one
	// whose pointer chain runs forwards.
	loop := []byte{0x44, 0x44, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1}
	forward := []byte{0x55, 0x55, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0E, 0xC0, 0x0C, 0, 1, 0, 1}
	// An RR of a type the codec keeps as opaque bytes.
	raw := append(pack(NewQuery(0x6666, "example.com", TypeA).Reply()),
		0xC0, 0x0C, 0x00, 0x63, 0, 1, 0, 0, 0, 60, 0, 3, 'a', 'b', 'c')
	raw[7] = 1 // ANCOUNT
	return [][]byte{pack(referral), pack(answer), truncated, pack(opt), loop, forward, raw}
}

// FuzzUnpack is the differential fuzzer of the one decoder of network
// input. A transport socket and a server worker each decode everything
// they ever receive through one long-lived UnpackScratch, into a reused
// Message on the server side, so the oracle for such a scratch (intern
// tables warm from the whole seed corpus, and then from the input
// itself) is a fresh one: they must agree on failure, or on the message.
// What decodes and packs must then be a fixed point of pack → unpack.
func FuzzUnpack(f *testing.F) {
	seeds := unpackSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var fresh Message
		freshErr := new(UnpackScratch).Unpack(b, &fresh)

		warm := new(UnpackScratch)
		var reused Message
		for _, s := range seeds {
			_ = warm.Unpack(s, &reused) // malformed seeds fail, and leave their mark
		}
		for pass := 1; pass <= 2; pass++ { // the second meets its own interned values
			err := warm.Unpack(b, &reused)
			if (err == nil) != (freshErr == nil) {
				t.Fatalf("pass %d: warm scratch: %v, fresh scratch: %v", pass, err, freshErr)
			}
			if err == nil && !reflect.DeepEqual(&reused, &fresh) {
				t.Fatalf("pass %d: warm scratch decoded\n%v\nfresh scratch decoded\n%v", pass, &reused, &fresh)
			}
		}
		if freshErr != nil {
			return
		}
		wire, err := fresh.Pack()
		if err != nil {
			return // decodable but not ours to emit: a non-LDH name, opaque RDATA, an empty TXT
		}
		again, err := Unpack(wire)
		if err != nil {
			t.Fatalf("packed message does not unpack: %v\n%v", err, &fresh)
		}
		if !reflect.DeepEqual(again, &fresh) {
			t.Fatalf("pack → unpack changed the message:\n%v\nbecame\n%v", &fresh, again)
		}
		wire2, err := again.Pack()
		if err != nil || string(wire2) != string(wire) {
			t.Fatalf("second pack differs (err %v):\n%x\n%x", err, wire, wire2)
		}
	})
}
