package dns

import (
	"context"
	"net"
	"testing"
)

func bigZoneCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	z := NewZone("big.test")
	for i := 0; i < 40; i++ {
		z.MustAdd(RR{Name: "big.test.", Type: TypeMX, TTL: 1,
			Data: MXData{Preference: uint16(i), Exchange: longLabel(i) + ".mail.big.test."}})
	}
	c.AddZone(z)
	return c
}

// TestEDNS0AvoidsTruncation serves a large answer from a UDP-only server:
// without EDNS0 the client would be truncated and fail over to (absent)
// TCP; with EDNS0 the whole answer arrives in one datagram.
func TestEDNS0AvoidsTruncation(t *testing.T) {
	srv, err := NewServer(ServerConfig{Catalog: bigZoneCatalog(t)})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	defer srv.Close()
	// Deliberately no TCP listener.

	plain := testClient(t, NewClient(pc.LocalAddr().String()))
	plain.Retries = 0
	if _, err := (ClientResolver{Client: plain}).LookupMX(context.Background(), "big.test"); err == nil {
		t.Fatal("non-EDNS client got a large answer over UDP without TCP fallback")
	}

	edns := testClient(t, NewClient(pc.LocalAddr().String()))
	edns.Retries = 0
	edns.UDPSize = 4096
	mx, err := (ClientResolver{Client: edns}).LookupMX(context.Background(), "big.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 40 {
		t.Errorf("MX count = %d, want 40", len(mx))
	}
}

func TestEDNS0ServerEchoesOPT(t *testing.T) {
	srv, err := NewServer(ServerConfig{Catalog: bigZoneCatalog(t)})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	defer srv.Close()

	cl := testClient(t, NewClient(pc.LocalAddr().String()))
	cl.UDPSize = 2048
	resp, err := cl.Exchange(context.Background(), "big.test", TypeMX)
	if err != nil {
		t.Fatal(err)
	}
	if size, ok := resp.EDNS0UDPSize(); !ok || size == 0 {
		t.Errorf("server response lacks OPT: size=%d ok=%v", size, ok)
	}
}

func TestEDNS0SizeCapped(t *testing.T) {
	// A client advertising an absurd size is capped at MaxEDNSSize: the
	// very large answer still truncates.
	c := NewCatalog()
	z := NewZone("huge.test")
	for i := 0; i < 200; i++ {
		z.MustAdd(RR{Name: "huge.test.", Type: TypeMX, TTL: 1,
			Data: MXData{Preference: uint16(i), Exchange: longLabel(i) + "." + longLabel(i+1) + ".mail.huge.test."}})
	}
	c.AddZone(z)
	srv, err := NewServer(ServerConfig{Catalog: c})
	if err != nil {
		t.Fatal(err)
	}
	// The kernel-chosen UDP port's TCP twin can be taken (loopback
	// TIME_WAIT pile-ups under -count); listenPair retries the pair.
	pc, ln, err := listenPair("127.0.0.1:0", net.Listen)
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	go srv.ServeTCP(ln)
	defer srv.Close()

	cl := testClient(t, NewClient(pc.LocalAddr().String()))
	cl.UDPSize = 65000
	// The answer exceeds 4096 bytes, so it must arrive via TCP fallback —
	// proving the server applied the cap rather than the advertised size.
	mx, err := (ClientResolver{Client: cl}).LookupMX(context.Background(), "huge.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 200 {
		t.Errorf("MX count = %d, want 200", len(mx))
	}
}

func TestOPTRoundTrip(t *testing.T) {
	m := NewQuery(1, "example.com", TypeA)
	m.SetEDNS0(1232)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	size, ok := got.EDNS0UDPSize()
	if !ok || size != 1232 {
		t.Errorf("EDNS0UDPSize = (%d, %v)", size, ok)
	}
	// SetEDNS0 replaces rather than duplicates.
	got.SetEDNS0(4096)
	n := 0
	for _, rr := range got.Additional {
		if rr.Type == TypeOPT {
			n++
		}
	}
	if n != 1 {
		t.Errorf("OPT records = %d, want 1", n)
	}
	if size, _ := got.EDNS0UDPSize(); size != 4096 {
		t.Errorf("replaced size = %d", size)
	}
	// Sub-512 values clamp up.
	got.SetEDNS0(100)
	if size, _ := got.EDNS0UDPSize(); size != 512 {
		t.Errorf("clamped size = %d", size)
	}
}
