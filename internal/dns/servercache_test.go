package dns

import (
	"context"
	"net"
	"testing"
	"time"
)

func TestCatalogGeneration(t *testing.T) {
	cat := NewCatalog()
	if g := cat.Generation(); g != 0 {
		t.Fatalf("fresh catalog generation = %d", g)
	}
	cat.AddZone(NewZone("a.test"))
	cat.AddZone(NewZone("b.test"))
	if g := cat.Generation(); g != 2 {
		t.Errorf("generation after two AddZone = %d, want 2", g)
	}
	cat.AddZone(NewZone("a.test")) // replacement also counts
	if g := cat.Generation(); g != 3 {
		t.Errorf("generation after replacement = %d, want 3", g)
	}
}

// TestServerCacheInvalidation replaces a zone on a live server and
// verifies the packed-response cache does not keep serving the old
// answer.
func TestServerCacheInvalidation(t *testing.T) {
	cat := NewCatalog()
	z1 := NewZone("example.com")
	z1.MustAdd(RR{Name: "mx1.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.10")}})
	cat.AddZone(z1)
	addr := startTestServer(t, cat)
	cl := testClient(t, NewClient(addr))
	r := ClientResolver{Client: cl}
	ctx := context.Background()

	// Ask twice so the second answer is served from the packed cache.
	for i := 0; i < 2; i++ {
		addrs, err := r.LookupA(ctx, "mx1.example.com")
		if err != nil {
			t.Fatal(err)
		}
		if len(addrs) != 1 || addrs[0].String() != "192.0.2.10" {
			t.Fatalf("ask %d: A = %v", i, addrs)
		}
	}

	// Replace the zone: the same name now resolves elsewhere.
	z2 := NewZone("example.com")
	z2.MustAdd(RR{Name: "mx1.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("198.51.100.99")}})
	cat.AddZone(z2)

	addrs, err := r.LookupA(ctx, "mx1.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].String() != "198.51.100.99" {
		t.Errorf("after zone replacement: A = %v, want [198.51.100.99] (stale cache?)", addrs)
	}
}

// rawExchange sends a packed query datagram and returns the raw response.
func rawExchange(t *testing.T, addr string, wire []byte) []byte {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf[:n]...)
}

// TestServerCachePatchesIDAndRD verifies that cache hits carry each
// query's own ID and RD bit even though the packed bytes are shared.
func TestServerCachePatchesIDAndRD(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	type variant struct {
		id uint16
		rd bool
	}
	for _, v := range []variant{{0x1111, true}, {0x2222, false}, {0xF00D, true}} {
		q := NewQuery(v.id, "example.com", TypeMX)
		q.Header.RecursionDesired = v.rd
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := Unpack(rawExchange(t, addr, wire))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != v.id {
			t.Errorf("ID = %#x, want %#x", resp.Header.ID, v.id)
		}
		if resp.Header.RecursionDesired != v.rd {
			t.Errorf("RD = %v, want %v (ID %#x)", resp.Header.RecursionDesired, v.rd, v.id)
		}
		if len(resp.Answers) != 2 {
			t.Errorf("answers = %d, want 2", len(resp.Answers))
		}
	}
}

// TestTruncatedReplyKeepsEDNS verifies the satellite fix: a truncated
// UDP reply to an EDNS query must still carry the OPT record, sized to
// the cap the server actually applied.
func TestTruncatedReplyKeepsEDNS(t *testing.T) {
	addr := startTestServer(t, bigTestCatalog(t))
	q := NewQuery(0xBEEF, "big.test", TypeMX)
	q.SetEDNS0(512) // too small for 40 MX records: must truncate
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Unpack(rawExchange(t, addr, wire))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated {
		t.Fatal("response not truncated")
	}
	size, ok := resp.EDNS0UDPSize()
	if !ok {
		t.Fatal("truncated reply dropped the OPT record")
	}
	if size != 512 {
		t.Errorf("advertised size = %d, want the applied cap 512", size)
	}
}

// TestServerAdvertisesAppliedCap verifies the server echoes the cap it
// applied rather than unconditionally MaxEDNSSize.
func TestServerAdvertisesAppliedCap(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	q := NewQuery(0xCAFE, "example.com", TypeMX)
	q.SetEDNS0(2048)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Unpack(rawExchange(t, addr, wire))
	if err != nil {
		t.Fatal(err)
	}
	size, ok := resp.EDNS0UDPSize()
	if !ok {
		t.Fatal("response dropped the OPT record")
	}
	if size != 2048 {
		t.Errorf("advertised size = %d, want applied cap 2048", size)
	}
}

// TestServerCacheDisabled makes sure DisableCache still answers
// correctly through the slow path.
func TestServerCacheDisabled(t *testing.T) {
	srv, err := NewServer(ServerConfig{Catalog: testCatalog(t), DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	t.Cleanup(func() { srv.Close() })
	cl := testClient(t, NewClient(pc.LocalAddr().String()))
	mx, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 2 {
		t.Errorf("MX = %+v", mx)
	}
}
