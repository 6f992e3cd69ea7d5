package dns

import (
	"bytes"
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

// serverHandleSeeds are FuzzServerHandle's starting datagrams: a plain
// query for every type the test catalog holds (and for an NXDOMAIN, a
// NODATA, a wildcard, a truncated and a refused name), each without
// EDNS0 and at sizes 0, 512, 1232 and 4096, then the queries the cache
// does not serve: another opcode, 0 and 2 questions, the CH class, the
// response bit set, and packets of 0 and 1 bytes.
func serverHandleSeeds(t testing.TB) [][]byte {
	t.Helper()
	pack := func(m *Message) []byte {
		b, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var seeds [][]byte
	for i, q := range []Question{
		{Name: "example.com.", Type: TypeSOA}, {Name: "example.com.", Type: TypeNS},
		{Name: "example.com.", Type: TypeMX}, {Name: "mx1.example.com.", Type: TypeA},
		{Name: "www.example.com.", Type: TypeCNAME}, {Name: "www.example.com.", Type: TypeA},
		{Name: "txtonly.example.com.", Type: TypeTXT}, {Name: "txtonly.example.com.", Type: TypeA},
		{Name: "missing.example.com.", Type: TypeMX}, {Name: "x.wild.example.com.", Type: TypeA},
		{Name: "ext.example.com.", Type: TypeA}, {Name: "big.test.", Type: TypeMX},
		{Name: "foreign.org.", Type: TypeA},
	} {
		for j, size := range []int{-1, 0, 512, 1232, 4096} {
			m := NewQuery(uint16(0x100*i+j), q.Name, q.Type)
			m.Header.RecursionDesired = j%2 == 0
			if size >= 0 {
				m.SetEDNS0(uint16(size))
			}
			seeds = append(seeds, pack(m))
		}
	}
	notImp := NewQuery(0xA001, "example.com", TypeMX)
	notImp.Header.OpCode = 2
	none := NewQuery(0xA002, "example.com", TypeMX)
	none.Questions = nil
	two := NewQuery(0xA003, "example.com", TypeMX)
	two.Questions = append(two.Questions, Question{Name: "mx1.example.com.", Type: TypeA, Class: ClassIN})
	chaos := NewQuery(0xA004, "example.com", TypeTXT)
	chaos.Questions[0].Class = 3 // CH
	response := NewQuery(0xA005, "example.com", TypeMX)
	response.Header.Response = true
	return append(seeds, pack(notImp), pack(none), pack(two), pack(chaos), pack(response), []byte{}, []byte{0x12})
}

// referenceReply is what the server must answer a plain single-question
// IN query, built without the packed cache: the catalog's answer with
// the query's ID and RD bit, the OPT record at the applied cap, and the
// header-and-question form with TC set when a UDP answer is over it.
func referenceReply(cat *Catalog, q *Message, udp bool) []byte {
	resp := cat.Resolve(q.Questions[0])
	resp.Header.ID, resp.Header.RecursionDesired = q.Header.ID, q.Header.RecursionDesired
	limit := 512
	size, hasEDNS := q.EDNS0UDPSize()
	if hasEDNS {
		limit = min(max(int(size), 512), MaxEDNSSize)
		resp.SetEDNS0(uint16(limit))
	}
	full, err := resp.Pack()
	if err != nil {
		fail := &Message{Header: Header{ID: q.Header.ID, Response: true,
			RecursionDesired: q.Header.RecursionDesired, RCode: RCodeServFail}}
		full, _ = fail.Pack()
		return full
	}
	if !udp || len(full) <= limit {
		return full
	}
	trunc := q.Reply()
	trunc.Header.RCode, trunc.Header.Authoritative, trunc.Header.Truncated = resp.Header.RCode, resp.Header.Authoritative, true
	if hasEDNS {
		trunc.SetEDNS0(uint16(limit))
	}
	b, _ := trunc.Pack()
	return b
}

// FuzzServerHandle holds the server's one answer path over arbitrary
// datagrams, on UDP and TCP: handle never panics and drops only what
// carries no ID, every reply unpacks and echoes the query's ID (and RD
// bit, when the query parses), and a plain IN query's reply equals one
// built without the cache, and again on the second ask, which the cache
// serves.
func FuzzServerHandle(f *testing.F) {
	for _, s := range serverHandleSeeds(f) {
		f.Add(s)
	}
	cat := bigTestCatalog(f)
	srv, err := NewServer(ServerConfig{Catalog: cat})
	if err != nil {
		f.Fatal(err)
	}
	st := new(handleState)
	f.Fuzz(func(t *testing.T, query []byte) {
		q, qerr := Unpack(query)
		for _, udp := range []bool{true, false} {
			b := srv.handle(st, query, udp)
			if b == nil {
				if len(query) >= 2 {
					t.Fatalf("udp=%v: dropped a %d-byte query", udp, len(query))
				}
				continue
			}
			reply := append([]byte(nil), b...)
			resp, err := Unpack(reply)
			if err != nil {
				t.Fatalf("udp=%v: reply does not unpack: %v\n%x", udp, err, reply)
			}
			if id := uint16(query[0])<<8 | uint16(query[1]); resp.Header.ID != id {
				t.Fatalf("udp=%v: reply ID %#x, query ID %#x", udp, resp.Header.ID, id)
			}
			if qerr != nil || q.Header.Response {
				continue
			}
			if resp.Header.RecursionDesired != q.Header.RecursionDesired {
				t.Fatalf("udp=%v: reply RD %v, query RD %v", udp, resp.Header.RecursionDesired, q.Header.RecursionDesired)
			}
			if q.Header.OpCode != OpQuery || len(q.Questions) != 1 || q.Questions[0].Class != ClassIN {
				continue
			}
			if want := referenceReply(cat, q, udp); !bytes.Equal(reply, want) {
				t.Fatalf("udp=%v: reply\n%x\nwant\n%x", udp, reply, want)
			}
			if again := srv.handle(st, query, udp); !bytes.Equal(again, reply) {
				t.Fatalf("udp=%v: cached reply\n%x\nfirst reply\n%x", udp, again, reply)
			}
		}
	})
}
