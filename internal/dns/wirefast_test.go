package dns

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestAppendPackMatchesPack(t *testing.T) {
	msgs := []*Message{
		sampleMessage(),
		NewQuery(0x1234, "example.com", TypeMX),
		{Header: Header{Response: true, RCode: RCodeNXDomain}},
	}
	for _, m := range msgs {
		want, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendPack(nil) != Pack for %v", m.Questions)
		}
		// Packing after a prefix must produce the same message bytes:
		// compression pointers are message-relative, not buffer-relative.
		prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
		got, err = m.AppendPack(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:4], prefix) {
			t.Error("AppendPack overwrote the prefix")
		}
		if !bytes.Equal(got[4:], want) {
			t.Error("AppendPack after prefix produced different message bytes")
		}
		// And the suffix must decode back to the same message.
		rt, err := Unpack(got[4:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rt, m) {
			t.Errorf("prefix-packed message did not round-trip:\ngot  %+v\nwant %+v", rt, m)
		}
	}
}

func TestScratchUnpackMatchesUnpack(t *testing.T) {
	// Decoding different messages through one reused scratch and Message
	// must be indistinguishable from fresh Unpack calls — including nil
	// (not empty) sections.
	wires := [][]byte{}
	for _, m := range []*Message{
		sampleMessage(),
		NewQuery(7, "a.example.org", TypeA),
		{Header: Header{Response: true, RCode: RCodeRefused}},
		sampleMessage(),
	} {
		b, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, b)
	}
	var scratch UnpackScratch
	var reused Message
	for i, wire := range wires {
		if err := scratch.Unpack(wire, &reused); err != nil {
			t.Fatalf("wire %d: %v", i, err)
		}
		want, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&reused, want) {
			t.Errorf("wire %d: scratch decode differs:\ngot  %+v\nwant %+v", i, &reused, want)
		}
	}
}

func TestPackZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool, distorting alloc counts")
	}
	m := sampleMessage()
	var buf []byte
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = m.AppendPack(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendPack steady state: %.1f allocs/op, want 0", allocs)
	}
}

func TestUnpackZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool, distorting alloc counts")
	}
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	var scratch UnpackScratch
	var m Message
	allocs := testing.AllocsPerRun(100, func() {
		if err := scratch.Unpack(wire, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("scratch Unpack steady state: %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkPack(b *testing.B) {
	m := sampleMessage()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.AppendPack(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	var scratch UnpackScratch
	var m Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scratch.Unpack(wire, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchange measures queries through a live loopback UDP server,
// with 32 goroutines sharing one transport.
func BenchmarkExchange(b *testing.B) {
	cat := NewCatalog()
	z := NewZone("example.com")
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 300, Data: MXData{Preference: 10, Exchange: "mx1.example.com."}})
	z.MustAdd(RR{Name: "mx1.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.10")}})
	cat.AddZone(z)
	srv, err := NewServer(ServerConfig{Catalog: cat})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeUDP(pc)
	defer srv.Close()
	addr := pc.LocalAddr().String()

	tr := &Transport{Server: addr}
	defer tr.Close()
	ctx := context.Background()
	// RunParallel spawns p*GOMAXPROCS goroutines; aim for 32 concurrent
	// resolvers, the scan pipeline's fan-out.
	b.SetParallelism(max(1, (32+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl := &Client{Server: addr, Timeout: 2 * time.Second, Retries: 2, Transport: tr}
		for pb.Next() {
			resp, err := cl.Exchange(ctx, "example.com", TypeMX)
			if err != nil {
				b.Error(err)
				return
			}
			if len(resp.Answers) != 1 {
				b.Errorf("answers = %d", len(resp.Answers))
				return
			}
		}
	})
}

func BenchmarkServeUDP(b *testing.B) {
	// Drive the server's handle path directly (no sockets): the packed
	// query is what a read loop would hand a worker.
	srv, err := NewServer(ServerConfig{Catalog: testBenchCatalog()})
	if err != nil {
		b.Fatal(err)
	}
	query := NewQuery(42, "example.com", TypeMX)
	wire, err := query.Pack()
	if err != nil {
		b.Fatal(err)
	}
	st := new(handleState)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := srv.handle(st, wire, true); resp == nil {
			b.Fatal("nil response")
		}
	}
}

func testBenchCatalog() *Catalog {
	cat := NewCatalog()
	z := NewZone("example.com")
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 300, Data: MXData{Preference: 10, Exchange: "mx1.example.com."}})
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 300, Data: MXData{Preference: 20, Exchange: "mx2.example.com."}})
	z.MustAdd(RR{Name: "mx1.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.10")}})
	z.MustAdd(RR{Name: "mx2.example.com.", Type: TypeA, TTL: 300, Data: AData{Addr: mustAddr("192.0.2.11")}})
	cat.AddZone(z)
	return cat
}
