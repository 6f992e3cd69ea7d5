package dns

import (
	"context"
	"errors"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startTestServer launches a server on loopback and returns its address
// and a cleanup-registered client.
func startTestServer(t *testing.T, catalog *Catalog) string {
	t.Helper()
	srv, err := NewServer(ServerConfig{Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	// The TCP listener must share the UDP socket's port; an ephemeral
	// client connection elsewhere in the suite can already hold that TCP
	// port, so retry with a fresh UDP port on collision.
	var pc net.PacketConn
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		var err error
		pc, err = net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln, err = net.Listen("tcp", pc.LocalAddr().String())
		if err == nil {
			break
		}
		pc.Close()
		if attempt == 10 {
			t.Fatal(err)
		}
	}
	go srv.ServeUDP(pc)
	go srv.ServeTCP(ln)
	t.Cleanup(func() { srv.Close() })
	return pc.LocalAddr().String()
}

// testClient closes cl when the test ends: a client that has exchanged
// owns the sockets of its transport.
func testClient(t testing.TB, cl *Client) *Client {
	t.Cleanup(func() { cl.Close() })
	return cl
}

func testCatalog(t testing.TB) *Catalog {
	t.Helper()
	c := NewCatalog()
	z := testZone(t)
	c.AddZone(z)
	return c
}

func TestServerClientUDP(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	cl := testClient(t, NewClient(addr))
	ctx := context.Background()

	mx, err := ClientResolver{Client: cl}.LookupMX(ctx, "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 2 || mx[0].Preference != 10 || mx[0].Exchange != "mx1.example.com" {
		t.Errorf("MX = %+v", mx)
	}

	addrs, err := ClientResolver{Client: cl}.LookupA(ctx, "mx1.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].String() != "192.0.2.10" {
		t.Errorf("A = %v", addrs)
	}
}

func TestServerClientCNAMEChain(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	cl := testClient(t, NewClient(addr))
	addrs, err := ClientResolver{Client: cl}.LookupA(context.Background(), "www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].String() != "192.0.2.20" {
		t.Errorf("A through CNAME = %v", addrs)
	}
}

func TestServerClientNXDomain(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	cl := testClient(t, NewClient(addr))
	_, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "missing.example.com")
	if !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v, want ErrNXDomain", err)
	}
}

func TestServerClientNoData(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	cl := testClient(t, NewClient(addr))
	_, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "txtonly.example.com")
	if !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestServerTruncationFallsBackToTCP(t *testing.T) {
	c := NewCatalog()
	z := NewZone("big.test")
	// Enough MX records to exceed the 512-byte UDP limit.
	for i := 0; i < 40; i++ {
		z.MustAdd(RR{Name: "big.test.", Type: TypeMX, TTL: 1,
			Data: MXData{Preference: uint16(i), Exchange: longLabel(i) + ".mail.big.test."}})
	}
	c.AddZone(z)
	addr := startTestServer(t, c)
	cl := testClient(t, NewClient(addr))
	mx, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "big.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 40 {
		t.Errorf("MX count = %d, want 40 (TCP fallback)", len(mx))
	}
}

func longLabel(i int) string {
	b := make([]byte, 30)
	for j := range b {
		b[j] = byte('a' + (i+j)%26)
	}
	return string(b)
}

func TestServerRefusesForeignZone(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	cl := testClient(t, NewClient(addr))
	_, err := ClientResolver{Client: cl}.LookupA(context.Background(), "www.elsewhere.net")
	if !errors.Is(err, ErrServFail) {
		t.Errorf("err = %v, want ErrServFail (REFUSED)", err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := testClient(t, NewClient(addr))
			_, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "example.com")
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerHandlesGarbage(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xAB, 0xCD, 0xFF}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no FORMERR response to garbage: %v", err)
	}
	m, err := Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != RCodeFormat || m.Header.ID != 0xABCD {
		t.Errorf("response = %+v, want FORMERR with echoed ID", m.Header)
	}
	// A valid query must still succeed after garbage.
	cl := testClient(t, NewClient(addr))
	if _, err := (ClientResolver{Client: cl}).LookupMX(context.Background(), "example.com"); err != nil {
		t.Errorf("server unhealthy after garbage: %v", err)
	}
}

func TestClientContextCancel(t *testing.T) {
	// Point the client at an address that will never answer.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	cl := testClient(t, NewClient(pc.LocalAddr().String()))
	cl.Timeout = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cl.Exchange(ctx, "example.com", TypeMX); err == nil {
		t.Fatal("Exchange succeeded against mute server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Exchange did not honor context cancellation: took %v", elapsed)
	}
}

func TestCatalogResolverMatchesWirePath(t *testing.T) {
	catalog := testCatalog(t)
	addr := startTestServer(t, catalog)
	ctx := context.Background()
	wire := ClientResolver{Client: testClient(t, NewClient(addr))}
	mem := CatalogResolver{Catalog: catalog}

	for _, name := range []string{"example.com", "txtonly.example.com", "missing.example.com"} {
		mx1, err1 := wire.LookupMX(ctx, name)
		mx2, err2 := mem.LookupMX(ctx, name)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%s: wire err=%v mem err=%v", name, err1, err2)
			continue
		}
		if len(mx1) != len(mx2) {
			t.Errorf("%s: wire %d MX, mem %d MX", name, len(mx1), len(mx2))
		}
		for i := range mx1 {
			if mx1[i] != mx2[i] {
				t.Errorf("%s MX[%d]: %+v != %+v", name, i, mx1[i], mx2[i])
			}
		}
	}
}

func TestServerListenAndServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ServerConfig{Catalog: testCatalog(t)})
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not become ready")
	}
	cl := testClient(t, NewClient(addr.String()))
	if _, err := (ClientResolver{Client: cl}).LookupMX(context.Background(), "example.com"); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("ListenAndServe returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestListenPairRetriesKernelChosenPort is the regression test for the
// EADDRINUSE flake: with ":0" the TCP port matching the UDP port the
// kernel picked can be taken, and ListenAndServe used to fail outright.
func TestListenPairRetriesKernelChosenPort(t *testing.T) {
	inUse := &net.OpError{Op: "listen", Net: "tcp", Err: syscall.EADDRINUSE}
	var tried []string
	busyFor := func(n int) func(network, addr string) (net.Listener, error) {
		tried = tried[:0]
		return func(network, addr string) (net.Listener, error) {
			tried = append(tried, addr)
			if len(tried) <= n {
				return nil, inUse
			}
			ln, err := net.Listen(network, addr)
			if err != nil {
				// A port really taken (a live connection elsewhere in the
				// suite) is not one of the scripted tries.
				tried = tried[:len(tried)-1]
			}
			return ln, err
		}
	}

	pc, ln, err := listenPair("127.0.0.1:0", busyFor(2))
	if err != nil {
		t.Fatalf("listenPair with two taken ports: %v", err)
	}
	_, udpPort, _ := net.SplitHostPort(pc.LocalAddr().String())
	_, tcpPort, _ := net.SplitHostPort(ln.Addr().String())
	if len(tried) != 3 || udpPort != tcpPort {
		t.Errorf("tried %v and bound udp %s / tcp %s, want three tries and one shared port", tried, udpPort, tcpPort)
	}
	pc.Close()
	ln.Close()

	if _, _, err := listenPair("127.0.0.1:0", busyFor(listenAttempts)); !errors.Is(err, syscall.EADDRINUSE) || len(tried) != listenAttempts {
		t.Errorf("listenPair with every port taken = %v after %d tries, want EADDRINUSE after %d", err, len(tried), listenAttempts)
	}

	// An explicit port is the caller's choice: it fails immediately, and
	// the UDP half is released.
	explicit := tried[0]
	if _, _, err := listenPair(explicit, busyFor(1)); !errors.Is(err, syscall.EADDRINUSE) || len(tried) != 1 {
		t.Errorf("listenPair on an explicit taken port = %v after %d tries, want EADDRINUSE after 1", err, len(tried))
	}
	pc, err = net.ListenPacket("udp", explicit)
	if err != nil {
		t.Fatalf("UDP half of the failed pair still bound: %v", err)
	}
	pc.Close()
}

func BenchmarkServerClientUDP(b *testing.B) {
	c := NewCatalog()
	z := NewZone("example.com")
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 1, Data: MXData{Preference: 10, Exchange: "mx.example.com."}})
	c.AddZone(z)
	srv, err := NewServer(ServerConfig{Catalog: c})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeUDP(pc)
	defer srv.Close()
	cl := testClient(b, NewClient(pc.LocalAddr().String()))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Exchange(ctx, "example.com", TypeMX); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCatalogResolve(b *testing.B) {
	c := NewCatalog()
	z := NewZone("example.com")
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 1, Data: MXData{Preference: 10, Exchange: "mx.example.com."}})
	c.AddZone(z)
	q := Question{Name: "example.com.", Type: TypeMX, Class: ClassIN}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Resolve(q)
	}
}
