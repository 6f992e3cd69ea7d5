package smtp

import (
	"context"
	"crypto/tls"
	"math/rand/v2"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mxmap/internal/certs"
	"mxmap/internal/netsim"
)

// startServer runs an SMTP server on the fabric at addr and registers
// cleanup.
func startServer(t testing.TB, n *netsim.Network, addr string, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func leafTLS(t testing.TB, ca *certs.CA, cn string, sans ...string) *tls.Config {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 9))
	leaf, err := ca.Issue(certs.LeafSpec{CommonName: cn, DNSNames: sans}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &tls.Config{Certificates: []tls.Certificate{leaf.TLSCertificate()}}
}

func testCA(t testing.TB) *certs.CA {
	t.Helper()
	ca, err := certs.NewCA("Test Root", rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestScanPlainServer(t *testing.T) {
	n := netsim.New()
	startServer(t, n, "192.0.2.1:25", Config{Hostname: "mx1.provider.com"})
	res := Scan(context.Background(), "192.0.2.1:25", ScanConfig{Dialer: n})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Connected {
		t.Error("not connected")
	}
	if res.BannerHost != "mx1.provider.com" {
		t.Errorf("BannerHost = %q", res.BannerHost)
	}
	if res.EHLOHost != "mx1.provider.com" {
		t.Errorf("EHLOHost = %q", res.EHLOHost)
	}
	if res.SupportsSTARTTLS {
		t.Error("plain server advertised STARTTLS")
	}
	if len(res.PeerCertificates) != 0 {
		t.Error("plain server yielded certificates")
	}
}

func TestScanSTARTTLSServer(t *testing.T) {
	n := netsim.New()
	ca := testCA(t)
	startServer(t, n, "192.0.2.2:25", Config{
		Hostname: "mx.google.test",
		TLS:      leafTLS(t, ca, "mx.google.test", "mx.google.test", "alt1.google.test"),
	})
	res := Scan(context.Background(), "192.0.2.2:25", ScanConfig{Dialer: n})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.SupportsSTARTTLS || !res.TLSHandshakeOK {
		t.Fatalf("STARTTLS failed: %+v", res)
	}
	if len(res.PeerCertificates) == 0 {
		t.Fatal("no certificates captured")
	}
	leaf := res.PeerCertificates[0]
	if leaf.Subject.CommonName != "mx.google.test" {
		t.Errorf("leaf CN = %q", leaf.Subject.CommonName)
	}
	names := certs.Names(leaf)
	if len(names) != 2 {
		t.Errorf("names = %v", names)
	}
}

func TestScanBannerEHLODisagree(t *testing.T) {
	n := netsim.New()
	startServer(t, n, "192.0.2.3:25", Config{
		Hostname: "real.example.com",
		Banner:   "IP-192-0-2-3 ready", // non-FQDN banner, like the paper's corner case
		EHLOName: "claimed.other.com",
	})
	res := Scan(context.Background(), "192.0.2.3:25", ScanConfig{Dialer: n})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.BannerHost != "IP-192-0-2-3" {
		t.Errorf("BannerHost = %q", res.BannerHost)
	}
	if res.EHLOHost != "claimed.other.com" {
		t.Errorf("EHLOHost = %q", res.EHLOHost)
	}
}

func TestScanConnectionRefused(t *testing.T) {
	n := netsim.New()
	res := Scan(context.Background(), "192.0.2.9:25", ScanConfig{Dialer: n})
	if res.Connected || res.Err == nil {
		t.Errorf("scan of missing host: %+v", res)
	}
}

func TestScanBlackholeTimesOut(t *testing.T) {
	n := netsim.New()
	n.SetFault(netip.MustParseAddr("192.0.2.8"), netsim.FaultBlackhole)
	start := time.Now()
	res := Scan(context.Background(), "192.0.2.8:25", ScanConfig{Dialer: n, Timeout: 50 * time.Millisecond})
	if res.Connected || res.Err == nil {
		t.Errorf("blackhole scan: %+v", res)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("scan did not respect timeout")
	}
}

func TestScanSkipSTARTTLS(t *testing.T) {
	n := netsim.New()
	ca := testCA(t)
	startServer(t, n, "192.0.2.4:25", Config{
		Hostname: "mx.example.com",
		TLS:      leafTLS(t, ca, "mx.example.com"),
	})
	res := Scan(context.Background(), "192.0.2.4:25", ScanConfig{Dialer: n, SkipSTARTTLS: true})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.SupportsSTARTTLS {
		t.Error("STARTTLS not advertised")
	}
	if res.TLSHandshakeOK || len(res.PeerCertificates) != 0 {
		t.Error("certificates collected despite SkipSTARTTLS")
	}
}

// TestServerCommandSequencing pins the server's whole command surface:
// the verbs a scanner sends are answered, and the mail-moving verbs get
// the same 502 as any unknown command, before and after EHLO, without
// costing the client its session.
func TestServerCommandSequencing(t *testing.T) {
	n := netsim.New()
	startServer(t, n, "192.0.2.7:25", Config{Hostname: "mx.example.com"})
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort("192.0.2.7:25"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := newReader(conn)
	expect := func(cmd string, wantCode int) {
		t.Helper()
		var rep Reply
		var err error
		if cmd == "" {
			rep, err = readReply(rd)
		} else {
			rep, err = exchange(conn, rd, cmd)
		}
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if rep.Code != wantCode {
			t.Errorf("%s: code = %d, want %d", cmd, rep.Code, wantCode)
		}
	}
	mailVerbs := []string{"MAIL FROM:<a@b.c>", "RCPT TO:<x@y.z>", "DATA", "AUTH PLAIN xxx"}
	expect("", 220) // banner
	for _, cmd := range mailVerbs {
		expect(cmd, 502) // before EHLO
	}
	expect("EHLO client.example.com", 250)
	for _, cmd := range mailVerbs {
		expect(cmd, 502) // after EHLO
	}
	expect("HELO client.example.com", 250)
	expect("RSET", 250)
	expect("BADCMD", 502)
	expect("VRFY someone", 252)
	expect("STARTTLS", 502) // not offered
	expect("NOOP", 250)     // the session survived all of it
	expect("QUIT", 221)
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("NewServer accepted empty hostname")
	}
}

func TestScanManyConcurrent(t *testing.T) {
	n := netsim.New()
	ca := testCA(t)
	const hosts = 20
	for i := 0; i < hosts; i++ {
		addr := netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})
		startServer(t, n, addr.String()+":25", Config{
			Hostname: "mx.provider.com",
			TLS:      leafTLS(t, ca, "mx.provider.com"),
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, hosts)
	for i := 0; i < hosts; i++ {
		addr := netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := Scan(context.Background(), addr.String()+":25", ScanConfig{Dialer: n})
			if res.Err != nil {
				errs <- res.Err
			} else if !res.TLSHandshakeOK {
				errs <- context.DeadlineExceeded
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScanOverRealSockets exercises the identical client/server pair over
// the OS loopback instead of the fabric, validating that nothing in the
// implementation depends on netsim specifics.
func TestScanOverRealSockets(t *testing.T) {
	ca := testCA(t)
	srv, err := NewServer(Config{
		Hostname: "mx.real.test",
		TLS:      leafTLS(t, ca, "mx.real.test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	res := Scan(context.Background(), ln.Addr().String(), ScanConfig{Dialer: &net.Dialer{}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.BannerHost != "mx.real.test" || !res.TLSHandshakeOK {
		t.Errorf("real-socket scan: %+v", res)
	}
}

func TestReplyParsing(t *testing.T) {
	cases := []struct {
		in      string
		code    int
		lines   int
		wantErr bool
	}{
		{"220 hello\r\n", 220, 1, false},
		{"250-first\r\n250-second\r\n250 last\r\n", 250, 3, false},
		{"25x bad\r\n", 0, 0, true},
		{"+25 signed\r\n", 0, 0, true}, // Atoi would say 25
		{"-12 signed\r\n", 0, 0, true}, // and -12
		{"250-first\r\n550 mixed\r\n", 0, 0, true},
		{"2\r\n", 0, 0, true},
		{"250\r\n", 250, 1, false}, // bare code line
	}
	for _, c := range cases {
		rep, err := readReply(newReader(strings.NewReader(c.in)))
		if (err != nil) != c.wantErr {
			t.Errorf("readReply(%q) err = %v", c.in, err)
			continue
		}
		if err == nil && (rep.Code != c.code || len(rep.Lines) != c.lines) {
			t.Errorf("readReply(%q) = %+v", c.in, rep)
		}
	}
}

func TestReplyStringRoundTrip(t *testing.T) {
	rep := Reply{Code: 250, Lines: []string{"mx.example.com", "PIPELINING", "STARTTLS"}}
	parsed, err := readReply(newReader(strings.NewReader(rep.String())))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Code != rep.Code || len(parsed.Lines) != len(rep.Lines) {
		t.Errorf("round trip: %+v", parsed)
	}
}

func BenchmarkScan(b *testing.B) {
	n := netsim.New()
	srv, err := NewServer(Config{Hostname: "mx.bench.com"})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort("10.9.9.9:25"))
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Scan(ctx, "10.9.9.9:25", ScanConfig{Dialer: n})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// TestServerPipelining sends a whole command batch in one write, as a
// PIPELINING client would, and reads the replies back in order.
func TestServerPipelining(t *testing.T) {
	n := netsim.New()
	startServer(t, n, "192.0.2.30:25", Config{Hostname: "mx.pipeline.test"})
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort("192.0.2.30:25"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	rd := newReader(conn)
	if rep, err := readReply(rd); err != nil || rep.Code != 220 {
		t.Fatalf("banner: %v %v", rep, err)
	}
	batch := "EHLO client.test\r\nNOOP\r\nRSET\r\nNOOP\r\nQUIT\r\n"
	if _, err := conn.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	// The EHLO answer is the one multi-line reply; its first line tells
	// it from the three OKs around it.
	for i, want := range []Reply{
		{250, []string{"mx.pipeline.test", "PIPELINING", "SIZE 10485760", "8BITMIME"}},
		{250, []string{"OK"}},
		{250, []string{"OK"}},
		{250, []string{"OK"}},
		{221, []string{"mx.pipeline.test closing connection"}},
	} {
		rep, err := readReply(rd)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("reply %d = %+v, want %+v", i, rep, want)
		}
	}
}
