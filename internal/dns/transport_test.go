package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// bigTestCatalog returns the standard test catalog plus a zone whose MX
// set exceeds a 512-byte UDP response, forcing truncation + TCP fallback.
func bigTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := testCatalog(t)
	z := NewZone("big.test")
	z.MustAdd(RR{Name: "big.test.", Type: TypeSOA, TTL: 300, Data: SOAData{
		MName: "ns1.big.test.", RName: "h.big.test.", Serial: 1}})
	for i := 0; i < 40; i++ {
		z.MustAdd(RR{Name: "big.test.", Type: TypeMX, TTL: 300,
			Data: MXData{Preference: uint16(i), Exchange: fmt.Sprintf("mx%02d.big.test.", i)}})
	}
	cat.AddZone(z)
	return cat
}

// TestTransportConcurrentStress hammers one shared transport from many
// goroutines with a mix of NOERROR, NXDOMAIN and truncated (TCP
// fallback) queries. Run under -race this exercises the demux, ID
// free-list and in-flight accounting.
func TestTransportConcurrentStress(t *testing.T) {
	addr := startTestServer(t, bigTestCatalog(t))
	tr := NewTransport(addr)
	defer tr.Close()

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := &Client{Server: addr, Timeout: 5 * time.Second, Retries: 2, Transport: tr}
			r := ClientResolver{Client: cl}
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					mx, err := r.LookupMX(ctx, "example.com")
					if err != nil {
						errs <- fmt.Errorf("MX example.com: %w", err)
						return
					}
					if len(mx) != 2 {
						errs <- fmt.Errorf("MX example.com: got %d records", len(mx))
						return
					}
				case 1:
					_, err := r.LookupA(ctx, "missing.example.com")
					if !errors.Is(err, ErrNXDomain) {
						errs <- fmt.Errorf("missing.example.com: err = %v, want NXDOMAIN", err)
						return
					}
				case 2:
					mx, err := r.LookupMX(ctx, "big.test")
					if err != nil {
						errs <- fmt.Errorf("MX big.test: %w", err)
						return
					}
					if len(mx) != 40 {
						errs <- fmt.Errorf("MX big.test: got %d records, want 40 (truncation fallback)", len(mx))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// strayConn injects one well-formed datagram with a mismatched ID before
// every real read, simulating stray traffic on a shared socket.
type strayConn struct {
	net.Conn
	mu     sync.Mutex
	lastID uint16
	sent   bool
}

func (c *strayConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if len(p) >= 2 {
		c.lastID = uint16(p[0])<<8 | uint16(p[1])
		c.sent = false
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *strayConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if !c.sent {
		c.sent = true
		id := c.lastID ^ 0xFFFF
		c.mu.Unlock()
		stray := &Message{
			Header:    Header{ID: id, Response: true},
			Questions: []Question{{Name: "stray.invalid.", Type: TypeA, Class: ClassIN}},
		}
		b, err := stray.Pack()
		if err != nil {
			return 0, err
		}
		return copy(p, b), nil
	}
	c.mu.Unlock()
	return c.Conn.Read(p)
}

func strayDial(dial func(ctx context.Context, network, address string) (net.Conn, error)) func(ctx context.Context, network, address string) (net.Conn, error) {
	return func(ctx context.Context, network, address string) (net.Conn, error) {
		conn, err := dial(ctx, network, address)
		if err != nil || network != "udp" {
			return conn, err
		}
		return &strayConn{Conn: conn}, nil
	}
}

func netDial(ctx context.Context, network, address string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, network, address)
}

// TestClientToleratesStrayDatagrams verifies a client left to build its
// own transport keeps reading past a mismatched-ID datagram instead of
// burning the attempt (it used to return ErrIDMismatch).
func TestClientToleratesStrayDatagrams(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	cl := testClient(t, &Client{
		Server:      addr,
		Timeout:     2 * time.Second,
		Retries:     0, // a single attempt must survive the stray datagram
		DialContext: strayDial(netDial),
	})
	mx, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "example.com")
	if err != nil {
		t.Fatalf("exchange failed despite valid response after stray: %v", err)
	}
	if len(mx) != 2 {
		t.Errorf("MX = %+v", mx)
	}
}

// TestTransportToleratesStrayDatagrams does the same for the multiplexed
// transport's read loop.
func TestTransportToleratesStrayDatagrams(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	tr := &Transport{Server: addr, DialContext: strayDial(netDial)}
	defer tr.Close()
	cl := &Client{Server: addr, Timeout: 2 * time.Second, Retries: 0, Transport: tr}
	for i := 0; i < 5; i++ {
		mx, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "example.com")
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if len(mx) != 2 {
			t.Errorf("iteration %d: MX = %+v", i, mx)
		}
	}
}

func TestTransportClose(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	tr := NewTransport(addr)
	cl := &Client{Server: addr, Timeout: 2 * time.Second, Transport: tr}
	if _, err := (ClientResolver{Client: cl}).LookupMX(context.Background(), "example.com"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := tr.RoundTrip(context.Background(), []byte{0, 0, 1, 2}, Question{}, time.Second)
	if !errors.Is(err, ErrTransportClosed) {
		t.Errorf("RoundTrip after Close: err = %v, want ErrTransportClosed", err)
	}
}

// TestClientRetryBackoff checks that failed UDP attempts are spaced by
// the jittered exponential backoff rather than retried back-to-back.
func TestClientRetryBackoff(t *testing.T) {
	// A listener that never answers: every attempt times out.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	cl := testClient(t, &Client{
		Server:       pc.LocalAddr().String(),
		Timeout:      50 * time.Millisecond,
		Retries:      2,
		RetryBackoff: 40 * time.Millisecond,
	})
	start := time.Now()
	_, err = cl.Exchange(context.Background(), "example.com", TypeA)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exchange against mute server succeeded")
	}
	// Three timeouts (3×50ms) plus minimum backoffs (40/2 + 80/2 = 60ms).
	const wantMin = 200 * time.Millisecond
	if elapsed < wantMin {
		t.Errorf("3 attempts finished in %v; backoff not applied (want >= %v)", elapsed, wantMin)
	}
}

func TestRetryDelayBounds(t *testing.T) {
	cl := &Client{RetryBackoff: 100 * time.Millisecond}
	for attempt := 1; attempt <= 3; attempt++ {
		base := cl.RetryBackoff << (attempt - 1)
		for i := 0; i < 50; i++ {
			d := cl.retryDelay(attempt)
			if d < base/2 || d > base {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base/2, base)
			}
		}
	}
	// Deep attempts cap at 2s.
	cl2 := &Client{RetryBackoff: time.Second}
	if d := cl2.retryDelay(10); d > 2*time.Second {
		t.Errorf("capped delay = %v, want <= 2s", d)
	}
}

// TestClientBackoffRespectsContext ensures cancellation interrupts the
// backoff sleep promptly.
func TestClientBackoffRespectsContext(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	cl := testClient(t, &Client{
		Server:       pc.LocalAddr().String(),
		Timeout:      50 * time.Millisecond,
		Retries:      5,
		RetryBackoff: 10 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Exchange(ctx, "example.com", TypeA)
	if err == nil {
		t.Fatal("exchange succeeded against mute server")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled exchange took %v; backoff ignored the context", elapsed)
	}
}
