package dns

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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
// draw and in-flight accounting.
func TestTransportConcurrentStress(t *testing.T) {
	addr := startTestServer(t, bigTestCatalog(t))
	tr := &Transport{Server: addr}
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

// forgeConn holds every read until a query has been written, answers it
// first with a datagram forged from that query and only then reads the
// socket: the forgery always arrives ahead of the genuine reply. It
// serves callers that ask one question at a time.
type forgeConn struct {
	net.Conn
	forge   func(query []byte) []byte
	queries chan []byte   // written, forgery not yet injected
	done    chan struct{} // closed by Close
	once    sync.Once
	forged  bool // read loop only: the next read is the socket's
	injects *atomic.Int64
}

func (c *forgeConn) Write(p []byte) (int, error) {
	c.queries <- append([]byte(nil), p...)
	return c.Conn.Write(p)
}

func (c *forgeConn) Read(p []byte) (int, error) {
	if c.forged {
		c.forged = false
		return c.Conn.Read(p)
	}
	select {
	case q := <-c.queries:
		c.forged = true
		c.injects.Add(1)
		return copy(p, c.forge(q)), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

func (c *forgeConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}

type dialFunc = func(ctx context.Context, network, address string) (net.Conn, error)

// forgeDial wraps the UDP sockets dial opens in a forgeConn and counts
// the forgeries injected.
func forgeDial(dial dialFunc, forge func(query []byte) []byte, injects *atomic.Int64) dialFunc {
	return func(ctx context.Context, network, address string) (net.Conn, error) {
		conn, err := dial(ctx, network, address)
		if err != nil || network != "udp" {
			return conn, err
		}
		return &forgeConn{Conn: conn, forge: forge, injects: injects,
			// Buffered for one caller's retries, so Write never blocks.
			queries: make(chan []byte, 8), done: make(chan struct{})}, nil
	}
}

// strayDial injects a well-formed response with a mismatched ID ahead of
// every genuine reply, simulating stray traffic on a shared socket.
func strayDial(dial dialFunc) dialFunc {
	return forgeDial(dial, func(query []byte) []byte {
		stray := &Message{
			Header:    Header{ID: binary.BigEndian.Uint16(query) ^ 0xFFFF, Response: true},
			Questions: []Question{{Name: "stray.invalid.", Type: TypeA, Class: ClassIN}},
		}
		b, _ := stray.Pack()
		return b
	}, new(atomic.Int64))
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

// TestTransportIgnoresForgedReplies injects, ahead of the genuine reply
// and under the genuine ID, what an off-path attacker who guessed the ID
// could send. Each forgery carries a poisoned MX answer; the read loop
// must drop it and deliver the real answer on the same attempt.
func TestTransportIgnoresForgedReplies(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	// poisoned answers the query the way the attacker wants it answered.
	poisoned := func(t *testing.T, query []byte, mutate func(*Message)) []byte {
		q, err := Unpack(query)
		if err != nil {
			t.Errorf("transport wrote an unparseable query: %v", err)
			return nil
		}
		resp := q.Reply()
		resp.Header.Authoritative = true
		resp.Answers = []RR{{Name: q.Questions[0].Name, Type: TypeMX, Class: ClassIN, TTL: 300,
			Data: MXData{Preference: 1, Exchange: "mx.evil.example."}}}
		if mutate != nil {
			mutate(resp)
		}
		b, err := resp.Pack()
		if err != nil {
			t.Errorf("pack forgery: %v", err)
		}
		return b
	}
	cases := []struct {
		name  string
		forge func(t *testing.T, query []byte) []byte
	}{
		{"wrong question", func(t *testing.T, query []byte) []byte {
			return poisoned(t, query, func(m *Message) { m.Questions[0].Name = "other.example." })
		}},
		{"wrong question type", func(t *testing.T, query []byte) []byte {
			return poisoned(t, query, func(m *Message) { m.Questions[0].Type = TypeTXT })
		}},
		{"two questions", func(t *testing.T, query []byte) []byte {
			return poisoned(t, query, func(m *Message) { m.Questions = append(m.Questions, m.Questions[0]) })
		}},
		{"query bit", func(t *testing.T, query []byte) []byte {
			return poisoned(t, query, func(m *Message) { m.Header.Response = false })
		}},
		{"trailing byte", func(t *testing.T, query []byte) []byte {
			return append(poisoned(t, query, nil), 0)
		}},
		{"truncated rdata", func(t *testing.T, query []byte) []byte {
			b := poisoned(t, query, nil)
			return b[:len(b)-3]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var injects atomic.Int64
			cl := testClient(t, &Client{
				Server:      addr,
				Timeout:     5 * time.Second,
				Retries:     0, // the attempt the forgery lands on must be the one that succeeds
				DialContext: forgeDial(netDial, func(q []byte) []byte { return tc.forge(t, q) }, &injects),
			})
			mx, err := ClientResolver{Client: cl}.LookupMX(context.Background(), "example.com")
			if err != nil {
				t.Fatalf("exchange failed behind a forged reply: %v", err)
			}
			if len(mx) != 2 || mx[0].Exchange != "mx1.example.com" || mx[1].Exchange != "mx2.example.com" {
				t.Errorf("MX = %+v, want the zone's two exchanges", mx)
			}
			if got := injects.Load(); got != 1 {
				t.Errorf("forgeries injected = %d, want 1", got)
			}
			if got := cl.RetryCount(); got != 0 {
				t.Errorf("retries = %d, want 0", got)
			}
		})
	}
}

// holdConn is a socket whose peer never answers: it reports the ID of
// every query written and blocks reads until closed.
type holdConn struct {
	net.Conn // nil: the transport only reads, writes and closes
	ids      chan<- uint16
	done     chan struct{}
	once     sync.Once
}

func (c *holdConn) Write(p []byte) (int, error) {
	c.ids <- binary.BigEndian.Uint16(p)
	return len(p), nil
}

func (c *holdConn) Read([]byte) (int, error) {
	<-c.done
	return 0, net.ErrClosed
}

func (c *holdConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// TestTransportIDsDistinctInFlight holds N queries open on one socket:
// they must wear N distinct IDs, giving up must free every one, and the
// socket must refuse a call beyond the in-flight bound rather than hunt
// for a free ID forever.
func TestTransportIDsDistinctInFlight(t *testing.T) {
	const n = 512
	ids := make(chan uint16, n)
	tr := &Transport{Server: "held.invalid:53", Conns: 1,
		// A fresh socket per dial: the losers of the first-use race are closed.
		DialContext: func(context.Context, string, string) (net.Conn, error) {
			return &holdConn{ids: ids, done: make(chan struct{})}, nil
		}}
	defer tr.Close()
	query := NewQuery(0, "example.com", TypeMX)
	wire, err := query.Pack()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := tr.RoundTrip(ctx, wire, query.Questions[0], time.Minute)
			errs <- err
		}()
	}
	seen := make(map[uint16]bool, n)
	for i := 0; i < n; i++ {
		id := <-ids
		if seen[id] {
			t.Fatalf("ID %#04x worn by two queries in flight", id)
		}
		seen[id] = true
	}
	tr.mu.Lock()
	c := tr.conns[0]
	tr.mu.Unlock()
	pending := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending)
	}
	if got := pending(); got != n {
		t.Fatalf("pending = %d with %d queries held open", got, n)
	}
	cancel()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("held query: err = %v, want context.Canceled", err)
		}
	}
	if got := pending(); got != 0 {
		t.Fatalf("pending = %d after every caller gave up, want 0", got)
	}

	// The bound, at the socket: maxInFlight calls register under
	// distinct IDs, one more is refused, and a release readmits one.
	newCall := func() *call { return &call{ch: make(chan *Message, 1)} }
	taken := make(map[uint16]bool, maxInFlight)
	var last uint16
	for i := 0; i < maxInFlight; i++ {
		id, err := c.take(newCall())
		if err != nil {
			t.Fatalf("take %d: %v", i, err)
		}
		if taken[id] {
			t.Fatalf("take %d: ID %#04x drawn twice", i, id)
		}
		taken[id], last = true, id
	}
	if _, err := c.take(newCall()); !errors.Is(err, ErrTooManyInFlight) {
		t.Fatalf("take beyond the bound: err = %v, want ErrTooManyInFlight", err)
	}
	c.release(last)
	if _, err := c.take(newCall()); err != nil {
		t.Fatalf("take after a release: %v", err)
	}
	// ...and at the transport, whose semaphore a full socket starves.
	for i := 0; i < maxInFlight; i++ {
		tr.inflight <- struct{}{}
	}
	_, err = tr.RoundTrip(context.Background(), wire, query.Questions[0], 10*time.Millisecond)
	if !errors.Is(err, ErrTooManyInFlight) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RoundTrip at the bound: err = %v, want ErrTooManyInFlight and DeadlineExceeded", err)
	}
}

// muteEveryOtherConn swallows the 1st, 3rd, 5th... query written, so
// those attempts time out, and passes the others to the server.
type muteEveryOtherConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *muteEveryOtherConn) Write(p []byte) (int, error) {
	if c.writes.Add(1)%2 == 1 {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestRoundTripTimeoutIsDeadlineExceeded pins the two promises of the
// reused attempt timer: an attempt that outlives its timeout fails with
// context.DeadlineExceeded although the caller's context is alive, and
// the fire that ended it never times out the attempt that reuses the
// timer. The only waiting is the muted attempts' own timeout.
func TestRoundTripTimeoutIsDeadlineExceeded(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	tr := &Transport{Server: addr, Conns: 1,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			conn, err := netDial(ctx, network, address)
			if err != nil || network != "udp" {
				return conn, err
			}
			return &muteEveryOtherConn{Conn: conn}, nil
		}}
	defer tr.Close()
	ctx := context.Background()
	muted := &Client{Timeout: 5 * time.Millisecond, Retries: 0, Transport: tr}
	query := NewQuery(0, "example.com", TypeMX)
	wire, err := query.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, err := muted.Exchange(ctx, "example.com", TypeMX)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: muted exchange: err = %v, want context.DeadlineExceeded", i, err)
		}
		// Right behind it, on the same transport: a long timeout must
		// not inherit the fire of the timer that just expired.
		resp, err := tr.RoundTrip(ctx, wire, query.Questions[0], time.Minute)
		if err != nil {
			t.Fatalf("round %d: round trip after a timed-out one: %v", i, err)
		}
		if len(resp.Answers) != 2 {
			t.Fatalf("round %d: answers = %+v", i, resp.Answers)
		}
	}

	// The case the rounds above cannot stage: the response wins while
	// the timer fires unreceived. That timer must not come back from the
	// pool with its fire still in the channel. (go.mod selects the
	// pre-1.23 timers, whose channel is buffered, so len sees the fire.)
	tm := startTimer(time.Nanosecond)
	for deadline := time.Now().Add(5 * time.Second); len(tm.C) == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("a 1ns timer never fired into its channel")
		}
	}
	stopTimer(tm, false)
	next := startTimer(time.Minute)
	select {
	case <-next.C:
		t.Fatal("a pooled timer carried an earlier attempt's fire into the next")
	default:
	}
	stopTimer(next, false)
}

func TestTransportClose(t *testing.T) {
	addr := startTestServer(t, testCatalog(t))
	tr := &Transport{Server: addr}
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
