package overload

// Lifecycle tests for the connection-server core, once, over a trivial
// line-echo session on the netsim fabric. The DNS, SMTP and HTTP suites
// test their protocols on top of it; what the accept loop, admission,
// drain and close do is pinned here.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

var echoAddr = netip.MustParseAddrPort("10.9.0.1:7")

// echo is the protocol under test: one line in, the same line out. The
// fabric's writes are synchronous, so a client that does not read its
// answer holds the session busy for as long as the test likes.
type echo struct {
	busy    chan struct{}  // signalled after each SetBusy when non-nil
	swapped chan *recConn  // receives the wrapper a "swap" line installed
	serving sync.WaitGroup // sessions that have not returned
}

func (e *echo) serve(c *Conn) {
	e.serving.Add(1)
	defer e.serving.Done()
	br := bufio.NewReader(c.NetConn())
	for {
		if !c.BeginRead() {
			return
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		c.SetBusy()
		if e.busy != nil {
			e.busy <- struct{}{}
		}
		if line == "swap\n" {
			// What STARTTLS does: the session continues on a wrapper.
			w := &recConn{Conn: c.NetConn()}
			c.Swap(w)
			br = bufio.NewReader(w)
			e.swapped <- w
		}
		if _, err := io.WriteString(c.NetConn(), line); err != nil {
			return
		}
	}
}

// recConn records whether the core woke or closed it.
type recConn struct {
	net.Conn
	woken, closed atomic.Bool
}

func (c *recConn) SetReadDeadline(t time.Time) error {
	if !t.IsZero() && !t.After(time.Now()) {
		c.woken.Store(true)
	}
	return c.Conn.SetReadDeadline(t)
}

func (c *recConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// flakyListener fails its first `failures` accepts (all of them when
// negative) with err before delegating.
type flakyListener struct {
	net.Listener
	mu       sync.Mutex
	failures int
	err      error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	fail := l.failures != 0
	if l.failures > 0 {
		l.failures--
	}
	l.mu.Unlock()
	if fail {
		return nil, l.err
	}
	return l.Listener.Accept()
}

// start runs a core with the echo session on a fresh fabric. mod, when
// non-nil, adjusts the config before the server is built.
func start(t *testing.T, mod func(*Config, *netsim.Network)) (*Server, *echo, *netsim.Network, chan error) {
	t.Helper()
	n := netsim.New()
	e := &echo{swapped: make(chan *recConn, 64)}
	cfg := Config{ReadTimeout: 30 * time.Second, Serve: e.serve}
	if mod != nil {
		mod(&cfg, n)
	}
	srv := New(cfg)
	ln, err := n.Listen(echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	await(t, "the accept loop", func() bool { lns, _, _ := srv.Open(); return lns == 1 })
	t.Cleanup(func() { srv.Close() })
	return srv, e, n, errc
}

func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func dial(t *testing.T, n *netsim.Network) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := n.Dial(context.Background(), echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

func roundTrip(t *testing.T, conn net.Conn, rd *bufio.Reader, line string) {
	t.Helper()
	if _, err := io.WriteString(conn, line); err != nil {
		t.Fatal(err)
	}
	expectLine(t, rd, line)
}

func expectLine(t *testing.T, rd *bufio.Reader, want string) {
	t.Helper()
	if got, err := rd.ReadString('\n'); got != want || err != nil {
		t.Fatalf("read %q, %v, want %q", got, err, want)
	}
}

func expectClosed(t *testing.T, rd *bufio.Reader) {
	t.Helper()
	if got, err := rd.ReadString('\n'); err == nil {
		t.Fatalf("read %q from a connection that should be closed", got)
	}
}

func TestServerAcceptErrors(t *testing.T) {
	aborted := &net.OpError{Op: "accept", Net: "tcp", Err: syscall.ECONNABORTED}
	cases := []struct {
		name        string
		failures    int
		err         error
		wantRetries uint64
		wantDead    bool // Serve returns err
	}{
		{"transient errors are retried and counted", 3, aborted, 3, false},
		{"persistent transient errors kill the loop after the cap", -1, aborted, maxConsecutiveErrs, true},
		{"a hard error kills the loop at once", -1, errors.New("boom"), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New()
			e := &echo{}
			srv := New(Config{Serve: e.serve})
			defer srv.Close()
			ln, err := n.Listen(echoAddr)
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() { errc <- srv.Serve(&flakyListener{Listener: ln, failures: tc.failures, err: tc.err}) }()
			if tc.wantDead {
				if err := <-errc; err != tc.err {
					t.Errorf("Serve = %v, want %v", err, tc.err)
				}
			} else {
				conn, rd := dial(t, n)
				roundTrip(t, conn, rd, "after the hiccup\n")
			}
			if got := srv.Stats().AcceptRetries; got != tc.wantRetries {
				t.Errorf("AcceptRetries = %d, want %d", got, tc.wantRetries)
			}
		})
	}
}

func TestServerAdmissionCap(t *testing.T) {
	var rejected atomic.Int32
	srv, _, n, _ := start(t, func(cfg *Config, _ *netsim.Network) {
		cfg.MaxConns = 2
		cfg.Reject = func(nc net.Conn) {
			rejected.Add(1)
			io.WriteString(nc, "full\n")
		}
	})
	c1, rd1 := dial(t, n)
	roundTrip(t, c1, rd1, "one\n")
	c2, rd2 := dial(t, n)
	roundTrip(t, c2, rd2, "two\n")
	for i := 0; i < 3; i++ {
		_, rd := dial(t, n)
		expectLine(t, rd, "full\n")
		expectClosed(t, rd)
	}
	if st := srv.Stats(); st != (Stats{Accepted: 2, Rejected: 3}) || rejected.Load() != 3 {
		t.Fatalf("stats = %+v with %d Reject calls, want Accepted=2 Rejected=3 and 3 calls", st, rejected.Load())
	}
	// Ending a session frees its slot.
	c2.Close()
	await(t, "the slot to free", func() bool { _, _, conns := srv.Open(); return conns == 1 })
	c3, rd3 := dial(t, n)
	roundTrip(t, c3, rd3, "three\n")
	if st := srv.Stats(); st != (Stats{Accepted: 3, Rejected: 3}) {
		t.Errorf("stats = %+v, want Accepted=3 Rejected=3", st)
	}
}

// TestServerShutdownDrains covers the graceful path: an idle connection
// is woken, a busy one finishes and answers first, a connection accepted
// into the drain is refused through the hook, OnDrain runs once and
// before the listeners close, and only the first Shutdown is counted.
func TestServerShutdownDrains(t *testing.T) {
	var drains atomic.Int32
	refusal := make(chan string, 1)
	srv, e, n, errc := start(t, func(cfg *Config, n *netsim.Network) {
		cfg.Refuse = func(nc net.Conn) { io.WriteString(nc, "closing\n") }
		cfg.OnDrain = func() {
			drains.Add(1)
			// The listener is still open here, so this connection is
			// accepted — into a drain, which must refuse it.
			conn, err := n.Dial(context.Background(), echoAddr)
			if err != nil {
				refusal <- "dial: " + err.Error()
				return
			}
			defer conn.Close()
			line, _ := bufio.NewReader(conn).ReadString('\n')
			refusal <- line
		}
	})
	e.busy = make(chan struct{}, 1)

	_, idleRd := dial(t, n)
	busyConn, busyRd := dial(t, n)
	if _, err := io.WriteString(busyConn, "in flight\n"); err != nil {
		t.Fatal(err)
	}
	<-e.busy // read, marked busy, now blocked writing the unread answer
	await(t, "both sessions", func() bool { _, _, conns := srv.Open(); return conns == 2 })

	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(context.Background()) }()
	expectClosed(t, idleRd) // woken without having sent anything
	if got := <-refusal; got != "closing\n" {
		t.Errorf("connection accepted into the drain was told %q, want the Refuse hook's text", got)
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned %v with an answer still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	expectLine(t, busyRd, "in flight\n")
	expectClosed(t, busyRd)
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve = %v after a drain, want nil", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	want := Stats{Accepted: 3, Drains: 1}
	if st := srv.Stats(); st != want || drains.Load() != 1 {
		t.Errorf("stats = %+v with %d OnDrain calls, want %+v and 1 call", st, drains.Load(), want)
	}
	ln, err := n.Listen(netip.MustParseAddrPort("10.9.0.2:7"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Shutdown = %v, want net.ErrClosed", err)
	}
	if _, err := srv.Attach(&fakeSocket{}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Attach after Shutdown = %v, want net.ErrClosed", err)
	}
}

func TestServerShutdownDeadlineClosesHard(t *testing.T) {
	srv, e, n, _ := start(t, nil)
	e.busy = make(chan struct{}, 1)
	conn, rd := dial(t, n)
	if _, err := io.WriteString(conn, "never read\n"); err != nil {
		t.Fatal(err)
	}
	<-e.busy
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the context's deadline error", err)
	}
	// Close has cut the blocked write and waited for the session.
	e.serving.Wait()
	expectClosed(t, rd)
	if st := srv.Stats(); st != (Stats{Accepted: 1, DrainTimeouts: 1}) {
		t.Errorf("stats = %+v, want Accepted=1 DrainTimeouts=1", st)
	}
}

// TestServerSwappedConnIsTheOneStopped: after a mid-session swap,
// Shutdown wakes and Close closes the wrapper, not the connection the
// listener handed over.
func TestServerSwappedConnIsTheOneStopped(t *testing.T) {
	for _, stop := range []string{"Shutdown", "Close"} {
		t.Run(stop, func(t *testing.T) {
			srv, e, n, _ := start(t, nil)
			conn, rd := dial(t, n)
			roundTrip(t, conn, rd, "swap\n")
			w := <-e.swapped
			roundTrip(t, conn, rd, "still here\n")
			await(t, "the session to go idle", func() bool {
				srv.mu.Lock()
				defer srv.mu.Unlock()
				for c := range srv.conns {
					if c.busy {
						return false
					}
				}
				return true
			})
			if stop == "Shutdown" {
				if err := srv.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
				if !w.woken.Load() {
					t.Error("Shutdown did not wake the swapped-in connection")
				}
			} else {
				srv.Close()
				if !w.closed.Load() {
					t.Error("Close did not close the swapped-in connection")
				}
			}
			expectClosed(t, rd)
		})
	}
}

// fakeSocket is an attached socket whose reader blocks until woken or
// closed, logging what the core did to it and when.
type fakeSocket struct {
	mu     sync.Mutex
	events []string
	wake   chan struct{}
}

func (s *fakeSocket) log(ev string) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	if ev != "released" && s.wake != nil {
		select {
		case <-s.wake:
		default:
			close(s.wake)
		}
	}
	s.mu.Unlock()
}

func (s *fakeSocket) SetReadDeadline(time.Time) error { s.log("woken"); return nil }
func (s *fakeSocket) Close() error                    { s.log("closed"); return nil }

func TestServerAttachedSocket(t *testing.T) {
	cases := []struct {
		stop func(*Server) error
		want []string
	}{
		// A drain wakes the readers, waits for them, then closes.
		{func(s *Server) error { return s.Shutdown(context.Background()) }, []string{"woken", "released", "closed"}},
		// A hard close closes at once; the readers exit on the error.
		{(*Server).Close, []string{"closed", "released"}},
	}
	for _, tc := range cases {
		srv := New(Config{Serve: func(*Conn) {}})
		sock := &fakeSocket{wake: make(chan struct{})}
		release, err := srv.Attach(sock)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			<-sock.wake // the read loop's failed read
			if !srv.Stopping() {
				t.Error("socket woken while the server is not stopping")
			}
			sock.log("released")
			release()
		}()
		if err := tc.stop(srv); err != nil {
			t.Fatal(err)
		}
		sock.mu.Lock()
		got := slices.Clone(sock.events)
		sock.mu.Unlock()
		if !slices.Equal(got, tc.want) {
			t.Fatalf("socket saw %v, want %v", got, tc.want)
		}
	}
}

// TestHammerServeSwapShutdown races the three things that touch the
// core's lock from different goroutines — Serve registering its
// listener, sessions swapping their connection, Shutdown — and checks
// that every round ends with nothing left open. Run it under -race.
func TestHammerServeSwapShutdown(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for round := 0; round < rounds; round++ {
		n := netsim.New()
		e := &echo{swapped: make(chan *recConn, 64)}
		srv := New(Config{MaxConns: 4, ReadTimeout: time.Second, Serve: e.serve})
		ln, err := n.Listen(echoAddr)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
				t.Errorf("Serve: %v", err)
			}
			ln.Close() // Serve never took it when Shutdown won the race
		}()
		var (
			cmu     sync.Mutex
			clients []net.Conn
			over    bool // the drain is done: nobody will serve a new client
		)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := n.Dial(context.Background(), echoAddr)
				if err != nil {
					return // listener already gone
				}
				cmu.Lock()
				clients = append(clients, conn)
				late := over
				cmu.Unlock()
				if late {
					conn.Close()
					return
				}
				rd := bufio.NewReader(conn)
				for _, line := range []string{"swap\n", "after\n"} {
					if _, err := io.WriteString(conn, line); err != nil {
						return
					}
					if _, err := rd.ReadString('\n'); err != nil {
						return
					}
				}
			}()
		}
		if round%2 == 0 {
			time.Sleep(time.Duration(round) * time.Microsecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("round %d: Shutdown: %v", round, err)
		}
		cancel()
		// A client the fabric queued behind a listener that closed before
		// accepting it is served by no one; closing it frees its goroutine.
		cmu.Lock()
		over = true
		for _, conn := range clients {
			conn.Close()
		}
		cmu.Unlock()
		wg.Wait()
		if _, _, conns := srv.Open(); conns != 0 {
			t.Fatalf("round %d: %d connections still tracked after the drain", round, conns)
		}
		if st := srv.Stats(); st.Drains != 1 || st.DrainTimeouts != 0 || st.Accepted+st.Rejected > 6 {
			t.Fatalf("round %d: stats = %+v", round, st)
		}
	}
}
