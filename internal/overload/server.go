package overload

import (
	"context"
	"net"
	"sync"
	"time"
)

// maxConsecutiveErrs is how many back-to-back accept or read errors a
// serve loop absorbs with backoff before treating the socket as dead.
const maxConsecutiveErrs = 16

// Retry reports whether a serve loop should survive err, its n-th
// consecutive failure (n >= 1), and sleeps the backoff when it should.
// A closed socket, a non-transient error, or more than
// maxConsecutiveErrs in a row end the loop.
func Retry(err error, n int) bool {
	if !TransientNetErr(err) || n > maxConsecutiveErrs {
		return false
	}
	Backoff(n)
	return true
}

// Config is the seam between the core and one protocol: the session it
// runs per connection and the few places the protocols' lifecycles
// really differ. Only Serve is required.
type Config struct {
	// MaxConns caps concurrently served connections; zero or negative
	// means unlimited.
	MaxConns int
	// ReadTimeout is the deadline BeginRead arms for the next request;
	// zero or negative arms none.
	ReadTimeout time.Duration
	// Serve runs one admitted connection's session on its own goroutine.
	// The core closes the accepted connection when it returns.
	Serve func(*Conn)
	// Reject tells a connection accepted beyond MaxConns why it is being
	// turned away (HTTP 429, SMTP 421); nil closes it silently. It runs
	// on the accept loop, so it must bound its own write.
	Reject func(net.Conn)
	// Refuse tells a connection that was accepted as a drain began, and
	// so lost the race to register, that the server is going away; nil
	// closes it silently.
	Refuse func(net.Conn)
	// OnDrain runs once, on the first Shutdown, after idle connections
	// have been woken and before the listeners close.
	OnDrain func()
}

// A Socket is a non-listener socket with its own read loop — a UDP
// socket and its workers — that joins the core's drain through Attach.
type Socket interface {
	SetReadDeadline(time.Time) error
	Close() error
}

// Stats is a snapshot of the counters the core keeps for every protocol.
type Stats struct {
	// Accepted counts connections admitted below MaxConns; Rejected
	// counts those shed at the cap.
	Accepted, Rejected uint64
	// AcceptRetries counts transient Accept errors survived by backoff.
	AcceptRetries uint64
	// Drains counts first Shutdown calls that completed within their
	// deadline; DrainTimeouts counts those that fell back to Close.
	Drains, DrainTimeouts uint64
}

// A Server is the connection-server core: it owns the accept loop,
// connection-cap admission, the set of live connections with their busy
// flags, graceful drain and hard close. A protocol server embeds one and
// supplies the session through Config.
type Server struct {
	cfg Config

	mu       sync.Mutex
	stats    Stats
	lns      []net.Listener
	socks    []Socket
	conns    map[*Conn]struct{}
	draining bool
	closed   bool
	wg       sync.WaitGroup
}

// New creates a core for cfg.
func New(cfg Config) *Server {
	return &Server{cfg: cfg, conns: make(map[*Conn]struct{})}
}

// A Conn is one admitted connection as the core tracks it.
type Conn struct {
	srv *Server
	// nc and busy are guarded by srv.mu against Shutdown and Close; the
	// session goroutine, their only writer, may read nc without it.
	nc   net.Conn
	busy bool
}

// NetConn returns the live connection. Only the session goroutine may
// call it.
func (c *Conn) NetConn() net.Conn { return c.nc }

// BeginRead marks the connection idle and arms the read deadline for
// its next request, or reports that a drain has begun and the session
// should end. Holding the core lock orders the deadline against
// Shutdown's wake-up: either the session sees the drain here, or
// Shutdown sees the idle connection and slams its deadline after this
// one, so a session cannot park itself in a fresh read past a drain.
func (c *Conn) BeginRead() bool {
	s := c.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	c.busy = false
	if s.closed || s.draining {
		return false
	}
	var deadline time.Time
	if s.cfg.ReadTimeout > 0 {
		deadline = time.Now().Add(s.cfg.ReadTimeout)
	}
	return c.nc.SetReadDeadline(deadline) == nil
}

// SetBusy marks the connection as executing a fully read request:
// Shutdown leaves it to finish and answer instead of waking it.
func (c *Conn) SetBusy() {
	c.srv.mu.Lock()
	c.busy = true
	c.srv.mu.Unlock()
}

// Swap replaces the live connection (SMTP's STARTTLS upgrade) under the
// core lock, so a concurrent Shutdown or Close always acts on it.
func (c *Conn) Swap(nc net.Conn) {
	c.srv.mu.Lock()
	c.nc = nc
	c.srv.mu.Unlock()
}

// Stats returns a snapshot of the core's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Open reports how many listeners, attached sockets and connections the
// core is serving right now.
func (s *Server) Open() (listeners, sockets, conns int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lns), len(s.socks), len(s.conns)
}

// Stopping reports whether the server is draining or closed; a read
// loop woken by an error exits cleanly when it is.
func (s *Server) Stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// Serve accepts connections on ln until the server stops or ln fails
// hard; it returns net.ErrClosed if the server has already stopped. It
// blocks; run it in a goroutine. Transient accept errors are retried
// with jittered backoff, and connections beyond MaxConns are shed
// through Reject so a connection storm cannot spawn unbounded sessions.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	consec := 0
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.Stopping() {
				return nil
			}
			consec++
			if !Retry(err, consec) {
				return err
			}
			s.mu.Lock()
			s.stats.AcceptRetries++
			s.mu.Unlock()
			continue
		}
		consec = 0
		s.admit(nc)
	}
}

// admit registers nc and starts its session, or turns it away: at the
// cap through Reject, during a drain through Refuse.
func (s *Server) admit(nc net.Conn) {
	s.mu.Lock()
	tell := s.cfg.Reject
	switch {
	case s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns:
		s.stats.Rejected++
	case s.closed || s.draining:
		s.stats.Accepted++
		tell = s.cfg.Refuse
	default:
		s.stats.Accepted++
		c := &Conn{srv: s, nc: nc}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.session(c)
		return
	}
	s.mu.Unlock()
	if tell != nil {
		tell(nc)
	}
	nc.Close()
}

// session runs one connection's protocol session, then closes the
// accepted connection and frees its admission slot.
func (s *Server) session(c *Conn) {
	defer s.wg.Done()
	accepted := c.nc // a swapped-in wrapper is the session's to finish with
	s.cfg.Serve(c)
	accepted.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Attach joins sock to the server's lifecycle: Shutdown wakes its
// readers with an immediate read deadline, waits until release is
// called, and only then closes it; Close closes it at once. The read
// loop must exit when a read fails and Stopping reports true. Attach
// returns net.ErrClosed if the server has already stopped.
func (s *Server) Attach(sock Socket) (release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return nil, net.ErrClosed
	}
	s.socks = append(s.socks, sock)
	s.wg.Add(1)
	return s.wg.Done, nil
}

// Shutdown gracefully drains the server: it stops accepting, wakes
// idle connections and attached sockets, lets every busy connection
// finish and answer the request it has read, and then closes
// everything. It returns nil when the drain completed, or ctx.Err()
// after falling back to a hard Close at the context deadline. Only the
// first call is counted in Drains or DrainTimeouts.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	first := !s.draining
	s.draining = true
	// Wake what is blocked waiting for input; a busy connection is left
	// to finish and notices the drain at its next BeginRead.
	now := time.Now()
	for c := range s.conns {
		if !c.busy {
			c.nc.SetReadDeadline(now)
		}
	}
	for _, sock := range s.socks {
		sock.SetReadDeadline(now)
	}
	lns := s.lns // frozen: Serve refuses once draining is set
	s.mu.Unlock()
	if first && s.cfg.OnDrain != nil {
		s.cfg.OnDrain()
	}
	for _, ln := range lns {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	if first && err == nil {
		s.stats.Drains++
	} else if first {
		s.stats.DrainTimeouts++
	}
	s.mu.Unlock()
	// After a clean drain only the attached sockets are still open;
	// past the deadline this is the hard stop.
	s.Close()
	return err
}

// Close stops all listeners, sockets and connections immediately and
// waits for their goroutines to exit. Shutdown is the graceful
// alternative.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns, socks := s.lns, s.socks
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c.nc)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, sock := range socks {
		sock.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
	return nil
}
