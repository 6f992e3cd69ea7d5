package smtp

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"time"

	"mxmap/internal/overload"
)

// DefaultMaxConns bounds concurrent SMTP sessions per server.
const DefaultMaxConns = 512

// maxCommands bounds the lines one session may send before the server
// closes it with a 421, so no client can pin a session forever.
const maxCommands = 1000

// readTimeout bounds waiting for each client command.
const readTimeout = 60 * time.Second

// Config parameterizes a Server. The zero value is not valid; Hostname is
// required.
type Config struct {
	// Hostname is the identity the server announces in its banner and
	// EHLO response. The paper's methodology treats this as the
	// Banner/EHLO signal; it may be any text the operator configures —
	// including a non-FQDN string or a false claim — which Banner and
	// EHLOName below can arrange.
	Hostname string
	// Banner overrides the greeting text after "220 " (default
	// "<Hostname> ESMTP Service ready").
	Banner string
	// EHLOName overrides the identity in the EHLO response (default
	// Hostname). This models servers whose banner and EHLO disagree.
	EHLOName string
	// TLS enables STARTTLS with the given configuration when non-nil.
	TLS *tls.Config
	// MaxConns caps concurrent sessions; accepts beyond the cap are
	// answered with a 421 and closed (default DefaultMaxConns; negative
	// means unlimited).
	MaxConns int
}

// A Server accepts SMTP sessions on one or more listeners. The overload
// core owns the listeners and connections; the server is its session
// handler.
type Server struct {
	cfg   Config
	stats serverCounters
	core  *overload.Server
}

// NewServer validates cfg and creates a server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Hostname == "" {
		return nil, errors.New("smtp: config requires a hostname")
	}
	if cfg.Banner == "" {
		cfg.Banner = cfg.Hostname + " ESMTP Service ready"
	}
	if cfg.EHLOName == "" {
		cfg.EHLOName = cfg.Hostname
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	s := &Server{cfg: cfg}
	s.core = overload.New(overload.Config{
		MaxConns:    cfg.MaxConns,
		ReadTimeout: readTimeout,
		Serve:       s.serveConn,
		Reject: func(nc net.Conn) {
			farewell(nc, cfg.EHLOName+" Too many connections, try again later")
		},
		Refuse: s.goodbye,
	})
	return s, nil
}

// Stats returns a snapshot of the server's serving counters.
func (s *Server) Stats() ServerStats { return s.stats.snapshot(s.core.Stats()) }

// Serve accepts connections on ln until the server is closed. It blocks;
// run it in a goroutine.
//
// Transient accept errors are retried with jittered backoff instead of
// killing the loop, and connections beyond MaxConns are shed with a 421
// so a connection storm cannot spawn unbounded session goroutines.
func (s *Server) Serve(ln net.Listener) error { return s.core.Serve(ln) }

// Shutdown gracefully drains the server: it stops accepting, lets each
// session finish the command it is executing (a session mid-STARTTLS
// completes the handshake), tells every session 421, and then closes.
// It returns nil when the drain completed, or ctx.Err() after falling
// back to a hard Close at the context deadline. Close retains hard-stop
// semantics.
func (s *Server) Shutdown(ctx context.Context) error { return s.core.Shutdown(ctx) }

// Close stops all listeners and sessions immediately and waits for
// session goroutines to exit. Shutdown is the graceful alternative.
func (s *Server) Close() error { return s.core.Close() }

// session holds per-connection state.
type session struct {
	srv  *Server
	conn *overload.Conn // the core's handle; NetConn is the live transport
	rd   *reader

	tlsActive bool
}

// serveConn is the core's session handler: idle while waiting for a
// command line, busy while executing it.
func (s *Server) serveConn(c *overload.Conn) {
	sess := &session{srv: s, conn: c, rd: newReader(c.NetConn())}
	if err := sess.reply(220, s.cfg.Banner); err != nil {
		return
	}
	commands := 0
	for {
		if !c.BeginRead() {
			s.goodbye(c.NetConn())
			return
		}
		line, err := sess.rd.line()
		if err != nil && !errors.Is(err, ErrLineTooLong) {
			if s.core.Stopping() {
				// Woken by Shutdown's immediate read deadline.
				s.goodbye(c.NetConn())
			}
			return
		}
		// An oversized line spends budget like a command: otherwise a
		// client could hold the session forever without dispatching one.
		commands++
		if commands > maxCommands {
			s.stats.budgetCloses.Add(1)
			s.goodbye(c.NetConn())
			return
		}
		if err != nil {
			sess.reply(500, "Line too long")
			continue
		}
		s.stats.commands.Add(1)
		c.SetBusy()
		done, err := sess.dispatch(command(line))
		if err != nil {
			return
		}
		if done {
			return
		}
	}
}

// goodbye tells the client the server is closing the transmission
// channel (RFC 5321 §3.8).
func (s *Server) goodbye(nc net.Conn) {
	farewell(nc, s.cfg.EHLOName+" Service closing transmission channel")
}

// farewell writes a 421 under a short write deadline so a stuck peer
// cannot pin the accept loop or a drain.
func farewell(nc net.Conn, text string) {
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	writeReply(nc, 421, text)
}

func (sess *session) reply(code int, lines ...string) error {
	return writeReply(sess.conn.NetConn(), code, lines...)
}

// dispatch executes one command; done=true ends the session.
func (sess *session) dispatch(verb string) (done bool, err error) {
	switch verb {
	case "HELO":
		return false, sess.reply(250, sess.srv.cfg.EHLOName)
	case "EHLO":
		lines := []string{sess.srv.cfg.EHLOName, "PIPELINING", "SIZE 10485760", "8BITMIME"}
		if sess.srv.cfg.TLS != nil && !sess.tlsActive {
			lines = append(lines, "STARTTLS")
		}
		return false, sess.reply(250, lines...)
	case "STARTTLS":
		return false, sess.startTLS()
	case "RSET", "NOOP":
		return false, sess.reply(250, "OK")
	case "VRFY":
		return false, sess.reply(252, "Cannot VRFY user, but will accept message")
	case "QUIT":
		sess.reply(221, sess.srv.cfg.EHLOName+" closing connection")
		return true, nil
	case "":
		return false, sess.reply(500, "Empty command")
	default:
		return false, sess.reply(502, "Command not implemented")
	}
}

func (sess *session) startTLS() error {
	if sess.srv.cfg.TLS == nil {
		return sess.reply(502, "STARTTLS not offered")
	}
	if sess.tlsActive {
		return sess.reply(503, "TLS already active")
	}
	if err := sess.reply(220, "Ready to start TLS"); err != nil {
		return err
	}
	tlsConn := tls.Server(sess.conn.NetConn(), sess.srv.cfg.TLS)
	if err := tlsConn.SetDeadline(time.Now().Add(readTimeout)); err != nil {
		return err
	}
	if err := tlsConn.Handshake(); err != nil {
		// RFC 3207: if the handshake fails the connection state is
		// undefined; close it.
		return fmt.Errorf("smtp: TLS handshake: %w", err)
	}
	tlsConn.SetDeadline(time.Time{})
	sess.setConn(tlsConn)
	sess.tlsActive = true
	return nil
}

// setConn swaps the session's connection (STARTTLS). The core does it
// under its lock, so a concurrent Shutdown or Close always sees the live
// conn.
func (sess *session) setConn(conn net.Conn) {
	sess.conn.Swap(conn)
	sess.rd = newReader(conn)
}
