package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"time"

	"mxmap/internal/overload"
)

// Admission-control defaults.
const (
	// DefaultMaxConns bounds concurrent connections per server, and so
	// the handlers running at once: each connection runs its requests
	// one at a time on its own goroutine.
	DefaultMaxConns = 256
	// DefaultReadTimeout is the slowloris deadline for reading a
	// request off an idle connection.
	DefaultReadTimeout = 30 * time.Second
)

// writeTimeout bounds writing one response.
const writeTimeout = 10 * time.Second

// Handler answers one admitted request. The Server owns the sockets,
// connection admission, the read deadline and drain bookkeeping; the
// handler owns routing and bounds its own work: it runs on its
// connection's goroutine, and ctx ends only when the server stops hard
// (Close, or a Shutdown whose context ends). The HA balancer plugs in
// here to reuse the whole overload kit in front of a replica fleet.
type Handler func(ctx context.Context, req *Request) Response

// Config parameterizes a Server. One of Service or Handler is required;
// every other zero value takes the default above, and negative values
// disable the corresponding limit.
type Config struct {
	// Service answers the queries through the built-in routes. Ignored
	// when Handler is set (a Handler may still consult a Service of its
	// own).
	Service *Service
	// Handler, when set, replaces the built-in Service routing: every
	// admitted request is dispatched to it instead.
	Handler Handler
	// MaxConns caps concurrent connections, and with them the handlers
	// running at once; beyond it new connections are answered 429 and
	// closed before any request is read. Negative disables the cap.
	MaxConns int
	// ReadTimeout is the slowloris deadline: a connection that does
	// not deliver a full request within it is closed.
	ReadTimeout time.Duration
	// AllowSwap enables the POST /v1/swap endpoint. Off by default:
	// swapping loads files server-side and belongs behind an
	// operator-only listener.
	AllowSwap bool
	// Gate, when set, runs at the top of every handler with the
	// request path. Tests and benchmarks use it to hold requests at a
	// deterministic point; nil in production.
	Gate func(path string)
	// Clock, when set, turns on per-endpoint latency histograms: it is
	// read exactly twice per request (begin and end) and the measured
	// duration lands in the endpoint's log-scale buckets, exposed via
	// LatencySnapshot and /v1/stats. Nil disables observation, keeping
	// whole-struct counter assertions free of wall-clock buckets. A
	// stepped test clock makes every bucket count byte-reproducible.
	Clock func() time.Time
}

// A Server accepts query connections on one or more listeners. The
// overload core owns the listeners and connections; the server is its
// session handler, and runs each request's handler inline on the
// connection's goroutine.
type Server struct {
	cfg   Config
	stats serverCounters
	lat   [NumEndpoints]LatencyHist
	core  *overload.Server
	// ctx is every handler's context; cancel ends it at a hard stop.
	ctx    context.Context
	cancel context.CancelFunc
}

// NewServer validates cfg and creates a server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Service == nil && cfg.Handler == nil {
		return nil, errors.New("serve: config requires a Service or a Handler")
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	s := &Server{cfg: cfg}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	oc := overload.Config{
		MaxConns:    cfg.MaxConns,
		ReadTimeout: cfg.ReadTimeout,
		Serve:       s.serveConn,
		Reject: func(nc net.Conn) {
			r := ErrorResponse(429, "server connection limit reached")
			r.RetryAfter, r.Close = true, true
			writeResponse(nc, nil, r, time.Second)
		},
	}
	if cfg.Service != nil {
		// Probes see "draining" and steer traffic away before the
		// listeners close.
		oc.OnDrain = cfg.Service.BeginDrain
	}
	s.core = overload.New(oc)
	return s, nil
}

// Stats returns a snapshot of the server's serving counters.
func (s *Server) Stats() ServerStats { return s.stats.snapshot(s.core.Stats()) }

// Serve accepts connections on ln until the server is closed. It
// blocks; run it in a goroutine. Transient accept errors are retried
// with jittered backoff, and connections beyond MaxConns are shed with
// a 429 so a connection storm cannot spawn unbounded goroutines.
func (s *Server) Serve(ln net.Listener) error { return s.core.Serve(ln) }

// serveConn is the core's session handler: idle while waiting for a
// request, busy from the moment one is read until its response is
// written. The handler runs right here, so everything a request needs
// besides the request itself — the response buffer and the lookup
// scratch — is the connection's, reused from one request to the next.
func (s *Server) serveConn(c *overload.Conn) {
	nc := c.NetConn()
	br := bufio.NewReaderSize(nc, 4096)
	var out, body []byte
	for {
		if !c.BeginRead() {
			return
		}
		req, err := readRequest(br)
		if err != nil {
			switch {
			case err == io.EOF:
				// Clean close between requests.
			case s.core.Stopping():
				// Woken by Shutdown's immediate read deadline.
			case isTimeout(err):
				s.stats.readTimeouts.Add(1)
			case err == errMalformed || err == errLineTooLong:
				// Malformed request: account it and its 400 so the
				// books still balance to zero lost.
				s.stats.requests.Add(1)
				s.stats.badRequests.Add(1)
				writeResponse(nc, out, ErrorResponse(400, "malformed request"), writeTimeout)
				s.stats.responses.Add(1)
			default:
				// A transport error before any byte of the next request
				// (the peer reset a keep-alive connection): a
				// disconnect like the clean EOF, not a request.
			}
			return
		}
		s.stats.requests.Add(1)
		c.SetBusy()
		var begin time.Time
		if s.cfg.Clock != nil {
			begin = s.cfg.Clock()
		}
		resp := s.handle(s.ctx, req, &body)
		if s.cfg.Clock != nil {
			s.lat[EndpointIndex(req.Path)].Observe(s.cfg.Clock().Sub(begin))
		}
		resp.Close = resp.Close || req.Close || s.core.Stopping()
		out, err = writeResponse(nc, out, resp, writeTimeout)
		s.stats.responses.Add(1)
		if err != nil || resp.Close {
			return
		}
	}
}

// writeResponse writes r under the given write deadline, building it
// in buf, and returns buf for the next response.
func writeResponse(nc net.Conn, buf []byte, r Response, timeout time.Duration) ([]byte, error) {
	buf = appendResponse(buf[:0], r)
	nc.SetWriteDeadline(time.Now().Add(timeout))
	_, err := nc.Write(buf)
	return buf, err
}

// Shutdown gracefully drains the server: it stops accepting, lets every
// request that has been read finish and be answered, wakes idle
// connections, and then closes. It returns nil when the drain
// completed, or ctx.Err() after falling back to a hard Close at the
// context deadline; handlers' context ends with ctx, so one that honours
// it cannot hold the hard stop. The paired Service moves to draining so
// probes steer traffic away first.
func (s *Server) Shutdown(ctx context.Context) error {
	stop := context.AfterFunc(ctx, s.cancel)
	defer stop()
	return s.core.Shutdown(ctx)
}

// Close stops all listeners and connections immediately, ends the
// handlers' context, and waits for the connections' goroutines to
// exit. Shutdown is the graceful alternative.
func (s *Server) Close() error {
	s.cancel()
	return s.core.Close()
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
