package dns

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/overload"
)

// A Catalog is a set of zones searched by longest-suffix match, the lookup
// structure an authoritative server serves from.
type Catalog struct {
	gen   atomic.Uint64 // bumped on every mutation; see Generation
	mu    sync.RWMutex
	zones map[string]*Zone // canonical origin -> zone
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{zones: make(map[string]*Zone)}
}

// AddZone registers a zone; a zone with the same origin is replaced.
func (c *Catalog) AddZone(z *Zone) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.zones[z.Origin] = z
	c.gen.Add(1)
}

// Generation returns a counter that increases on every catalog mutation.
// Servers use it to invalidate packed-response caches: a cached answer is
// valid only while the generation it was built under is current.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// FindZone returns the zone with the longest origin that is a suffix of
// name, or nil when the server is not authoritative for name.
func (c *Catalog) FindZone(name string) *Zone {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cur := CanonicalName(name)
	for {
		if z, ok := c.zones[cur]; ok {
			return z
		}
		if cur == "." {
			return nil
		}
		cur = Parent(cur)
	}
}

// Zones returns all registered zones.
func (c *Catalog) Zones() []*Zone {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Zone, 0, len(c.zones))
	for _, z := range c.zones {
		out = append(out, z)
	}
	return out
}

// Resolve answers a question directly from the catalog without network
// I/O. It implements the same semantics the wire server uses, so the scan
// pipeline can resolve at memory speed while integration tests exercise
// the same logic over real sockets.
func (c *Catalog) Resolve(q Question) *Message {
	m := &Message{
		Header:    Header{Response: true, Authoritative: true},
		Questions: []Question{q},
	}
	z := c.FindZone(q.Name)
	if z == nil {
		m.Header.RCode = RCodeRefused
		return m
	}
	res := z.Lookup(q.Name, q.Type)
	if res.Delegated {
		// Referral: not authoritative for the name; hand back the child
		// NS set and any glue so the client can continue iterating.
		m.Header.Authoritative = false
		m.Authority = res.Authority
		m.Additional = res.Additional
		return m
	}
	m.Header.RCode = res.RCode
	m.Answers = res.Answers
	m.Authority = res.Authority
	// Chase CNAMEs that cross into sibling zones we are also
	// authoritative for, as a recursive-capable authoritative would.
	const maxChase = 8
	for i := 0; i < maxChase; i++ {
		last := lastCNAME(m.Answers)
		if last == nil {
			break
		}
		target := CanonicalName(last.Data.(CNAMEData).Target)
		if hasAnswerFor(m.Answers, target, q.Type) || IsSubdomain(target, z.Origin) {
			break
		}
		z2 := c.FindZone(target)
		if z2 == nil {
			break
		}
		res2 := z2.Lookup(target, q.Type)
		if len(res2.Answers) == 0 {
			m.Header.RCode = res2.RCode
			break
		}
		m.Answers = append(m.Answers, res2.Answers...)
		z = z2
	}
	return m
}

func lastCNAME(answers []RR) *RR {
	if len(answers) == 0 {
		return nil
	}
	if rr := answers[len(answers)-1]; rr.Type == TypeCNAME {
		return &rr
	}
	return nil
}

func hasAnswerFor(answers []RR, name string, typ Type) bool {
	for _, rr := range answers {
		if rr.Type == typ && CanonicalName(rr.Name) == name {
			return true
		}
	}
	return false
}

// Admission-control defaults.
const (
	// DefaultMaxTCPConns bounds concurrent DNS-over-TCP connections.
	DefaultMaxTCPConns = 256
	// DefaultTCPQueryBudget bounds queries served on one TCP connection
	// before the server closes it.
	DefaultTCPQueryBudget = 512
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Catalog provides the zones to serve. Required.
	Catalog *Catalog
	// Logger receives per-query debug records; nil disables logging.
	Logger *slog.Logger
	// ReadTimeout bounds waiting for a TCP query (default 10s). It is
	// also the slowloris guard: a connection that stalls mid-frame is
	// closed when the deadline passes.
	ReadTimeout time.Duration
	// UDPWorkers is the number of concurrent packet handlers per ServeUDP
	// call (default min(GOMAXPROCS, 8)). Each worker owns its read buffer
	// and decode scratch, replacing the old goroutine-plus-copy per
	// packet.
	UDPWorkers int
	// DisableCache turns off the packed-response cache. The cache is also
	// bypassed when Logger is set (per-query logging) and for non-IN
	// classes.
	DisableCache bool
	// RRL enables response-rate limiting on UDP answers when non-nil.
	// See RRLConfig; TCP responses are never rate-limited.
	RRL *RRLConfig
	// MaxTCPConns caps concurrent DNS-over-TCP connections; accepts
	// beyond the cap are immediately closed and counted as rejected
	// (default DefaultMaxTCPConns; negative means unlimited).
	MaxTCPConns int
	// TCPQueryBudget caps queries answered on a single TCP connection
	// before it is closed, bounding what one peer can pin (default
	// DefaultTCPQueryBudget; negative means unlimited).
	TCPQueryBudget int
}

// A Server answers DNS queries over UDP and TCP from a Catalog. The
// overload core owns its sockets' lifecycle: TCP is a session handler on
// the core's accept loop, and each UDP socket's worker pool is attached
// to the same drain.
type Server struct {
	cfg     ServerConfig
	cache   respCache
	limiter *rrlLimiter
	stats   serverCounters
	core    *overload.Server
}

// NewServer creates a server for the given configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("dns: server requires a catalog")
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.UDPWorkers <= 0 {
		cfg.UDPWorkers = min(runtime.GOMAXPROCS(0), 8)
	}
	if cfg.MaxTCPConns == 0 {
		cfg.MaxTCPConns = DefaultMaxTCPConns
	}
	if cfg.TCPQueryBudget == 0 {
		cfg.TCPQueryBudget = DefaultTCPQueryBudget
	}
	s := &Server{cfg: cfg}
	if cfg.RRL != nil {
		s.limiter = newRRLLimiter(*cfg.RRL)
	}
	// Over the cap, or accepted into a drain, a TCP client is told
	// nothing: the connection just closes.
	s.core = overload.New(overload.Config{
		MaxConns:    cfg.MaxTCPConns,
		ReadTimeout: cfg.ReadTimeout,
		Serve:       s.serveTCPConn,
	})
	return s, nil
}

// Stats returns a snapshot of the server's serving counters.
func (s *Server) Stats() ServerStats { return s.stats.snapshot(s.core.Stats()) }

// ServeUDP answers queries arriving on pc until the server is closed or
// pc fails hard. It blocks; run it in a goroutine.
//
// Packets are handled by a pool of cfg.UDPWorkers workers, each reading,
// resolving and replying on its own reused buffers — net.PacketConn is
// safe for concurrent ReadFrom/WriteTo — so the steady-state path has no
// per-packet goroutine spawn or query copy, and on a udpSocket no boxed
// source address either. Workers survive transient read errors (e.g.
// the ECONNREFUSED a socket reports after ICMP feedback) with jittered
// backoff; only a closed socket or a persistent failure ends the loop. A
// drain wakes the workers through the socket's read deadline and closes
// the socket once they have all returned.
func (s *Server) ServeUDP(pc net.PacketConn) error {
	release, err := s.core.Attach(pc)
	if err != nil {
		return err
	}
	defer release()
	sock, ok := pc.(udpSocket)
	if !ok {
		sock = packetConnSocket{pc}
	}

	var wg sync.WaitGroup
	errc := make(chan error, s.cfg.UDPWorkers)
	for i := 0; i < s.cfg.UDPWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64*1024)
			st := new(handleState)
			consec := 0
			for {
				n, addr, err := sock.ReadFromUDPAddrPort(buf)
				if err != nil {
					if s.core.Stopping() {
						return
					}
					consec++
					if !overload.Retry(err, consec) {
						errc <- err
						return
					}
					s.stats.udpReadRetries.Add(1)
					continue
				}
				consec = 0
				s.stats.udpQueries.Add(1)
				resp := s.handle(st, buf[:n], true)
				if resp == nil {
					s.stats.udpDropped.Add(1)
					continue
				}
				if s.limiter != nil {
					switch s.limiter.decide(addr.Addr(), respKind(resp)) {
					case rrlDrop:
						s.stats.rrlDrops.Add(1)
						continue
					case rrlSlip:
						s.stats.rrlSlips.Add(1)
						resp = slipResponse(resp)
					}
				}
				// The write copies the payload into the socket (or
				// fabric queue), so reusing resp's buffer is safe.
				if _, err := sock.WriteToUDPAddrPort(resp, addr); err != nil {
					s.stats.udpWriteErrors.Add(1)
					s.logf("udp write: %v", err)
				} else {
					s.stats.udpResponses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if s.core.Stopping() {
		return nil
	}
	return <-errc
}

// udpSocket is what the UDP worker loop needs of a socket: the method
// pair of *net.UDPConn that carries the peer as a netip.AddrPort value,
// where ReadFrom and WriteTo box a net.Addr per datagram.
// netsim.PacketConn has the pair too.
type udpSocket interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
}

// packetConnSocket gives any other net.PacketConn that pair, through
// its ReadFrom and WriteTo.
type packetConnSocket struct{ net.PacketConn }

func (p packetConnSocket) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	n, addr, err := p.ReadFrom(b)
	if err != nil {
		return n, netip.AddrPort{}, err
	}
	if ua, ok := addr.(*net.UDPAddr); ok {
		return n, ua.AddrPort(), nil
	}
	ap, err := netip.ParseAddrPort(addr.String())
	if err != nil {
		return n, netip.AddrPort{}, fmt.Errorf("dns: datagram source %v is not an IP address and port: %w", addr, err)
	}
	return n, ap, nil
}

func (p packetConnSocket) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	return p.WriteTo(b, net.UDPAddrFromAddrPort(addr))
}

// ServeTCP accepts length-prefixed DNS-over-TCP connections on ln until
// the server is closed. It blocks; run it in a goroutine.
//
// Accepts beyond MaxTCPConns are shed by closing the connection
// immediately; transient accept errors are retried with jittered
// backoff.
func (s *Server) ServeTCP(ln net.Listener) error { return s.core.Serve(ln) }

// serveTCPConn is the core's session handler: one query per loop turn,
// idle while waiting for a frame and busy from the moment it is fully
// read until its answer is written, so a drain wakes only connections
// with nothing in flight.
func (s *Server) serveTCPConn(c *overload.Conn) {
	conn := c.NetConn()
	st := new(handleState)
	var lenBuf [2]byte
	// Per-connection reused buffers: the read buffer grows to the
	// largest frame seen (≤65535), the write buffer to frame+2.
	rbuf := make([]byte, 0, 512)
	wbuf := make([]byte, 0, 1024)
	for served := 0; ; served++ {
		if s.cfg.TCPQueryBudget > 0 && served >= s.cfg.TCPQueryBudget {
			s.stats.tcpBudgetCloses.Add(1)
			return
		}
		if !c.BeginRead() {
			return
		}
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		msgLen := int(binary.BigEndian.Uint16(lenBuf[:]))
		if cap(rbuf) < msgLen {
			rbuf = make([]byte, 0, msgLen)
		}
		query := rbuf[:msgLen]
		if _, err := io.ReadFull(conn, query); err != nil {
			return
		}
		c.SetBusy()
		s.stats.tcpQueries.Add(1)
		resp := s.handle(st, query, false)
		if resp == nil {
			s.stats.tcpDropped.Add(1)
			return
		}
		wbuf = append(wbuf[:0], byte(len(resp)>>8), byte(len(resp)))
		wbuf = append(wbuf, resp...)
		if _, err := conn.Write(wbuf); err != nil {
			s.stats.tcpWriteErrors.Add(1)
			return
		}
		s.stats.tcpResponses.Add(1)
	}
}

// handleState is the per-worker scratch for the query path: a decode
// scratch, a reused query Message and a reused response buffer. The
// slice returned by handle aliases st.out and is valid until the next
// handle call on the same state.
type handleState struct {
	scratch UnpackScratch
	query   Message
	out     []byte
}

// udpLimit returns the response size cap for a query that advertised
// reqSize via EDNS0 (hasEDNS), and whether an OPT record should be
// echoed. The cap honors the client's size up to MaxEDNSSize but never
// shrinks below the classic RFC 1035 limit; larger answers are truncated.
func udpLimit(reqSize uint16, hasEDNS bool) int {
	limit := 512
	if hasEDNS {
		if int(reqSize) > limit {
			limit = int(reqSize)
		}
		if limit > MaxEDNSSize {
			limit = MaxEDNSSize
		}
	}
	return limit
}

// handle parses a query and produces a packed response; nil means "drop".
// The returned slice may alias st.out.
func (s *Server) handle(st *handleState, query []byte, udp bool) []byte {
	m := &st.query
	if err := st.scratch.Unpack(query, m); err != nil || m.Header.Response {
		// Unparseable or not a query; attempt a FORMERR with the echoed ID
		// when at least the ID survived.
		if len(query) >= 2 {
			resp := &Message{Header: Header{
				ID:       binary.BigEndian.Uint16(query),
				Response: true,
				RCode:    RCodeFormat,
			}}
			b, _ := resp.Pack()
			return b
		}
		return nil
	}
	reqSize, hasEDNS := m.EDNS0UDPSize()
	limit := udpLimit(reqSize, hasEDNS)
	if m.Header.OpCode == OpQuery && len(m.Questions) == 1 &&
		m.Questions[0].Class == ClassIN && s.cfg.Logger == nil && !s.cfg.DisableCache {
		return s.handleCached(st, m, udp, limit, hasEDNS)
	}

	var resp *Message
	switch {
	case m.Header.OpCode != OpQuery:
		resp = m.Reply()
		resp.Header.RCode = RCodeNotImp
	case len(m.Questions) != 1:
		resp = m.Reply()
		resp.Header.RCode = RCodeFormat
	default:
		resp = s.cfg.Catalog.Resolve(m.Questions[0])
		resp.Header.ID = m.Header.ID
		resp.Header.RecursionDesired = m.Header.RecursionDesired
	}
	// Honor the client's EDNS0 payload size up to our cap, and echo an
	// OPT record advertising the cap we actually applied so the client
	// knows EDNS0 was understood.
	if hasEDNS {
		resp.SetEDNS0(uint16(limit))
	}
	b, err := resp.Pack()
	if err != nil {
		s.logf("pack response: %v", err)
		fail := m.Reply()
		fail.Header.RCode = RCodeServFail
		b, _ = fail.Pack()
		return b
	}
	if udp && len(b) > limit {
		// Truncate: header + question only, TC bit set; client retries TCP.
		trunc := m.Reply()
		trunc.Header.RCode = resp.Header.RCode
		trunc.Header.Authoritative = resp.Header.Authoritative
		trunc.Header.Truncated = true
		if hasEDNS {
			// Keep EDNS0 on the truncated reply too: dropping OPT would
			// tell the client its EDNS offer was not understood.
			trunc.SetEDNS0(uint16(limit))
		}
		b, _ = trunc.Pack()
	}
	s.logQuery(m, resp)
	return b
}

func (s *Server) logQuery(q, resp *Message) {
	if s.cfg.Logger == nil || len(q.Questions) == 0 {
		return
	}
	s.cfg.Logger.Debug("dns query",
		"q", q.Questions[0].String(),
		"rcode", resp.Header.RCode.String(),
		"answers", len(resp.Answers))
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Error(fmt.Sprintf(format, args...))
	}
}

// Shutdown gracefully drains the server: it stops reading new UDP
// queries and accepting new TCP connections, lets every query already
// received finish — including in-flight TCP queries on open
// connections — and then closes all sockets. It returns nil when the
// drain completed, or ctx.Err() after falling back to a hard Close at
// the context deadline. Close retains hard-stop semantics.
func (s *Server) Shutdown(ctx context.Context) error { return s.core.Shutdown(ctx) }

// Close stops all listeners and connections immediately and waits for
// in-flight handlers. Shutdown is the graceful alternative.
func (s *Server) Close() error { return s.core.Close() }

// listenAttempts bounds how many fresh UDP ports listenPair tries when
// the kernel picks the port and the matching TCP port is taken.
const listenAttempts = 8

// listenPair binds UDP on addr and TCP, through listenTCP, on the port
// UDP got, so clients can fall back. With a kernel-chosen port (":0")
// the TCP side can be in use — loopback TIME_WAIT pile-ups do it — so
// the pair is retried on a fresh UDP port; an explicit port fails at
// once.
func listenPair(addr string, listenTCP func(network, addr string) (net.Listener, error)) (pc net.PacketConn, ln net.Listener, err error) {
	attempts := 1
	if _, port, _ := net.SplitHostPort(addr); port == "0" {
		attempts = listenAttempts
	}
	for ; attempts > 0; attempts-- {
		if pc, err = net.ListenPacket("udp", addr); err != nil {
			return nil, nil, err
		}
		if ln, err = listenTCP("tcp", pc.LocalAddr().String()); err == nil {
			return pc, ln, nil
		}
		pc.Close()
	}
	return nil, nil, err
}

// ListenAndServe binds UDP and TCP on addr (e.g. "127.0.0.1:0") and serves
// until ctx is cancelled. It reports the bound UDP address on ready. This
// helper exists for examples and integration tests.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- net.Addr) error {
	pc, ln, err := listenPair(addr, net.Listen)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- pc.LocalAddr()
	}
	errc := make(chan error, 2)
	go func() { errc <- s.ServeUDP(pc) }()
	go func() { errc <- s.ServeTCP(ln) }()
	select {
	case <-ctx.Done():
		err = ctx.Err()
	case err = <-errc:
	}
	s.Close() // waits for both loops
	return err
}
