package dns

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/overload"
)

// Client errors.
var (
	// ErrIDMismatch reports a response whose ID does not match the query.
	ErrIDMismatch = errors.New("dns: response ID mismatch")
	// ErrNXDomain reports a name that does not exist.
	ErrNXDomain = errors.New("dns: no such domain")
	// ErrServFail reports a SERVFAIL (or other non-success) response.
	ErrServFail = errors.New("dns: server failure")
	// ErrNoData reports that the name exists but carries no records of the
	// queried type.
	ErrNoData = errors.New("dns: no records of requested type")
	// ErrLame reports a lame delegation: the name is delegated in the
	// registry, but its NS set never answers authoritatively. Unlike a
	// SERVFAIL this is definitive — the delegation itself is broken, not
	// a momentary upstream problem.
	ErrLame = errors.New("dns: lame delegation")
)

// A Client is a stub resolver: it sends single questions to one server
// over UDP, retrying on timeout and falling back to TCP on truncation.
// UDP attempts ride a multiplexed Transport, so a Client owns sockets
// once it has exchanged: Close it when done.
type Client struct {
	// Server is the resolver address, host:port.
	Server string
	// Timeout bounds each network attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of additional UDP attempts (default 2).
	Retries int
	// UDPSize, when non-zero, advertises an EDNS0 payload size with each
	// query so servers can answer beyond 512 bytes without TCP.
	UDPSize uint16
	// RetryBackoff is the base delay before the first UDP retry; each
	// further retry doubles it, jittered to [d/2, d], capped at 2s
	// (default 50ms). Immediate tight retries against a timing-out
	// server only add load exactly when the server is struggling.
	RetryBackoff time.Duration
	// DialContext substitutes the socket factory; nil uses net.Dialer.
	// The network argument is "udp" or "tcp".
	DialContext func(ctx context.Context, network, address string) (net.Conn, error)
	// Transport carries the UDP exchanges and dials the TCP fallback
	// (truncation is rare). Clients that share sockets set it, and its
	// Server and DialContext are then the ones used; left nil, the first
	// Exchange builds one from the client's.
	Transport *Transport

	once    sync.Once
	retries atomic.Int64
}

// RetryCount reports the total number of UDP retry attempts the client
// has made (attempts beyond the first per exchange). It grows when the
// network drops queries or responses — the observable of backoff tests.
func (c *Client) RetryCount() int64 { return c.retries.Load() }

// NewClient returns a Client querying the given server with defaults.
func NewClient(server string) *Client {
	return &Client{Server: server, Timeout: 2 * time.Second, Retries: 2}
}

func (c *Client) transport() *Transport {
	c.once.Do(func() {
		if c.Transport == nil {
			c.Transport = &Transport{Server: c.Server, DialContext: c.DialContext}
		}
	})
	return c.Transport
}

// Close releases the client's transport.
func (c *Client) Close() error { return c.transport().Close() }

// Exchange sends one question and returns the validated response message.
func (c *Client) Exchange(ctx context.Context, name string, typ Type) (*Message, error) {
	return c.exchange(ctx, name, typ, c.Timeout)
}

// exchange is Exchange with the attempt timeout as an argument: the
// iterative resolver's per-server clients take it from the resolver's
// Timeout at every query.
func (c *Client) exchange(ctx context.Context, name string, typ Type, timeout time.Duration) (*Message, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	// The transport assigns the ID of every attempt.
	query := NewQuery(0, name, typ)
	if c.UDPSize > 0 {
		query.SetEDNS0(c.UDPSize)
	}
	wire, err := query.Pack()
	if err != nil {
		return nil, err
	}
	tr := c.transport()
	attempts := c.Retries + 1
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if err := c.sleep(ctx, c.retryDelay(i)); err != nil {
				return nil, err
			}
			c.retries.Add(1)
		}
		// The transport parsed the response and verified ID and question
		// against the query.
		resp, err := tr.RoundTrip(ctx, wire, query.Questions[0], timeout)
		if err == nil && resp.Header.Truncated {
			resp, err = exchangeTCP(ctx, tr, wire, resp.Header.ID, timeout)
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("dns: exchange with %s failed: %w", tr.Server, lastErr)
}

// maxRetryBackoff caps the delay between UDP attempts.
const maxRetryBackoff = 2 * time.Second

// retryDelay returns the jittered exponential backoff before retry
// attempt (attempt >= 1).
func (c *Client) retryDelay(attempt int) time.Duration {
	base := c.RetryBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	return overload.Delay(attempt, min(base, maxRetryBackoff), maxRetryBackoff, nil)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// exchangeTCP repeats a query whose UDP answer came back truncated over
// a fresh TCP connection, under the ID the transport drew for it.
func exchangeTCP(ctx context.Context, tr *Transport, wire []byte, id uint16, timeout time.Duration) (*Message, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	conn, err := tr.dial(ctx, "tcp")
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if d, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(d); err != nil {
			return nil, err
		}
	}
	out := make([]byte, 2+len(wire))
	binary.BigEndian.PutUint16(out, uint16(len(wire)))
	copy(out[2:], wire)
	binary.BigEndian.PutUint16(out[2:], id)
	if _, err := conn.Write(out); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	respBuf := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, respBuf); err != nil {
		return nil, err
	}
	resp, err := Unpack(respBuf)
	if err != nil {
		return nil, err
	}
	// TCP is a private ordered stream: a mismatch is a server bug, not a
	// stray datagram, so it stays fatal.
	if resp.Header.ID != id {
		return nil, ErrIDMismatch
	}
	if !resp.Header.Response {
		return nil, errors.New("dns: reply is not a response")
	}
	return resp, nil
}

// A Resolver answers the two high-level questions the measurement pipeline
// asks: the MX set of a domain and the address set of a host. Both the
// network Client (via ClientResolver) and the in-memory Catalog (via
// CatalogResolver) satisfy it.
type Resolver interface {
	// LookupMX returns a domain's MX records sorted by preference then
	// exchange name. ErrNXDomain and ErrNoData distinguish missing names
	// from missing record types.
	LookupMX(ctx context.Context, domain string) ([]MXData, error)
	// LookupA returns the IPv4 addresses a host resolves to, following
	// CNAME chains.
	LookupA(ctx context.Context, host string) ([]netip.Addr, error)
	// LookupAAAA returns the IPv6 addresses of a host — the paper's
	// method is IPv4-based and names IPv6 as future work; this method
	// carries that extension.
	LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error)
}

// A TXTResolver additionally answers TXT queries (used by the SPF
// extension). All resolvers in this package implement it.
type TXTResolver interface {
	// LookupTXT returns the TXT strings published at domain, one entry
	// per record (multi-string records are concatenated per RFC 7208).
	LookupTXT(ctx context.Context, domain string) ([]string, error)
}

// ClientResolver adapts a Client to the Resolver interface.
type ClientResolver struct {
	Client *Client
}

// LookupMX implements Resolver.
func (r ClientResolver) LookupMX(ctx context.Context, domain string) ([]MXData, error) {
	resp, err := r.Client.Exchange(ctx, domain, TypeMX)
	if err != nil {
		return nil, err
	}
	return mxFromMessage(resp, domain)
}

// LookupA implements Resolver.
func (r ClientResolver) LookupA(ctx context.Context, host string) ([]netip.Addr, error) {
	resp, err := r.Client.Exchange(ctx, host, TypeA)
	if err != nil {
		return nil, err
	}
	return aFromMessage(resp, host)
}

// LookupAAAA implements Resolver.
func (r ClientResolver) LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error) {
	resp, err := r.Client.Exchange(ctx, host, TypeAAAA)
	if err != nil {
		return nil, err
	}
	return aaaaFromMessage(resp, host)
}

// LookupTXT implements TXTResolver.
func (r ClientResolver) LookupTXT(ctx context.Context, domain string) ([]string, error) {
	resp, err := r.Client.Exchange(ctx, domain, TypeTXT)
	if err != nil {
		return nil, err
	}
	return txtFromMessage(resp, domain)
}

// CatalogResolver resolves directly against an in-memory Catalog, used by
// large-scale simulated measurement where per-query sockets would dominate
// runtime. Semantics match the wire path because both call Catalog.Resolve.
type CatalogResolver struct {
	Catalog *Catalog
}

// LookupMX implements Resolver.
func (r CatalogResolver) LookupMX(ctx context.Context, domain string) ([]MXData, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := r.Catalog.Resolve(Question{Name: CanonicalName(domain), Type: TypeMX, Class: ClassIN})
	return mxFromMessage(resp, domain)
}

// LookupA implements Resolver.
func (r CatalogResolver) LookupA(ctx context.Context, host string) ([]netip.Addr, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := r.Catalog.Resolve(Question{Name: CanonicalName(host), Type: TypeA, Class: ClassIN})
	return aFromMessage(resp, host)
}

// LookupAAAA implements Resolver.
func (r CatalogResolver) LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := r.Catalog.Resolve(Question{Name: CanonicalName(host), Type: TypeAAAA, Class: ClassIN})
	return aaaaFromMessage(resp, host)
}

// LookupTXT implements TXTResolver.
func (r CatalogResolver) LookupTXT(ctx context.Context, domain string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := r.Catalog.Resolve(Question{Name: CanonicalName(domain), Type: TypeTXT, Class: ClassIN})
	return txtFromMessage(resp, domain)
}

func rcodeErr(m *Message) error {
	switch m.Header.RCode {
	case RCodeSuccess:
		return nil
	case RCodeNXDomain:
		return ErrNXDomain
	default:
		return fmt.Errorf("%w: %s", ErrServFail, m.Header.RCode)
	}
}

func mxFromMessage(m *Message, domain string) ([]MXData, error) {
	if err := rcodeErr(m); err != nil {
		return nil, err
	}
	var out []MXData
	for _, rr := range m.Answers {
		if mx, ok := rr.Data.(MXData); ok {
			mx.Exchange = TrimmedName(mx.Exchange)
			out = append(out, mx)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: MX for %s", ErrNoData, domain)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Preference != out[j].Preference {
			return out[i].Preference < out[j].Preference
		}
		return out[i].Exchange < out[j].Exchange
	})
	return out, nil
}

func aaaaFromMessage(m *Message, host string) ([]netip.Addr, error) {
	if err := rcodeErr(m); err != nil {
		return nil, err
	}
	var out []netip.Addr
	for _, rr := range m.Answers {
		if a, ok := rr.Data.(AAAAData); ok {
			out = append(out, a.Addr)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: AAAA for %s", ErrNoData, host)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

func txtFromMessage(m *Message, domain string) ([]string, error) {
	if err := rcodeErr(m); err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range m.Answers {
		if txt, ok := rr.Data.(TXTData); ok {
			// RFC 7208 §3.3: multiple strings in one record concatenate
			// without separators.
			out = append(out, strings.Join(txt.Strings, ""))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: TXT for %s", ErrNoData, domain)
	}
	sort.Strings(out)
	return out, nil
}

func aFromMessage(m *Message, host string) ([]netip.Addr, error) {
	if err := rcodeErr(m); err != nil {
		return nil, err
	}
	var out []netip.Addr
	for _, rr := range m.Answers {
		if a, ok := rr.Data.(AData); ok {
			out = append(out, a.Addr)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: A for %s", ErrNoData, host)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}
