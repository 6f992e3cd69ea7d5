// Package servetest is the shared fixture of the serving tiers' tests
// (internal/serve, internal/ha): the two-snapshot world pair, a stepped
// service clock, and a keep-alive HTTP/1.1 client over the netsim
// fabric. The client returns errors, so flood workers can use it off the
// test goroutine; a test that wants t.Fatal wraps it at the call site.
package servetest

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/netip"
	"net/textproto"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/netsim"
)

// WriteWorlds materializes the fixture pair as snapshot files under dir:
// two managed providers plus one self-hosted domain, and the same world
// one churn step later (an empty exchange means the domain is absent).
func WriteWorlds(dir string) (oldPath, newPath string, err error) {
	oldPath, newPath = filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	worlds := map[string]*dataset.Snapshot{
		oldPath: dataset.NewSnapshot("2021-01", "test"),
		newPath: dataset.NewSnapshot("2021-02", "test"),
	}
	for rank, d := range []struct{ name, old, new string }{
		{"one.example", "mx.prov-a.net", "mx.prov-a.net"},
		{"two.example", "mx.prov-a.net", "mx.prov-b.net"}, // migrates
		{"three.example", "mx.prov-b.net", ""},            // disappears
		{"four.example", "mx.four.example", "mx.four.example"},
		{"five.example", "", "mx.prov-b.net"}, // arrives
	} {
		for path, exchange := range map[string]string{oldPath: d.old, newPath: d.new} {
			if exchange != "" {
				worlds[path].AddDomain(dataset.DomainRecord{Domain: d.name, Rank: rank + 1,
					MX: []dataset.MXObs{{Preference: 10, Exchange: exchange}}})
			}
		}
	}
	for path, snap := range worlds {
		snap.SortDomains()
		if err := dataset.WriteFile(path, snap); err != nil {
			return "", "", err
		}
	}
	return oldPath, newPath, nil
}

// ClockStep is how far a SteppedClock advances per read. A Service
// reads its clock exactly twice per load or swap, so under a stepped
// clock every reported swap latency is exactly this value.
const ClockStep = 500 * time.Microsecond

// SteppedClock returns a goroutine-safe clock that starts at the
// repo's frozen-test epoch and advances one ClockStep per read.
func SteppedClock() func() time.Time {
	var reads atomic.Int64
	return func() time.Time {
		return time.Unix(1700000000, 0).Add(time.Duration(reads.Add(1)) * ClockStep)
	}
}

// Client is a minimal keep-alive HTTP/1.1 client over the fabric.
type Client struct {
	Conn net.Conn
	R    *bufio.Reader
}

// Dial connects a Client to addr on n.
func Dial(n *netsim.Network, addr string) (*Client, error) {
	conn, err := n.Dial(context.Background(), netip.MustParseAddrPort(addr))
	if err != nil {
		return nil, err
	}
	return &Client{Conn: conn, R: bufio.NewReader(conn)}, nil
}

// Send writes one bodyless request.
func (c *Client) Send(method, target string) error {
	c.Conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, err := io.WriteString(c.Conn, method+" "+target+" HTTP/1.1\r\nHost: test\r\n\r\n")
	return err
}

// Read reads one response: status, headers, and the Content-Length body.
func (c *Client) Read() (status int, hdr textproto.MIMEHeader, body []byte, err error) {
	c.Conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	tp := textproto.NewReader(c.R)
	line, err := tp.ReadLine()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read status line: %w", err)
	}
	if _, err := fmt.Sscanf(line, "HTTP/1.1 %d", &status); err != nil {
		return 0, nil, nil, fmt.Errorf("malformed status line %q", line)
	}
	if hdr, err = tp.ReadMIMEHeader(); err != nil {
		return 0, nil, nil, fmt.Errorf("read header: %w", err)
	}
	length, err := strconv.Atoi(hdr.Get("Content-Length"))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("missing content-length: %v", hdr)
	}
	body = make([]byte, length)
	if _, err := io.ReadFull(c.R, body); err != nil {
		return 0, nil, nil, fmt.Errorf("read body: %w", err)
	}
	return status, hdr, body, nil
}

// Do performs one request, requires wantStatus, decodes the JSON answer
// into out when out is non-nil, and returns the response headers.
func (c *Client) Do(method, target string, wantStatus int, out any) (textproto.MIMEHeader, error) {
	if err := c.Send(method, target); err != nil {
		return nil, fmt.Errorf("write %s %s: %w", method, target, err)
	}
	status, hdr, body, err := c.Read()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, target, err)
	}
	if status != wantStatus {
		return hdr, fmt.Errorf("%s %s = %d (%s), want %d", method, target, status, body, wantStatus)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return hdr, fmt.Errorf("%s %s: decode %q: %w", method, target, body, err)
		}
	}
	return hdr, nil
}
