package smtp

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
)

// A Dialer abstracts connection establishment so the same client code
// runs against the real network (net.Dialer) and the simulated fabric
// (netsim.Network).
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// ScanResult captures everything a Censys-style port-25 scan learns from
// one SMTP endpoint.
type ScanResult struct {
	// Connected reports whether the TCP connection succeeded. When false
	// the other fields are empty and Err explains why.
	Connected bool
	// Banner is the text after the 220 greeting code.
	Banner string
	// BannerHost is the first whitespace-delimited token of the banner,
	// conventionally the server's identity.
	BannerHost string
	// EHLOHost is the identity on the first line of the EHLO response.
	EHLOHost string
	// SupportsSTARTTLS reports whether STARTTLS was advertised.
	SupportsSTARTTLS bool
	// TLSHandshakeOK reports whether the STARTTLS upgrade completed.
	TLSHandshakeOK bool
	// PeerCertificates is the presented chain, leaf first.
	PeerCertificates []*x509.Certificate
	// Err records the first failure encountered; partial data remains
	// valid (e.g. banner collected but STARTTLS failed).
	Err error
}

// scanHELOName is the identity the scanner presents.
const scanHELOName = "scanner.invalid"

// ScanConfig parameterizes a scan.
type ScanConfig struct {
	// Dialer establishes connections. Required.
	Dialer Dialer
	// Timeout bounds the entire scan of one endpoint (default 10s).
	Timeout time.Duration
	// SkipSTARTTLS collects only banner and EHLO.
	SkipSTARTTLS bool
}

// Scan performs a measurement hand-shake against addr ("ip:25"): read
// banner, send EHLO, optionally upgrade via STARTTLS recording the
// certificate chain, then QUIT. The returned result is never nil.
func Scan(ctx context.Context, addr string, cfg ScanConfig) *ScanResult {
	res := &ScanResult{}
	if cfg.Dialer == nil {
		res.Err = fmt.Errorf("smtp: scan requires a dialer")
		return res
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	conn, err := cfg.Dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		res.Err = fmt.Errorf("smtp: dial %s: %w", addr, err)
		return res
	}
	defer conn.Close()
	if d, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(d); err != nil {
			res.Err = err
			return res
		}
	}
	// A cancelled context must abort an in-flight read promptly, not
	// after the scan timeout: expire the connection's deadline on cancel.
	// The dialed connection, not the variable: conn is reassigned at
	// STARTTLS while the cancel may be running, and the TLS session
	// reads through this one.
	dialed := conn
	stop := context.AfterFunc(ctx, func() { dialed.SetDeadline(time.Now()) })
	defer stop()
	res.Connected = true

	rd := newReader(conn)
	greeting, err := readReply(rd)
	if err != nil {
		res.Err = fmt.Errorf("smtp: read banner: %w", err)
		return res
	}
	if greeting.Code != 220 {
		res.Err = fmt.Errorf("smtp: unexpected greeting %d", greeting.Code)
		return res
	}
	res.Banner = strings.Join(greeting.Lines, " ")
	if fields := strings.Fields(res.Banner); len(fields) > 0 {
		res.BannerHost = fields[0]
	}

	ehlo, err := exchange(conn, rd, "EHLO "+scanHELOName)
	if err != nil {
		res.Err = fmt.Errorf("smtp: EHLO: %w", err)
		return res
	}
	if ehlo.Code == 250 && len(ehlo.Lines) > 0 {
		if fields := strings.Fields(ehlo.Lines[0]); len(fields) > 0 {
			res.EHLOHost = fields[0]
		}
		for _, line := range ehlo.Lines[1:] {
			if strings.EqualFold(strings.TrimSpace(line), "STARTTLS") {
				res.SupportsSTARTTLS = true
			}
		}
	}

	if res.SupportsSTARTTLS && !cfg.SkipSTARTTLS {
		tlsConn := scanSTARTTLS(conn, rd, res)
		if tlsConn == nil {
			return res
		}
		// The session continues over TLS; QUIT goes through the new conn.
		conn, rd = tlsConn, newReader(tlsConn)
	}
	// Best-effort QUIT; scan data is already collected.
	exchange(conn, rd, "QUIT")
	return res
}

// scanSTARTTLS upgrades the session and records the presented chain. It
// returns the TLS connection, or nil with res.Err set when the upgrade
// failed.
func scanSTARTTLS(conn net.Conn, rd *reader, res *ScanResult) net.Conn {
	rep, err := exchange(conn, rd, "STARTTLS")
	if err != nil {
		res.Err = fmt.Errorf("smtp: STARTTLS: %w", err)
		return nil
	}
	if rep.Code != 220 {
		res.Err = fmt.Errorf("smtp: STARTTLS refused with %d", rep.Code)
		return nil
	}
	// The scanner records certificates without verifying them:
	// verification is the methodology's job.
	tlsConn := tls.Client(conn, &tls.Config{InsecureSkipVerify: true})
	if err := tlsConn.Handshake(); err != nil {
		res.Err = fmt.Errorf("smtp: TLS handshake: %w", err)
		return nil
	}
	res.TLSHandshakeOK = true
	res.PeerCertificates = tlsConn.ConnectionState().PeerCertificates
	return tlsConn
}

func exchange(conn io.Writer, rd *reader, cmd string) (Reply, error) {
	if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
		return Reply{}, err
	}
	return readReply(rd)
}
