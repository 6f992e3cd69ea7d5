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
	// Extensions lists the capabilities advertised in the EHLO response.
	Extensions []string
	// SupportsSTARTTLS reports whether STARTTLS was advertised.
	SupportsSTARTTLS bool
	// TLSHandshakeOK reports whether the STARTTLS upgrade completed.
	TLSHandshakeOK bool
	// PeerCertificates is the presented chain, leaf first.
	PeerCertificates []*x509.Certificate
	// Err records the first failure encountered; partial data remains
	// valid (e.g. banner collected but STARTTLS failed).
	Err error

	// tlsConn carries the upgraded connection between the STARTTLS step
	// and the closing QUIT.
	tlsConn net.Conn
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
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
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
			ext := strings.ToUpper(strings.TrimSpace(line))
			res.Extensions = append(res.Extensions, ext)
			if ext == "STARTTLS" {
				res.SupportsSTARTTLS = true
			}
		}
	}

	if res.SupportsSTARTTLS && !cfg.SkipSTARTTLS {
		scanSTARTTLS(conn, rd, res)
		if res.TLSHandshakeOK {
			// Connection is now TLS; re-wrap for the QUIT below.
			return quitAndReturn(res, res.tlsConn, newReader(res.tlsConn))
		}
		return res
	}
	return quitAndReturn(res, conn, rd)
}

// tlsConn is stashed on the result between STARTTLS and QUIT.
// (kept unexported; consumers only see PeerCertificates)

func scanSTARTTLS(conn net.Conn, rd *reader, res *ScanResult) {
	rep, err := exchange(conn, rd, "STARTTLS")
	if err != nil {
		res.Err = fmt.Errorf("smtp: STARTTLS: %w", err)
		return
	}
	if rep.Code != 220 {
		res.Err = fmt.Errorf("smtp: STARTTLS refused with %d", rep.Code)
		return
	}
	// The scanner records certificates without verifying them:
	// verification is the methodology's job.
	tlsConn := tls.Client(conn, &tls.Config{InsecureSkipVerify: true})
	if err := tlsConn.Handshake(); err != nil {
		res.Err = fmt.Errorf("smtp: TLS handshake: %w", err)
		return
	}
	state := tlsConn.ConnectionState()
	res.TLSHandshakeOK = true
	res.PeerCertificates = state.PeerCertificates
	res.tlsConn = tlsConn
}

func quitAndReturn(res *ScanResult, conn net.Conn, rd *reader) *ScanResult {
	// Best-effort QUIT; scan data is already collected.
	if _, err := fmt.Fprintf(conn, "QUIT\r\n"); err == nil {
		readReply(rd)
	}
	return res
}

func exchange(conn io.Writer, rd *reader, cmd string) (Reply, error) {
	if _, err := fmt.Fprintf(conn, "%s\r\n", cmd); err != nil {
		return Reply{}, err
	}
	return readReply(rd)
}

// Submit delivers a message to a submission agent (RFC 6409),
// authenticating with AUTH PLAIN after the TLS upgrade. It is SendMail's
// MSA-facing sibling: port 587 semantics instead of port 25 relay.
func Submit(ctx context.Context, dialer Dialer, addr, heloName string, auth ClientAuth, from string, to []string, body []byte, tlsCfg *tls.Config) error {
	return sendMail(ctx, dialer, addr, heloName, &auth, from, to, body, tlsCfg)
}

// SendMail relays one message to addr as an MTA would, used by the
// end-to-end examples. It speaks EHLO, upgrades via STARTTLS when offered
// (verifying with tlsCfg when provided; opportunistically otherwise), and
// submits the envelope.
func SendMail(ctx context.Context, dialer Dialer, addr, heloName, from string, to []string, body []byte, tlsCfg *tls.Config) error {
	return sendMail(ctx, dialer, addr, heloName, nil, from, to, body, tlsCfg)
}

func sendMail(ctx context.Context, dialer Dialer, addr, heloName string, auth *ClientAuth, from string, to []string, body []byte, tlsCfg *tls.Config) error {
	if dialer == nil {
		return fmt.Errorf("smtp: SendMail requires a dialer")
	}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("smtp: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if d, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(d); err != nil {
			return err
		}
	}
	rd := newReader(conn)
	if rep, err := readReply(rd); err != nil || rep.Code != 220 {
		return fmt.Errorf("smtp: greeting failed: %v (%w)", rep, err)
	}
	ehlo, err := exchange(conn, rd, "EHLO "+heloName)
	if err != nil || ehlo.Code != 250 {
		return fmt.Errorf("smtp: EHLO failed: %v (%w)", ehlo, err)
	}
	if replyAdvertises(ehlo, "STARTTLS") {
		rep, err := exchange(conn, rd, "STARTTLS")
		if err != nil || rep.Code != 220 {
			return fmt.Errorf("smtp: STARTTLS failed: %v (%w)", rep, err)
		}
		var tcfg *tls.Config
		if tlsCfg != nil {
			tcfg = tlsCfg.Clone()
			if tcfg.ServerName == "" {
				host, _, _ := net.SplitHostPort(addr)
				tcfg.ServerName = host
			}
		} else {
			// Opportunistic TLS, as real MTAs do when validation is not
			// configured (the paper notes sessions continue even when
			// certificates do not validate).
			host, _, _ := net.SplitHostPort(addr)
			tcfg = &tls.Config{ServerName: host, InsecureSkipVerify: true}
		}
		tlsConn := tls.Client(conn, tcfg)
		if err := tlsConn.Handshake(); err != nil {
			return fmt.Errorf("smtp: TLS: %w", err)
		}
		conn = tlsConn
		rd = newReader(conn)
		if rep, err := exchange(conn, rd, "EHLO "+heloName); err != nil || rep.Code != 250 {
			return fmt.Errorf("smtp: EHLO after TLS failed: %v (%w)", rep, err)
		}
	}
	if auth != nil {
		if err := auth.authenticate(conn, rd); err != nil {
			return err
		}
	}
	if rep, err := exchange(conn, rd, "MAIL FROM:<"+from+">"); err != nil || rep.Code != 250 {
		return fmt.Errorf("smtp: MAIL failed: %v (%w)", rep, err)
	}
	for _, rcpt := range to {
		if rep, err := exchange(conn, rd, "RCPT TO:<"+rcpt+">"); err != nil || rep.Code != 250 {
			return fmt.Errorf("smtp: RCPT %s failed: %v (%w)", rcpt, rep, err)
		}
	}
	if rep, err := exchange(conn, rd, "DATA"); err != nil || rep.Code != 354 {
		return fmt.Errorf("smtp: DATA failed: %v (%w)", rep, err)
	}
	dw := newDotWriter(conn)
	if _, err := dw.Write(body); err != nil {
		return err
	}
	if err := dw.Close(); err != nil {
		return err
	}
	if rep, err := readReply(rd); err != nil || rep.Code != 250 {
		return fmt.Errorf("smtp: message rejected: %v (%w)", rep, err)
	}
	exchange(conn, rd, "QUIT")
	return nil
}

func replyAdvertises(rep Reply, ext string) bool {
	for _, line := range rep.Lines[min(1, len(rep.Lines)):] {
		if strings.EqualFold(strings.TrimSpace(line), ext) {
			return true
		}
	}
	return false
}
