package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
)

// Wire limits: one start line or header may not exceed maxLineBytes, and
// a message may carry at most maxHeaderLines headers. Both bound what a
// hostile peer can make the reader buffer, as MaxResponseBody does for
// the one body ReadResponse accepts.
const (
	maxLineBytes   = 8192
	maxHeaderLines = 64
	// MaxResponseBody is the largest Content-Length ReadResponse takes.
	MaxResponseBody = 16 << 20
)

var (
	errMalformed   = errors.New("serve: malformed message")
	errLineTooLong = errors.New("serve: line too long")
)

// Request is one parsed HTTP/1.1 GET/POST request. The service is
// read-only over small query strings, so bodies are rejected outright.
// It is exported so alternative front-ends (the HA balancer) can plug
// into the Server through Config.Handler.
type Request struct {
	Method string
	Path   string
	Query  url.Values
	// Close records a Connection: close header (or HTTP/1.0 without
	// keep-alive): the connection ends after this response.
	Close bool
}

// Response is one answer ready to write.
type Response struct {
	Status     int
	Body       []byte
	RetryAfter bool
	Close      bool
}

// readRequest parses one request off the wire. It returns io.EOF (or the
// transport's own error, e.g. a peer reset) only when the connection
// ended between requests, before any byte of the next one; a connection
// that ends mid-request surfaces as a malformed-request error. Timeout
// errors pass through for the caller to classify against the slowloris
// deadline.
func readRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	method, rest, ok := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok || !ok2 || method == "" || target == "" ||
		(proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return nil, errMalformed
	}
	// Control bytes never belong in a request line. The space Cuts above
	// only split on SP, so a bare CR (or NUL, tab, DEL...) would otherwise
	// ride straight into Path — and from there into anything that
	// re-serializes the request, a classic request-splitting vector. And
	// only origin-form targets are served, which also guarantees Path is
	// never empty (a target of just "?query" would otherwise slip by).
	if hasCTL(method) || hasCTL(target) || target[0] != '/' {
		return nil, errMalformed
	}
	req := &Request{Method: method, Close: proto == "HTTP/1.0"}
	path, rawQuery, _ := strings.Cut(target, "?")
	req.Path = path
	req.Query = url.Values{}
	if rawQuery != "" {
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			return nil, errMalformed
		}
		req.Query = q
	}
	err = readHeaders(br, func(key, value string) error {
		switch key {
		case "connection":
			switch strings.ToLower(value) {
			case "close":
				req.Close = true
			case "keep-alive":
				req.Close = false
			}
		case "content-length":
			if value != "" && value != "0" {
				return errMalformed // bodies are not accepted
			}
		case "transfer-encoding":
			return errMalformed
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse parses one bounded HTTP/1.1 response off the wire, the
// client half of this codec (the HA balancer reads its replicas with
// it): status line, headers (Content-Length, Retry-After and Connection
// are the only ones interpreted), then exactly Content-Length body
// bytes. It never takes more off the reader than the one reply, so the
// next reply on a keep-alive connection starts where this one ended —
// which is also why a reply whose Content-Length headers disagree is
// rejected rather than resolved (repeats of one value pass, RFC 9110
// §8.6). Close reports a Connection: close header.
func ReadResponse(br *bufio.Reader) (Response, error) {
	var resp Response
	line, err := readLine(br)
	if err != nil {
		return resp, err
	}
	proto, rest, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(rest, " ")
	resp.Status, err = strconv.Atoi(code)
	if err != nil || resp.Status < 100 || resp.Status > 599 || !strings.HasPrefix(proto, "HTTP/1.") {
		return resp, fmt.Errorf("serve: malformed status line %q", line)
	}
	length := -1
	err = readHeaders(br, func(key, value string) error {
		switch key {
		case "content-length":
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 || n > MaxResponseBody || (length >= 0 && n != length) {
				return fmt.Errorf("serve: bad content-length %q", value)
			}
			length = n
		case "retry-after":
			resp.RetryAfter = true
		case "connection":
			if strings.EqualFold(value, "close") {
				resp.Close = true
			}
		}
		return nil
	})
	if err != nil {
		return resp, err
	}
	if length < 0 {
		return resp, errors.New("serve: missing content-length")
	}
	resp.Body = make([]byte, length)
	_, err = io.ReadFull(br, resp.Body)
	return resp, err
}

// readHeaders walks one header block through its blank line, handing
// field each header's lower-cased name and trimmed value.
func readHeaders(br *bufio.Reader, field func(key, value string) error) error {
	for i := 0; ; i++ {
		if i > maxHeaderLines {
			return errMalformed
		}
		h, err := readLine(br)
		if err != nil {
			if err != errLineTooLong && !isTimeout(err) {
				err = errMalformed // the peer went away inside the header block
			}
			return err
		}
		if h == "" {
			return nil
		}
		key, value, ok := strings.Cut(h, ":")
		if !ok {
			return errMalformed
		}
		if err := field(strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(value)); err != nil {
			return err
		}
	}
}

// hasCTL reports whether s contains an ASCII control byte (including
// DEL). Multi-byte UTF-8 sequences pass: every byte of those is >= 0x80.
func hasCTL(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// readLine reads one CRLF- (or LF-) terminated line, bounded by
// maxLineBytes regardless of how much the peer pushes. A line that fits
// the reader's buffer (every line this package writes) costs the one
// string allocation; only a longer one is accumulated.
func readLine(br *bufio.Reader) (string, error) {
	var long []byte
	for {
		frag, err := br.ReadSlice('\n')
		if err == nil && long == nil && len(frag) <= maxLineBytes {
			return string(bytes.TrimRight(frag, "\r\n")), nil
		}
		long = append(long, frag...)
		switch {
		case err == nil || err == bufio.ErrBufferFull:
			if len(long) > maxLineBytes {
				return "", errLineTooLong
			}
			if err == nil {
				return string(bytes.TrimRight(long, "\r\n")), nil
			}
		case len(long) > 0 && !isTimeout(err):
			return "", errMalformed // line cut off mid-flight
		default:
			return "", err
		}
	}
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 409:
		return "Conflict"
	case 429:
		return "Too Many Requests"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	case 504:
		return "Gateway Timeout"
	}
	return "Status"
}

// appendResponse appends r's wire form to dst. No Date header:
// responses are byte-reproducible for the determinism contracts the
// repo keeps.
func appendResponse(dst []byte, r Response, retryAfterSecs int) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, statusText(r.Status)...)
	dst = append(dst, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(r.Body)), 10)
	dst = append(dst, "\r\n"...)
	if r.RetryAfter {
		dst = append(dst, "Retry-After: "...)
		dst = strconv.AppendInt(dst, int64(retryAfterSecs), 10)
		dst = append(dst, "\r\n"...)
	}
	if r.Close {
		dst = append(dst, "Connection: close\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, r.Body...)
}

// JSONResponse marshals v as the response body.
func JSONResponse(status int, v any) Response {
	b, err := json.Marshal(v)
	if err != nil {
		return ErrorResponse(500, "response encoding failure")
	}
	return Response{Status: status, Body: b}
}

// ErrorResponse is a JSON error envelope. 400s close the connection:
// after a malformed request the read position is untrustworthy. Every
// unavailability answer (429 by its caller, 503/504 here) carries
// Retry-After so clients always get a back-off hint — the loading,
// draining, and degraded paths included, not just queue shedding.
func ErrorResponse(status int, msg string) Response {
	b, _ := json.Marshal(errorBody{Error: msg})
	return Response{
		Status:     status,
		Body:       b,
		Close:      status == 400,
		RetryAfter: status == 503 || status == 504,
	}
}
