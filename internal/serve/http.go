package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strings"
)

// Wire limits: one request line or header may not exceed maxLineBytes,
// and a request may carry at most maxHeaderLines headers. Both bound
// what a hostile client can make the server buffer.
const (
	maxLineBytes   = 8192
	maxHeaderLines = 64
)

var (
	errMalformed   = errors.New("serve: malformed request")
	errLineTooLong = errors.New("serve: request line too long")
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
	for i := 0; ; i++ {
		if i > maxHeaderLines {
			return nil, errMalformed
		}
		h, err := readLine(br)
		if err != nil {
			if err != errLineTooLong && !isTimeout(err) {
				err = errMalformed // the peer went away inside the header block
			}
			return nil, err
		}
		if h == "" {
			return req, nil
		}
		key, value, ok := strings.Cut(h, ":")
		if !ok {
			return nil, errMalformed
		}
		value = strings.TrimSpace(value)
		switch strings.ToLower(key) {
		case "connection":
			switch strings.ToLower(value) {
			case "close":
				req.Close = true
			case "keep-alive":
				req.Close = false
			}
		case "content-length":
			if value != "" && value != "0" {
				return nil, errMalformed // bodies are not accepted
			}
		case "transfer-encoding":
			return nil, errMalformed
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
// maxLineBytes regardless of how much the client pushes.
func readLine(br *bufio.Reader) (string, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(buf) > maxLineBytes {
				return "", errLineTooLong
			}
			continue
		}
		if len(buf) > 0 && !isTimeout(err) {
			return "", errMalformed // line cut off mid-flight
		}
		return "", err
	}
	if len(buf) > maxLineBytes {
		return "", errLineTooLong
	}
	return strings.TrimRight(string(buf), "\r\n"), nil
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

// appendResponse serializes r into buf. No Date header: responses are
// byte-reproducible for the determinism contracts the repo keeps.
func appendResponse(buf *bytes.Buffer, r Response, retryAfterSecs int) {
	fmt.Fprintf(buf, "HTTP/1.1 %d %s\r\n", r.Status, statusText(r.Status))
	buf.WriteString("Content-Type: application/json\r\n")
	fmt.Fprintf(buf, "Content-Length: %d\r\n", len(r.Body))
	if r.RetryAfter {
		fmt.Fprintf(buf, "Retry-After: %d\r\n", retryAfterSecs)
	}
	if r.Close {
		buf.WriteString("Connection: close\r\n")
	}
	buf.WriteString("\r\n")
	buf.Write(r.Body)
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
