package ha

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mxmap/internal/serve"
)

// wireReply is a response as serve.Server writes it.
func wireReply(status int, text, extraHeaders, body string) string {
	return fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s",
		status, text, len(body), extraHeaders, body)
}

// headerFacts scans a raw reply's header block, independently of the
// parser under test, for what the parser must have concluded: whether a
// Connection: close header is there, the Content-Length, and whether two
// Content-Length headers disagree (such a reply must not be accepted).
func headerFacts(reply []byte) (connClose bool, length int, conflict bool) {
	length = -1
	lines := strings.Split(string(reply), "\n")
	for _, line := range lines[1:] {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			break
		}
		key, val, _ := strings.Cut(line, ":")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if strings.EqualFold(key, "connection") && strings.EqualFold(val, "close") {
			connClose = true
		}
		if strings.EqualFold(key, "content-length") {
			n, _ := strconv.Atoi(val)
			conflict = conflict || (length >= 0 && n != length)
			length = n
		}
	}
	return connClose, length, conflict
}

// FuzzReadUpstream hammers the balancer's response parser, which reads
// whatever a replica's address sends and now also decides whether the
// connection is reused. The invariants: serve.ReadResponse never panics;
// an accepted reply carries exactly Content-Length body bytes, at most
// serve.MaxResponseBody, and no second Content-Length that says
// otherwise; the close flag is set iff the header block held a
// Connection: close; and the parser takes nothing beyond the one reply,
// so a second reply pipelined behind it parses intact.
func FuzzReadUpstream(f *testing.F) {
	seeds := []string{
		// What replicas really send.
		wireReply(200, "OK", "", `{"domain":"one.example","found":true}`),
		wireReply(429, "Too Many Requests", "Retry-After: 1\r\n", `{"error":"overloaded, retry later"}`),
		wireReply(200, "OK", "Connection: close\r\n", `{"state":"serving"}`),
		wireReply(400, "Bad Request", "Connection: close\r\n", `{"error":"malformed request"}`),
		wireReply(200, "OK", "", ""),
		wireReply(200, "OK", "CONNECTION:   Close  \r\n", "{}"),
		wireReply(200, "OK", "Connection: keep-alive\r\n", "{}"),
		wireReply(200, "OK", "", "{}") + "stray",
		// Bounds: body, header count, line length.
		fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", serve.MaxResponseBody+1),
		"HTTP/1.1 200 OK\r\n" + strings.Repeat("A: b\r\n", 64+1) + "Content-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: " + strings.Repeat("b", 9<<10) + "\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: " + strings.Repeat("b", 5000) + "\r\nContent-Length: 2\r\n\r\n{}",
		// Malformed and truncated.
		"",
		"\r\n",
		"HTTP/2 200 OK\r\n\r\n",
		"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 99 Low\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nnocolon\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{\"pa",
		"HTTP/1.1 200 OK\r\nContent-Le",
		"HTTP/1.1 200 OK\nContent-Length: 2\n\n{}",
		"\xff\xfe\xfd",
		// Two Content-Lengths that disagree: where does the reply end?
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 0\r\n\r\n{}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	second := wireReply(503, "Service Unavailable", "Retry-After: 1\r\nConnection: close\r\n", `{"error":"draining"}`)

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		resp, err := serve.ReadResponse(br)
		if err != nil {
			return
		}
		if resp.Status < 100 || resp.Status > 599 {
			t.Fatalf("accepted status %d", resp.Status)
		}
		if len(resp.Body) > serve.MaxResponseBody {
			t.Fatalf("accepted a %d-byte body, bound is %d", len(resp.Body), serve.MaxResponseBody)
		}
		consumed := len(data) - src.Len() - br.Buffered()
		if !bytes.HasSuffix(data[:consumed], resp.Body) {
			t.Fatalf("body %q is not the %d bytes the reply ended with", resp.Body, len(resp.Body))
		}
		wantClose, wantLen, conflict := headerFacts(data[:consumed])
		if conflict {
			t.Fatalf("accepted a reply with conflicting Content-Length headers: %q", data[:consumed])
		}
		if resp.Close != wantClose || len(resp.Body) != wantLen {
			t.Fatalf("close flag %v with a %d-byte body, header block says %v and %d: %q",
				resp.Close, len(resp.Body), wantClose, wantLen, data[:consumed])
		}

		// The same reply with another pipelined behind it: both intact.
		br = bufio.NewReader(strings.NewReader(string(data[:consumed]) + second))
		again, err := serve.ReadResponse(br)
		if err != nil || again.Status != resp.Status || !bytes.Equal(again.Body, resp.Body) {
			t.Fatalf("pipelined first reply = %+v (%v), want %+v", again, err, resp)
		}
		next, err := serve.ReadResponse(br)
		if err != nil || next.Status != 503 || !next.RetryAfter || !next.Close ||
			string(next.Body) != `{"error":"draining"}` || br.Buffered() != 0 {
			t.Fatalf("pipelined second reply = %+v (%v), %d bytes left", next, err, br.Buffered())
		}
	})
}
