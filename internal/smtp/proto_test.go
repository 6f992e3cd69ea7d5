package smtp

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestDotStuffRoundTripProperty: any message body written through the
// dot-stuffing writer and read back through the dot-stripping reader is
// byte-identical modulo line-ending canonicalization.
func TestDotStuffRoundTripProperty(t *testing.T) {
	f := func(lines [][]byte) bool {
		// Build a CRLF-canonical body from arbitrary line content (the
		// writer transmits whatever line endings it is given; SMTP bodies
		// are CRLF-delimited, so generate them that way).
		var body bytes.Buffer
		for _, line := range lines {
			clean := bytes.Map(func(r rune) rune {
				if r == '\r' || r == '\n' {
					return '.'
				}
				return r
			}, line)
			body.Write(clean)
			body.WriteString("\r\n")
		}
		var wire bytes.Buffer
		dw := newDotWriter(&wire)
		if _, err := dw.Write(body.Bytes()); err != nil {
			return false
		}
		if err := dw.Close(); err != nil {
			return false
		}
		// The wire form must end with the terminator; an empty body is
		// just the terminator line.
		if body.Len() == 0 {
			if wire.String() != ".\r\n" {
				return false
			}
		} else if !bytes.HasSuffix(wire.Bytes(), []byte("\r\n.\r\n")) {
			return false
		}
		dr := newDotReader(newReader(&wire), 1<<20)
		decoded, err := io.ReadAll(dr)
		if err != nil {
			return false
		}
		return bytes.Equal(decoded, body.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDotStuffLeadingDots(t *testing.T) {
	body := ".\r\n..\r\n.leading\r\nnormal\r\n"
	var wire bytes.Buffer
	dw := newDotWriter(&wire)
	if _, err := dw.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	// Every line that began with '.' must have been doubled on the wire.
	wireLines := strings.Split(wire.String(), "\r\n")
	if wireLines[0] != ".." || wireLines[1] != "..." || wireLines[2] != "..leading" {
		t.Errorf("wire lines = %q", wireLines[:3])
	}
	dr := newDotReader(newReader(&wire), 1<<20)
	decoded, err := io.ReadAll(dr)
	if err != nil {
		t.Fatal(err)
	}
	if string(decoded) != body {
		t.Errorf("decoded = %q, want %q", decoded, body)
	}
}

func TestDotWriterAddsFinalCRLF(t *testing.T) {
	var wire bytes.Buffer
	dw := newDotWriter(&wire)
	dw.Write([]byte("no trailing newline"))
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(wire.String(), "no trailing newline\r\n.\r\n") {
		t.Errorf("wire = %q", wire.String())
	}
}

func TestDotReaderSizeLimitRecovers(t *testing.T) {
	// Oversized bodies are consumed to the terminator and flagged.
	wire := strings.Repeat("x", 100) + "\r\n" + strings.Repeat("y", 100) + "\r\n.\r\nNEXT\r\n"
	rd := newReader(strings.NewReader(wire))
	dr := newDotReader(rd, 50)
	if _, err := io.ReadAll(dr); err != nil {
		t.Fatal(err)
	}
	if !dr.tooLong {
		t.Error("size overflow not flagged")
	}
	// The protocol stream continues cleanly after the terminator.
	line, err := rd.line()
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if line != "NEXT" {
		t.Errorf("stream after terminator = %q", line)
	}
}

func TestCommandParsing(t *testing.T) {
	cases := []struct{ in, verb, arg string }{
		{"EHLO example.com", "EHLO", "example.com"},
		{"ehlo example.com", "EHLO", "example.com"},
		{"QUIT", "QUIT", ""},
		{"MAIL FROM:<a@b.c> SIZE=100", "MAIL", "FROM:<a@b.c> SIZE=100"},
		{"", "", ""},
	}
	for _, c := range cases {
		verb, arg := command(c.in)
		if verb != c.verb || arg != c.arg {
			t.Errorf("command(%q) = (%q, %q), want (%q, %q)", c.in, verb, arg, c.verb, c.arg)
		}
	}
}

func TestReaderLineTooLong(t *testing.T) {
	// Within the buffer, just past it, and many buffers long: each is
	// reported once and the line after it still parses.
	for _, n := range []int{maxLineLen + 10, 2*maxLineLen + 1, 20 * maxLineLen} {
		rd := newReader(strings.NewReader(strings.Repeat("a", n) + "\r\nNOOP\r\n"))
		if _, err := rd.line(); err != ErrLineTooLong {
			t.Errorf("%d bytes: err = %v, want ErrLineTooLong", n, err)
		}
		if got, err := rd.line(); got != "NOOP" || err != nil {
			t.Errorf("%d bytes: next line = %q, %v, want NOOP", n, got, err)
		}
	}
	// The longest line that is still legal, terminator included.
	rd := newReader(strings.NewReader(strings.Repeat("a", maxLineLen-2) + "\r\n"))
	if got, err := rd.line(); len(got) != maxLineLen-2 || err != nil {
		t.Errorf("limit-length line = %d bytes, %v, want %d", len(got), err, maxLineLen-2)
	}
}

// endlessLine yields n bytes with no newline among them, then EOF.
type endlessLine struct{ n int }

func (e *endlessLine) Read(p []byte) (int, error) {
	if e.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), e.n)
	for i := range p[:n] {
		p[i] = 'a'
	}
	e.n -= n
	return n, nil
}

// TestReaderLineBoundedAllocation is the regression test for the line
// reader buffering before it bounded: a peer that never sends a newline
// used to grow the line until the read deadline, on the server and on
// the scanner's client side alike.
func TestReaderLineBoundedAllocation(t *testing.T) {
	const flood = 64 << 20
	rd := newReader(&endlessLine{n: flood})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := rd.line()
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Errorf("err = %v, want io.EOF after the flood", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("reading a %d MiB line allocated %d bytes, want under 64 KiB", flood>>20, grew)
	}
}
