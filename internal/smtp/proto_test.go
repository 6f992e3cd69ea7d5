package smtp

import (
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestCommandParsing(t *testing.T) {
	cases := []struct{ in, verb string }{
		{"EHLO example.com", "EHLO"},
		{"ehlo example.com", "EHLO"},
		{"QUIT", "QUIT"},
		{"MAIL FROM:<a@b.c> SIZE=100", "MAIL"},
		{"", ""},
	}
	for _, c := range cases {
		if verb := command(c.in); verb != c.verb {
			t.Errorf("command(%q) = %q, want %q", c.in, verb, c.verb)
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
