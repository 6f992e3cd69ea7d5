package smtp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// maxReplyLines is the most lines readReply accepts: 64 continuation
// lines and the final one.
const maxReplyLines = 65

// fitsWire reports whether the reply serialises into lines readReply's
// length cap admits (the cap counts the code, separator and CRLF).
func fitsWire(rep Reply) bool {
	for _, line := range rep.Lines {
		if 4+len(line)+2 > maxLineLen {
			return false
		}
	}
	return len(rep.Lines) <= maxReplyLines
}

// FuzzReply fuzzes the reply codec every banner and EHLO answer — a
// forged one included — reaches inference through, in both directions.
//
// Writer against reader: a well-formed reply (a three-digit code, one
// or more lines free of CR and LF, within the length and line caps)
// written by writeReply is read back by readReply as exactly that reply,
// with nothing left over.
//
// Reader alone: on arbitrary bytes readReply never panics, never holds
// more than the caps allow, and either fails or yields a reply whose
// code is the three digits the input starts with and whose own wire
// form it reads back as the same reply.
func FuzzReply(f *testing.F) {
	for _, seed := range []struct {
		wire string
		code int
		text string
	}{
		{"220 mx.google.com ESMTP gsmtp\r\n", 220, "mx.google.com ESMTP gsmtp"},
		{"220 localhost ESMTP ready\r\n", 220, "localhost ESMTP ready"},
		{"220 ip-100-64-1-2 ESMTP service ready\r\n", 220, "ip-100-64-1-2 ESMTP service ready"},
		{"250-mx1.outlook.com\r\n250-PIPELINING\r\n250-SIZE 10485760\r\n250-8BITMIME\r\n250 STARTTLS\r\n",
			250, "mx1.outlook.com\nPIPELINING\nSIZE 10485760\n8BITMIME\nSTARTTLS"},
		{"250\n", 250, ""},
		{"250-a\r\n251 b\r\n", 554, "5.7.1 rejected"},
		{"250+a\r\n", 0, "zero"},
		{"2x0 a\r\n", 999, "\t"},
		{"250 " + strings.Repeat("a", maxLineLen) + "\r\n250 ok\r\n", 421, strings.Repeat("a", maxLineLen-6)},
		{strings.Repeat("250-x\r\n", maxReplyLines) + "250 x\r\n", 250, strings.Repeat("x\n", maxReplyLines-1) + "x"},
		{"+25 x\r\n", 25, "x"},
		{"-12 x\r\n", -12, "x"},
	} {
		f.Add([]byte(seed.wire), seed.code, seed.text)
	}
	f.Fuzz(func(t *testing.T, wire []byte, code int, text string) {
		want := Reply{Code: code, Lines: strings.Split(text, "\n")}
		if code >= 0 && code <= 999 && !strings.Contains(text, "\r") && fitsWire(want) {
			var buf bytes.Buffer
			if err := writeReply(&buf, code, want.Lines...); err != nil {
				t.Fatalf("writeReply(%d, %q): %v", code, want.Lines, err)
			}
			rd := newReader(&buf)
			got, err := readReply(rd)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("wrote %+v, read back %+v, %v", want, got, err)
			}
			if rest, err := rd.line(); err == nil {
				t.Fatalf("wrote %+v, reader holds %q after it", want, rest)
			}
		}

		rep, err := readReply(newReader(bytes.NewReader(wire)))
		if len(rep.Lines) > maxReplyLines {
			t.Fatalf("%d reply lines held, cap is %d", len(rep.Lines), maxReplyLines)
		}
		for _, line := range rep.Lines {
			if len(line) > maxLineLen {
				t.Fatalf("reply line of %d bytes held, cap is %d", len(line), maxLineLen)
			}
		}
		if err != nil {
			return
		}
		// A reply that parsed began with its code: three ASCII digits,
		// no sign, nothing strconv would be more generous about.
		if got := fmt.Sprintf("%03d", rep.Code); len(got) != 3 || !bytes.HasPrefix(wire, []byte(got)) {
			t.Fatalf("read code %d from %q, which does not start with %q", rep.Code, wire, got)
		}
		if !fitsWire(rep) {
			// A line at the cap that arrived LF-terminated outgrows it
			// once re-serialised with CRLF.
			return
		}
		again, err := readReply(newReader(strings.NewReader(rep.String())))
		if err != nil || !reflect.DeepEqual(again, rep) {
			t.Fatalf("read %+v from %q; its wire form %q reads back %+v, %v", rep, wire, rep.String(), again, err)
		}
	})
}
