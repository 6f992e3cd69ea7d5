// Package smtp implements the subset of the Simple Mail Transfer Protocol
// (RFC 5321) and the STARTTLS extension (RFC 3207) that the paper's
// measurement observes: servers that greet with a banner, respond to
// EHLO/HELO with their identity and extensions and upgrade to TLS
// presenting a certificate chain; and a client that scans those servers
// Censys-style. Nothing here moves mail: MAIL, RCPT, DATA and AUTH are
// answered 502 like any other command the server does not implement.
package smtp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// maxLineLen is the protocol line limit, chosen per RFC 5321 §4.5.3 with
// headroom.
const maxLineLen = 2048

// ErrLineTooLong reports a protocol line exceeding the length limit.
var ErrLineTooLong = errors.New("smtp: line too long")

// reader wraps a bufio.Reader with CRLF-terminated line framing and a
// length limit. The buffer outsizes maxLineLen, so a line that fills it
// is already over the limit and never has to be accumulated.
type reader struct {
	r *bufio.Reader
}

func newReader(r io.Reader) *reader {
	return &reader{r: bufio.NewReaderSize(r, 2*maxLineLen)}
}

// line reads one CRLF- (or LF-) terminated line without its terminator.
// An oversized line is discarded through its terminator, holding no
// more than the buffer however long the peer makes it, and reported as
// ErrLineTooLong; the next call reads the line after it.
func (rd *reader) line() (string, error) {
	frag, err := rd.r.ReadSlice('\n')
	tooLong := false
	for err == bufio.ErrBufferFull {
		tooLong = true
		frag, err = rd.r.ReadSlice('\n')
	}
	if err != nil {
		return "", err
	}
	if tooLong || len(frag) > maxLineLen {
		return "", ErrLineTooLong
	}
	return strings.TrimRight(string(frag), "\r\n"), nil
}

// command returns the upper-cased verb of a protocol line. No verb the
// server implements takes an argument it reads.
func command(line string) string {
	verb, _, _ := strings.Cut(line, " ")
	return strings.ToUpper(verb)
}

// Reply is one SMTP reply: a three-digit code and one or more text lines.
type Reply struct {
	Code  int
	Lines []string
}

// String renders the reply in wire form including CRLFs.
func (r Reply) String() string {
	if len(r.Lines) == 0 {
		return fmt.Sprintf("%03d \r\n", r.Code)
	}
	var sb strings.Builder
	for i, line := range r.Lines {
		sep := "-"
		if i == len(r.Lines)-1 {
			sep = " "
		}
		fmt.Fprintf(&sb, "%03d%s%s\r\n", r.Code, sep, line)
	}
	return sb.String()
}

// writeReply sends a reply over w.
func writeReply(w io.Writer, code int, lines ...string) error {
	if len(lines) == 0 {
		lines = []string{""}
	}
	_, err := io.WriteString(w, Reply{Code: code, Lines: lines}.String())
	return err
}

// readReply parses a (possibly multi-line) SMTP reply.
func readReply(rd *reader) (Reply, error) {
	var rep Reply
	for {
		line, err := rd.line()
		if err != nil {
			return rep, err
		}
		if len(line) < 3 {
			return rep, fmt.Errorf("smtp: short reply line %q", line)
		}
		// Exactly three ASCII digits: strconv.Atoi would read "+25" as 25.
		code := 0
		for i := 0; i < 3; i++ {
			c := line[i]
			if c < '0' || c > '9' {
				return rep, fmt.Errorf("smtp: bad reply code in %q", line)
			}
			code = code*10 + int(c-'0')
		}
		if rep.Code != 0 && code != rep.Code {
			return rep, fmt.Errorf("smtp: inconsistent reply codes %d and %d", rep.Code, code)
		}
		rep.Code = code
		sep := byte(' ')
		text := ""
		if len(line) > 3 {
			sep = line[3]
			text = line[4:]
		}
		rep.Lines = append(rep.Lines, text)
		switch sep {
		case ' ':
			return rep, nil
		case '-':
			if len(rep.Lines) > 64 {
				return rep, errors.New("smtp: reply has too many lines")
			}
		default:
			return rep, fmt.Errorf("smtp: bad separator %q in %q", sep, line)
		}
	}
}
