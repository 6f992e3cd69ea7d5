package dataset

import (
	"errors"
	"fmt"
)

// The words a domain or ip record without its key fails with.
var (
	errNoDomainName = errors.New("domain line without a name")
	errNoIPAddr     = errors.New("ip line without an address")
)

// lineRules is the one statement of what a line of the snapshot file may
// be — a committed snapshot and a shard alike. Both of the format's line
// loops step it once per line: decodeAhead, behind Read, ReadFile, every
// Stream pass, fsck and a resume's read of leftover shards, and Merge's
// shardReader. So a file one reader accepts every reader accepts,
// and a file one rejects every one rejects at the same line, with the
// same words. The rules:
//
//   - the header line comes first, and exactly once;
//   - every domain and ip line has its body and a non-empty key (the
//     domain name, the address);
//   - all domain lines come before any ip line;
//   - a footer is optional, and when there is one it is the last
//     non-empty line and agrees with the body: its counts, and its first
//     and last domain name.
//
// Order within a section and repeated keys are not line rules: an
// unsorted snapshot reads, and only a merge needs its shards sorted.
type lineRules struct {
	name string // the file's path in errors, "" for a bare reader
	line int    // lines stepped so far, blank ones included

	header, footer bool   // seen
	domains, ips   int    // record lines so far
	first          string // the first domain name
	last           []byte // the latest domain name

	// tails holds the domain-line tails the walk has decoded (see
	// tailTable). step makes it on the first line; Merge's shard readers,
	// which run on one goroutine, are handed one to share.
	tails tailTable
	// tail is what tails made of the domain line last stepped.
	tail lineTail
}

// step decodes raw, the next line of the file, into l (see decodeLine),
// holds it to the rules and returns its key. A blank line sets l.Kind to
// "". The error is a *lineError naming the line.
func (c *lineRules) step(raw []byte, l *jsonLine) ([]byte, error) {
	c.line++
	if len(raw) == 0 {
		l.Kind = ""
		return nil, nil
	}
	if c.footer {
		return nil, c.fail(errors.New("trailing data after footer"))
	}
	if c.tails == nil {
		c.tails = make(tailTable)
	}
	key, tail, err := decodeLine(raw, l, c.tails)
	c.tail = tail
	if err == nil {
		err = c.check(l, key)
	}
	if err != nil {
		return nil, c.fail(err)
	}
	return key, nil
}

func (c *lineRules) check(l *jsonLine, key []byte) error {
	switch l.Kind {
	case "snapshot":
		switch {
		case c.header:
			return errors.New("duplicate header")
		case l.Header == nil:
			return errors.New("header line without header")
		}
		c.header = true
	case "domain":
		switch {
		case !c.header:
			return errors.New("domain before header")
		case c.ips > 0:
			return errors.New("domain line after IP section")
		case len(key) == 0:
			return errNoDomainName
		}
		if c.domains == 0 {
			c.first = string(key)
		}
		c.last = append(c.last[:0], key...)
		c.domains++
	case "ip":
		switch {
		case !c.header:
			return errors.New("ip before header")
		case len(key) == 0:
			return errNoIPAddr
		}
		c.ips++
	case "footer":
		f := l.Footer
		switch {
		case !c.header:
			return errors.New("footer before header")
		case f == nil:
			return errors.New("footer line without footer")
		case f.Domains != c.domains || f.IPs != c.ips:
			return fmt.Errorf("footer counts (%d domains, %d ips) disagree with body (%d, %d)",
				f.Domains, f.IPs, c.domains, c.ips)
		case f.FirstDomain != c.first || f.LastDomain != string(c.last):
			return fmt.Errorf("footer domain range (%q to %q) disagrees with body (%q to %q)",
				f.FirstDomain, f.LastDomain, c.first, c.last)
		}
		c.footer = true
	default:
		return fmt.Errorf("unknown kind %q", l.Kind)
	}
	return nil
}

// end holds the end of the input to the rules: it must have had a header.
func (c *lineRules) end() error {
	if !c.header {
		return &lineError{name: c.name, err: errors.New("empty input")}
	}
	return nil
}

// fail places err at the line last stepped.
func (c *lineRules) fail(err error) error {
	return &lineError{name: c.name, line: c.line, err: err}
}

// cut places err at the line after the last one stepped: where a stream
// that broke (a truncated gzip member, an oversize line) stopped making
// lines, or where a missing line should have been.
func (c *lineRules) cut(err error) error {
	return &lineError{name: c.name, line: c.line + 1, err: err}
}

// lineError is what every reader of the format reports for a file that
// breaks the rules: "dataset: PATH: line N: …".
type lineError struct {
	name string
	line int // 0 when the error is the input's as a whole
	err  error
}

func (e *lineError) Error() string {
	prefix := "dataset: "
	if e.name != "" {
		prefix += e.name + ": "
	}
	return prefix + e.where()
}

// where is the error without the file: "line N: …", as fsck reports it.
func (e *lineError) where() string {
	if e.line == 0 {
		return e.err.Error()
	}
	return fmt.Sprintf("line %d: %v", e.line, e.err)
}

func (e *lineError) Unwrap() error { return e.err }
