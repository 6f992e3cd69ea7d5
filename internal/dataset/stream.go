package dataset

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
)

// ErrStop may be returned from a ForEach callback to end iteration early
// without an error.
var ErrStop = errors.New("dataset: stop iteration")

// Stream is a snapshot on disk iterated without materializing it: the
// file is re-opened and decoded per pass, each line decoded once (by the
// line codec when it is in canonical form, see linecodec.go), and record
// structs are reused across callback invocations, so a pass over
// millions of domains holds one record in memory at a time.
// core.InferStream makes three passes: LoadIPs, then two over the
// domains.
//
// A Stream works over both canonical snapshot files (WriteFile / Merge
// output) and individual shard files (footer lines are skipped).
type Stream struct {
	// Path is the snapshot file.
	Path string
	// Date and Corpus come from the header line.
	Date, Corpus string
}

// OpenStream validates the header of the snapshot at path and returns a
// Stream over it.
func OpenStream(path string) (*Stream, error) {
	st := &Stream{Path: path}
	err := st.forEach(func(*DomainRecord) error { return ErrStop }, nil)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ForEach decodes the snapshot once, invoking domain for every domain
// line and ip for every IP line, in file order (domains sorted, then IPs
// sorted). Either callback may be nil to skip that section — a nil
// domain callback leaves domain lines checked but not stored. The record
// passed to a callback is reused on the next invocation, and a domain
// record's MX and MX[i].Addrs arrays are refilled in place: copy the
// record, those slices included, if it must outlive the call. A callback
// returning ErrStop ends the pass successfully.
func (st *Stream) ForEach(domain func(*DomainRecord) error, ip func(*IPInfo) error) error {
	return st.forEach(domain, ip)
}

func (st *Stream) forEach(domain func(*DomainRecord) error, ip func(*IPInfo) error) error {
	f, err := os.Open(st.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(st.Path, ".gz") {
		zr, err := getGzReader(f)
		if err != nil {
			return fmt.Errorf("dataset: %s: %w", st.Path, err)
		}
		defer putGzReader(zr)
		r = zr
	}
	sc, lineBuf := newLineScanner(r)
	defer putLineBuf(lineBuf)

	// Reused record holders: a canonical line refills them in place (see
	// decodeLine), so per-line allocation is limited to the records' own
	// strings. A section without a callback is walked, not stored.
	var (
		d         DomainRecord
		info      IPInfo
		l         jsonLine
		sawHeader bool
		lineno    int
	)
	var (
		wantDomain *DomainRecord
		wantIP     *IPInfo
	)
	if domain != nil {
		wantDomain = &d
	}
	if ip != nil {
		wantIP = &info
	}
	where := func() string { return fmt.Sprintf("dataset: %s: line %d", st.Path, lineno) }
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		l.Domain, l.IP = wantDomain, wantIP
		if _, err := decodeLine(raw, &l); err != nil {
			return fmt.Errorf("%s: %w", where(), err)
		}
		switch l.Kind {
		case "snapshot":
			if sawHeader {
				return fmt.Errorf("%s: duplicate header", where())
			}
			st.Date, st.Corpus = "", ""
			if l.Header != nil {
				st.Date, st.Corpus = l.Header.Date, l.Header.Corpus
			}
			sawHeader = true
		case "domain":
			if !sawHeader {
				return fmt.Errorf("%s: domain before header", where())
			}
			if domain == nil {
				continue
			}
			if l.Domain == nil {
				// A non-canonical line without a "domain" member.
				l.Domain = new(DomainRecord)
			}
			if err := domain(l.Domain); err != nil {
				if err == ErrStop {
					return nil
				}
				return err
			}
		case "ip":
			if !sawHeader {
				return fmt.Errorf("%s: ip before header", where())
			}
			if ip == nil {
				continue
			}
			if l.IP == nil {
				l.IP = new(IPInfo)
			}
			if err := ip(l.IP); err != nil {
				if err == ErrStop {
					return nil
				}
				return err
			}
		case "footer":
			// Shard files end with a footer; tolerate it so a Stream can
			// read an unmerged shard.
		default:
			return fmt.Errorf("%s: unknown kind %q", where(), l.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		lineno++
		return fmt.Errorf("%s: %w", where(), err)
	}
	if !sawHeader {
		return fmt.Errorf("dataset: %s: empty input", st.Path)
	}
	return nil
}

// LoadIPs materializes the stream's IP section as a Snapshot-shaped map.
// Provider concentration keeps the distinct-IP count orders of magnitude
// below the domain count, so inference over an out-of-core corpus can
// still hold every IP observation in memory while domains stream.
func (st *Stream) LoadIPs() (map[string]IPInfo, error) {
	ips := make(map[string]IPInfo)
	err := st.forEach(nil, func(info *IPInfo) error {
		ips[info.Addr.String()] = *info
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ips, nil
}

// Counts tallies the stream's record counts in one pass.
func (st *Stream) Counts() (domains, ips int, err error) {
	err = st.forEach(
		func(*DomainRecord) error { domains++; return nil },
		func(*IPInfo) error { ips++; return nil },
	)
	return domains, ips, err
}

// Health computes the snapshot failure summary in one streaming pass,
// equivalent to Snapshot.Health() of the materialized snapshot except
// for CollectionStats, which live with the collection run rather than
// the file (callers holding run stats can set them on the result).
func (st *Stream) Health() (*Health, error) {
	h := &Health{
		Domains:   make(map[FailureClass]int),
		Exchanges: make(map[FailureClass]int),
		IPs:       make(map[FailureClass]int),
	}
	seen := make(map[string]bool)
	covered, total := 0, 0
	err := st.forEach(
		func(d *DomainRecord) error {
			h.Domains[normalizeClass(d.Failure, domainFallback(d))]++
			for i := range d.MX {
				mx := &d.MX[i]
				if seen[mx.Exchange] {
					continue
				}
				seen[mx.Exchange] = true
				h.Exchanges[normalizeClass(mx.Failure, exchangeFallback(mx))]++
			}
			return nil
		},
		func(info *IPInfo) error {
			h.IPs[normalizeClass(info.Failure, ipFallback(info))]++
			total++
			if info.HasCensys {
				covered++
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	if total > 0 {
		h.Coverage = float64(covered) / float64(total)
	}
	return h, nil
}

// ComputeBreakdown classifies every streamed domain into its Table 4
// category. Two passes: the bounded IP section is loaded first, then
// domains stream through the classifier.
func (st *Stream) ComputeBreakdown() (Breakdown, error) {
	var b Breakdown
	ips, err := st.LoadIPs()
	if err != nil {
		return b, err
	}
	lookup := func(addr netip.Addr) (IPInfo, bool) {
		info, ok := ips[addr.String()]
		return info, ok
	}
	err = st.forEach(func(d *DomainRecord) error {
		b.Counts[ClassifyWith(d, lookup)]++
		b.Total++
		return nil
	}, nil)
	if err != nil {
		return Breakdown{}, err
	}
	return b, nil
}
