package dataset

// Dataset fsck: offline validation of the two on-disk artifacts the
// collection pipeline produces — committed snapshots (JSONL, optionally
// gzipped) and write-ahead journals. It checks physical integrity
// (framing, CRCs, gzip stream, JSON well-formedness) and, for
// snapshots, the cross-record invariants the inference layer depends
// on: a single header, no duplicate domains, and a closed join between
// domains and IPs (every address an MX resolved to has an IP record,
// every IP record is referenced by some domain). Damage is reported
// with the salvageable prefix so an operator knows what a resume or a
// manual rescue would preserve.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// maxFsckProblems bounds the report; corrupt files can violate an
// invariant once per record.
const maxFsckProblems = 20

// FsckReport is the outcome of validating one snapshot or journal file.
type FsckReport struct {
	// Path is the file checked.
	Path string `json:"path"`
	// Kind is "journal" or "snapshot", detected from the file magic.
	Kind string `json:"kind"`
	// Clean reports a fully intact file with all invariants holding.
	Clean bool `json:"clean"`
	// Recoverable reports that an intact prefix exists: a resume (for
	// journals) or a manual line-range rescue (for snapshots) preserves
	// Entries records.
	Recoverable bool `json:"recoverable"`
	// Entries counts intact records (journal frames or snapshot lines,
	// excluding the header).
	Entries int `json:"entries"`
	// ValidBytes and TotalBytes delimit the trusted prefix.
	ValidBytes int64 `json:"valid_bytes"`
	TotalBytes int64 `json:"total_bytes"`
	// Salvageable describes the intact range in human terms
	// ("lines 1-42 of 45"), empty when the whole file is clean.
	Salvageable string `json:"salvageable,omitempty"`
	// Problems lists what fsck found, capped at maxFsckProblems.
	Problems []string `json:"problems,omitempty"`

	truncatedProblems int
}

// sortedKeys keeps invariant-violation output deterministic.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r *FsckReport) problem(format string, args ...any) {
	if len(r.Problems) >= maxFsckProblems {
		r.truncatedProblems++
		return
	}
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// WriteText renders the report for operators.
func (r *FsckReport) WriteText(w io.Writer) error {
	state := "CLEAN"
	switch {
	case r.Clean:
	case r.Recoverable:
		state = "RECOVERABLE"
	default:
		state = "CORRUPT"
	}
	if _, err := fmt.Fprintf(w, "%s: %s %s: %d entries, %d/%d bytes intact\n",
		r.Path, r.Kind, state, r.Entries, r.ValidBytes, r.TotalBytes); err != nil {
		return err
	}
	if r.Salvageable != "" {
		if _, err := fmt.Fprintf(w, "  salvageable: %s\n", r.Salvageable); err != nil {
			return err
		}
	}
	for _, p := range r.Problems {
		if _, err := fmt.Fprintf(w, "  problem: %s\n", p); err != nil {
			return err
		}
	}
	if r.truncatedProblems > 0 {
		if _, err := fmt.Fprintf(w, "  ... and %d more problems\n", r.truncatedProblems); err != nil {
			return err
		}
	}
	return nil
}

// Fsck validates the snapshot or journal file at path. The error return
// covers I/O only; damage inside the file lands in the report.
func Fsck(path string) (*FsckReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(journalMagic))
	n, err := io.ReadFull(f, magic)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	if n == len(journalMagic) && string(magic) == journalMagic {
		return fsckJournal(path)
	}
	return fsckSnapshot(path)
}

// fsckJournal validates a write-ahead journal via the recovery reader:
// a clean journal recovers to the end of the file, a torn one is
// recoverable up to its last intact frame.
func fsckJournal(path string) (*FsckReport, error) {
	rec, err := RecoverJournal(path)
	if err != nil {
		return nil, err
	}
	r := &FsckReport{
		Path:       path,
		Kind:       "journal",
		Entries:    rec.Entries,
		ValidBytes: rec.ValidBytes,
		TotalBytes: rec.TotalBytes,
	}
	r.Clean = !rec.Truncated && rec.Snapshot != nil
	r.Recoverable = rec.Snapshot != nil
	if rec.Snapshot == nil {
		r.problem("no intact header frame; the journal identifies no run")
	}
	if rec.Truncated {
		r.problem("%s; %d trailing bytes will be discarded on resume",
			rec.Reason, rec.TotalBytes-rec.ValidBytes)
		r.Salvageable = fmt.Sprintf("%d entries in bytes 0-%d (of %d)",
			rec.Entries, rec.ValidBytes, rec.TotalBytes)
	}
	return r, nil
}

// fsckSnapshot validates a committed snapshot file (or a shard): gzip
// stream, JSONL framing, and the cross-record invariants. It opens and
// scans the file the way every reader does, so what loads is not damage.
func fsckSnapshot(path string) (*FsckReport, error) {
	r := &FsckReport{Path: path, Kind: "snapshot"}
	if fi, err := os.Stat(path); err == nil {
		r.TotalBytes = fi.Size()
	}
	src, done, err := openReader(path)
	if openErr := new(*fs.PathError); errors.As(err, openErr) {
		return nil, err // could not open: I/O, not damage
	}
	if err != nil {
		r.problem("not a gzip stream: %v", err)
		return r, nil
	}
	defer done()

	// Physical pass: every line must be well-formed JSON of a known
	// kind, header first and only once, a shard's footer last.
	sc, lineBuf := newLineScanner(src)
	defer putLineBuf(lineBuf)
	var (
		lineno     int
		intact     int
		salvage    int    // last line of the intact prefix
		nDomains   int    // domain lines so far, as a footer counts them
		nIPs       int    // ip lines so far, likewise
		firstName  string // first and last domain line so far: a footer's range
		lastName   string
		footerAt   int // line of the footer, 0 before it
		headerSeen bool
		damaged    bool
		d          DomainRecord
		info       IPInfo
		line       jsonLine
		domainAt   = make(map[string]int) // domain -> first line
		refs       = make(map[string]int) // referenced addr -> first referencing line
		ipAt       = make(map[string]int) // ip record addr -> line
	)
	for sc.Scan() {
		lineno++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if footerAt > 0 {
			r.problem("line %d: trailing data after footer (line %d)", lineno, footerAt)
			break
		}
		// Only strings are kept from a record, so decodeLine may refill
		// the same two line after line.
		line.Domain, line.IP = &d, &info
		if _, err := decodeLine(sc.Bytes(), &line); err != nil {
			r.problem("line %d: malformed JSON: %v", lineno, err)
			damaged = true
			salvage = lineno - 1
			break
		}
		switch line.Kind {
		case "snapshot":
			if headerSeen {
				r.problem("line %d: duplicate header", lineno)
			} else if line.Header == nil {
				r.problem("line %d: header line without header body", lineno)
			}
			headerSeen = true
		case "domain":
			switch {
			case !headerSeen:
				r.problem("line %d: domain before header", lineno)
			case line.Domain == nil:
				r.problem("line %d: domain line without body", lineno)
			default:
				nDomains++
				if nDomains == 1 {
					firstName = line.Domain.Domain
				}
				lastName = line.Domain.Domain
				if first, dup := domainAt[line.Domain.Domain]; dup {
					r.problem("line %d: duplicate domain %s (first at line %d)",
						lineno, line.Domain.Domain, first)
				} else {
					domainAt[line.Domain.Domain] = lineno
				}
				for _, mx := range line.Domain.MX {
					for _, a := range mx.Addrs {
						if _, ok := refs[a.String()]; !ok {
							refs[a.String()] = lineno
						}
					}
				}
				intact++
			}
		case "ip":
			switch {
			case !headerSeen:
				r.problem("line %d: ip before header", lineno)
			case line.IP == nil:
				r.problem("line %d: ip line without body", lineno)
			default:
				nIPs++
				ipAt[line.IP.Addr.String()] = lineno
				intact++
			}
		case "footer":
			// A shard loads as a snapshot (walkLines skips the line);
			// the merge reader's checks on it apply here too.
			footerAt = lineno
			if f, err := ParseShardFooter(sc.Bytes()); err != nil {
				r.problem("line %d: %v", lineno, err)
			} else if f.Domains != nDomains || f.IPs != nIPs {
				r.problem("line %d: footer counts (%d domains, %d ips) disagree with body (%d, %d)",
					lineno, f.Domains, f.IPs, nDomains, nIPs)
			} else if f.FirstDomain != firstName || f.LastDomain != lastName {
				r.problem("line %d: footer domain range (%q to %q) disagrees with body (%q to %q)",
					lineno, f.FirstDomain, f.LastDomain, firstName, lastName)
			}
		default:
			r.problem("line %d: unknown kind %q", lineno, line.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		// Stream-level damage: truncated gzip, oversize line.
		r.problem("line %d: %v", lineno+1, err)
		damaged = true
		salvage = lineno
	}
	r.Entries = intact
	if !headerSeen && !damaged {
		r.problem("no header line")
	}
	if damaged && salvage > 0 {
		r.Salvageable = fmt.Sprintf("lines 1-%d (%d records)", salvage, intact)
	}

	// Cross-record invariants are only meaningful on a physically intact
	// file; on a torn one every tail record would be "missing".
	if !damaged && headerSeen {
		// Every address an MX resolved to was scanned (or at least
		// classified): it must have an ip record.
		for _, addr := range sortedKeys(refs) {
			if _, ok := ipAt[addr]; !ok {
				r.problem("line %d: references %s but the snapshot has no ip record for it", refs[addr], addr)
			}
		}
		// Every ip record is reachable from some domain's MX set; an
		// orphan means the domain that produced it was lost.
		for _, addr := range sortedKeys(ipAt) {
			if _, ok := refs[addr]; !ok {
				r.problem("line %d: ip record %s referenced by no domain", ipAt[addr], addr)
			}
		}
	}

	r.Clean = len(r.Problems) == 0 && r.truncatedProblems == 0
	r.Recoverable = !r.Clean && intact > 0
	if r.Clean {
		r.ValidBytes = r.TotalBytes
	}
	return r, nil
}
