package dataset

// Dataset fsck: offline validation of what the collection pipeline
// writes — a committed snapshot or a shard (JSONL, optionally gzipped).
// It checks physical integrity (the gzip stream, the line rules every
// snapshot reader holds each line to) and the cross-record invariants
// the inference layer depends on: no duplicate domains, and a closed
// join between domains and IPs (every address an MX resolved to has an
// IP record, every IP record is referenced by some domain). Damage is
// reported with the salvageable prefix so an operator knows what a
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

// FsckReport is the outcome of validating one snapshot file.
type FsckReport struct {
	// Path is the file checked.
	Path string `json:"path"`
	// Kind is "snapshot", the one kind of file there is to check.
	Kind string `json:"kind"`
	// Clean reports a fully intact file with all invariants holding.
	Clean bool `json:"clean"`
	// Recoverable reports that an intact prefix exists: a manual
	// line-range rescue preserves Entries records.
	Recoverable bool `json:"recoverable"`
	// Entries counts intact records (snapshot lines, excluding the
	// header).
	Entries int `json:"entries"`
	// ValidBytes and TotalBytes delimit the trusted prefix: all of the
	// file or 0, as a damaged file's intact prefix is counted in lines
	// (Salvageable).
	ValidBytes int64 `json:"valid_bytes"`
	TotalBytes int64 `json:"total_bytes"`
	// Salvageable describes the intact range in human terms
	// ("lines 1-42 (41 records)"), empty when the whole file is clean.
	Salvageable string `json:"salvageable,omitempty"`
	// Problems lists what fsck found, capped at maxFsckProblems.
	Problems []string `json:"problems,omitempty"`

	truncatedProblems int
}

// sortedKeys keeps invariant-violation output deterministic.
func sortedKeys[V any](m map[string]V) []string {
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
	intact := fmt.Sprintf(", %d/%d bytes intact", r.ValidBytes, r.TotalBytes)
	if !r.Clean {
		intact = "" // no byte count: Salvageable gives the intact lines
	}
	if _, err := fmt.Fprintf(w, "%s: %s %s: %d entries%s\n", r.Path, r.Kind, state, r.Entries, intact); err != nil {
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

// Fsck validates the committed snapshot (or shard) at path: one
// walkLines pass, so every line is held to the rules every reader holds
// it to (lineRules) and what loads is not damage, and the first line
// that does not load is the one reported. The callbacks add what only
// fsck checks, across records: duplicate domains, and the join between
// domains and IPs. The error return covers I/O only; damage inside the
// file lands in the report.
func Fsck(path string) (*FsckReport, error) {
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

	var (
		dups    []string
		domains = make(map[string]bool)
		refs    = make(map[string]string) // referenced addr -> first domain referencing it
		ips     = make(map[string]bool)
	)
	err = walkLines(src, path, nil,
		func(d *DomainRecord, _ int) error {
			r.Entries++
			if domains[d.Domain] {
				dups = append(dups, d.Domain)
			}
			domains[d.Domain] = true
			for _, mx := range d.MX {
				for _, a := range mx.Addrs {
					if _, ok := refs[a.String()]; !ok {
						refs[a.String()] = d.Domain
					}
				}
			}
			return nil
		},
		func(info *IPInfo) error {
			r.Entries++
			ips[info.Addr.String()] = true
			return nil
		})
	// The damage is reported first, so the problem cap never hides it.
	var damage *lineError
	switch {
	case errors.As(err, &damage):
		r.problem("%s", damage.where())
		if damage.line > 1 {
			r.Salvageable = fmt.Sprintf("lines 1-%d (%d records)", damage.line-1, r.Entries)
		}
	case err != nil:
		return nil, err // not the file's: the callbacks above fail nothing
	}
	for _, d := range dups {
		r.problem("duplicate domain %s", d)
	}
	// The join is only meaningful on an intact file; on a torn one every
	// tail record would be "missing".
	if err == nil {
		// Every address an MX resolved to was scanned (or at least
		// classified): it must have an ip record.
		for _, addr := range sortedKeys(refs) {
			if !ips[addr] {
				r.problem("domain %s references %s but the snapshot has no ip record for it", refs[addr], addr)
			}
		}
		// Every ip record is reachable from some domain's MX set; an
		// orphan means the domain that produced it was lost.
		for _, addr := range sortedKeys(ips) {
			if _, ok := refs[addr]; !ok {
				r.problem("ip record %s referenced by no domain", addr)
			}
		}
	}

	r.Clean = len(r.Problems) == 0 && r.truncatedProblems == 0
	r.Recoverable = !r.Clean && r.Entries > 0
	if r.Clean {
		r.ValidBytes = r.TotalBytes
	}
	return r, nil
}
