package dataset

import (
	"errors"
	"fmt"
	"os"
)

// Stream is a snapshot on disk iterated without materializing it: the
// file is re-opened and decoded per pass, each line decoded once (by the
// line codec when it is in canonical form, see linecodec.go), on a
// goroutine that runs ahead of the callbacks into a fixed set of record
// batches refilled in place, so a pass over millions of domains holds a
// bounded window of them in memory: walkBatches x walkBatch = 384
// records, whatever the file's size (see walkLines). A domain line
// whose tail (its MX list, SPF and delegation) the pass has decoded
// before is refilled from the pass's table of tails (see tailTable),
// which lends the record its arrays, so a canonical domain line
// allocates only its name as a rule, and the tails a pass meets first
// cost their text once. It is the file-backed Source, and ForEachTail
// names each record's tail by its table entry.
// core.InferStream makes two passes over one: the first keeps the IP
// section as it reads the domains, the second reads the domains again,
// and each does the work a tail decides once per tail.
//
// A Stream works over both canonical snapshot files (WriteFile / Merge
// output) and individual shard files (a footer is checked, not yielded).
// Its fields are set once, by OpenStream, so any number of passes may
// run concurrently.
//
// A Stream is one file, not one path: OpenStream records the identity
// of the file it read (device and inode, size and modification time),
// and a pass that finds another file at Path (one renamed over it, or
// rewritten in place) fails naming the path, rather than read records
// the earlier passes never saw.
type Stream struct {
	// Path is the snapshot file.
	Path string
	// Date and Corpus come from the header line.
	Date, Corpus string

	file os.FileInfo // the file OpenStream read; nil checks nothing
}

// errReplaced is what a pass over a Stream whose file was replaced
// fails with.
var errReplaced = errors.New("not the file the stream was opened on: replaced or rewritten since")

// OpenStream validates the header of the snapshot at path and returns a
// Stream over it.
func OpenStream(path string) (*Stream, error) {
	st := &Stream{Path: path}
	f, err := st.open()
	if err != nil {
		return nil, err
	}
	if st.file, err = f.Stat(); err != nil {
		f.Close()
		return nil, err
	}
	err = st.walkFile(f,
		func(h *snapshotHeader) { st.Date, st.Corpus = h.Date, h.Corpus },
		func(*DomainRecord, int) error { return ErrStop }, nil)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ForEach decodes the snapshot once, invoking domain for every domain
// line and ip for every IP line, in file order (domains sorted, then IPs
// sorted). Either callback may be nil to skip that section — a nil
// domain callback leaves domain lines checked but not stored. The record
// passed to a callback is a slot of the decode-ahead window, reused a
// few hundred lines later. A domain record's MX and MX[i].Addrs arrays
// are the slot's, refilled in place, or, for a tail the pass has
// decoded before, the pass's table's, shared by every record with that
// tail: a callback must not write to them, and copies the record, those
// slices included, if it must outlive the call. A line in error ends the
// pass after the callbacks of the lines before it have run. A callback
// returning ErrStop ends the pass successfully.
func (st *Stream) ForEach(domain func(*DomainRecord) error, ip func(*IPInfo) error) error {
	if domain == nil {
		return st.walk(nil, nil, ip)
	}
	return st.walk(nil, func(d *DomainRecord, _ int) error { return domain(d) }, ip)
}

// ForEachTail is ForEach telling domain each record's tail ID: the
// index of the pass's table entry for the part of the line past the
// name and rank — its MX list, SPF and delegation (see tailTable) — or
// NoTail for a line whose tail the table does not hold. Within one
// pass, two records with the same ID have equal tails, and IDs run from
// 0 up in the order the pass meets the tails; they mean nothing across
// passes. Provider concentration keeps the distinct tails few, so a
// consumer can do the work a tail decides once per tail, as
// core.InferStream does.
func (st *Stream) ForEachTail(domain func(*DomainRecord, int) error, ip func(*IPInfo) error) error {
	return st.walk(nil, domain, ip)
}

func (st *Stream) walk(header func(*snapshotHeader), domain func(*DomainRecord, int) error, ip func(*IPInfo) error) error {
	f, err := st.open()
	if err != nil {
		return err
	}
	return st.walkFile(f, header, domain, ip)
}

// open opens the file at Path for a pass, failing with errReplaced when
// it is not the one OpenStream read.
func (st *Stream) open() (*os.File, error) {
	f, err := os.Open(st.Path)
	if err != nil || st.file == nil {
		return f, err
	}
	fi, err := f.Stat()
	if err == nil && !(os.SameFile(fi, st.file) && fi.Size() == st.file.Size() && fi.ModTime().Equal(st.file.ModTime())) {
		err = fmt.Errorf("dataset: %s: %w", st.Path, errReplaced)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// walkFile runs one pass of walkLines over f, the opened file at Path,
// and closes it.
func (st *Stream) walkFile(f *os.File, header func(*snapshotHeader), domain func(*DomainRecord, int) error, ip func(*IPInfo) error) error {
	r, done, err := fileReader(f, st.Path)
	if err != nil {
		return err
	}
	defer done()
	return walkLines(r, st.Path, header, domain, ip)
}

// LoadIPs materializes the stream's IP section as a Snapshot-shaped map.
// Provider concentration keeps the distinct-IP count orders of magnitude
// below the domain count, so a reader of an out-of-core corpus that
// needs the table before its pass (BreakdownOf, DiffStream) can still
// hold every IP observation in memory while domains stream.
func (st *Stream) LoadIPs() (map[string]IPInfo, error) {
	ips := make(map[string]IPInfo)
	err := st.ForEach(nil, func(info *IPInfo) error {
		ips[info.Addr.String()] = *info
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ips, nil
}
