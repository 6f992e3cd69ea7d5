package dataset

// Stream is a snapshot on disk iterated without materializing it: the
// file is re-opened and decoded per pass, each line decoded once (by the
// line codec when it is in canonical form, see linecodec.go), on a
// goroutine that runs ahead of the callbacks into a fixed set of record
// batches refilled in place, so a pass over millions of domains holds a
// bounded window of them in memory: walkBatches x walkBatch = 384
// records, whatever the file's size (see walkLines). It is the
// file-backed Source; core.InferStream makes three passes over one:
// LoadIPs, then two over the domains.
//
// A Stream works over both canonical snapshot files (WriteFile / Merge
// output) and individual shard files (footer lines are skipped). Its
// fields are set once, by OpenStream, so any number of passes may run
// concurrently.
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
	err := st.walk(
		func(h *snapshotHeader) { st.Date, st.Corpus = h.Date, h.Corpus },
		func(*DomainRecord) error { return ErrStop }, nil)
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
// few hundred lines later, and a domain record's MX and MX[i].Addrs
// arrays are refilled in place: copy the record, those slices included,
// if it must outlive the call. A line in error ends the pass after the
// callbacks of the lines before it have run. A callback returning
// ErrStop ends the pass successfully.
func (st *Stream) ForEach(domain func(*DomainRecord) error, ip func(*IPInfo) error) error {
	return st.walk(nil, domain, ip)
}

func (st *Stream) walk(header func(*snapshotHeader), domain func(*DomainRecord) error, ip func(*IPInfo) error) error {
	r, done, err := openReader(st.Path)
	if err != nil {
		return err
	}
	defer done()
	return walkLines(r, st.Path, header, domain, ip)
}

// LoadIPs materializes the stream's IP section as a Snapshot-shaped map.
// Provider concentration keeps the distinct-IP count orders of magnitude
// below the domain count, so inference over an out-of-core corpus can
// still hold every IP observation in memory while domains stream.
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
