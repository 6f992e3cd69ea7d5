package dataset

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
)

// Merge k-way-merges sorted shard files into the canonical snapshot at
// outPath (gzip-compressed when the path ends in ".gz", committed
// atomically). The output is byte-identical to Snapshot.WriteTo of the
// equivalent fully materialized snapshot: shard lines were produced by
// the same encoder, so the merge passes raw line bytes through. A line
// in canonical form is walked end to end by the line codec, which
// stores nothing but the ordering key; any other line is decoded in
// full by encoding/json, so no line either would reject is passed on.
//
// Invariants enforced (an error aborts the merge and leaves outPath
// untouched):
//
//   - every shard carries the same (date, corpus) header;
//   - each shard's domain and IP sections are strictly increasing;
//   - each shard ends with a footer whose counts and domain range
//     match its body.
//
// Duplicate keys across shards resolve last-write-wins toward the
// highest shard sequence number, matching journal replay semantics.
func Merge(outPath string, shardPaths []string) (*MergeStats, error) {
	if len(shardPaths) == 0 {
		return nil, fmt.Errorf("dataset: merge: no shards")
	}
	readers := make([]*shardReader, 0, len(shardPaths))
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	for i, p := range shardPaths {
		r, err := openShard(p)
		if err != nil {
			return nil, err
		}
		// The sequence number resolves duplicate keys before the footer
		// confirming it has been reached; take it from the file name
		// (where ShardPath put it), falling back to argument position.
		if seq, ok := parseShardSeq(p); ok {
			r.seq = seq
		} else {
			r.seq = i
		}
		readers = append(readers, r)
		if r0 := readers[0]; r.hdr != r0.hdr {
			return nil, fmt.Errorf("dataset: merge: %s header (%s,%s) disagrees with %s (%s,%s)",
				r.path, r.hdr.Corpus, r.hdr.Date, r0.path, r0.hdr.Corpus, r0.hdr.Date)
		}
	}

	stats := &MergeStats{Shards: len(shardPaths)}
	err := atomicWrite(outPath, &gzWriterPool, func(out io.Writer) error {
		bw := bufWriterPool.Get().(*bufio.Writer)
		bw.Reset(out)
		defer func() {
			bw.Reset(io.Discard)
			bufWriterPool.Put(bw)
		}()
		hdr := readers[0].hdr
		if err := json.NewEncoder(bw).Encode(jsonLine{Kind: "snapshot", Header: &hdr}); err != nil {
			return err
		}
		if err := mergeInto(bw, readers, stats); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// MergeStats summarizes one merge.
type MergeStats struct {
	// Shards is the number of input shard files.
	Shards int `json:"shards"`
	// Domains and IPs count the records in the merged output.
	Domains int `json:"domains"`
	IPs     int `json:"ips"`
	// DupDomains and DupIPs count cross-shard duplicate records dropped
	// by last-write-wins resolution.
	DupDomains int `json:"dup_domains"`
	DupIPs     int `json:"dup_ips"`
}

// mergeInto writes the merged, deduplicated record lines to w.
func mergeInto(w *bufio.Writer, readers []*shardReader, stats *MergeStats) error {
	if len(readers) == 1 {
		// Single-shard fast path: the shard body already is the canonical
		// record sequence; stream it through (validation still runs in
		// advance()).
		r := readers[0]
		for r.kind != "" {
			if err := writeLine(w, r.line); err != nil {
				return err
			}
			stats.count(r.kind, 0)
			if err := r.advance(); err != nil {
				return err
			}
		}
		return nil
	}

	h := make(readerHeap, 0, len(readers))
	for _, r := range readers {
		if r.kind != "" {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	var group []*shardReader
	for len(h) > 0 {
		top := h[0]
		rank, key := top.rank(), top.key
		group = group[:0]
		for len(h) > 0 && h[0].rank() == rank && bytes.Equal(h[0].key, key) {
			group = append(group, heap.Pop(&h).(*shardReader))
		}
		winner := group[0]
		for _, r := range group[1:] {
			if r.seq > winner.seq {
				winner = r
			}
		}
		if err := writeLine(w, winner.line); err != nil {
			return err
		}
		stats.count(winner.kind, len(group)-1)
		for _, r := range group {
			if err := r.advance(); err != nil {
				return err
			}
			if r.kind != "" {
				heap.Push(&h, r)
			}
		}
	}
	return nil
}

func (ms *MergeStats) count(kind string, dups int) {
	if kind == "domain" {
		ms.Domains++
		ms.DupDomains += dups
	} else {
		ms.IPs++
		ms.DupIPs += dups
	}
}

func writeLine(w *bufio.Writer, line []byte) error {
	if _, err := w.Write(line); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// shardReader streams one shard file, holding the current record's kind,
// sort key, and raw line bytes, and validating the format invariants as
// it goes.
type shardReader struct {
	path    string
	done    func() // releases the file opened by openReader
	sc      *bufio.Scanner
	lineBuf *[]byte
	lineno  int

	hdr    snapshotHeader
	seq    int
	footer *ShardFooter

	// current record; kind "" means exhausted (footer consumed).
	kind string
	key  []byte
	line []byte

	nDomains, nIPs int
	// firstDomain and lastDomain are the body's domain range, for the
	// footer to be held to.
	firstDomain, lastDomain string

	// scratch is advance's decodeLine target, kept here because a
	// local one would be heap-allocated per line.
	scratch jsonLine
}

func openShard(path string) (*shardReader, error) {
	src, done, err := openReader(path)
	if err != nil {
		return nil, err
	}
	r := &shardReader{path: path, done: done}
	r.sc, r.lineBuf = newLineScanner(src)
	if err := r.readHeader(); err != nil {
		r.close()
		return nil, err
	}
	if err := r.advance(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *shardReader) close() {
	if r.lineBuf != nil {
		putLineBuf(r.lineBuf)
		r.lineBuf = nil
	}
	if r.done != nil {
		r.done()
		r.done = nil
	}
}

func (r *shardReader) errf(format string, args ...any) error {
	return fmt.Errorf("dataset: merge: %s: line %d: %s", r.path, r.lineno, fmt.Sprintf(format, args...))
}

// scan reads the next non-empty line, returning false at EOF.
func (r *shardReader) scan() (bool, error) {
	for r.sc.Scan() {
		r.lineno++
		if len(r.sc.Bytes()) > 0 {
			return true, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return false, r.errf("%v", err)
	}
	return false, nil
}

func (r *shardReader) readHeader() error {
	ok, err := r.scan()
	if err != nil {
		return err
	}
	if !ok {
		return r.errf("empty shard file")
	}
	var l jsonLine
	if err := json.Unmarshal(r.sc.Bytes(), &l); err != nil {
		return r.errf("%v", err)
	}
	if l.Kind != "snapshot" || l.Header == nil {
		return r.errf("shard does not start with a snapshot header")
	}
	r.hdr = *l.Header
	return nil
}

// advance steps to the next record line. On the footer it validates the
// counts, marks the reader exhausted, and rejects trailing garbage.
func (r *shardReader) advance() error {
	ok, err := r.scan()
	if err != nil {
		return err
	}
	if !ok {
		return r.errf("truncated shard: no footer")
	}
	// A canonical line is only walked: decodeLine stores no record it
	// was not given. Any other line must decode in full, so no line that
	// encoding/json rejects reaches the output.
	l := &r.scratch
	*l = jsonLine{}
	key, err := decodeLine(r.sc.Bytes(), l)
	if err != nil {
		return r.errf("%v", err)
	}
	switch l.Kind {
	case "domain":
		if r.nIPs > 0 {
			return r.errf("domain record after IP section")
		}
		if len(key) == 0 {
			return r.errf("domain record without a name")
		}
		if r.kind == "domain" && bytes.Compare(key, r.key) <= 0 {
			return r.errf("domain %q out of order (previous %q)", key, r.key)
		}
		if r.nDomains == 0 {
			r.firstDomain = string(key)
		}
		r.setCurrent("domain", key)
		r.nDomains++
	case "ip":
		if len(key) == 0 {
			return r.errf("ip record without an address")
		}
		if r.kind == "ip" && bytes.Compare(key, r.key) <= 0 {
			return r.errf("ip %q out of order (previous %q)", key, r.key)
		}
		r.endDomains()
		r.setCurrent("ip", key)
		r.nIPs++
	case "footer":
		f, err := ParseShardFooter(r.sc.Bytes())
		if err != nil {
			return r.errf("%v", err)
		}
		if f.Domains != r.nDomains || f.IPs != r.nIPs {
			return r.errf("footer counts (%d domains, %d ips) disagree with body (%d, %d)",
				f.Domains, f.IPs, r.nDomains, r.nIPs)
		}
		r.endDomains()
		if f.FirstDomain != r.firstDomain || f.LastDomain != r.lastDomain {
			return r.errf("footer domain range (%q to %q) disagrees with body (%q to %q)",
				f.FirstDomain, f.LastDomain, r.firstDomain, r.lastDomain)
		}
		if seq, ok := parseShardSeq(r.path); ok && seq != f.Seq {
			return r.errf("footer seq %d disagrees with file name seq %d", f.Seq, seq)
		}
		r.footer = f
		r.kind, r.key, r.line = "", r.key[:0], nil
		if ok, err := r.scan(); err != nil {
			return err
		} else if ok {
			return r.errf("trailing data after footer")
		}
	default:
		return r.errf("unexpected line kind %q", l.Kind)
	}
	return nil
}

// endDomains notes the last domain key once the line after the domain
// section has been reached.
func (r *shardReader) endDomains() {
	if r.kind == "domain" {
		r.lastDomain = string(r.key)
	}
}

// setCurrent copies the scanner's line and its key into the
// reader-owned buffers (the scanner reuses its backing array on the next
// Scan).
func (r *shardReader) setCurrent(kind string, key []byte) {
	r.kind = kind
	r.key = append(r.key[:0], key...)
	r.line = append(r.line[:0], r.sc.Bytes()...)
}

// rank orders the two record sections: all domains before all IPs.
func (r *shardReader) rank() int {
	if r.kind == "domain" {
		return 0
	}
	return 1
}

// readerHeap orders shard readers by (section, key).
type readerHeap []*shardReader

func (h readerHeap) Len() int { return len(h) }
func (h readerHeap) Less(i, j int) bool {
	if ri, rj := h[i].rank(), h[j].rank(); ri != rj {
		return ri < rj
	}
	return bytes.Compare(h[i].key, h[j].key) < 0
}
func (h readerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readerHeap) Push(x any)   { *h = append(*h, x.(*shardReader)) }
func (h *readerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
