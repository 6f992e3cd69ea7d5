package dataset

import (
	"bufio"
	"bytes"
	"container/heap"
	"errors"
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
// Every line of every shard is held to the rules every reader holds the
// format to (lineRules: so a shard Merge rejects, ReadFile, OpenStream
// and Fsck reject at the same line), and to what a merge adds to them
// (an error aborts the merge and leaves outPath untouched):
//
//   - every shard carries the same (date, corpus) header;
//   - each shard's domain and IP sections are strictly increasing;
//   - each shard ends with a footer, whose seq is the one in the shard's
//     file name.
//
// Duplicate keys across shards resolve last-write-wins toward the
// highest shard sequence number, the order in which a ShardSet numbers
// its spills.
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
	err := atomicWrite(outPath, deflateLevel, func(out io.Writer) error {
		bw := bufWriterPool.Get().(*bufio.Writer)
		bw.Reset(out)
		defer func() {
			bw.Reset(io.Discard)
			bufWriterPool.Put(bw)
		}()
		hdr := readers[0].hdr
		if _, err := bw.Write(appendHeaderLine(bw.AvailableBuffer(), hdr.Date, hdr.Corpus)); err != nil {
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
	rules   lineRules

	hdr snapshotHeader
	seq int

	// current record; kind "" means exhausted (footer consumed).
	kind string
	key  []byte
	line []byte

	// scratch is advance's decodeLine target, kept here because a
	// local one would be heap-allocated per line.
	scratch jsonLine
}

func openShard(path string) (*shardReader, error) {
	src, done, err := openReader(path)
	if err != nil {
		return nil, err
	}
	r := &shardReader{path: path, done: done, rules: lineRules{name: path}}
	r.sc, r.lineBuf = newLineScanner(src)
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

// advance steps to the next record line, taking the header on the way
// in. Past the footer it reads on to the end of the file, so a shard is
// exhausted (kind "") only once all of it has been held to the rules.
func (r *shardReader) advance() error {
	for r.sc.Scan() {
		// A canonical line is only walked: decodeLine stores no record it
		// was not given. Any other line must decode in full, so no line
		// that encoding/json rejects reaches the output.
		l := &r.scratch
		*l = jsonLine{}
		key, err := r.rules.step(r.sc.Bytes(), l)
		if err != nil {
			return err
		}
		switch l.Kind {
		case "snapshot":
			r.hdr = *l.Header
		case "domain", "ip":
			if r.kind == l.Kind && bytes.Compare(key, r.key) <= 0 {
				return r.rules.fail(fmt.Errorf("%s %q out of order (previous %q)", l.Kind, key, r.key))
			}
			// The scanner reuses its buffer on the next Scan: the line and
			// its key are copied into the reader's own.
			r.kind = l.Kind
			r.key = append(r.key[:0], key...)
			r.line = append(r.line[:0], r.sc.Bytes()...)
			return nil
		case "footer":
			if seq, ok := parseShardSeq(r.path); ok && seq != l.Footer.Seq {
				return r.rules.fail(fmt.Errorf("footer seq %d disagrees with file name seq %d", l.Footer.Seq, seq))
			}
			r.kind, r.line = "", nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return r.rules.cut(err)
	}
	if err := r.rules.end(); err != nil {
		return err
	}
	if !r.rules.footer {
		return r.rules.cut(errors.New("truncated shard: no footer"))
	}
	return nil
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
