package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the on-disk shard format that lets a snapshot be
// produced and consumed without ever materializing it in memory.
//
// A shard is an ordinary snapshot JSONL stream with two extra
// guarantees and one extra line:
//
//   - domain lines are sorted by domain name and IP lines by address
//     key, each section internally duplicate-free;
//   - the final line is a footer recording the domain range and the
//     record counts, so a merge can cheaply validate shard integrity and
//     plan without scanning.
//
// Shards are named <base>.shard-NNNN[.gz suffix preserved], e.g.
// "run.jsonl.gz" spills to "run.shard-0000.jsonl.gz". dataset.Merge
// k-way-merges any number of shards back into the canonical snapshot
// file, byte-identical to Snapshot.WriteTo of the equivalent in-memory
// snapshot.

// ShardFooter is the last JSONL line of a shard file.
type ShardFooter struct {
	// Seq is the shard's sequence number within its ShardSet. Merge
	// resolves cross-shard duplicate keys toward the highest sequence
	// number (last-write-wins, matching journal replay semantics).
	Seq int `json:"seq"`
	// FirstDomain and LastDomain bound the shard's domain range; empty
	// when the shard carries no domains.
	FirstDomain string `json:"first_domain,omitempty"`
	LastDomain  string `json:"last_domain,omitempty"`
	// Domains and IPs count the records in each section.
	Domains int `json:"domains"`
	IPs     int `json:"ips"`
}

// ParseShardFooter decodes one JSONL line and returns its footer.
// It errors when the line is not a well-formed footer line.
func ParseShardFooter(line []byte) (*ShardFooter, error) {
	var l jsonLine
	if err := json.Unmarshal(line, &l); err != nil {
		return nil, fmt.Errorf("dataset: footer: %w", err)
	}
	if l.Kind != "footer" || l.Footer == nil {
		return nil, fmt.Errorf("dataset: footer: line has kind %q", l.Kind)
	}
	f := l.Footer
	if f.Domains < 0 || f.IPs < 0 || f.Seq < 0 {
		return nil, fmt.Errorf("dataset: footer: negative counts")
	}
	if (f.Domains == 0) != (f.FirstDomain == "" && f.LastDomain == "") {
		return nil, fmt.Errorf("dataset: footer: domain range disagrees with count")
	}
	if f.FirstDomain > f.LastDomain {
		return nil, fmt.Errorf("dataset: footer: inverted domain range")
	}
	return f, nil
}

// ShardPath names shard seq of the snapshot that would live at base:
// the shard number is spliced in before the ".jsonl[.gz]" extension.
func ShardPath(base string, seq int) string {
	ext := ""
	rest := base
	for _, e := range []string{".gz", ".jsonl"} {
		if strings.HasSuffix(rest, e) {
			ext = e + ext
			rest = strings.TrimSuffix(rest, e)
		}
	}
	return fmt.Sprintf("%s.shard-%04d%s", rest, seq, ext)
}

// parseShardSeq recovers the sequence number ShardPath embedded in a
// shard file name.
func parseShardSeq(path string) (int, bool) {
	i := strings.LastIndex(path, ".shard-")
	if i < 0 {
		return 0, false
	}
	digits := path[i+len(".shard-"):]
	if j := strings.IndexByte(digits, '.'); j >= 0 {
		digits = digits[:j]
	}
	if digits == "" {
		return 0, false
	}
	seq := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}

// ShardSet coordinates shard production for one output snapshot across
// any number of concurrent ShardWriters: it hands out globally unique
// shard sequence numbers and remembers every path written so the caller
// can merge and then clean up.
type ShardSet struct {
	// Base is the final snapshot path shards are derived from.
	Base string
	// Date and Corpus stamp every shard's header line.
	Date, Corpus string
	// MaxBuffered caps the records a ShardWriter holds in memory before
	// spilling a shard (default 65536).
	MaxBuffered int

	seq   atomic.Int64
	mu    sync.Mutex
	paths []string
}

// NewShardSet prepares a shard set for the snapshot at base.
func NewShardSet(base, date, corpus string) *ShardSet {
	return &ShardSet{Base: base, Date: date, Corpus: corpus, MaxBuffered: 65536}
}

// Paths returns every shard file written so far, ordered by shard
// sequence number.
func (ss *ShardSet) Paths() []string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]string, len(ss.paths))
	copy(out, ss.paths)
	sort.Slice(out, func(i, j int) bool {
		si, _ := parseShardSeq(out[i])
		sj, _ := parseShardSeq(out[j])
		if si != sj {
			return si < sj
		}
		return out[i] < out[j]
	})
	return out
}

// Remove deletes every shard file written by the set. Best-effort: the
// first error is returned but removal continues.
func (ss *ShardSet) Remove() error {
	var first error
	for _, p := range ss.Paths() {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

func (ss *ShardSet) record(path string) {
	ss.mu.Lock()
	ss.paths = append(ss.paths, path)
	ss.mu.Unlock()
}

// NewWriter creates a ShardWriter feeding this set. Each concurrent
// producer (collection worker) owns exactly one writer; writers must not
// be shared across goroutines.
func (ss *ShardSet) NewWriter() *ShardWriter {
	max := ss.MaxBuffered
	if max <= 0 {
		max = 65536
	}
	return &ShardWriter{set: ss, max: max}
}

// ShardWriter buffers records up to the set's spill threshold and writes
// each full buffer out as one sorted shard file. Not safe for concurrent
// use; create one writer per producer goroutine.
type ShardWriter struct {
	set     *ShardSet
	max     int
	domains []DomainRecord
	ips     []IPInfo
	// Shards counts the shard files this writer has spilled.
	Shards int
}

// AddDomain buffers one domain record, spilling a shard when the buffer
// is full.
func (w *ShardWriter) AddDomain(d DomainRecord) error {
	w.domains = append(w.domains, d)
	return w.maybeSpill()
}

// AddIP buffers one IP record, spilling a shard when the buffer is full.
func (w *ShardWriter) AddIP(info IPInfo) error {
	w.ips = append(w.ips, info)
	return w.maybeSpill()
}

func (w *ShardWriter) maybeSpill() error {
	if len(w.domains)+len(w.ips) >= w.max {
		return w.spill()
	}
	return nil
}

// Close spills any buffered records and finishes the writer. A writer
// that buffered nothing writes nothing.
func (w *ShardWriter) Close() error {
	if len(w.domains)+len(w.ips) == 0 {
		return nil
	}
	return w.spill()
}

// spill sorts the buffered records and commits them as one shard file
// via the same atomic tmp+fsync+rename path as full snapshots. A gzipped
// shard is deflated at gzip.BestSpeed: it is read once, by Merge, and
// deleted, and Merge passes lines through, so the level a shard was
// written at never reaches the canonical snapshot.
func (w *ShardWriter) spill() error {
	seq := int(w.set.seq.Add(1)) - 1
	path := ShardPath(w.set.Base, seq)

	// Stable sort: a producer may legitimately observe the same domain
	// twice (journal-resumed runs); keeping input order among equals
	// preserves last-write-wins through the merge's tie-break.
	sort.SliceStable(w.domains, func(i, j int) bool {
		return w.domains[i].Domain < w.domains[j].Domain
	})
	// IPs order by address text, the order Merge checks; each key is
	// rendered once, not twice per comparison.
	keys := make([]string, len(w.ips))
	for i := range w.ips {
		keys[i] = w.ips[i].Addr.String()
	}
	sort.Stable(ipsByKey{w.ips, keys})

	footer := ShardFooter{Seq: seq, Domains: len(w.domains), IPs: len(w.ips)}
	if len(w.domains) > 0 {
		footer.FirstDomain = w.domains[0].Domain
		footer.LastDomain = w.domains[len(w.domains)-1].Domain
	}

	err := atomicWrite(path, &gzFastWriterPool, func(out io.Writer) error {
		bw := bufWriterPool.Get().(*bufio.Writer)
		bw.Reset(out)
		defer func() {
			bw.Reset(io.Discard)
			bufWriterPool.Put(bw)
		}()
		enc := json.NewEncoder(bw)
		if err := enc.Encode(jsonLine{Kind: "snapshot", Header: &snapshotHeader{Date: w.set.Date, Corpus: w.set.Corpus}}); err != nil {
			return err
		}
		// Adjacent duplicates collapse here (keep the later record) so a
		// shard's sections are strictly increasing.
		nd, ni := 0, 0
		for i := range w.domains {
			if i+1 < len(w.domains) && w.domains[i+1].Domain == w.domains[i].Domain {
				continue
			}
			nd++
			if _, err := bw.Write(appendDomainLine(bw.AvailableBuffer(), &w.domains[i])); err != nil {
				return err
			}
		}
		for i := range w.ips {
			if i+1 < len(w.ips) && w.ips[i+1].Addr == w.ips[i].Addr {
				continue
			}
			ni++
			if _, err := bw.Write(appendIPLine(bw.AvailableBuffer(), &w.ips[i])); err != nil {
				return err
			}
		}
		footer.Domains, footer.IPs = nd, ni
		if err := enc.Encode(jsonLine{Kind: "footer", Footer: &footer}); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	w.set.record(path)
	w.Shards++
	w.domains = w.domains[:0]
	w.ips = w.ips[:0]
	return nil
}

// ipsByKey sorts IP records together with their precomputed sort keys.
type ipsByKey struct {
	ips  []IPInfo
	keys []string
}

func (s ipsByKey) Len() int           { return len(s.ips) }
func (s ipsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s ipsByKey) Swap(i, j int) {
	s.ips[i], s.ips[j] = s.ips[j], s.ips[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
