package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
//   - the final line is a footer recording the shard's seq, the domain
//     range and the record counts.
//
// The footer is a line of the snapshot format (lineRules holds it to the
// body it ends), so a shard loads, streams and passes fsck as a snapshot;
// only Merge, which also needs the sort order, requires one.
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
	// number (last-write-wins), and a resumed run numbers its shards
	// after those of the run it resumes (ResumeShardSet).
	Seq int `json:"seq"`
	// FirstDomain and LastDomain bound the shard's domain range; empty
	// when the shard carries no domains.
	FirstDomain string `json:"first_domain,omitempty"`
	LastDomain  string `json:"last_domain,omitempty"`
	// Domains and IPs count the records in each section.
	Domains int `json:"domains"`
	IPs     int `json:"ips"`
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

// ResumeShardSet picks up the shards an interrupted run left for the
// snapshot at base: the files ShardPath names in base's directory. It
// reads each as the snapshot it is (ReadFile, so lineRules holds every
// line) and refuses one that belongs to another (corpus, date). It
// returns their records as one snapshot, a collection's prior, in which
// a domain or address that more than one shard holds counts from the
// highest-numbered (as Merge resolves it), and a ShardSet that numbers
// its shards after theirs. The old shards are the first of the set's
// Paths: a collection with that prior measures and writes only what
// none of them holds, Merge reads their records where they lie, and
// Remove deletes them with the new ones once the merged snapshot has
// committed. The "<shard>.tmp" files of a spill cut short are removed,
// not read. With no shards left at base, the set is a new one and the
// snapshot empty.
func ResumeShardSet(base, date, corpus string) (*ShardSet, *Snapshot, error) {
	dir := filepath.Dir(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var seqs []int
	for _, e := range entries {
		// A name counts only when ShardPath gives it back: parseShardSeq
		// alone takes a .tmp, and any other file with ".shard-" in it.
		seq, ok := parseShardSeq(e.Name())
		switch shard := filepath.Base(ShardPath(base, seq)); {
		case !ok:
		case e.Name() == shard:
			seqs = append(seqs, seq)
		case e.Name() == shard+".tmp":
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, nil, err
			}
		}
	}
	sort.Ints(seqs)
	ss := NewShardSet(base, date, corpus)
	prior := NewSnapshot(date, corpus)
	for _, seq := range seqs {
		path := ShardPath(base, seq)
		s, err := ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		if s.Date != date || s.Corpus != corpus {
			return nil, nil, fmt.Errorf("dataset: %s holds corpus %s at %s, not %s at %s",
				path, s.Corpus, s.Date, corpus, date)
		}
		prior.Domains = append(prior.Domains, s.Domains...)
		maps.Copy(prior.IPs, s.IPs)
		ss.paths = append(ss.paths, path)
		ss.seq.Store(int64(seq) + 1)
	}
	return ss, prior, nil
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

// Remove deletes every shard file of the set. Best-effort: the first
// error is returned but removal continues.
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
// each full buffer out as one sorted shard file. A domain record is
// encoded as it arrives, so what the writer holds of it is its canonical
// line, packed into fixed-size chunks, and a small reference to sort
// by: the record itself, its MX and address arrays included, is the
// caller's again once AddDomain returns. Not safe for concurrent use;
// create one writer per producer goroutine.
type ShardWriter struct {
	set *ShardSet
	max int
	// lines refers to the buffered domain lines in arrival order; their
	// bytes are in chunks, the last of which is being filled.
	lines  []lineRef
	chunks [][]byte
	ips    []IPInfo
	// Shards counts the shard files this writer has spilled.
	Shards int
}

// lineRef places one buffered domain line: chunks[chunk][start:end],
// ordered by name.
type lineRef struct {
	name       string
	chunk      int32
	start, end int32
}

// shardChunk is the size of a ShardWriter's line chunks; a line longer
// than that gets a chunk of its own size. A spill drops its chunks, so
// the next shard's lines do not pin this one's memory.
const shardChunk = 64 << 10

// AddDomain buffers the canonical line of one domain record, spilling a
// shard when the buffer is full.
func (w *ShardWriter) AddDomain(d DomainRecord) error {
	// The line is encoded straight into the last chunk's free space. One
	// that does not fit comes back from append in an array of its own,
	// and starts the next chunk.
	var free []byte
	if n := len(w.chunks); n > 0 {
		free = w.chunks[n-1][len(w.chunks[n-1]):]
	}
	line := appendDomainLine(free, &d)
	if len(line) > cap(free) {
		w.chunks = append(w.chunks, make([]byte, 0, max(shardChunk, len(line))))
		line = append(w.chunks[len(w.chunks)-1], line...)
	}
	n := len(w.chunks) - 1
	start := len(w.chunks[n])
	w.chunks[n] = w.chunks[n][:start+len(line)]
	w.lines = append(w.lines, lineRef{name: d.Domain, chunk: int32(n), start: int32(start), end: int32(start + len(line))})
	return w.maybeSpill()
}

// AddIP buffers one IP record, spilling a shard when the buffer is full.
func (w *ShardWriter) AddIP(info IPInfo) error {
	w.ips = append(w.ips, info)
	return w.maybeSpill()
}

func (w *ShardWriter) maybeSpill() error {
	if len(w.lines)+len(w.ips) >= w.max {
		return w.spill()
	}
	return nil
}

// Close spills any buffered records and finishes the writer, letting go
// of its buffers. A writer that buffered nothing writes nothing.
func (w *ShardWriter) Close() error {
	var err error
	if len(w.lines)+len(w.ips) > 0 {
		err = w.spill()
	}
	w.lines, w.ips = nil, nil
	return err
}

// spill sorts the buffered records and commits them as one shard file
// via the same atomic tmp+fsync+rename path as full snapshots. A ".gz"
// shard is gzip in stored blocks: Merge reads it once and deletes it,
// so deflating it would only cost the collection time.
func (w *ShardWriter) spill() error {
	seq := int(w.set.seq.Add(1)) - 1
	path := ShardPath(w.set.Base, seq)

	// Stable sort: a producer may hand the same domain twice (a target
	// list that names it twice); keeping input order among equals keeps
	// the later record, as the merge's tie-break does across shards.
	slices.SortStableFunc(w.lines, func(a, b lineRef) int { return strings.Compare(a.name, b.name) })
	// IPs order by address text, the order Merge checks; each key is
	// rendered once, not twice per comparison.
	keys := make([]string, len(w.ips))
	for i := range w.ips {
		keys[i] = w.ips[i].Addr.String()
	}
	sort.Stable(ipsByKey{w.ips, keys})

	footer := ShardFooter{Seq: seq}
	if len(w.lines) > 0 {
		footer.FirstDomain = w.lines[0].name
		footer.LastDomain = w.lines[len(w.lines)-1].name
	}

	err := atomicWrite(path, gzip.NoCompression, func(out io.Writer) error {
		bw := bufWriterPool.Get().(*bufio.Writer)
		bw.Reset(out)
		defer func() {
			bw.Reset(io.Discard)
			bufWriterPool.Put(bw)
		}()
		if _, err := bw.Write(appendHeaderLine(bw.AvailableBuffer(), w.set.Date, w.set.Corpus)); err != nil {
			return err
		}
		// Adjacent duplicates collapse here (keep the later record) so a
		// shard's sections are strictly increasing.
		nd, ni := 0, 0
		for i, ref := range w.lines {
			if i+1 < len(w.lines) && w.lines[i+1].name == ref.name {
				continue
			}
			nd++
			if _, err := bw.Write(w.chunks[ref.chunk][ref.start:ref.end]); err != nil {
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
		if err := json.NewEncoder(bw).Encode(jsonLine{Kind: "footer", Footer: &footer}); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}
	w.set.record(path)
	w.Shards++
	w.chunks = nil
	w.lines = w.lines[:0]
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
