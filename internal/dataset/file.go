package dataset

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// deflateLevel is the one level every gzipped file of the package is
// written at: snapshots, shards and Merge output. On the benchmark's
// 20k-domain snapshot it deflates in 0.28 of the default level's time,
// no slower than gzip.BestSpeed, for a file 1.25 times the default
// level's size (level table in results/BENCH_e2e_scan-flat.json).
const deflateLevel = 3

// gzWriterPool and gzReaderPool recycle gzip codec state (the deflate
// window alone is hundreds of KiB) across snapshot and shard writes;
// sharded collection opens one stream per spill, per worker.
var gzWriterPool = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, deflateLevel) // a valid level cannot fail
		return zw
	},
}

var gzReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

func getGzReader(r io.Reader) (*gzip.Reader, error) {
	zr := gzReaderPool.Get().(*gzip.Reader)
	if err := zr.Reset(r); err != nil {
		gzReaderPool.Put(zr)
		return nil, err
	}
	return zr, nil
}

func putGzReader(zr *gzip.Reader) { gzReaderPool.Put(zr) }

// WriteFile stores a snapshot at path in JSONL form, gzip-compressed when
// the path ends in ".gz". Corpus-scale snapshots compress roughly 10x.
//
// The commit is atomic and durable: the snapshot is written to
// "<path>.tmp", fsync'd, renamed over path, and the directory fsync'd.
// A crash at any point leaves either the old committed file or the new
// one at path — never a truncated half-gzipped hybrid.
func WriteFile(path string, s *Snapshot) error {
	return atomicWrite(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// atomicWrite commits write's output at path with tmp+fsync+rename
// semantics. On any error the temporary file is removed and path is
// untouched.
//
// A path ending in ".gz" is deflated at deflateLevel. The deflate runs
// on its own goroutine (see gzipThrough), so write — a
// merge loop, Snapshot.WriteTo, a spill's encoder — overlaps with it;
// whatever that goroutine could not write fails the commit before Sync.
func atomicWrite(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := fsys.create(tmp)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if strings.HasSuffix(path, ".gz") {
		err = gzipThrough(f, write)
	} else {
		err = write(f)
	}
	if err != nil {
		return fmt.Errorf("dataset: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.rename(tmp, path); err != nil {
		return err
	}
	committed = true
	// The rename itself must survive a crash: fsync the directory.
	return syncDir(filepath.Dir(path))
}

// fsys is every file system call a commit makes (atomicWrite and
// syncDir): the os package's, behind one seam so that a test can fail
// each call in turn and drop what was never synced.
var fsys = struct {
	create, open func(name string) (syncFile, error)
	rename       func(oldpath, newpath string) error
}{
	create: func(name string) (syncFile, error) {
		return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	},
	open:   func(name string) (syncFile, error) { return os.Open(name) },
	rename: os.Rename,
}

// syncFile is what a commit does with a file it opened.
type syncFile interface {
	io.Writer
	Sync() error
	Close() error
}

// handoffChunk and handoffChunks size the window between a writer and
// the goroutine deflating what it wrote: one chunk being filled, one
// being deflated and one queued, each the size of the bufio.Writer
// flushes that fill them. More buys nothing: the slower side sets the
// pace either way.
const (
	handoffChunk  = 64 << 10
	handoffChunks = 3
)

var chunkPool = sync.Pool{New: func() any { return new([handoffChunk]byte) }}

// gzipThrough runs write over a gzip stream onto dst, deflating on a
// goroutine of its own: what write hands to its writer is copied into
// pooled chunks that a compressor goroutine takes in order, so write
// only ever waits when it is handoffChunks ahead. The stream is ended,
// the goroutine has exited and the gzip writer is back in its pool when
// gzipThrough returns. The first error wins — write's own, or the
// compressor's (from the gzip writer or dst), which also fails the
// Write that follows it, so a writer on a full disk stops early.
func gzipThrough(dst io.Writer, write func(w io.Writer) error) error {
	zw := gzWriterPool.Get().(*gzip.Writer)
	zw.Reset(dst)
	defer func() {
		zw.Reset(io.Discard)
		gzWriterPool.Put(zw)
	}()
	h := &handoff{
		full: make(chan []byte, handoffChunks),
		free: make(chan *[handoffChunk]byte, handoffChunks),
		done: make(chan struct{}),
	}
	for i := 0; i < handoffChunks; i++ {
		h.free <- chunkPool.Get().(*[handoffChunk]byte)
	}
	go h.compress(zw)
	err := write(h)
	if err == nil {
		err = h.flush()
	}
	close(h.full)
	<-h.done
	if h.err != nil {
		// Reported ahead of write's own error, which as a rule is the
		// echo of this one.
		return h.err
	}
	if err != nil {
		return err
	}
	// Every chunk is back: the compressor returned each before it exited.
	for i := 0; i < handoffChunks; i++ {
		chunkPool.Put(<-h.free)
	}
	return zw.Close()
}

// handoff is the io.Writer side of gzipThrough.
type handoff struct {
	full chan []byte              // filled chunks, in stream order
	free chan *[handoffChunk]byte // chunks to fill
	cur  *[handoffChunk]byte      // the chunk being filled, nil between chunks
	n    int                      // bytes of cur filled
	done chan struct{}            // closed when compress has returned
	err  error                    // compress's error; read after done
}

// compress writes the chunks to zw until full is closed. After a failed
// write it exits without taking more, and Write and flush see done
// instead of blocking.
func (h *handoff) compress(zw *gzip.Writer) {
	defer close(h.done)
	for c := range h.full {
		if _, err := zw.Write(c); err != nil {
			h.err = err
			return
		}
		h.free <- (*[handoffChunk]byte)(c[:handoffChunk])
	}
}

func (h *handoff) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if h.cur == nil {
			select {
			case h.cur = <-h.free:
			case <-h.done:
				return total - len(p), h.err
			}
		}
		k := copy(h.cur[h.n:], p)
		h.n += k
		p = p[k:]
		if h.n == handoffChunk {
			if err := h.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// flush hands the chunk being filled to the compressor.
func (h *handoff) flush() error {
	if h.cur == nil {
		return nil
	}
	select {
	case h.full <- h.cur[:h.n]:
		h.cur, h.n = nil, 0
		return nil
	case <-h.done:
		return h.err
	}
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := fsys.open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openReader opens path for reading, transparently decompressing ".gz"
// paths. It is the one open-file+gunzip step of ReadFile, Stream passes
// and the merge reader; done releases the file and the pooled gzip state.
func openReader(path string) (r io.Reader, done func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return fileReader(f, path)
}

// fileReader is openReader's reader over f, already open at path; done
// closes f, which an error has closed already.
func fileReader(f *os.File, path string) (r io.Reader, done func(), err error) {
	if !strings.HasSuffix(path, ".gz") {
		return f, func() { f.Close() }, nil
	}
	zr, err := getGzReader(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return zr, func() { putGzReader(zr); f.Close() }, nil
}

// ReadFile loads a snapshot written by WriteFile, transparently
// decompressing ".gz" paths. Read errors carry path and line context so
// damage (for example a truncated gzip stream) is locatable.
func ReadFile(path string) (*Snapshot, error) {
	r, done, err := openReader(path)
	if err != nil {
		return nil, err
	}
	defer done()
	return read(r, path)
}
