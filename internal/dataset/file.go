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

// gzWriterPool and gzReaderPool recycle gzip codec state (the deflate
// window alone is hundreds of KiB) across snapshot and shard writes;
// sharded collection opens one stream per spill, per worker.
var gzWriterPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

var gzReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

func getGzWriter(w io.Writer) *gzip.Writer {
	zw := gzWriterPool.Get().(*gzip.Writer)
	zw.Reset(w)
	return zw
}

func putGzWriter(zw *gzip.Writer) {
	zw.Reset(io.Discard)
	gzWriterPool.Put(zw)
}

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
func atomicWrite(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = getGzWriter(f)
		defer putGzWriter(zw)
		w = zw
	}
	if err := write(w); err != nil {
		return fmt.Errorf("dataset: write %s: %w", tmp, err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return fmt.Errorf("dataset: write %s: %w", tmp, err)
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	committed = true
	// The rename itself must survive a crash: fsync the directory.
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
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
