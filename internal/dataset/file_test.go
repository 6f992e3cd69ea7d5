package dataset

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

func TestWriteReadFilePlainAndGzip(t *testing.T) {
	dir := t.TempDir()
	s := sampleSnapshot()
	s.SortDomains()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s.Domains, got.Domains) || !reflect.DeepEqual(s.IPs, got.IPs) {
			t.Errorf("%s: round trip mismatch", name)
		}
	}
	// The gzip file should actually be compressed (smaller, magic bytes).
	plain, _ := os.ReadFile(filepath.Join(dir, "snap.jsonl"))
	zipped, _ := os.ReadFile(filepath.Join(dir, "snap.jsonl.gz"))
	if len(zipped) >= len(plain) {
		t.Errorf("gzip did not shrink: %d vs %d", len(zipped), len(plain))
	}
	if len(zipped) < 2 || zipped[0] != 0x1f || zipped[1] != 0x8b {
		t.Error("gzip magic missing")
	}
}

func TestReadFileErrors(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("missing file read succeeded")
	}
	// A .gz path with non-gzip content fails cleanly.
	path := filepath.Join(t.TempDir(), "bad.jsonl.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("bad gzip read succeeded")
	}
}

// brokenWriter fails after passing through n bytes — the injected
// failing writer for the atomic-commit path.
type brokenWriter struct {
	w    io.Writer
	left int
	err  error
}

func (b *brokenWriter) Write(p []byte) (int, error) {
	if len(p) > b.left {
		n, _ := b.w.Write(p[:b.left])
		b.left = 0
		return n, b.err
	}
	b.left -= len(p)
	return b.w.Write(p)
}

func TestWriteFileAtomicCommit(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz"} {
		path := filepath.Join(dir, name)
		// Commit a good snapshot first.
		committed := sampleSnapshot()
		committed.SortDomains()
		if err := WriteFile(path, committed); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// A failed write — the moral equivalent of a crash mid-commit —
		// must leave the committed file untouched and no temp debris.
		boom := errors.New("disk on fire")
		err = atomicWrite(path, &gzWriterPool, func(w io.Writer) error {
			bw := &brokenWriter{w: w, left: 10, err: boom}
			_, werr := sampleSnapshot().WriteTo(bw)
			return werr
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%s: atomicWrite error = %v, want injected failure", name, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: committed file changed by failed write", name)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: temp file left behind: %v", name, err)
		}
		if got, err := ReadFile(path); err != nil {
			t.Errorf("%s: committed file unreadable after failed write: %v", name, err)
		} else if !reflect.DeepEqual(got.Domains, committed.Domains) {
			t.Errorf("%s: committed content corrupted", name)
		}
	}
}

func TestWriteFileFreshFailureLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never.jsonl")
	boom := errors.New("boom")
	err := atomicWrite(path, &gzWriterPool, func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("final path exists after failed first write: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}

func TestReadFileTruncatedGzipContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.jsonl.gz")
	if err := WriteFile(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadFile(path)
	if err == nil {
		t.Fatal("truncated gzip read succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, path) || !strings.Contains(msg, "line") {
		t.Errorf("error lacks path:line context: %q", msg)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error does not unwrap to unexpected EOF: %v", err)
	}
}

// TestGzipHandoffFailsClosed breaks the writer underneath the
// compressor goroutine, where the code producing the bytes cannot see
// it: the commit must still report the failure and leave nothing.
func TestGzipHandoffFailsClosed(t *testing.T) {
	boom := errors.New("disk on fire")
	// 1 MiB of lines that deflate to far more than any `left` below.
	var text bytes.Buffer
	for i := 0; text.Len() < 1<<20; i++ {
		fmt.Fprintf(&text, "%d %x\n", i, sha256.Sum256([]byte{byte(i), byte(i >> 8)}))
	}
	for _, left := range []int{0, 10, 100 << 10} {
		for _, heeds := range []bool{true, false} { // whether the producer stops at a failed Write
			dst := &brokenWriter{w: io.Discard, left: left, err: boom}
			before := runtime.NumGoroutine()
			err := gzipThrough(dst, &gzWriterPool, func(w io.Writer) error {
				for p := text.Bytes(); len(p) > 0; {
					n := min(len(p), 1000)
					if _, err := w.Write(p[:n]); err != nil && heeds {
						return err
					}
					p = p[n:]
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("writer failing after %d bytes, producer heeds errors %v: gzipThrough = %v, want the writer's error", left, heeds, err)
			}
			if n := settledGoroutines(before); n > before {
				t.Errorf("writer failing after %d bytes, producer heeds errors %v: %d goroutines, %d before", left, heeds, n, before)
			}
		}
	}

	// The same through a commit: a disk that is full the moment the
	// compressor first writes to it.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to commit onto")
	}
	path := filepath.Join(t.TempDir(), "full.jsonl.gz")
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, buildSnapshot(2000))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("WriteFile onto a full disk = %v, want ENOSPC", err)
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Lstat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s exists after the failed commit (err %v)", p, err)
		}
	}
}

// gzipXFL reads the level hint of a gzip file's header (RFC 1952): 4
// for the fastest algorithm; compress/gzip writes 0 for the default level.
func gzipXFL(t *testing.T, path string) byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < 10 {
		t.Fatalf("%s: %d bytes, %v", path, len(raw), err)
	}
	return raw[8]
}

// TestGzipLevelsStayOutOfTheSnapshot: shards are deflated at BestSpeed,
// the snapshot at the default level, and which level a shard was written
// at does not reach the merged bytes, which are those of one plain
// default-level gzip stream (what a commit wrote before its deflate
// moved to a goroutine of its own).
func TestGzipLevelsStayOutOfTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(5000) // ~600 KiB of lines: several hand-off chunks
	base := filepath.Join(dir, "snap.jsonl.gz")
	set := shardOut(t, s, base, 2, 1<<20)
	shards := set.Paths()
	if len(shards) != 2 {
		t.Fatalf("%d shards, want 2", len(shards))
	}
	regzip := func(path string) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		zw := gzip.NewWriter(&out)
		if _, err := io.Copy(zw, zr); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merged := func() []byte {
		t.Helper()
		if _, err := Merge(base, shards); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for _, p := range shards {
		if got := gzipXFL(t, p); got != 4 {
			t.Errorf("%s: XFL %d, want 4 (BestSpeed)", p, got)
		}
	}
	fast := merged()
	regzip(shards[0])
	mixed := merged()
	regzip(shards[1])
	slow := merged()
	if gzipXFL(t, shards[0]) != 0 || gzipXFL(t, shards[1]) != 0 {
		t.Fatal("re-deflated shards are not at the default level")
	}
	if !bytes.Equal(fast, mixed) || !bytes.Equal(fast, slow) {
		t.Errorf("merged bytes depend on the shards' levels: %d (both fast), %d (mixed), %d (both default)", len(fast), len(mixed), len(slow))
	}
	var plain bytes.Buffer
	zw := gzip.NewWriter(&plain)
	if _, err := s.WriteTo(zw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, plain.Bytes()) {
		t.Errorf("merged snapshot (%d bytes, XFL %d) is not the plain default-level stream (%d bytes)", len(fast), fast[8], plain.Len())
	}
}
