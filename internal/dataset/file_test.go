package dataset

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
		err = atomicWrite(path, deflateLevel, func(w io.Writer) error {
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
	err := atomicWrite(path, deflateLevel, func(w io.Writer) error { return boom })
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
	for _, level := range []int{deflateLevel, gzip.NoCompression} {
		for _, left := range []int{0, 10, 100 << 10} {
			for _, heeds := range []bool{true, false} { // whether the producer stops at a failed Write
				dst := &brokenWriter{w: io.Discard, left: left, err: boom}
				before := runtime.NumGoroutine()
				err := gzipThrough(dst, level, func(w io.Writer) error {
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
					t.Errorf("level %d, writer failing after %d bytes, producer heeds errors %v: gzipThrough = %v, want the writer's error", level, left, heeds, err)
				}
				if n := settledGoroutines(before); n > before {
					t.Errorf("level %d, writer failing after %d bytes, producer heeds errors %v: %d goroutines, %d before", level, left, heeds, n, before)
				}
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

// gzipAt is the one-shot gzip stream of plain at level: one Write, then
// Close.
func gzipAt(t *testing.T, plain []byte, level int) []byte {
	t.Helper()
	var out bytes.Buffer
	zw, err := gzip.NewWriterLevel(&out, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// gunzipFile returns the gzip file at path and its uncompressed bytes.
func gunzipFile(t *testing.T, path string) (raw, plain []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if plain, err = io.ReadAll(zr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return raw, plain
}

// requireLevel fails unless the gzip file at path is byte for byte the
// one-shot level stream of its uncompressed bytes: the compressor
// goroutine and its chunked hand-off leave no trace.
func requireLevel(t *testing.T, path string, level int) {
	t.Helper()
	raw, plain := gunzipFile(t, path)
	if want := gzipAt(t, plain, level); !bytes.Equal(raw, want) {
		t.Errorf("%s: %d bytes, not the one-shot level-%d stream of its %d plain bytes (%d bytes)",
			path, len(raw), level, len(plain), len(want))
	}
}

// TestGzipLevelsStayOutOfTheSnapshot: WriteFile and Merge output are
// each the one-shot deflateLevel stream of their lines, every spilled
// shard is the stored (gzip.NoCompression) stream of its lines, and the
// level a shard was written at does not reach the merged bytes: shards
// left by a tree that spilled at deflateLevel, or at any other level,
// merge to the same snapshot.
func TestGzipLevelsStayOutOfTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(5000) // ~600 KiB of lines: several hand-off chunks
	written := filepath.Join(dir, "written.jsonl.gz")
	if err := WriteFile(written, s); err != nil {
		t.Fatal(err)
	}
	requireLevel(t, written, deflateLevel)

	base := filepath.Join(dir, "snap.jsonl.gz")
	set := shardOut(t, s, base, 2, 1<<20)
	shards := set.Paths()
	if len(shards) != 2 {
		t.Fatalf("%d shards, want 2", len(shards))
	}
	for _, p := range shards {
		requireLevel(t, p, gzip.NoCompression)
	}
	regzip := func(path string, level int) {
		t.Helper()
		_, plain := gunzipFile(t, path)
		if err := os.WriteFile(path, gzipAt(t, plain, level), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	merged := func() []byte {
		t.Helper()
		if _, err := Merge(base, shards); err != nil {
			t.Fatal(err)
		}
		requireLevel(t, base, deflateLevel)
		raw, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	want := merged()
	if wantFile, _ := os.ReadFile(written); !bytes.Equal(want, wantFile) {
		t.Errorf("merged snapshot (%d bytes) differs from WriteFile's (%d bytes)", len(want), len(wantFile))
	}
	for _, level := range []int{deflateLevel, gzip.BestSpeed, gzip.DefaultCompression} {
		regzip(shards[0], level)
		mixed := merged()
		regzip(shards[1], level)
		both := merged()
		if !bytes.Equal(want, mixed) || !bytes.Equal(want, both) {
			t.Errorf("merged bytes depend on the shards' level %d: %d (as spilled), %d (one re-deflated), %d (both)",
				level, len(want), len(mixed), len(both))
		}
	}
}

// TestReadersAcceptEveryLevel: files deflated at any level — as older
// trees wrote them — read the same. A snapshot gzipped at three levels
// gives one ReadFile result, one Stream pass and one fsck report, and
// its shards re-deflated at each level merge to one snapshot.
func TestReadersAcceptEveryLevel(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(3000)
	plain := snapshotBytes(t, s)
	shards := shardOut(t, s, filepath.Join(dir, "shards.jsonl.gz"), 2, 1<<20).Paths()
	if len(shards) != 2 {
		t.Fatalf("%d shards, want 2", len(shards))
	}
	type result struct {
		fsck  FsckReport
		merge MergeStats
	}
	var first *result
	for _, level := range []int{gzip.BestSpeed, gzip.DefaultCompression, gzip.BestCompression} {
		ldir := filepath.Join(dir, fmt.Sprint(level))
		if err := os.Mkdir(ldir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(ldir, "snap.jsonl.gz")
		if err := os.WriteFile(path, gzipAt(t, plain, level), 0o644); err != nil {
			t.Fatal(err)
		}
		var got result
		read, err := ReadFile(path)
		if err != nil {
			t.Fatalf("level %d: ReadFile: %v", level, err)
		}
		st, err := OpenStream(path)
		if err != nil {
			t.Fatalf("level %d: OpenStream: %v", level, err)
		}
		streamed := NewSnapshot(st.Date, st.Corpus)
		if err := st.ForEach(
			func(d *DomainRecord) error { streamed.AddDomain(cloneDomain(d)); return nil },
			func(info *IPInfo) error { streamed.AddIP(*info); return nil },
		); err != nil {
			t.Fatalf("level %d: Stream pass: %v", level, err)
		}
		r, err := Fsck(path)
		if err != nil {
			t.Fatalf("level %d: Fsck: %v", level, err)
		}
		r.Path, r.TotalBytes, r.ValidBytes = "", 0, 0 // the file's size is the level's
		got.fsck = *r

		var lshards []string
		for _, p := range shards {
			_, sp := gunzipFile(t, p)
			lp := filepath.Join(ldir, filepath.Base(p))
			if err := os.WriteFile(lp, gzipAt(t, sp, level), 0o644); err != nil {
				t.Fatal(err)
			}
			lshards = append(lshards, lp)
		}
		out := filepath.Join(ldir, "merged.jsonl.gz")
		ms, err := Merge(out, lshards)
		if err != nil {
			t.Fatalf("level %d: Merge: %v", level, err)
		}
		got.merge = *ms
		_, merged := gunzipFile(t, out)

		for name, b := range map[string][]byte{"ReadFile": snapshotBytes(t, read), "Stream": snapshotBytes(t, streamed), "Merge": merged} {
			if !bytes.Equal(b, plain) {
				t.Errorf("level %d: %s gives %d bytes, not the snapshot's %d", level, name, len(b), len(plain))
			}
		}
		if !got.fsck.Clean {
			t.Errorf("level %d: fsck %+v, want clean", level, got.fsck)
		}
		if first == nil {
			first = &got
		} else if !reflect.DeepEqual(got, *first) {
			t.Errorf("level %d reads differently from level %d: fsck %+v vs %+v, merge %+v vs %+v",
				level, gzip.BestSpeed, got.fsck, first.fsck, got.merge, first.merge)
		}
	}
}

// crashFS stands in for the file system behind fsys and models what a
// crash keeps of it: a file's bytes as of its last Sync, and the
// directory's entries as of its last Sync or, since a rename may reach
// the disk before its directory is synced, as they are now. Its calls
// are numbered from 1. With failAt set, that call fails and, with
// crash also set, so does every later one, to no effect: the process
// died there. A failing Write writes half of what it was given.
type crashFS struct {
	calls, failAt int
	crash         bool
	live, synced  map[string]*inode
}

type inode struct{ data, durable []byte }

type crashFile struct {
	fs  *crashFS
	ino *inode // nil for a directory
}

var errInjected = errors.New("injected fault")

func (c *crashFS) call() error {
	c.calls++
	if c.failAt > 0 && (c.calls == c.failAt || c.crash && c.calls > c.failAt) {
		return errInjected
	}
	return nil
}

func (c *crashFS) create(name string) (syncFile, error) {
	if err := c.call(); err != nil {
		return nil, err
	}
	ino := &inode{}
	c.live[name] = ino
	return &crashFile{c, ino}, nil
}

func (c *crashFS) open(string) (syncFile, error) {
	if err := c.call(); err != nil {
		return nil, err
	}
	return &crashFile{fs: c}, nil
}

func (c *crashFS) rename(oldpath, newpath string) error {
	if err := c.call(); err != nil {
		return err
	}
	c.live[newpath] = c.live[oldpath]
	delete(c.live, oldpath)
	return nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	if err := f.fs.call(); err != nil {
		if f.fs.crash {
			return 0, err
		}
		f.ino.data = append(f.ino.data, p[:len(p)/2]...)
		return len(p) / 2, err
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *crashFile) Sync() error {
	if err := f.fs.call(); err != nil {
		return err
	}
	if f.ino == nil {
		f.fs.synced = maps.Clone(f.fs.live)
	} else {
		f.ino.durable = slices.Clone(f.ino.data)
	}
	return nil
}

func (f *crashFile) Close() error { return f.fs.call() }

// images is what a reader finds at path: now, and after a crash that
// kept the directory as last synced or as it is now. Each is the file's
// bytes, or nil when there is no file.
func (c *crashFS) images(path string) map[string][]byte {
	at := func(dir map[string]*inode, durable bool) []byte {
		ino := dir[path]
		switch {
		case ino == nil:
			return nil
		case durable:
			return append([]byte{}, ino.durable...)
		}
		return append([]byte{}, ino.data...)
	}
	return map[string][]byte{
		"now":                    at(c.live, false),
		"crash, synced entries":  at(c.synced, true),
		"crash, renamed entries": at(c.live, true),
	}
}

// TestAtomicWriteSurvivesEveryFault runs atomicWrite over a file that
// holds a committed snapshot, on crashFS: once without a fault, then
// with each of its file system calls (open, write, sync, close, rename,
// the directory's open and sync) failing in turn, and with the process
// dying at each. Whatever the fault, and whatever a crash drops of what
// was never synced, the path holds the old file or the new one, never a
// torn one; and once atomicWrite has returned nil, a crash keeps the
// new one.
func TestAtomicWriteSurvivesEveryFault(t *testing.T) {
	saved := fsys
	t.Cleanup(func() { fsys = saved })
	newSnap := sampleSnapshot()
	newSnap.SortDomains()
	for _, name := range []string{"snap.jsonl", "snap.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		old := []byte("the committed snapshot\n")
		run := func(failAt int, crash bool) (*crashFS, error) {
			ino := &inode{data: old, durable: old}
			c := &crashFS{failAt: failAt, crash: crash,
				live: map[string]*inode{path: ino}, synced: map[string]*inode{path: ino}}
			fsys.create, fsys.open, fsys.rename = c.create, c.open, c.rename
			err := atomicWrite(path, deflateLevel, func(w io.Writer) error {
				_, err := newSnap.WriteTo(w)
				return err
			})
			return c, err
		}

		clean, err := run(0, false)
		if err != nil {
			t.Fatalf("%s: fault-free commit: %v", name, err)
		}
		want := clean.images(path)["now"]
		if bytes.Equal(want, old) {
			t.Fatalf("%s: fault-free commit left the old file", name)
		}
		for what, got := range clean.images(path) {
			if !bytes.Equal(got, want) {
				t.Errorf("%s: committed, then %s: %d bytes, not the new file", name, what, len(got))
			}
		}
		if clean.calls < 7 {
			t.Fatalf("%s: a commit made %d file system calls, want at least 7", name, clean.calls)
		}

		for k := 1; k <= clean.calls; k++ {
			for _, crash := range []bool{false, true} {
				c, err := run(k, crash)
				if !errors.Is(err, errInjected) {
					t.Errorf("%s: call %d failed (crash=%v), atomicWrite = %v", name, k, crash, err)
				}
				for what, got := range c.images(path) {
					if !bytes.Equal(got, old) && !bytes.Equal(got, want) {
						t.Errorf("%s: call %d failed (crash=%v), then %s: a torn file of %d bytes", name, k, crash, what, len(got))
					}
				}
			}
		}
	}
}
