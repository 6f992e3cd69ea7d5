package dataset

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWalkExitsAndErrors holds the decode-ahead line loop to what a
// serial loop does on every way out of a pass: the error strings are
// those of the serial walkLines this one replaced, the callbacks have
// run for exactly the lines before the failure, in file order, and no
// goroutine or descriptor outlives the call. 300 domains span three
// batches, so the mid-file cases end with lines decoded ahead.
func TestWalkExitsAndErrors(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(300)
	lines := bytes.SplitAfter(snapshotBytes(t, s), []byte("\n"))
	lines = lines[:len(lines)-1] // header, 300 domains, 7 IPs
	gzFile := func(name string, text ...[]byte) string {
		t.Helper()
		path := filepath.Join(dir, name+".jsonl.gz")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // the oversize line is 64MiB to deflate
		for _, b := range text {
			if _, err := zw.Write(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	join := func(parts ...[][]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, bytes.Join(p, nil)...)
		}
		return out
	}
	whole := gzFile("whole", join(lines))
	wholeRaw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.jsonl.gz")
	if err := os.WriteFile(truncated, wholeRaw[:len(wholeRaw)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	noBytes := filepath.Join(dir, "nobytes.jsonl.gz")
	if err := os.WriteFile(noBytes, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// One byte more than a line may have, a MiB at a time.
	oversize := [][]byte{join(lines[:2])}
	if !testing.Short() {
		mib := bytes.Repeat([]byte("a"), 1<<20)
		for n := 0; n < maxLineBytes; n += len(mib) {
			oversize = append(oversize, mib)
		}
	}
	oversize = append(oversize, []byte("a\n"), join(lines[2:]))
	gaveUp := errors.New("callback gave up")

	cases := []struct {
		name string
		path string
		// stopAt makes the domain callback return stopWith on its
		// stopAt-th call (1-based); 0 never stops.
		stopAt   int
		stopWith error
		// wantErr is the error text with the path written as PATH, ""
		// for a pass that succeeds.
		wantErr              string
		wantDomains, wantIPs int
		long                 bool
	}{
		{name: "whole pass", path: whole, wantDomains: 300, wantIPs: 7},
		{name: "ErrStop on the first domain", path: whole, stopAt: 1, stopWith: ErrStop, wantDomains: 1},
		{name: "callback error inside a batch", path: whole, stopAt: 200, stopWith: gaveUp,
			wantErr: "callback gave up", wantDomains: 200},
		{name: "malformed line", path: gzFile("malformed", join(lines[:250]), []byte(`{"kind":"domain","domain":{"domain":`+"\n"), join(lines[251:])),
			wantErr: "dataset: PATH: line 251: unexpected end of JSON input", wantDomains: 249},
		{name: "duplicate header", path: gzFile("twoheaders", join(lines[:100], lines[:1], lines[100:])),
			wantErr: "dataset: PATH: line 101: duplicate header", wantDomains: 99},
		{name: "truncated gzip stream", path: truncated,
			wantErr: "dataset: PATH: line 309: unexpected EOF", wantDomains: 300, wantIPs: 7},
		{name: "oversize line", long: true, path: gzFile("oversize", oversize...),
			wantErr: "dataset: PATH: line 3: bufio.Scanner: token too long", wantDomains: 1},
		{name: "empty gzip stream", path: gzFile("empty"), wantErr: "dataset: PATH: empty input"},
		{name: "empty file", path: noBytes, wantErr: "dataset: PATH: EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("grows a line buffer to 64MiB")
			}
			goroutines, fds := runtime.NumGoroutine(), openFDs(t)
			var domains []string
			var ips int
			st := &Stream{Path: c.path}
			err := st.ForEach(
				func(d *DomainRecord) error {
					if ips > 0 {
						t.Errorf("domain %s delivered after an IP", d.Domain)
					}
					domains = append(domains, d.Domain)
					if len(domains) == c.stopAt {
						return c.stopWith
					}
					return nil
				},
				func(*IPInfo) error { ips++; return nil },
			)
			got := ""
			if err != nil {
				got = strings.ReplaceAll(err.Error(), c.path, "PATH")
			}
			if got != c.wantErr {
				t.Errorf("error = %q, want %q", got, c.wantErr)
			}
			if len(domains) != c.wantDomains || ips != c.wantIPs {
				t.Errorf("callbacks ran for %d domains and %d IPs, want %d and %d", len(domains), ips, c.wantDomains, c.wantIPs)
			}
			for i, name := range domains {
				if want := s.Domains[i].Domain; name != want {
					t.Fatalf("domain %d delivered is %s, want %s: not in file order", i, name, want)
				}
			}
			if n := openFDs(t); n != fds {
				t.Errorf("%d descriptors open after the pass, %d before", n, fds)
			}
			if n := settledGoroutines(goroutines); n > goroutines {
				t.Errorf("%d goroutines after the pass, %d before", n, goroutines)
			}
		})
	}

	// OpenStream is the ErrStop case as the program runs it.
	if st, err := OpenStream(whole); err != nil || st.Date != s.Date || st.Corpus != s.Corpus {
		t.Errorf("OpenStream = %+v, %v", st, err)
	}
}

// settledGoroutines counts the goroutines once a helper that has just
// signalled its exit (closing a channel is the last thing the decoder
// and the compressor do) has had the moment it needs to be gone.
func settledGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	return len(ents)
}
