package dataset

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
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

// TestWalkDecodesEachTailOnce steps lineRules over n domain lines, each
// with a name and rank of its own, whose tails take k distinct values
// (tailRecord): the walk's table must end with one entry per distinct
// tail, or maxTails when k exceeds the bound, whether the walk stores
// its records or walks them bare, and each stored record must be the
// one its line says. A walk that went round the table would leave it
// empty.
func TestWalkDecodesEachTailOnce(t *testing.T) {
	const n = 3000
	header := appendHeaderLine(nil, "2021-06", "com")
	for _, k := range []int{1, 7, 150, maxTails, 2 * maxTails} {
		for _, store := range []bool{true, false} {
			var rules lineRules
			var l jsonLine
			if _, err := rules.step(header[:len(header)-1], &l); err != nil {
				t.Fatal(err)
			}
			var d DomainRecord
			for i := range n {
				want := tailRecord(i, k)
				line := appendDomainLine(nil, &want)
				l = jsonLine{}
				if store {
					l.Domain = &d
				}
				key, err := rules.step(line[:len(line)-1], &l)
				if err != nil || string(key) != want.Domain {
					t.Fatalf("k=%d store=%v line %d: key %q, error %v", k, store, i, key, err)
				}
				if store && !reflect.DeepEqual(d, want) {
					t.Fatalf("k=%d line %d:\n got  %#v\n want %#v", k, i, d, want)
				}
			}
			if want := min(k, maxTails); len(rules.tails) != want {
				t.Errorf("k=%d store=%v: %d lines left %d tails in the table, want %d", k, store, n, len(rules.tails), want)
			}
			// A tail longer than maxTailBytes is decoded, not entered.
			long := DomainRecord{Domain: "long.example", MX: []MXObs{}, SPF: "v=spf1 " + strings.Repeat("a", maxTailBytes) + " -all"}
			line := appendDomainLine(nil, &long)
			held := len(rules.tails)
			l = jsonLine{}
			if store {
				l.Domain = &d
			}
			if _, err := rules.step(line[:len(line)-1], &l); err != nil || (store && !reflect.DeepEqual(d, long)) || (k < maxTails && len(rules.tails) != held) {
				t.Errorf("k=%d store=%v: a long tail: error %v, table %d -> %d", k, store, err, held, len(rules.tails))
			}
		}
	}
}

// tailRecord is domain i of a corpus whose tails take k distinct values,
// shaped like a flat world's (two exchanges of two addresses each) with
// the other shapes a tail may have mixed in: no MX or an empty list, an
// exchange without addresses, a dangling one, SPF and delegation.
func tailRecord(i, k int) DomainRecord {
	j := i % k
	d := DomainRecord{Domain: fmt.Sprintf("d%06d.com", i), Rank: i % 5}
	switch {
	case j%17 == 1: // "mx":null
		d.SPF = fmt.Sprintf("v=spf1 a:p%04d.example -all", j)
		return d
	case j%19 == 2:
		d.MX, d.SPF = []MXObs{}, fmt.Sprintf("v=spf1 a:p%04d.example -all", j)
		return d
	}
	for m := range 2 {
		mx := MXObs{Preference: uint16(10 * (m + 1)), Exchange: fmt.Sprintf("mx%d.p%04d-mail.net", m+1, j), Dangling: j%13 == 3 && m == 1}
		if j%7 != 4 || m == 0 {
			mx.Addrs = []netip.Addr{netip.AddrFrom4([4]byte{10, byte(j >> 8), byte(j), byte(2*m + 1)}), netip.AddrFrom4([4]byte{10, byte(j >> 8), byte(j), byte(2*m + 2)})}
		}
		d.MX = append(d.MX, mx)
	}
	if j%2 == 0 {
		d.SPF = fmt.Sprintf("v=spf1 include:p%04d-mail.net -all", j)
	}
	if j%11 == 5 {
		d.Delegation = DelegationLame
	}
	return d
}

// flatShapedSnapshot is an n-domain snapshot whose domain lines are
// shaped like the flat world's: two exchanges of two addresses each,
// about 150 distinct tails, no rank.
func flatShapedSnapshot(n int) *Snapshot {
	s := NewSnapshot("2021-06", "com")
	for i := range n {
		j := (i * 7919) % 150
		d := DomainRecord{Domain: fmt.Sprintf("d%09d.com", i)}
		for m := range 2 {
			a := func(h int) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(j), byte(m), byte(h)}) }
			d.MX = append(d.MX, MXObs{Preference: uint16(10 * (m + 1)), Exchange: fmt.Sprintf("mx%d.p%03d-mail.net", m+1, j), Addrs: []netip.Addr{a(1), a(2)}})
			if i < 150 {
				for h := 1; h <= 2; h++ {
					s.AddIP(IPInfo{Addr: a(h), ASN: 65000, ASName: "PROV", HasCensys: true, Port25Open: true})
				}
			}
		}
		s.AddDomain(d)
	}
	s.SortDomains()
	return s
}

// BenchmarkWalkLines times the two line loops over two gzipped
// 20 000-domain snapshots: buildSnapshot's ("build": one exchange, 7
// distinct tails) and flatShapedSnapshot's ("flat": the flat world's
// two-exchange tails, 150 distinct). "pass" is a Stream.ForEach with
// both callbacks, as each inference pass makes; "walk" is a shard
// reader stepped to the end, as Merge reads each shard, storing no
// record. MB/s counts the uncompressed lines.
func BenchmarkWalkLines(b *testing.B) {
	for _, corpus := range []struct {
		name string
		s    *Snapshot
	}{{"build", buildSnapshot(20000)}, {"flat", flatShapedSnapshot(20000)}} {
		b.Run(corpus.name, func(b *testing.B) { benchmarkWalkLines(b, corpus.s) })
	}
}

func benchmarkWalkLines(b *testing.B, s *Snapshot) {
	dir := b.TempDir()
	path := filepath.Join(dir, "snap.jsonl.gz")
	if err := WriteFile(path, s); err != nil {
		b.Fatal(err)
	}
	set := NewShardSet(filepath.Join(dir, "run.jsonl.gz"), s.Date, s.Corpus)
	set.MaxBuffered = len(s.Domains) + len(s.IPs) + 1 // one shard, written at Close
	w := set.NewWriter()
	for i := range s.Domains {
		if err := w.AddDomain(s.Domains[i]); err != nil {
			b.Fatal(err)
		}
	}
	for _, info := range s.IPs {
		if err := w.AddIP(info); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	shard := set.Paths()[0]
	size := int64(len(snapshotBytes(b, s)))
	lines := float64(len(s.Domains) + len(s.IPs) + 1)
	// timed runs body b.N times and reports ns/line and allocs/line.
	timed := func(b *testing.B, body func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for range b.N {
			body()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		perLine := lines * float64(b.N)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perLine, "allocs/line")
	}

	b.Run("pass", func(b *testing.B) {
		st, err := OpenStream(path)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(size)
		b.ReportAllocs()
		timed(b, func() {
			var domains, ips int
			err := st.ForEach(
				func(*DomainRecord) error { domains++; return nil },
				func(*IPInfo) error { ips++; return nil },
			)
			if err != nil || domains != len(s.Domains) || ips != len(s.IPs) {
				b.Fatalf("pass saw %d domains, %d ips, error %v", domains, ips, err)
			}
		})
	})
	b.Run("walk", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		timed(b, func() {
			r, err := openShard(shard, make(tailTable))
			if err != nil {
				b.Fatal(err)
			}
			for r.kind != "" && err == nil {
				err = r.advance()
			}
			r.close()
			if err != nil {
				b.Fatal(err)
			}
		})
	})
}
