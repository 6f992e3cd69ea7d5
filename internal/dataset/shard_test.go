package dataset

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// buildSnapshot makes a deterministic n-domain snapshot with a smaller
// set of shared IPs, shaped like a provider-concentrated corpus.
func buildSnapshot(n int) *Snapshot {
	s := NewSnapshot("2021-06", "alexa")
	for i := 0; i < n; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, byte(i % 7), 1})
		s.AddDomain(DomainRecord{
			Domain: fmt.Sprintf("d%05d.example", i),
			Rank:   i + 1,
			MX: []MXObs{
				{Preference: 10, Exchange: fmt.Sprintf("mx%d.prov.example", i%7), Addrs: []netip.Addr{a}},
			},
		})
	}
	for i := 0; i < 7; i++ {
		s.AddIP(IPInfo{
			Addr: netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			ASN:  65000, ASName: "PROV", HasCensys: true, Port25Open: true,
			Scan: &ScanInfo{BannerHost: "mx.prov.example", EHLOHost: "mx.prov.example"},
		})
	}
	s.SortDomains()
	return s
}

// snapshotBytes is the canonical serialized form.
func snapshotBytes(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardOut spreads the snapshot's records across nw concurrent shard
// writers (striped like collection workers would) and returns the set.
func shardOut(t *testing.T, s *Snapshot, base string, nw, maxBuffered int) *ShardSet {
	t.Helper()
	set := NewShardSet(base, s.Date, s.Corpus)
	set.MaxBuffered = maxBuffered
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sw := set.NewWriter()
			for i := w; i < len(s.Domains); i += nw {
				if err := sw.AddDomain(s.Domains[i]); err != nil {
					t.Error(err)
					return
				}
			}
			i := -1
			err := s.ForEach(nil, func(info *IPInfo) error {
				if i++; i%nw != w {
					return nil
				}
				return sw.AddIP(*info)
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := sw.Close(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	return set
}

func TestShardMergeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{".jsonl", ".jsonl.gz"} {
		s := buildSnapshot(100)
		base := filepath.Join(dir, "snap"+ext)
		set := shardOut(t, s, base, 3, 16)
		if got := len(set.Paths()); got < 3 {
			t.Fatalf("expected several shards, got %d", got)
		}
		stats, err := Merge(base, set.Paths())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Domains != 100 || stats.IPs != 7 || stats.DupDomains != 0 {
			t.Errorf("stats = %+v", stats)
		}
		if err := WriteFile(filepath.Join(dir, "direct"+ext), s); err != nil {
			t.Fatal(err)
		}
		merged, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, "direct"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged, want) {
			t.Fatalf("%s: merged output differs from in-memory WriteFile (%d vs %d bytes)", ext, len(merged), len(want))
		}
		if err := set.Remove(); err != nil {
			t.Fatal(err)
		}
		for _, p := range set.Paths() {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("shard %s not removed", p)
			}
		}
	}
}

func TestMergeSingleShardFastPath(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(30)
	base := filepath.Join(dir, "snap.jsonl")
	set := shardOut(t, s, base, 1, 1<<20) // one writer, no spill until Close
	if got := len(set.Paths()); got != 1 {
		t.Fatalf("expected one shard, got %d", got)
	}
	if _, err := Merge(base, set.Paths()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snapshotBytes(t, s)) {
		t.Fatal("single-shard merge differs from WriteTo")
	}
}

// TestMergeContextCancelsAtEveryPoint cancels a merge at each point
// where it looks at its context, in turn: before the header, twice in
// the domain section, once in the IP section and after the last line,
// before the rename. Each returns context.Canceled, leaves no .tmp, and
// leaves the output path as it was: the previous file's bytes, or
// nothing. A context that never reports the cancel commits the
// snapshot.
func TestMergeContextCancelsAtEveryPoint(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(2500)
	for i := range 1500 {
		s.AddIP(IPInfo{Addr: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), ASN: 65001})
	}
	set := shardOut(t, s, filepath.Join(dir, "snap.jsonl.gz"), 2, 1<<20)
	records := len(s.Domains) + len(s.IPs)
	// Before the header, every mergePoll records, and after the last.
	polls := 1 + records/mergePoll + 1
	where := func(at int) string {
		switch written := (at-1)*mergePoll - 1; {
		case at == 1:
			return "before the header"
		case at == polls:
			return "after the last line"
		case written < len(s.Domains):
			return fmt.Sprintf("after %d domains", written)
		default:
			return fmt.Sprintf("after %d IPs", written-len(s.Domains))
		}
	}
	out := filepath.Join(dir, "merged.jsonl.gz")
	previous := []byte("the previous snapshot")
	for at := 1; at <= polls+1; at++ {
		keep := at%2 == 0 // a committed file is at the path already
		os.Remove(out)
		if keep {
			if err := os.WriteFile(out, previous, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ctx := &cancelAtPoll{Context: context.Background(), at: at}
		_, err := MergeContext(ctx, out, set.Paths())
		got, rerr := os.ReadFile(out)
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
			t.Errorf("cancelled %s: %v left behind", where(at), tmp)
		}
		if at > polls {
			if err != nil || ctx.polls != polls {
				t.Fatalf("uncancelled merge = %v after %d looks at its context, want nil after %d", err, ctx.polls, polls)
			}
			if m, err := ReadFile(out); err != nil || !bytes.Equal(snapshotBytes(t, m), snapshotBytes(t, s)) {
				t.Errorf("uncancelled merge did not commit the snapshot: %v", err)
			}
			continue
		}
		if err != context.Canceled {
			t.Errorf("cancelled %s: err = %v, want context.Canceled", where(at), err)
		}
		switch {
		case keep && !bytes.Equal(got, previous):
			t.Errorf("cancelled %s: the previous file reads %q (%v)", where(at), got, rerr)
		case !keep && !errors.Is(rerr, fs.ErrNotExist):
			t.Errorf("cancelled %s: %d bytes at the output path (%v), want none", where(at), len(got), rerr)
		}
	}
	for _, p := range set.Paths() {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("a cancelled merge removed its shard: %v", err)
		}
	}
}

// cancelAtPoll is a context whose at-th Err, and every one after it,
// reports context.Canceled.
type cancelAtPoll struct {
	context.Context
	at, polls int
}

func (c *cancelAtPoll) Err() error {
	if c.polls++; c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// writeRawShard hand-builds a shard file from JSONL lines.
func writeRawShard(t *testing.T, path string, lines ...jsonLine) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func hdr() *snapshotHeader { return &snapshotHeader{Date: "2021-06", Corpus: "alexa"} }

func TestMergeEmptyShards(t *testing.T) {
	dir := t.TempDir()
	empty0 := filepath.Join(dir, "x.shard-0000.jsonl")
	empty1 := filepath.Join(dir, "x.shard-0001.jsonl")
	full := filepath.Join(dir, "x.shard-0002.jsonl")
	writeRawShard(t, empty0, jsonLine{Kind: "snapshot", Header: hdr()},
		jsonLine{Kind: "footer", Footer: &ShardFooter{Seq: 0}})
	writeRawShard(t, empty1, jsonLine{Kind: "snapshot", Header: hdr()},
		jsonLine{Kind: "footer", Footer: &ShardFooter{Seq: 1}})
	d := DomainRecord{Domain: "only.example", MX: []MXObs{{Preference: 10, Exchange: "mx.example"}}}
	writeRawShard(t, full, jsonLine{Kind: "snapshot", Header: hdr()},
		jsonLine{Kind: "domain", Domain: &d},
		jsonLine{Kind: "footer", Footer: &ShardFooter{Seq: 2, FirstDomain: "only.example", LastDomain: "only.example", Domains: 1}})

	out := filepath.Join(dir, "x.jsonl")
	stats, err := Merge(out, []string{empty0, empty1, full})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Domains != 1 || stats.IPs != 0 {
		t.Errorf("stats = %+v", stats)
	}
	got, err := ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Domains) != 1 || got.Domains[0].Domain != "only.example" {
		t.Errorf("merged snapshot = %+v", got.Domains)
	}

	// All-empty merge yields a valid empty snapshot.
	out2 := filepath.Join(dir, "y.jsonl")
	if _, err := Merge(out2, []string{empty0, empty1}); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Domains) != 0 || len(got2.IPs) != 0 || got2.Corpus != "alexa" {
		t.Errorf("empty merge = %+v", got2)
	}
}

func TestMergeDuplicatesLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s0 := filepath.Join(dir, "x.shard-0000.jsonl")
	s1 := filepath.Join(dir, "x.shard-0001.jsonl")
	oldRec := DomainRecord{Domain: "dup.example", Rank: 1, MX: []MXObs{{Preference: 10, Exchange: "old.example"}}}
	newRec := DomainRecord{Domain: "dup.example", Rank: 2, MX: []MXObs{{Preference: 10, Exchange: "new.example"}}}
	oldIP := IPInfo{Addr: addr("10.0.0.1"), ASName: "OLD"}
	newIP := IPInfo{Addr: addr("10.0.0.1"), ASName: "NEW", HasCensys: true}
	writeRawShard(t, s0, jsonLine{Kind: "snapshot", Header: hdr()},
		jsonLine{Kind: "domain", Domain: &oldRec},
		jsonLine{Kind: "ip", IP: &oldIP},
		jsonLine{Kind: "footer", Footer: &ShardFooter{Seq: 0, FirstDomain: "dup.example", LastDomain: "dup.example", Domains: 1, IPs: 1}})
	writeRawShard(t, s1, jsonLine{Kind: "snapshot", Header: hdr()},
		jsonLine{Kind: "domain", Domain: &newRec},
		jsonLine{Kind: "ip", IP: &newIP},
		jsonLine{Kind: "footer", Footer: &ShardFooter{Seq: 1, FirstDomain: "dup.example", LastDomain: "dup.example", Domains: 1, IPs: 1}})

	out := filepath.Join(dir, "x.jsonl")
	// Argument order must not matter: the shard sequence number decides.
	stats, err := Merge(out, []string{s1, s0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Domains != 1 || stats.DupDomains != 1 || stats.IPs != 1 || stats.DupIPs != 1 {
		t.Errorf("stats = %+v", stats)
	}
	got, err := ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domains[0].Rank != 2 || got.Domains[0].MX[0].Exchange != "new.example" {
		t.Errorf("domain did not resolve last-write-wins: %+v", got.Domains[0])
	}
	if info := got.IPs["10.0.0.1"]; info.ASName != "NEW" {
		t.Errorf("ip did not resolve last-write-wins: %+v", info)
	}
}

func TestMergeRejectsBadShards(t *testing.T) {
	dir := t.TempDir()
	d1 := DomainRecord{Domain: "b.example", MX: []MXObs{{Preference: 10, Exchange: "mx.example"}}}
	d2 := DomainRecord{Domain: "a.example", MX: []MXObs{{Preference: 10, Exchange: "mx.example"}}}

	cases := []struct {
		name  string
		lines []jsonLine
		want  string
	}{
		{"out of order", []jsonLine{
			{Kind: "snapshot", Header: hdr()},
			{Kind: "domain", Domain: &d1},
			{Kind: "domain", Domain: &d2},
			{Kind: "footer", Footer: &ShardFooter{FirstDomain: "a.example", LastDomain: "b.example", Domains: 2}},
		}, "out of order"},
		{"count mismatch", []jsonLine{
			{Kind: "snapshot", Header: hdr()},
			{Kind: "domain", Domain: &d1},
			{Kind: "footer", Footer: &ShardFooter{FirstDomain: "b.example", LastDomain: "b.example", Domains: 2}},
		}, "disagree"},
		{"footer range ends past the body", []jsonLine{
			{Kind: "snapshot", Header: hdr()},
			{Kind: "domain", Domain: &d2},
			{Kind: "domain", Domain: &d1},
			{Kind: "footer", Footer: &ShardFooter{FirstDomain: "a.example", LastDomain: "c.example", Domains: 2}},
		}, `footer domain range ("a.example" to "c.example") disagrees with body ("a.example" to "b.example")`},
		{"footer range starts before the body", []jsonLine{
			{Kind: "snapshot", Header: hdr()},
			{Kind: "domain", Domain: &d2},
			{Kind: "domain", Domain: &d1},
			{Kind: "ip", IP: &IPInfo{Addr: netip.MustParseAddr("10.0.0.1")}},
			{Kind: "footer", Footer: &ShardFooter{FirstDomain: "0.example", LastDomain: "b.example", Domains: 2, IPs: 1}},
		}, `footer domain range ("0.example" to "b.example") disagrees with body ("a.example" to "b.example")`},
		{"missing footer", []jsonLine{
			{Kind: "snapshot", Header: hdr()},
			{Kind: "domain", Domain: &d1},
		}, "no footer"},
		{"no header", []jsonLine{
			{Kind: "domain", Domain: &d1},
		}, "header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".jsonl")
			writeRawShard(t, p, tc.lines...)
			_, err := Merge(filepath.Join(dir, "out.jsonl"), []string{p})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	// Header disagreement across shards.
	p1 := filepath.Join(dir, "h.shard-0000.jsonl")
	p2 := filepath.Join(dir, "h.shard-0001.jsonl")
	writeRawShard(t, p1, jsonLine{Kind: "snapshot", Header: hdr()}, jsonLine{Kind: "footer", Footer: &ShardFooter{}})
	writeRawShard(t, p2, jsonLine{Kind: "snapshot", Header: &snapshotHeader{Date: "2019-06", Corpus: "alexa"}},
		jsonLine{Kind: "footer", Footer: &ShardFooter{Seq: 1}})
	if _, err := Merge(filepath.Join(dir, "h.jsonl"), []string{p1, p2}); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("header mismatch not rejected: %v", err)
	}
}

func TestShardPathRoundTrip(t *testing.T) {
	cases := []struct {
		base string
		seq  int
		want string
	}{
		{"run.jsonl.gz", 0, "run.shard-0000.jsonl.gz"},
		{"run.jsonl", 12, "run.shard-0012.jsonl"},
		{"run", 3, "run.shard-0003"},
		{"/tmp/a/run.jsonl.gz", 9999, "/tmp/a/run.shard-9999.jsonl.gz"},
	}
	for _, tc := range cases {
		got := ShardPath(tc.base, tc.seq)
		if got != tc.want {
			t.Errorf("ShardPath(%q, %d) = %q, want %q", tc.base, tc.seq, got, tc.want)
		}
		seq, ok := parseShardSeq(got)
		if !ok || seq != tc.seq {
			t.Errorf("parseShardSeq(%q) = %d, %v", got, seq, ok)
		}
	}
	if _, ok := parseShardSeq("run.jsonl"); ok {
		t.Error("parseShardSeq accepted a shardless path")
	}
}

func TestStreamForEach(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(50)
	path := filepath.Join(dir, "snap.jsonl.gz")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Date != "2021-06" || st.Corpus != "alexa" {
		t.Errorf("stream header = %s/%s", st.Date, st.Corpus)
	}

	var domains []DomainRecord
	var ips []IPInfo
	err = st.ForEach(
		func(d *DomainRecord) error {
			// The stream refills d.MX and its Addrs in place: own the copy.
			kept := *d
			kept.MX = append([]MXObs(nil), d.MX...)
			for i := range kept.MX {
				kept.MX[i].Addrs = append([]netip.Addr(nil), d.MX[i].Addrs...)
			}
			domains = append(domains, kept)
			return nil
		},
		func(info *IPInfo) error { ips = append(ips, *info); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(domains, s.Domains) {
		t.Error("streamed domains differ from materialized snapshot")
	}
	if len(ips) != len(s.IPs) {
		t.Errorf("streamed %d ips, want %d", len(ips), len(s.IPs))
	}

	// ErrStop ends the pass without error.
	n := 0
	err = st.ForEach(func(*DomainRecord) error {
		n++
		if n == 10 {
			return ErrStop
		}
		return nil
	}, nil)
	if err != nil || n != 10 {
		t.Errorf("ErrStop pass: n=%d err=%v", n, err)
	}

	ipsMap, err := st.LoadIPs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ipsMap, s.IPs) {
		t.Error("LoadIPs differs from materialized snapshot")
	}
}

func TestStreamBreakdown(t *testing.T) {
	dir := t.TempDir()
	s := buildSnapshot(40)
	path := filepath.Join(dir, "snap.jsonl")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := BreakdownOf(st)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := BreakdownOf(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB || gotB.Total != 40 {
		t.Errorf("stream breakdown = %+v, want %+v", gotB, wantB)
	}

	// A source that fails mid-pass fails the breakdown, with its error.
	if err := os.Truncate(path, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := BreakdownOf(st); err == nil {
		t.Error("BreakdownOf a truncated file succeeded")
	}
}

// TestSnapshotSource pins the in-memory Source: LoadIPs is the
// snapshot's own table, and ForEach yields exactly the records, in
// exactly the order, that a Stream yields over the snapshot's WriteTo
// form — unsorted domains in slice order, IPs ascending by key — with
// the same nil-callback and ErrStop behaviour.
func TestSnapshotSource(t *testing.T) {
	s := buildSnapshot(30)
	s.Domains[0], s.Domains[17] = s.Domains[17], s.Domains[0] // not sorted
	path := filepath.Join(t.TempDir(), "snap.jsonl")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the loaded snapshot: serialization strips the
	// in-memory failure classes.
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(src Source) (domains []string, ips []IPInfo) {
		t.Helper()
		err := src.ForEach(
			func(d *DomainRecord) error { domains = append(domains, d.Domain); return nil },
			func(info *IPInfo) error { ips = append(ips, *info); return nil },
		)
		if err != nil {
			t.Fatal(err)
		}
		return domains, ips
	}
	wantD, wantI := collect(st)
	gotD, gotI := collect(loaded)
	if !reflect.DeepEqual(gotD, wantD) || !reflect.DeepEqual(gotI, wantI) {
		t.Errorf("Snapshot.ForEach yields\n%v\n%+v\nStream yields\n%v\n%+v", gotD, gotI, wantD, wantI)
	}
	if len(gotD) != 30 || gotD[0] != s.Domains[0].Domain || len(gotI) != len(s.IPs) {
		t.Errorf("yielded %d domains (first %q), %d ips", len(gotD), gotD[0], len(gotI))
	}
	if !sort.SliceIsSorted(gotI, func(i, j int) bool { return gotI[i].Addr.String() < gotI[j].Addr.String() }) {
		t.Error("IPs not in ascending key order")
	}
	ips, err := loaded.LoadIPs()
	if err != nil || len(ips) != len(loaded.IPs) || len(ips) == 0 {
		t.Fatalf("LoadIPs = %d entries, %v", len(ips), err)
	}
	ips["probe"] = IPInfo{}
	if _, ok := loaded.IPs["probe"]; !ok {
		t.Error("LoadIPs copied the table")
	}
	delete(ips, "probe")

	for _, src := range []Source{loaded, st} {
		n := 0
		err := src.ForEach(func(*DomainRecord) error {
			if n++; n == 10 {
				return ErrStop
			}
			return nil
		}, func(*IPInfo) error { t.Errorf("%T: ip callback after ErrStop", src); return nil })
		if err != nil || n != 10 {
			t.Errorf("%T: ErrStop pass: n=%d err=%v", src, n, err)
		}
		boom := errors.New("boom")
		if err := src.ForEach(nil, func(*IPInfo) error { return boom }); err != boom {
			t.Errorf("%T: callback error = %v, want boom", src, err)
		}
	}
}

// TestSnapshotConcurrentAddIndex hammers the mutator contract:
// concurrent AddDomain/AddIP/SortDomains must be race-free (run under
// -race) and lose nothing.
func TestSnapshotConcurrentAddIndex(t *testing.T) {
	s := NewSnapshot("2021-06", "alexa")
	const (
		writers = 4
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s.AddDomain(DomainRecord{
					Domain: fmt.Sprintf("w%d-%04d.example", w, i),
					MX:     []MXObs{{Preference: 10, Exchange: fmt.Sprintf("mx%d.example", i%5)}},
				})
				s.AddIP(IPInfo{Addr: netip.AddrFrom4([4]byte{10, byte(w), byte(i >> 8), byte(i)})})
				if i%64 == 0 {
					s.SortDomains()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(s.Domains) != writers*perW || len(s.IPs) != writers*perW {
		t.Errorf("domains = %d, ips = %d, want %d each", len(s.Domains), len(s.IPs), writers*perW)
	}
	seen := make(map[string]bool, len(s.Domains))
	for i := range s.Domains {
		seen[s.Domains[i].Domain] = true
	}
	if len(seen) != writers*perW {
		t.Errorf("%d distinct domains, want %d", len(seen), writers*perW)
	}
}

// TestShardWriterRepeatedDomain feeds one writer the same domain twice,
// as a target list that repeats a name does: the later record wins, within one
// shard (adjacent lines after the stable sort) and across the writer's
// shards (the merge's sequence tie-break) alike.
func TestShardWriterRepeatedDomain(t *testing.T) {
	for _, maxBuffered := range []int{100, 3} {
		dir := t.TempDir()
		base := filepath.Join(dir, "snap.jsonl")
		set := NewShardSet(base, "2021-06", "alexa")
		set.MaxBuffered = maxBuffered
		w := set.NewWriter()
		recs := []DomainRecord{
			{Domain: "dup.example", Rank: 1, MX: []MXObs{{Preference: 10, Exchange: "old.example"}}},
			{Domain: "b.example", Rank: 2, MX: []MXObs{}},
			{Domain: "a.example", Rank: 3},
			{Domain: "dup.example", Rank: 4, MX: []MXObs{{Preference: 10, Exchange: "new.example"}}},
			{Domain: "c.example", Rank: 5},
		}
		for _, d := range recs {
			if err := w.AddDomain(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Merge(base, set.Paths()); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		want := []DomainRecord{recs[2], recs[1], recs[4], recs[3]}
		if !reflect.DeepEqual(got.Domains, want) {
			t.Errorf("MaxBuffered %d: merged %+v, want %+v", maxBuffered, got.Domains, want)
		}
	}
}

// TestShardWriterLongLine spills lines longer than a chunk between
// ordinary ones, over several shards of one writer, so that a line
// starts a chunk of its own size and the ordinary lines after it start
// the next: every record reads back intact.
func TestShardWriterLongLine(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a ~20MiB record")
	}
	long := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = 'a' + byte(i%26)
		}
		return "v=spf1 " + string(b)
	}
	s := NewSnapshot("2021-06", "alexa")
	for i := 0; i < 40; i++ {
		d := DomainRecord{Domain: fmt.Sprintf("d%03d.example", i), MX: []MXObs{{Preference: 10, Exchange: "mx.example"}}}
		switch i {
		case 5:
			d.SPF = long(20 << 20) // TestLongLineRead's size
		case 17, 18:
			d.SPF = long(shardChunk + 1)
		}
		s.AddDomain(d)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "long.jsonl")
	set := NewShardSet(base, s.Date, s.Corpus)
	set.MaxBuffered = 10
	w := set.NewWriter()
	for i := range s.Domains {
		if err := w.AddDomain(s.Domains[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(base, set.Paths()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Domains, s.Domains) {
		t.Error("records spilled around lines longer than a chunk did not read back intact")
	}
}

// TestResumeShardSet pins what a resume takes from a directory: the
// shards ShardPath names for its base, in sequence order, a later
// shard's record winning over an earlier one's; not a spill cut short
// between write and rename (its .tmp, which parseShardSeq alone would
// take for shard 3, is removed), another base's shards, or a name
// ShardPath would not write. The set it returns lists the shards found
// among its Paths and holds their keys, a repeated domain with the later
// shard's addresses, numbers its next shard after the last of them, and
// Remove deletes the old and the new.
func TestResumeShardSet(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "run.jsonl.gz")
	if seq, ok := parseShardSeq("x.shard-0003.jsonl.gz.tmp"); !ok || seq != 3 {
		t.Fatalf("parseShardSeq of a .tmp = %d, %v", seq, ok)
	}
	set, err := ResumeShardSet(base, "2021-06", "alexa")
	if domains, ips := set.Held(); err != nil || len(set.Paths()) != 0 || len(domains)+len(ips) != 0 {
		t.Fatalf("resume from an empty directory = %v, holding %v and %v, %v", set.Paths(), domains, ips, err)
	}

	spill := func(seq int, spf string, mx netip.Addr, names ...string) {
		set := NewShardSet(base, "2021-06", "alexa")
		set.seq.Store(int64(seq))
		w := set.NewWriter()
		for _, name := range names {
			rec := DomainRecord{Domain: name, SPF: spf, MX: []MXObs{{Exchange: "mx.example", Addrs: []netip.Addr{mx}}}}
			if err := w.AddDomain(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AddIP(IPInfo{Addr: addr("10.0.0.1"), ASName: spf}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	spill(0, "old", addr("10.0.1.1"), "a.example", "b.example")
	spill(2, "new", addr("10.0.1.2"), "b.example", "c.example")
	torn := ShardPath(base, 3) + ".tmp"
	strays := []string{
		filepath.Join(dir, "other.shard-0001.jsonl.gz"),
		filepath.Join(dir, "run.shard-5.jsonl.gz"),
		filepath.Join(dir, "run.jsonl.gz.tmp"),
	}
	for _, p := range append([]string{torn}, strays...) {
		if err := os.WriteFile(p, []byte("\x1f\x8b torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	set, err = ResumeShardSet(base, "2021-06", "alexa")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{ShardPath(base, 0), ShardPath(base, 2)}; !slices.Equal(set.Paths(), want) {
		t.Errorf("a resumed set lists %v before it has spilled, want the old shards %v", set.Paths(), want)
	}
	if _, err := os.Stat(torn); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the cut spill %s is still there: %v", torn, err)
	}
	for _, p := range strays {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s is not the run's, and is gone: %v", p, err)
		}
	}
	// Merge takes the last record of a repeated key, read here from the
	// shards themselves, and the set holds that record's addresses.
	last := make(map[string]string)
	infos := make(map[string]IPInfo)
	for _, p := range set.Paths() {
		s, err := ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range s.Domains {
			last[d.Domain] = d.SPF
		}
		maps.Copy(infos, s.IPs)
	}
	if want := map[string]string{"a.example": "old", "b.example": "new", "c.example": "new"}; !maps.Equal(last, want) {
		t.Errorf("shard domains = %v, want %v", last, want)
	}
	if info := infos["10.0.0.1"]; len(infos) != 1 || info.ASName != "new" {
		t.Errorf("shard IPs = %v, want the later shard's one", infos)
	}
	domains, ips := set.Held()
	want := map[string][]netip.Addr{
		"a.example": {addr("10.0.1.1")}, "b.example": {addr("10.0.1.2")}, "c.example": {addr("10.0.1.2")},
	}
	if !maps.EqualFunc(domains, want, slices.Equal) {
		t.Errorf("held domains = %v, want %v", domains, want)
	}
	if !maps.Equal(ips, map[netip.Addr]bool{addr("10.0.0.1"): true}) {
		t.Errorf("held IPs = %v, want 10.0.0.1 alone", ips)
	}

	w := set.NewWriter()
	if err := w.AddDomain(DomainRecord{Domain: "d.example"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{ShardPath(base, 0), ShardPath(base, 2), ShardPath(base, 3)}; !slices.Equal(set.Paths(), want) {
		t.Errorf("after one more spill Paths = %v, want %v", set.Paths(), want)
	}
	if err := set.Remove(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "run.shard-*")); len(left) != 1 || left[0] != strays[1] {
		t.Errorf("Remove left %v", left)
	}
}

// BenchmarkShardSpill times the fleet's way to a snapshot file at the
// benchmark's 20 000 domains: "spill" is two lanes' ShardWriters, each
// given every other record, closing to one shard apiece; "merge" is
// Merge of those two shards into the canonical gzipped snapshot.
// ns/record counts domains and addresses; shard-B is what the two
// spills hold on disk until Merge has read them.
func BenchmarkShardSpill(b *testing.B) {
	s := buildSnapshot(20000)
	ips := slices.Collect(maps.Values(s.IPs))
	records := float64(len(s.Domains) + len(ips))
	spill := func(b *testing.B, base string) *ShardSet {
		set := NewShardSet(base, s.Date, s.Corpus)
		set.MaxBuffered = len(s.Domains) + len(ips) // one shard per writer, written at Close
		for lane := range 2 {
			w := set.NewWriter()
			for i := lane; i < len(s.Domains); i += 2 {
				if err := w.AddDomain(s.Domains[i]); err != nil {
					b.Fatal(err)
				}
			}
			for i := lane; i < len(ips); i += 2 {
				if err := w.AddIP(ips[i]); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		return set
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(records*float64(b.N)), "ns/record")
	}

	b.Run("spill", func(b *testing.B) {
		dir := b.TempDir()
		var onDisk int64
		b.ReportAllocs()
		for n := range b.N {
			set := spill(b, filepath.Join(dir, fmt.Sprintf("run%d.jsonl.gz", n)))
			b.StopTimer()
			onDisk = 0
			for _, p := range set.Paths() {
				fi, err := os.Stat(p)
				if err != nil {
					b.Fatal(err)
				}
				onDisk += fi.Size()
			}
			if err := set.Remove(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		report(b)
		b.ReportMetric(float64(onDisk), "shard-B")
	})
	b.Run("merge", func(b *testing.B) {
		dir := b.TempDir()
		shards := spill(b, filepath.Join(dir, "run.jsonl.gz")).Paths()
		out := filepath.Join(dir, "snap.jsonl.gz")
		b.ResetTimer()
		b.ReportAllocs()
		for range b.N {
			ms, err := Merge(out, shards)
			if err != nil || ms.Domains != len(s.Domains) || ms.IPs != len(ips) {
				b.Fatalf("merge = %+v, %v", ms, err)
			}
		}
		report(b)
	})
}
