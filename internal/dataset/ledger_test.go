package dataset_test

// The snapshot I/O ledger lives in the external test package because
// its corpus, benchdata.Snapshot, imports dataset.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mxmap/internal/benchdata"
	"mxmap/internal/dataset"
	"mxmap/internal/ledger"
)

// TestShardMergeLedger spills the 20k-domain benchmark corpus through
// one shard writer, merges the shards externally, and pins what is
// fully determined by the corpus on any machine — record counts, shard
// count, canonical merged size, and the merge invariant (the k-way
// merge equals Snapshot.WriteTo of the same records) — as
// results/BENCH_dataset.json. Paths are uncompressed: canonical JSONL
// bytes are deterministic across Go versions, gzip framing need not be.
func TestShardMergeLedger(t *testing.T) {
	snap := benchdata.Snapshot(20_000)
	snap.SortDomains()
	dir := t.TempDir()
	merged, direct := filepath.Join(dir, "merged.jsonl"), filepath.Join(dir, "direct.jsonl")

	set := dataset.NewShardSet(filepath.Join(dir, "snap.jsonl"), snap.Date, snap.Corpus)
	set.MaxBuffered = 4096 // several spills from the one writer
	w := set.NewWriter()
	err := snap.ForEach(
		func(d *dataset.DomainRecord) error { return w.AddDomain(*d) },
		func(ip *dataset.IPInfo) error { return w.AddIP(*ip) })
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.Merge(merged, set.Paths()); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteFile(direct, snap); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb, db) {
		t.Errorf("merged shards differ from the in-memory snapshot (%d vs %d bytes)", len(mb), len(db))
	}

	type counters struct {
		Domains       int   `json:"domains"`
		IPs           int   `json:"ips"`
		ShardFiles    int   `json:"shard_files"`
		MergedBytes   int64 `json:"merged_bytes"`
		ByteIdentical bool  `json:"byte_identical"`
	}
	ledger.Check(t, "BENCH_dataset.json", map[string]counters{"deterministic": {
		Domains: len(snap.Domains), IPs: len(snap.IPs), ShardFiles: len(set.Paths()),
		MergedBytes: int64(len(mb)), ByteIdentical: bytes.Equal(mb, db),
	}})
}
