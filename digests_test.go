package mxmap_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"mxmap/internal/dataset"
	"mxmap/internal/ledger"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// snapshotDigest is one phase of results/DIGESTS.json: the SHA-256 of
// the canonical uncompressed snapshot one mxscan command writes, and
// the counts to read first when the digest moves.
type snapshotDigest struct {
	Phase          string `json:"phase"`
	SHA256         string `json:"sha256"`
	Domains        int    `json:"domains"`
	IPs            int    `json:"ips"`
	CertPresent    int    `json:"cert_present"`
	CertValid      int    `json:"cert_valid"`
	DistinctCertFP int    `json:"distinct_cert_fp"`
}

// TestSnapshotDigests pins the bytes of two mxscan runs, one per sink,
// with the library calls the command makes: a flat world through a
// two-lane fleet whose shards merge into the file, and a generated world
// collected into memory and written whole. A world, its certificates
// included, is a pure function of its seed, so each phase holds in every
// process: `mxscan <phase> -o s.jsonl && sha256sum s.jsonl` prints its
// sha256.
func TestSnapshotDigests(t *testing.T) {
	const date = "2021-06" // mxscan's default -date
	ctx := context.Background()
	for _, c := range []struct {
		phase   string
		collect func(t *testing.T, out string)
	}{
		{"-flat 3000 -adversarial 12 -workers 2", func(t *testing.T, out string) {
			fw, err := world.NewFlatWorld(world.FlatConfig{Seed: 1, NumDomains: 3000, AdversarialPercent: 12})
			if err != nil {
				t.Fatal(err)
			}
			targets := make([]scan.Target, fw.NumDomains())
			for i := range targets {
				targets[i] = scan.Target{Name: fw.DomainName(i)}
			}
			set := dataset.NewShardSet(out, date, fw.Cfg.Corpus)
			_, err = scan.CollectFleet(ctx, scan.FleetConfig{
				Corpus:  fw.Cfg.Corpus,
				Date:    date,
				Workers: 2,
				NewCollector: func(int) (*scan.Collector, error) {
					return &scan.Collector{Resolver: fw.Resolver(), Dialer: fw.Dialer(), Trust: fw.Trust,
						Prefixes: fw.Prefixes, ASRegistry: fw.ASRegistry, Parked: fw.Parked}, nil
				},
				Output: set,
			}, targets)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dataset.Merge(out, set.Paths()); err != nil {
				t.Fatal(err)
			}
		}},
		{"-scale 0.01 -seed 3", func(t *testing.T, out string) {
			w, err := world.Generate(world.Config{Seed: 3, Scale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := scan.NewWorldSession(w)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			targets, err := sess.Targets(world.CorpusAlexa)
			if err != nil {
				t.Fatal(err)
			}
			col, err := sess.NewCollector(world.CorpusAlexa, date)
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			snap, err := col.Collect(ctx, world.CorpusAlexa, date, targets)
			if err != nil {
				t.Fatal(err)
			}
			snap.SortDomains()
			if err := dataset.WriteFile(out, snap); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.phase, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "s.jsonl")
			c.collect(t, out)
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := dataset.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			d := snapshotDigest{Phase: c.phase, SHA256: hex.EncodeToString(sum[:]),
				Domains: len(snap.Domains), IPs: len(snap.IPs)}
			fps := make(map[string]bool)
			for _, info := range snap.IPs {
				if s := info.Scan; s != nil && s.CertPresent {
					d.CertPresent++
					if s.CertValid {
						d.CertValid++
					}
					fps[s.CertFingerprint] = true
				}
			}
			d.DistinctCertFP = len(fps)
			ledger.CheckPhase(t, "DIGESTS.json", d)
		})
	}
}
