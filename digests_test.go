package mxmap_test

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// worldDigest is one world phase of results/DIGESTS.json: the SHA-256
// of a canonical listing of one generated world, and the counts to read
// first when the digest moves.
type worldDigest struct {
	Phase     string `json:"phase"`
	SHA256    string `json:"sha256"`
	Providers int    `json:"providers"`
	Domains   int    `json:"domains"`
	Stints    int    `json:"stints"`
	Hosts     int    `json:"hosts"`
	Certs     int    `json:"certs"`
}

// TestWorldDigests pins world.Generate itself, below any scan: every
// corpus's domains in order with their stints, every host in address
// order with its SMTP spec and the SHA-256 of each certificate's DER,
// and the provider roster. The configs are scan-wire's world, mxscan's
// (the second TestSnapshotDigests phase), an adversarial one and a
// dual-stack one; a change to the generator that keeps these digests
// has kept every world byte for byte.
func TestWorldDigests(t *testing.T) {
	for _, c := range []struct {
		phase string
		cfg   world.Config
	}{
		{"world.Config{Seed: 1, Scale: 0.02}", world.Config{Seed: 1, Scale: 0.02}},
		{"world.Config{Seed: 3, Scale: 0.01}", world.Config{Seed: 3, Scale: 0.01}},
		{"world.Config{Seed: 7, Scale: 0.01, Adversarial: 0.05}", world.Config{Seed: 7, Scale: 0.01, Adversarial: 0.05}},
		{"world.Config{Seed: 1, Scale: 0.01, EnableIPv6: true}", world.Config{Seed: 1, Scale: 0.01, EnableIPv6: true}},
	} {
		t.Run(c.phase, func(t *testing.T) {
			w, err := world.Generate(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := worldDigest{Phase: c.phase, Providers: len(w.Providers), Hosts: len(w.Hosts)}
			h := sha256.New()
			for _, p := range w.Providers {
				fmt.Fprintf(h, "provider %s %q %v %q %v %v %v %v %v %v %v\n", p.ID, p.Company.Name, p.Company.Kind,
					p.Company.Country, p.ASN, p.MailHosts, p.MailIPs, p.MailIPv6s, p.SharedIPs, p.WebFrontIPs, p.CloudPrefix)
			}
			for _, name := range []string{world.CorpusAlexa, world.CorpusCOM, world.CorpusGOV} {
				corpus := w.Corpus(name)
				fmt.Fprintf(h, "corpus %s %v\n", name, corpus.Dates)
				for _, dom := range corpus.Domains {
					fmt.Fprintf(h, "domain %s %d %q %t %v %v %v", dom.Name, dom.Rank, dom.Country, dom.Federal,
						dom.OwnIP, dom.VPSIP, dom.WebIP)
					if dom.Adv != nil {
						fmt.Fprintf(h, " adv %+v", *dom.Adv)
					}
					for _, st := range dom.Stints {
						fmt.Fprintf(h, " %d-%d:%d:%s:%d", st.From, st.To, st.Provider, st.Mode, st.Variant)
					}
					h.Write([]byte{'\n'})
					d.Domains++
					d.Stints += len(dom.Stints)
				}
			}
			addrs := make([]netip.Addr, 0, len(w.Hosts))
			for a := range w.Hosts {
				addrs = append(addrs, a)
			}
			slices.SortFunc(addrs, netip.Addr.Compare)
			for _, a := range addrs {
				host := w.Hosts[a]
				fmt.Fprintf(h, "host %v %v %d", host.Addr, host.ASN, host.CensysMode)
				if s := host.SMTP; s != nil {
					fmt.Fprintf(h, " smtp %q %q %q", s.Hostname, s.Banner, s.EHLOName)
					if s.Leaf != nil {
						for _, cert := range append([]*x509.Certificate{s.Leaf.Cert}, s.Leaf.Chain...) {
							fmt.Fprintf(h, " %x", sha256.Sum256(cert.Raw))
							d.Certs++
						}
					}
				}
				h.Write([]byte{'\n'})
			}
			d.SHA256 = hex.EncodeToString(h.Sum(nil))
			ledger.CheckPhase(t, "DIGESTS.json", d)
		})
	}
}

// TestDigestsAtEveryWorkerCount holds every world and snapshot phase at
// one and at four Ps. The world generators make their certificates on
// parallel.Workers(0) goroutines, and no count may move a byte; the
// flat phase pins every flat name, abuse look-alikes included, and
// every flat certificate's fingerprint.
func TestDigestsAtEveryWorkerCount(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(old) })
			TestWorldDigests(t)
			TestSnapshotDigests(t)
		})
	}
}
