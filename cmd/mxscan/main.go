// Command mxscan runs the measurement pipeline for one corpus at one
// snapshot date and writes the resulting dataset as JSON lines: the
// OpenINTEL-style DNS observations joined with Censys-style port-25 scan
// observations.
//
// The world is regenerated deterministically from the seed, so snapshots
// written by separate mxscan invocations with the same seed are mutually
// consistent.
//
// There is one collection engine with two sinks. -workers 1 (the
// default) runs it as one collector into an in-memory snapshot;
// -workers > 1, or -flat N for the computed-on-the-fly flat corpus, runs
// it as a fleet whose workers each own a resolver and a sorted snapshot
// shard writer, the shards externally merged into -o, so peak memory
// stays independent of corpus size. The flag sizes the fleet and picks
// the sink; the committed bytes are the same, and so is the -health
// report, which the engine counts as it collects.
//
// A fleet run is crash-safe, and its shards are its checkpoint: every
// shard is committed atomically (tmp, fsync, rename, directory fsync)
// as a worker's buffer fills, and stays until the merged snapshot has
// committed. From start to commit, SIGINT or SIGTERM cancels the run
// (the collection spills every buffer, the merge removes its .tmp) and
// mxscan exits 1 with the shards kept; a second signal force-exits a
// wedged run. -resume reads the shards' keys, measures only what none
// of them holds, and merges old shards with new into an uninterrupted
// run's bytes; a fresh run refuses leftover shards. It says so on
// stderr ("resuming: N domains and M IPs held in its shards"), and its
// -health report covers what the resumed run measured: the held
// records' failure classes were counted by the run that measured them
// and never recorded, so they are not in it. A hard kill loses
// at most each worker's unspilled buffer. A single-collector run keeps
// no checkpoint. Committed snapshots are written atomically too.
//
// Usage:
//
//	mxscan [-scale 0.05] [-seed 1] -corpus alexa -date 2021-06 [-o snap.jsonl]
//	mxscan -workers 4 -flat 1000000 -o flat.jsonl.gz   # million-domain fleet run
//	mxscan -workers 4 -flat 1000000 -o flat.jsonl.gz -resume   # after a ^C or a kill
//	mxscan -fsck snap.jsonl.gz   # validates a snapshot or a shard and exits
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/scan"
	"mxmap/internal/sigctx"
	"mxmap/internal/world"
)

func main() {
	var (
		scale     = flag.Float64("scale", 0.05, "fraction of the paper's corpus sizes")
		seed      = flag.Uint64("seed", 1, "world generation seed")
		corpus    = flag.String("corpus", world.CorpusAlexa, "corpus: alexa, com or gov")
		date      = flag.String("date", "2021-06", "snapshot date label")
		out       = flag.String("o", "", "output file (default stdout)")
		iterative = flag.Bool("iterative", false, "resolve through a fully delegated DNS hierarchy (root -> TLD -> authoritative) instead of the in-memory catalog")
		health    = flag.Bool("health", false, "print the collection health report (failure classes, coverage, retry and breaker counters) and, with -o, write it as <out>.health.json")
		resume    = flag.Bool("resume", false, "fleet mode: read the shards an interrupted run left at -o and measure only what they do not hold")
		fsck      = flag.String("fsck", "", "validate the snapshot or shard at this path, print a report, and exit (status 1 unless clean)")
		workers   = flag.Int("workers", 1, "collection fleet size: 1 collects into an in-memory snapshot, >1 into per-worker sorted shards merged into -o")
		flat      = flag.Int("flat", 0, "measure a computed-on-the-fly flat corpus of this many domains instead of a generated world (implies fleet mode; scale-independent memory)")
		advPct    = flag.Float64("adversarial", 0, "flat mode: turn this percentage of the corpus hostile (dangling MX, hijacked delegations, lame zones, abuse clusters, backup-MX failover)")
	)
	flag.Parse()

	if *fsck != "" {
		report, err := dataset.Fsck(*fsck)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if !report.Clean {
			os.Exit(1)
		}
		return
	}
	fleet := *workers > 1 || *flat > 0
	switch {
	case *resume && !fleet:
		log.Fatal("-resume requires fleet mode (-workers > 1 or -flat): a single collector keeps no checkpoint")
	case fleet && *iterative:
		log.Fatal("-iterative is incompatible with fleet mode (-workers > 1 or -flat)")
	case fleet && *out == "":
		log.Fatal("fleet mode (-workers > 1 or -flat) requires -o: shards merge into a file, not a pipe")
	}

	ctx, stop := sigctx.WithInterrupt(context.Background())
	defer stop()

	start := time.Now()
	var (
		src *source
		err error
	)
	if *flat > 0 {
		src, err = flatSource(world.FlatConfig{Seed: *seed, NumDomains: *flat, AdversarialPercent: *advPct})
	} else {
		src, err = worldSource(world.Config{Seed: *seed, Scale: *scale}, *corpus, *date, *iterative)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer src.close()

	var (
		h        *dataset.Health
		measured string
	)
	if fleet {
		// The shards a cancelled or killed run left at -o are its
		// checkpoint: a resume merges them with its own, and a fresh run
		// must not mix its shards with theirs.
		set, err := dataset.ResumeShardSet(*out, *date, src.corpus)
		if err != nil {
			log.Fatal(err)
		}
		if domains, ips := set.Held(); len(domains)+len(ips) > 0 {
			if !*resume {
				log.Fatalf("shards of an interrupted run are beside %s: rerun with -resume, or remove them", *out)
			}
			fmt.Fprintf(os.Stderr, "resuming: %d domains and %d IPs held in its shards\n", len(domains), len(ips))
		}
		stats, err := scan.CollectFleet(ctx, scan.FleetConfig{
			Corpus:       src.corpus,
			Date:         *date,
			Workers:      *workers,
			NewCollector: src.newCollector,
			Output:       set,
		}, src.targets)
		var mstats *dataset.MergeStats
		if err == nil {
			mstats, err = dataset.MergeContext(ctx, *out, set.Paths())
		}
		// A signal before the merged snapshot commits, during the
		// collection or the merge, ends the run with its shards kept.
		if err != nil && ctx.Err() != nil {
			log.Fatalf("interrupted: the shards are kept beside %s: rerun with -resume", *out)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := set.Remove(); err != nil {
			log.Printf("shard cleanup: %v", err)
		}
		h = stats.Health
		measured = fmt.Sprintf("%d domains, %d IPs with %d workers (%d shards)",
			stats.Domains, stats.IPs, stats.Workers, mstats.Shards)
	} else {
		col, err := src.newCollector(0)
		if err != nil {
			log.Fatal(err)
		}
		defer col.Close()
		snap, err := col.Collect(ctx, src.corpus, *date, src.targets)
		if err != nil {
			log.Fatal(err)
		}
		snap.SortDomains()
		if *out != "" {
			// Atomic commit: ".gz" suffixed paths are compressed transparently.
			err = dataset.WriteFile(*out, snap)
		} else {
			_, err = snap.WriteTo(os.Stdout)
		}
		if err != nil {
			log.Fatal(err)
		}
		h = snap.Health
		measured = fmt.Sprintf("%d domains, %d IPs", len(snap.Domains), len(snap.IPs))
	}

	if *health {
		writeHealth(h, *out)
	}
	fmt.Fprintf(os.Stderr, "measured %s in %v\n", measured, time.Since(start).Round(time.Millisecond))
}

// writeHealth reports collection health: the per-record dataset goes to
// stdout or -o, so the operator-facing summary goes to stderr, and when
// the dataset went to a file the JSON sidecar commits next to it, with
// the same fields whichever sink collected the snapshot.
func writeHealth(h *dataset.Health, out string) {
	if err := h.WriteText(os.Stderr); err != nil {
		log.Fatal(err)
	}
	if out == "" {
		return
	}
	hp := healthPath(out)
	f, err := os.Create(hp)
	if err != nil {
		log.Fatal(err)
	}
	if err := h.WriteJSON(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "health report written to %s\n", hp)
}

// healthPath derives the health report's path from the dataset's:
// snap.jsonl and snap.jsonl.gz both map to snap.health.json.
func healthPath(out string) string {
	base := strings.TrimSuffix(out, ".gz")
	if ext := filepath.Ext(base); ext != "" {
		base = strings.TrimSuffix(base, ext)
	}
	return base + ".health.json"
}

// source is what a run measures: the target list and a constructor of
// independent collectors over it (one per fleet worker, or the one).
type source struct {
	corpus       string
	targets      []scan.Target
	newCollector func(worker int) (*scan.Collector, error)
	close        func()
}

// flatSource measures the computed-on-the-fly flat corpus: nothing is
// materialized but the target names.
func flatSource(cfg world.FlatConfig) (*source, error) {
	fw, err := world.NewFlatWorld(cfg)
	if err != nil {
		return nil, err
	}
	targets := make([]scan.Target, fw.NumDomains())
	for i := range targets {
		targets[i] = scan.Target{Name: fw.DomainName(i)}
	}
	fmt.Fprintf(os.Stderr, "flat world: %d domains (corpus %s)\n", fw.NumDomains(), fw.Cfg.Corpus)
	return &source{
		corpus:  fw.Cfg.Corpus,
		targets: targets,
		newCollector: func(int) (*scan.Collector, error) {
			return &scan.Collector{
				Resolver:   fw.Resolver(),
				Dialer:     fw.Dialer(),
				Trust:      fw.Trust,
				Prefixes:   fw.Prefixes,
				ASRegistry: fw.ASRegistry,
				Parked:     fw.Parked,
			}, nil
		},
		close: func() {},
	}, nil
}

// worldSource measures one corpus date of a generated world over its
// SMTP fleet. With iterative set, collectors resolve through the
// world's delegated DNS hierarchy served on the same fabric — the
// wire-faithful path — instead of the in-memory catalog.
func worldSource(cfg world.Config, corpus, date string, iterative bool) (*source, error) {
	w, err := world.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := scan.NewWorldSession(w)
	if err != nil {
		return nil, err
	}
	src := &source{corpus: corpus, close: func() { sess.Close() }}
	src.newCollector = func(int) (*scan.Collector, error) { return sess.NewCollector(corpus, date) }
	if src.targets, err = sess.Targets(corpus); err != nil {
		sess.Close()
		return nil, err
	}
	if iterative {
		infra, err := w.StartDNS(sess.Net, date)
		if err != nil {
			sess.Close()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "DNS hierarchy: %d servers\n", infra.NumServers())
		src.close = func() { infra.Close(); sess.Close() }
		src.newCollector = func(int) (*scan.Collector, error) {
			col, err := sess.NewCollector(corpus, date)
			if err == nil {
				col.Resolver = infra.NewIterativeResolver(sess.Net)
			}
			return col, err
		}
	}
	return src, nil
}
