// Command mxscan runs the measurement pipeline for one corpus at one
// snapshot date and writes the resulting dataset as JSON lines: the
// OpenINTEL-style DNS observations joined with Censys-style port-25 scan
// observations.
//
// The world is regenerated deterministically from the seed, so snapshots
// written by separate mxscan invocations with the same seed are mutually
// consistent.
//
// Collection is crash-safe when a write-ahead journal is enabled: each
// completed record is appended to the journal as it finishes, SIGINT and
// SIGTERM cancel the run gracefully (a second signal force-exits), and
// -resume recovers the journal and re-measures only what is missing.
// Committed snapshots are written atomically (tmp, fsync, rename).
//
// There is one collection engine with two sinks. -workers 1 (the
// default) runs it as one collector into an in-memory snapshot;
// -workers > 1, or -flat N for the computed-on-the-fly flat corpus, runs
// it as a fleet whose workers each own a resolver, a journal and a
// sorted snapshot shard writer, the shards externally merged into -o, so
// peak memory stays independent of corpus size. The
// flag sizes the fleet and picks the sink, nothing else: journaling,
// resume, signal handling and the committed bytes are the same.
//
// Usage:
//
//	mxscan [-scale 0.05] [-seed 1] -corpus alexa -date 2021-06 [-o snap.jsonl]
//	mxscan -journal snap.waj [-resume] -corpus alexa -date 2021-06 -o snap.jsonl
//	mxscan -workers 4 -flat 1000000 -o flat.jsonl.gz   # million-domain fleet run
//	mxscan -fsck snap.jsonl.gz   # or a journal; validates and exits
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
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
		journal   = flag.String("journal", "", "write-ahead journal path: append each completed record so a crashed run is resumable (<journal> for one worker, <journal>.wNN per fleet worker)")
		resume    = flag.Bool("resume", false, "recover the journal at -journal and skip already-collected records")
		fsck      = flag.String("fsck", "", "validate the snapshot or journal at this path, print a report, and exit (status 1 unless clean)")
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
	case *resume && *journal == "":
		log.Fatal("-resume requires -journal")
	case fleet && *iterative:
		log.Fatal("-iterative is incompatible with fleet mode (-workers > 1 or -flat)")
	case fleet && *out == "":
		log.Fatal("fleet mode (-workers > 1 or -flat) requires -o: shards merge into a file, not a pipe")
	}
	if !fleet {
		*workers = 1
	} else if *workers <= 0 {
		*workers = 4
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

	// Journal setup: a fresh run refuses to clobber a leftover journal
	// (that is resumable state); -resume recovers it, truncates any torn
	// tail, and feeds the intact records back into the engine.
	js := &journalSet{}
	if *journal != "" {
		if js, err = openJournals(*journal, fleet, *workers, *resume, *date, src.corpus); err != nil {
			log.Fatal(err)
		}
	}
	var set *dataset.ShardSet
	// fail is the one error exit once journals are open: they are the
	// resumable state and are flushed; shards are not and are removed.
	fail := func(err error) {
		js.close()
		if set != nil {
			set.Remove()
		}
		if *journal != "" && errors.Is(err, context.Canceled) {
			log.Fatalf("collection interrupted; journal flushed — rerun with -journal %s -resume", *journal)
		}
		log.Fatal(err)
	}

	var (
		h        *dataset.Health
		measured string
	)
	if fleet {
		set = dataset.NewShardSet(*out, *date, src.corpus)
		stats, err := scan.CollectFleet(ctx, scan.FleetConfig{
			Corpus:       src.corpus,
			Date:         *date,
			Workers:      *workers,
			NewCollector: src.newCollector,
			Output:       set,
			Journals:     js.open,
			Prior:        js.prior,
			Seen:         js.seen,
		}, src.targets)
		if err != nil {
			fail(err)
		}
		mstats, err := dataset.Merge(*out, set.Paths())
		if err != nil {
			fail(err)
		}
		if err := set.Remove(); err != nil {
			log.Printf("shard cleanup: %v", err)
		}
		if *health {
			st, err := dataset.OpenStream(*out)
			if err != nil {
				fail(err)
			}
			if h, err = dataset.HealthOf(st); err != nil {
				fail(err)
			}
			// The merged file does not carry the run's resilience
			// counters; fold in the fleet's sum, as Snapshot.Health does.
			h.Stats = stats.Collection
		}
		measured = fmt.Sprintf("%d domains, %d IPs with %d workers (%d shards)",
			stats.Domains, stats.IPs, stats.Workers, mstats.Shards)
	} else {
		col, err := src.newCollector(0)
		if err != nil {
			fail(err)
		}
		defer col.Close()
		if js.open != nil {
			col.Journal = js.open[0]
		}
		col.Prior, col.Seen = js.prior, js.seen
		snap, err := col.Collect(ctx, src.corpus, *date, src.targets)
		if err != nil {
			fail(err)
		}
		snap.SortDomains()
		if *out != "" {
			// Atomic commit: ".gz" suffixed paths are compressed transparently.
			err = dataset.WriteFile(*out, snap)
		} else {
			_, err = snap.WriteTo(os.Stdout)
		}
		if err != nil {
			fail(err)
		}
		h = snap.Health()
		measured = fmt.Sprintf("%d domains, %d IPs", len(snap.Domains), len(snap.IPs))
	}

	// The snapshot is committed; every journal has served its purpose,
	// leftovers of an earlier, wider fleet included. (A snapshot piped to
	// stdout may not have landed anywhere: its journal stays.)
	js.close()
	if *journal != "" && *out != "" {
		for _, p := range js.paths {
			if err := os.Remove(p); err != nil {
				log.Printf("journal remove: %v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "snapshot committed; journal %s removed\n", *journal)
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

// journalSet is a run's write-ahead journals and what a resume
// recovered from them.
type journalSet struct {
	open  []*dataset.Journal
	paths []string // every journal file of the run, for removal at commit
	// prior and seen union the recovered records of every journal.
	prior *dataset.Snapshot
	seen  map[string]bool
}

// openJournals opens one journal per worker — <base> for the single
// collector, <base>.wNN for a fleet — fresh, or with resume set
// recovered and reopened for append (a missing one starts fresh).
func openJournals(base string, fleet bool, workers int, resume bool, date, corpus string) (*journalSet, error) {
	path := func(w int) string {
		if !fleet {
			return base
		}
		return fmt.Sprintf("%s.w%02d", base, w)
	}
	js := &journalSet{}
	if resume {
		js.prior = dataset.NewSnapshot(date, corpus)
		js.seen = make(map[string]bool)
	}
	entries := 0
	for w := 0; w < workers; w++ {
		var (
			j   *dataset.Journal
			rec *dataset.JournalRecovery
			err error
		)
		if resume {
			j, rec, err = dataset.ResumeJournal(path(w), date, corpus)
		} else {
			j, err = dataset.CreateJournal(path(w), date, corpus)
		}
		if err != nil {
			js.close()
			return nil, err
		}
		js.open = append(js.open, j)
		js.paths = append(js.paths, path(w))
		entries += js.splice(path(w), rec)
	}
	// A previous fleet may have been wider; its extra journals hold
	// records too. Recover them read-only and leave them in place until
	// the snapshot commits.
	for w := workers; resume && fleet; w++ {
		rec, err := dataset.RecoverJournal(path(w))
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			js.close()
			return nil, err
		}
		js.paths = append(js.paths, path(w))
		entries += js.splice(path(w), rec)
	}
	if entries > 0 {
		fmt.Fprintf(os.Stderr, "resuming: %d domains and %d IPs recovered from %s\n",
			len(js.seen), len(js.prior.IPs), strings.Join(js.paths, " "))
	}
	return js, nil
}

// splice unions one journal's recovery into the set, returning the
// number of intact entries recovered.
func (js *journalSet) splice(path string, rec *dataset.JournalRecovery) int {
	if rec == nil || rec.Snapshot == nil {
		return 0
	}
	if rec.Truncated {
		fmt.Fprintf(os.Stderr, "%s: torn tail discarded: %s\n", path, rec.Reason)
	}
	for d := range rec.Seen {
		js.seen[d] = true
	}
	for i := range rec.Snapshot.Domains {
		js.prior.AddDomain(rec.Snapshot.Domains[i])
	}
	for _, info := range rec.Snapshot.IPs {
		js.prior.AddIP(info)
	}
	return rec.Entries
}

// close flushes and closes every open journal.
func (js *journalSet) close() {
	for _, j := range js.open {
		if err := j.Close(); err != nil {
			log.Printf("journal close: %v", err)
		}
	}
	js.open = nil
}
