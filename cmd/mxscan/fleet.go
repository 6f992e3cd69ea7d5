package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/scan"
	"mxmap/internal/world"
)

// fleetOptions carries the million-domain-scale flags into runFleet.
type fleetOptions struct {
	workers    int
	workShards int
	flat       int
	flatAdv    float64

	seed    uint64
	scale   float64
	corpus  string
	date    string
	out     string
	journal string
	resume  bool
	health  bool
}

// runFleet is mxscan's million-domain path: a work-stealing worker
// fleet writing sorted snapshot shards, externally merged into -o.
// Nothing is materialized: peak memory holds one shard buffer per
// worker plus the deduplicated address set, regardless of corpus size.
func runFleet(ctx context.Context, opt fleetOptions) {
	if opt.out == "" {
		log.Fatal("fleet mode (-workers > 1 or -flat) requires -o: shards merge into a file, not a pipe")
	}
	if opt.workers <= 0 {
		opt.workers = 4
	}

	start := time.Now()
	var (
		targets      []scan.Target
		newCollector func(int) (*scan.Collector, error)
		corpusName   = opt.corpus
		cleanup      = func() {}
	)
	if opt.flat > 0 {
		fw, err := world.NewFlatWorld(world.FlatConfig{
			Seed:               opt.seed,
			NumDomains:         opt.flat,
			AdversarialPercent: opt.flatAdv,
		})
		if err != nil {
			log.Fatal(err)
		}
		corpusName = fw.Cfg.Corpus
		targets = make([]scan.Target, fw.NumDomains())
		for i := range targets {
			targets[i] = scan.Target{Name: fw.DomainName(i)}
		}
		newCollector = func(int) (*scan.Collector, error) {
			return &scan.Collector{
				Resolver:   fw.Resolver(),
				Dialer:     fw.Dialer(),
				Trust:      fw.Trust,
				Prefixes:   fw.Prefixes,
				ASRegistry: fw.ASRegistry,
				Parked:     fw.Parked,
			}, nil
		}
		fmt.Fprintf(os.Stderr, "flat world: %d domains (corpus %s)\n", fw.NumDomains(), corpusName)
	} else {
		w, err := world.Generate(world.Config{Seed: opt.seed, Scale: opt.scale})
		if err != nil {
			log.Fatal(err)
		}
		sess, err := scan.NewWorldSession(w)
		if err != nil {
			log.Fatal(err)
		}
		cleanup = func() { sess.Close() }
		targets, err = sess.Targets(corpusName)
		if err != nil {
			sess.Close()
			log.Fatal(err)
		}
		newCollector = func(int) (*scan.Collector, error) {
			return sess.NewCollector(corpusName, opt.date)
		}
	}
	defer cleanup()

	// Per-worker write-ahead journals at <journal>.wNN. A resume
	// recovers every worker journal on disk — including leftovers from
	// a run with more workers — and splices the union into the fleet.
	var (
		journals []*dataset.Journal
		prior    *dataset.Snapshot
		seen     map[string]bool
	)
	if opt.journal != "" {
		journals = make([]*dataset.Journal, opt.workers)
		if opt.resume {
			prior = dataset.NewSnapshot(opt.date, corpusName)
			seen = make(map[string]bool)
		}
		recovered := 0
		for i := range journals {
			p := workerJournalPath(opt.journal, i)
			if opt.resume {
				if _, err := os.Stat(p); err == nil {
					jr, rec, err := dataset.ResumeJournal(p, opt.date, corpusName)
					if err != nil {
						log.Fatal(err)
					}
					journals[i] = jr
					recovered += spliceRecovery(prior, seen, rec)
					continue
				}
			}
			jr, err := dataset.CreateJournal(p, opt.date, corpusName)
			if err != nil {
				log.Fatal(err)
			}
			journals[i] = jr
		}
		if opt.resume {
			// A previous run may have used more workers; their journals
			// hold records too. Recover them read-only and leave them in
			// place until the snapshot commits.
			for i := opt.workers; ; i++ {
				p := workerJournalPath(opt.journal, i)
				if _, err := os.Stat(p); err != nil {
					break
				}
				rec, err := dataset.RecoverJournal(p)
				if err != nil {
					log.Fatal(err)
				}
				recovered += spliceRecovery(prior, seen, rec)
			}
			if recovered > 0 {
				fmt.Fprintf(os.Stderr, "resuming: %d domains and %d IPs recovered from %s.w*\n",
					len(seen), len(prior.IPs), opt.journal)
			}
		}
	}
	closeJournals := func() {
		for _, j := range journals {
			if j == nil {
				continue
			}
			if err := j.Close(); err != nil {
				log.Printf("journal close: %v", err)
			}
		}
	}

	set := dataset.NewShardSet(opt.out, opt.date, corpusName)
	stats, err := scan.CollectFleet(ctx, scan.FleetConfig{
		Corpus:       corpusName,
		Date:         opt.date,
		Workers:      opt.workers,
		WorkShards:   opt.workShards,
		NewCollector: newCollector,
		Output:       set,
		Journals:     journals,
		Prior:        prior,
		Seen:         seen,
	}, targets)
	if err != nil {
		closeJournals()
		if opt.journal != "" && errors.Is(err, context.Canceled) {
			log.Fatalf("collection interrupted; journals flushed to %s.w* — rerun with -journal %s -resume",
				opt.journal, opt.journal)
		}
		set.Remove()
		log.Fatal(err)
	}

	mstats, err := dataset.Merge(opt.out, set.Paths())
	if err != nil {
		closeJournals()
		log.Fatal(err)
	}
	if err := set.Remove(); err != nil {
		log.Printf("shard cleanup: %v", err)
	}
	closeJournals()
	if opt.journal != "" {
		// The snapshot is committed; every worker journal has served its
		// purpose, including leftovers from earlier wider runs.
		for i := 0; ; i++ {
			p := workerJournalPath(opt.journal, i)
			if _, err := os.Stat(p); err != nil {
				if i >= opt.workers {
					break
				}
				continue
			}
			if err := os.Remove(p); err != nil {
				log.Printf("journal remove: %v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "snapshot committed; journals %s.w* removed\n", opt.journal)
	}

	if opt.health {
		st, err := dataset.OpenStream(opt.out)
		if err != nil {
			log.Fatal(err)
		}
		h, err := dataset.HealthOf(st)
		if err != nil {
			log.Fatal(err)
		}
		// HealthOf cannot see the run's resilience counters — the
		// merged file does not carry them — so fold in the fleet's sum.
		// Without this the fleet sidecar reported zero retries no matter
		// how rough the collection was, unlike the single-worker path.
		h.Stats = stats.Collection
		writeHealth(h, opt.out)
	}
	fmt.Fprintf(os.Stderr, "measured %d domains, %d IPs with %d workers (%d shards, %d steals) in %v\n",
		stats.Domains, stats.IPs, stats.Workers, mstats.Shards, stats.Steals,
		time.Since(start).Round(time.Millisecond))
}

// workerJournalPath names worker w's write-ahead journal.
func workerJournalPath(base string, w int) string {
	return fmt.Sprintf("%s.w%02d", base, w)
}

// spliceRecovery unions one worker journal's recovery into the fleet's
// prior snapshot, returning the number of intact entries recovered.
func spliceRecovery(prior *dataset.Snapshot, seen map[string]bool, rec *dataset.JournalRecovery) int {
	if rec == nil || rec.Snapshot == nil {
		return 0
	}
	for d := range rec.Seen {
		seen[d] = true
	}
	for i := range rec.Snapshot.Domains {
		prior.AddDomain(rec.Snapshot.Domains[i])
	}
	for _, info := range rec.Snapshot.IPs {
		prior.AddIP(info)
	}
	return rec.Entries
}
