package scan

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mxmap/internal/dataset"
)

// FleetConfig drives CollectFleet: the engine as Workers
// single-goroutine lanes, each owning its own Collector (resolver, retry
// budget, breakers), its own write-ahead journal and its own snapshot
// shard writer, so a million-domain run never funnels through one
// resolver cache or one in-memory snapshot.
type FleetConfig struct {
	// Corpus and Date label the run (shards carry them in their
	// headers; Merge insists they agree).
	Corpus, Date string
	// Workers is the fleet size (default 4).
	Workers int
	// NewCollector builds worker w's collector. Each call must return
	// an independent Collector — sharing a resolver between workers
	// reintroduces the contention the fleet exists to avoid. The
	// collector's Concurrency, Journal and Prior/Seen are Collect's
	// alone: a fleet lane is one goroutine by construction, and the
	// fleet drives Journals and Prior/Seen itself.
	NewCollector func(w int) (*Collector, error)
	// Output receives one shard per spill. The fleet gives each worker
	// its own ShardWriter on this set.
	Output *dataset.ShardSet
	// Journals, when non-nil, holds one write-ahead journal per worker
	// (len must equal Workers). Worker w journals every record it
	// completes to Journals[w]. The caller owns the journals' lifecycle
	// (resume before, close after).
	Journals []*dataset.Journal
	// Prior supplies records recovered from a crashed run's journals
	// (merged across workers). Domains marked in Seen are spliced from
	// Prior instead of re-measured; addresses present in Prior.IPs are
	// reused instead of re-scanned. Spliced records are not
	// re-journaled.
	Prior *dataset.Snapshot
	// Seen marks domains whose Prior record is complete.
	Seen map[string]bool
}

// FleetStats summarizes one fleet run.
type FleetStats struct {
	// Workers is the number of workers that ran.
	Workers int `json:"workers"`
	// Steals is always 0: the engine claims work off a cursor and steals
	// nothing. The field is declared only because bench/ (read-only in
	// the PR that removed the work-stealing dispatcher) reads it as
	// scan.steals; it goes when bench/ drops that metric (ROADMAP item 3).
	Steals int `json:"steals"`
	// Domains and IPs count the records written across all shards.
	Domains int `json:"domains"`
	IPs     int `json:"ips"`
	// ShardFiles is the number of snapshot shards produced.
	ShardFiles int `json:"shard_files"`
	// Collection sums the per-worker resilience counters.
	Collection dataset.CollectionStats `json:"collection"`
}

// CollectFleet measures targets with a pool of independent workers and
// writes the result as sorted snapshot shards on cfg.Output, ready for
// dataset.Merge. Each domain is measured by exactly one worker, each
// distinct address is scanned by exactly one worker, and the merged
// shard set is byte-identical to a single-worker run and to Collect's
// sorted snapshot on a deterministic world (on a faulty network the
// retry budget each record happens to see can differ between layouts).
// A failed or cancelled run spills nothing further: shards already on
// cfg.Output are the caller's to Remove.
//
// Once every lane has finished, the lanes' writers are closed at the
// same time, one goroutine each: a lane's last spill (sort, encode,
// deflate, fsync) is most of what it writes on a corpus that fits its
// buffer, and none of it depends on another lane's. CollectFleet
// returns after all of them have, with the first error in lane order.
func CollectFleet(ctx context.Context, cfg FleetConfig, targets []Target) (*FleetStats, error) {
	nw := cfg.Workers
	if nw <= 0 {
		nw = 4
	}
	if cfg.Journals != nil && len(cfg.Journals) != nw {
		return nil, fmt.Errorf("scan: %d journals for %d workers", len(cfg.Journals), nw)
	}
	if cfg.Output == nil {
		return nil, errors.New("scan: fleet needs an output shard set")
	}
	if cfg.NewCollector == nil {
		return nil, errors.New("scan: fleet needs a collector constructor")
	}

	lanes := make([]*lane, 0, nw)
	writers := make([]*dataset.ShardWriter, 0, nw)
	closeCollectors := func() (first error) {
		for _, l := range lanes {
			if err := l.c.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i := 0; i < nw; i++ {
		c, err := cfg.NewCollector(i)
		if err != nil {
			closeCollectors()
			return nil, fmt.Errorf("scan: worker %d collector: %w", i, err)
		}
		var journal Journal
		if cfg.Journals != nil {
			journal = cfg.Journals[i]
		}
		w := cfg.Output.NewWriter()
		writers = append(writers, w)
		lanes = append(lanes, newLane(c, journal, shardSink(w)))
	}

	stats, err := collect(ctx, lanes, 1, targets, cfg.Prior, cfg.Seen)
	if cerr := closeCollectors(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(writers))
	var wg sync.WaitGroup
	for i, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Close()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	stats.ShardFiles = len(cfg.Output.Paths())
	return stats, nil
}
