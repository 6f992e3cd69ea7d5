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
// budget, breakers) and its own snapshot shard writer, so a
// million-domain run never funnels through one resolver cache or one
// in-memory snapshot.
type FleetConfig struct {
	// Corpus and Date label the run (shards carry them in their
	// headers; Merge insists they agree).
	Corpus, Date string
	// Workers is the fleet size (default 4).
	Workers int
	// NewCollector builds worker w's collector. Each call must return
	// an independent Collector — sharing a resolver between workers
	// reintroduces the contention the fleet exists to avoid. The
	// collector's Concurrency is Collect's alone: a fleet lane is one
	// goroutine by construction.
	NewCollector func(w int) (*Collector, error)
	// Output receives one shard per spill, each worker through its own
	// ShardWriter. A set from dataset.ResumeShardSet continues a run:
	// what its old shards hold is not measured or written again (Merge
	// reads it from them), but a held domain's addresses join phase 2.
	Output *dataset.ShardSet
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
	// Domains and IPs count the records this run wrote across its
	// shards; a resume's prior records are not among them.
	Domains int `json:"domains"`
	IPs     int `json:"ips"`
	// ShardFiles is the number of snapshot shards produced.
	ShardFiles int `json:"shard_files"`
	// Health is the run's report: the classes of the records it wrote,
	// one vote per exchange it resolved, and the sum of the workers'
	// resilience counters.
	Health *dataset.Health `json:"health"`
}

// CollectFleet measures targets with a pool of independent workers and
// writes the result as sorted snapshot shards on cfg.Output, ready for
// dataset.Merge. Each domain is measured by exactly one worker, each
// distinct address is scanned by exactly one worker, and the merged
// shard set is byte-identical to a single-worker run and to Collect's
// sorted snapshot on a deterministic world (on a faulty network the
// retry budget each record happens to see can differ between layouts).
//
// The shards are the run's checkpoint. When ctx is cancelled the lanes'
// buffers are spilled as a finished run's are, and CollectFleet returns
// ctx's error once they are on disk: a record finished under the
// cancelled context never reaches a buffer, so every shard holds whole
// measurements, and a resume (an Output from dataset.ResumeShardSet)
// measures only what none of them holds. A run that fails otherwise
// spills nothing further. Either way the shards on cfg.Output are the
// caller's to keep or Remove.
func CollectFleet(ctx context.Context, cfg FleetConfig, targets []Target) (*FleetStats, error) {
	nw := cfg.Workers
	if nw <= 0 {
		nw = 4
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
		w := cfg.Output.NewWriter()
		writers = append(writers, w)
		lanes = append(lanes, newLane(c, shardSink(w)))
	}

	stats, err := collect(ctx, lanes, 1, targets, cfg.Output)
	if cerr := closeCollectors(); err == nil {
		err = cerr
	}
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	shards, werr := closeWriters(writers)
	if werr != nil {
		return nil, errors.Join(err, werr)
	}
	if err != nil {
		return nil, err
	}
	stats.ShardFiles = shards
	return stats, nil
}

// closeWriters closes the lanes' writers at the same time, one
// goroutine each: a lane's last spill (sort, encode, deflate, fsync) is
// most of what it writes on a corpus that fits its buffer, and none of
// it depends on another lane's. It returns after all of them have, with
// the shards they wrote and the first error in lane order.
func closeWriters(writers []*dataset.ShardWriter) (shards int, err error) {
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
	for i, w := range writers {
		shards += w.Shards
		if err == nil {
			err = errs[i]
		}
	}
	return shards, err
}
