package main

import (
	"context"
	"testing"

	"mxmap/internal/dataset"
	"mxmap/internal/world"
)

// TestIterativeCollectorKeepsParkingData pins that -iterative builds its
// collector the way every other mode does and only swaps the resolver:
// over an adversarial world the parking blocklist must still be wired,
// so a parked exchange whose port 25 never answers classifies as
// FailParkedIP rather than as a connect failure.
func TestIterativeCollectorKeepsParkingData(t *testing.T) {
	src, err := worldSource(world.Config{Seed: 7, Scale: 0.003, Adversarial: 0.25}, world.CorpusAlexa, "2021-06", true)
	if err != nil {
		t.Fatal(err)
	}
	defer src.close()
	col, err := src.newCollector(0)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if col.Parked == nil || col.Covered == nil {
		t.Fatal("iterative collector lost the session's Parked/Covered oracles")
	}
	snap, err := col.Collect(context.Background(), src.corpus, "2021-06", src.targets)
	if err != nil {
		t.Fatal(err)
	}
	parked := 0
	for _, info := range snap.IPs {
		if info.Failure == dataset.FailParkedIP {
			if !info.Parked {
				t.Errorf("%s classified parked-ip without the parked mark", info.Addr)
			}
			parked++
		}
	}
	if parked == 0 {
		t.Fatalf("no address classified %s among %d", dataset.FailParkedIP, len(snap.IPs))
	}
}
