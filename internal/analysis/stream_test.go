package analysis

import (
	"reflect"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/world"
)

// The accumulator fed one attribution at a time must reproduce the
// market summed over the whole retained attribution list: the batch
// form the figures read before every figure became a fold, kept here
// as the reference.
func TestShareAccumulatorMatchesBatch(t *testing.T) {
	w, snaps := setup(t)
	dates := w.Corpus(world.CorpusAlexa).Dates
	res := core.Infer(snaps[world.CorpusAlexa][dates[len(dates)-1]], core.ApproachPriority, core.Config{Profiles: testProfiles(w)})

	batch := make(map[string]float64)
	for _, att := range res.Domains {
		for id, credit := range att.Credits {
			batch[CompanyOf(att.Domain, id, w.Directory)] += credit
		}
	}
	acc := NewShareAccumulator(w.Directory)
	for _, att := range res.Domains {
		acc.Add(att)
	}
	if acc.Domains() != len(res.Domains) {
		t.Fatalf("Domains() = %d, want %d", acc.Domains(), len(res.Domains))
	}
	if !reflect.DeepEqual(acc.Credits(), batch) {
		t.Errorf("credits diverged:\naccumulated: %v\nbatch:       %v", acc.Credits(), batch)
	}
	wantShares := TopShares(batch, len(res.Domains), 5)
	if got := acc.TopShares(5); !reflect.DeepEqual(got, wantShares) {
		t.Errorf("top shares diverged:\naccumulated: %+v\nbatch:       %+v", got, wantShares)
	}
	if got, want := acc.Concentration(), concentrationFromCredits(batch); got != want {
		t.Errorf("concentration diverged: %+v vs %+v", got, want)
	}
}
