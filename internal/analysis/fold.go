package analysis

import (
	"fmt"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
)

// Fold runs approach over an in-memory snapshot with core.InferStream
// and hands fold each domain's record with its attribution, in emit
// order: the i-th attribution is snap.Domains[i]'s. A pass whose emits
// do not line up with the records stops calling fold and fails. The
// Result carries the run's MX assignments and counters.
func Fold(snap *dataset.Snapshot, approach core.Approach, cfg core.Config, fold func(*dataset.DomainRecord, core.DomainAttribution)) (*core.Result, error) {
	i, misaligned := 0, false
	res, err := core.InferStream(snap, approach, cfg, func(att core.DomainAttribution) {
		misaligned = misaligned || i == len(snap.Domains) || snap.Domains[i].Domain != att.Domain
		if !misaligned {
			fold(&snap.Domains[i], att)
			i++
		}
	})
	if err == nil && (misaligned || i != len(snap.Domains)) {
		err = fmt.Errorf("analysis: the pass's emits part from the snapshot's %d records at record %d", len(snap.Domains), i)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
