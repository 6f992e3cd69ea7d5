package analysis

import (
	"mxmap/internal/core"
	"mxmap/internal/dataset"
)

// Fold runs approach over src with core.InferStream and hands fold each
// domain's record with its attribution, in emit order. The pass emits
// from inside the source's domain callback for the record it
// attributes (InferStream's contract), so the record fold gets is the
// one that callback was handed: a Stream's slot, read-only and valid
// only for the call. The source keeps its tail IDs, so a fold over a
// file still does a tail's work once per tail. The Result carries the
// run's MX assignments and counters.
func Fold(src dataset.Source, approach core.Approach, cfg core.Config, fold func(*dataset.DomainRecord, core.DomainAttribution)) (*core.Result, error) {
	fs := &foldSource{Source: src}
	return core.InferStream(fs, approach, cfg, func(att core.DomainAttribution) { fold(fs.rec, att) })
}

// foldSource is a Source that remembers the record its last domain
// callback was handed. InferStream runs its passes one after the other,
// so one field serves both.
type foldSource struct {
	dataset.Source
	rec *dataset.DomainRecord
}

// ForEachTail is the wrapped source's pass with its tail IDs (see
// dataset.ForEachTail), noting each record before its callback runs.
func (f *foldSource) ForEachTail(domain func(*dataset.DomainRecord, int) error, ip func(*dataset.IPInfo) error) error {
	return dataset.ForEachTail(f.Source, func(d *dataset.DomainRecord, tail int) error {
		f.rec = d
		return domain(d, tail)
	}, ip)
}
