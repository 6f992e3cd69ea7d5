package core

import "mxmap/internal/dataset"

// DeltaStats reports how much work an incremental inference run reused
// from its prior result.
type DeltaStats struct {
	// Reused counts domains whose prior attribution was carried over
	// verbatim; Reinferred counts domains attributed from scratch.
	// Reused+Reinferred equals the run's NumDomains.
	Reused     int `json:"reused"`
	Reinferred int `json:"reinferred"`
}

// InferDelta runs the selected approach over a snapshot, reusing the
// prior result's attribution for every domain that provably cannot have
// changed. The output is byte-identical to Infer over the same
// snapshot; only the work differs. Like Infer it is the one engine
// (inferStream) over the snapshot as record source, with the emitted
// attributions retained in Result.Domains and the prior's looked up
// there.
//
// The assignment side (steps 1-4 and the trust pass) is always
// recomputed in full — it is global by construction (cert grouping,
// popularity counters, abuse-cluster thresholds all read the whole
// snapshot) and bounded by the distinct-IP/exchange populations. The
// per-domain step 5 is where the domain count bites, and where reuse is
// sound: a domain's attribution depends only on its own record, the
// observations of the addresses it references, and the
// credit-relevant fields of its primary exchanges' assignments.
//
// changed must therefore contain every domain whose record or
// referenced IP observations differ from the prior snapshot — exactly
// what dataset.DiffSnapshots/DiffStream report as added or changed.
// Assignment-level drift (e.g. an abuse-cluster threshold crossing
// because other domains left) is caught here by comparing the prior and
// new assignments of the domain's primary exchanges. prior must come
// from the same approach and Config; a nil prior, an approach mismatch,
// or a prior without retained Domains degrades to a full recompute.
func InferDelta(s *dataset.Snapshot, approach Approach, cfg Config, prior *Result, changed map[string]bool) (*Result, DeltaStats) {
	domains := make([]DomainAttribution, 0, len(s.Domains))
	res, ds, err := inferStream(s, approach, cfg, prior, retained(prior), changed, func(att DomainAttribution) {
		domains = append(domains, att)
	})
	if err != nil {
		panic(err) // unreachable: a Snapshot source returns only its callbacks' errors, and inferStream's return none
	}
	res.Domains = domains
	return res, ds
}

// retained resolves a domain's prior attribution from the Domains a
// prior in-memory run kept; nil when there are none to reuse.
func retained(prior *Result) func(string) (DomainAttribution, bool) {
	if prior == nil || prior.Domains == nil {
		return nil
	}
	at := make(map[string]int, len(prior.Domains))
	for i := range prior.Domains {
		at[prior.Domains[i].Domain] = i
	}
	return func(domain string) (DomainAttribution, bool) {
		if i, ok := at[domain]; ok {
			return prior.Domains[i], true
		}
		return DomainAttribution{}, false
	}
}

// InferStreamDelta is InferDelta over any record source, with
// InferStream's memory profile: nothing per domain is retained. priorAtt
// resolves a domain's prior attribution (the caller typically holds them
// in a serving store keyed by domain); emit receives every attribution
// in domain order, reused ones included, and may be nil.
//
// The reuse contract matches InferDelta: changed must cover record and
// referenced-IP churn (dataset.DiffStream's added+changed set), and the
// prior result must come from the same approach and Config.
func InferStreamDelta(src dataset.Source, approach Approach, cfg Config, prior *Result, priorAtt func(string) (DomainAttribution, bool), changed map[string]bool, emit func(DomainAttribution)) (*Result, DeltaStats, error) {
	return inferStream(src, approach, cfg, prior, priorAtt, changed, emit)
}

// assignmentsEqual reports whether every primary exchange's assignment
// is credit-equivalent between the prior and new MX maps: same presence,
// and identical in the three fields attributeDomain reads (ProviderID,
// Untrusted, CreditAs). Confidence/Reason/Examined drift does not affect
// attributions and is ignored.
func assignmentsEqual(primary []dataset.MXObs, oldMX, newMX map[string]*MXAssignment) bool {
	for _, mx := range primary {
		oa, okO := oldMX[mx.Exchange]
		na, okN := newMX[mx.Exchange]
		if okO != okN {
			return false
		}
		if okO && (oa.ProviderID != na.ProviderID || oa.Untrusted != na.Untrusted || oa.CreditAs != na.CreditAs) {
			return false
		}
	}
	return true
}
