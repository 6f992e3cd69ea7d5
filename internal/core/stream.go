package core

import (
	"net/netip"
	"sort"

	"mxmap/internal/dataset"
	"mxmap/internal/parallel"
	"mxmap/internal/psl"
)

// InferStream runs the selected approach over a record source without
// retaining anything per domain: InferStreamDelta without a prior. Infer
// is this function over an in-memory *dataset.Snapshot, mxserve and the
// fleet run it over a *dataset.Stream, and the result depends only on
// the records the source yields, not on which of the two yields them.
// Memory beyond the source's own scales with the
// distinct-IP and distinct-exchange populations, which provider
// concentration keeps orders of magnitude below the domain count.
//
// The source is read three times:
//
//   - LoadIPs takes the IP section whole (it is the bounded side);
//   - pass A over domains builds the deduplicated exchange inventory in
//     first-appearance order (first-wins observation), the popularity
//     counters and the trust statistics;
//   - pass B re-reads domains, attributing each one and handing it to
//     emit.
//
// Between the passes, steps 1-4 and the trust pass run over the IP
// section and the inventory; cfg.Parallelism shards steps 2 and 3.
//
// emit receives every DomainAttribution in domain order; it may be nil
// when only the MX assignments matter. The returned Result carries a nil
// Domains slice — the attributions exist only during their emit call.
func InferStream(src dataset.Source, approach Approach, cfg Config, emit func(DomainAttribution)) (*Result, error) {
	res, _, err := InferStreamDelta(src, approach, cfg, nil, nil, nil, emit)
	return res, err
}

// InferStreamDelta is the inference engine, the one body that runs steps
// 1-5 and the trust pass behind all three entry points (itself,
// InferStream and Infer). With a nil prior it is a full run. Handed the prior result, it reuses the
// prior attribution of every domain that provably cannot have changed:
// the output is byte-identical to InferStream over the same source, and
// only the work differs. priorAtt resolves a domain's prior attribution
// (the caller typically holds them in a serving store keyed by domain);
// emit receives every attribution in domain order, reused ones included,
// and may be nil.
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
// what dataset.DiffStream reports as added or changed.
// Assignment-level drift (e.g. an abuse-cluster threshold crossing
// because other domains left) is caught here by comparing the prior and
// new assignments of the domain's primary exchanges. prior must come
// from the same approach and Config; a nil prior or priorAtt, or an
// approach mismatch, degrades to a full recompute.
func InferStreamDelta(src dataset.Source, approach Approach, cfg Config, prior *Result, priorAtt func(string) (DomainAttribution, bool), changed map[string]bool, emit func(DomainAttribution)) (*Result, DeltaStats, error) {
	memo := psl.NewMemo(psl.Default)
	if cfg.ConfidenceThreshold == 0 {
		cfg.ConfidenceThreshold = 5
	}
	workers := parallel.Workers(cfg.Parallelism)

	ips, err := src.LoadIPs()
	if err != nil {
		return nil, DeltaStats{}, err
	}
	sortedKeys := make([]string, 0, len(ips))
	for k := range ips {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)

	// Pass A — exchange inventory (first-appearance order, first-wins
	// observation) and popularity counters: how many domains' primary MX
	// sets point at each address and at each certificate.
	var (
		exchanges []dataset.MXObs
		exIndex   = make(map[string]int)
		numIP     = make(map[string]int)
		numCert   = make(map[string]int)
		nDomains  int
		seenIP    []string
		seenCert  []string
		tstats    *trustStats
	)
	if approach == ApproachPriority {
		tstats = newTrustStats()
	}
	err = src.ForEach(func(d *dataset.DomainRecord) error {
		nDomains++
		seenIP, seenCert = seenIP[:0], seenCert[:0]
		primary := d.PrimaryMX()
		if tstats != nil {
			// Trust statistics fold in here so the source needs no extra
			// pass.
			tstats.observe(d, primary, memo)
		}
		for _, mx := range primary {
			if _, ok := exIndex[mx.Exchange]; !ok {
				exIndex[mx.Exchange] = len(exchanges)
				// The streamed record is reused; own the retained copy.
				kept := mx
				kept.Addrs = append([]netip.Addr(nil), mx.Addrs...)
				exchanges = append(exchanges, kept)
			}
			for _, a := range mx.Addrs {
				key := a.String()
				if containsStr(seenIP, key) {
					continue
				}
				seenIP = append(seenIP, key)
				numIP[key]++
				if info, ok := ips[key]; ok && info.Scan != nil && info.Scan.CertFingerprint != "" {
					if fp := info.Scan.CertFingerprint; !containsStr(seenCert, fp) {
						seenCert = append(seenCert, fp)
						numCert[fp]++
					}
				}
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, DeltaStats{}, err
	}

	// Steps 1-4 only consume the IP observations and the exchange
	// inventory. Step 1 — certificate preprocessing (cert-based and
	// priority only).
	var groups *CertGroups
	if approach == ApproachCertBased || approach == ApproachPriority {
		certList := collectCerts(ips, sortedKeys)
		if cfg.DisableCertGrouping {
			groups = singletonGroups(certList, memo)
		} else {
			groups = groupCertificates(certList, memo)
		}
	}
	// Step 2 — per-IP identities, sharded over the sorted key list.
	ipIDs := computeIPIDs(ips, sortedKeys, groups, memo, cfg, workers)

	// Step 3 — per-MX provider IDs, sharded over the inventory (one
	// assignment per distinct exchange).
	res := &Result{Approach: approach, MX: make(map[string]*MXAssignment, len(exchanges))}
	assigns := make([]*MXAssignment, len(exchanges))
	parallel.Run(len(exchanges), workers, func(i int) {
		assigns[i] = assignMX(exchanges[i], approach, ipIDs, numIP, numCert, ips, memo, cfg.PreferBannerOverCert)
	})
	for _, a := range assigns {
		res.MX[a.Exchange] = a
	}
	// Step 4 — misidentification check (priority approach only).
	if approach == ApproachPriority && len(cfg.Profiles) > 0 {
		checkMisidentifications(res, exchanges, ips, ipIDs, cfg, memo)
	}
	// Trust pass — hijack/abuse-aware provenance cross-check (priority
	// approach only).
	if tstats != nil {
		checkTrust(res, exchanges, ips, tstats, cfg)
	}

	// Pass B — step 5, one attribution at a time. On a delta run a
	// domain outside the changed set whose primary assignments are
	// credit-equivalent to the prior run's reuses its prior attribution
	// verbatim; the doc comment above says why that is provably identical.
	var ds DeltaStats
	usePrior := prior != nil && prior.Approach == approach && priorAtt != nil
	err = src.ForEach(func(d *dataset.DomainRecord) error {
		primary := d.PrimaryMX()
		if usePrior && !changed[d.Domain] && assignmentsEqual(primary, prior.MX, res.MX) {
			if att, ok := priorAtt(d.Domain); ok {
				ds.Reused++
				if emit != nil {
					emit(att)
				}
				return nil
			}
		}
		ds.Reinferred++
		att := attributeDomain(d, primary, res.MX, ips)
		if emit != nil {
			emit(att)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, DeltaStats{}, err
	}
	res.NumDomains = nDomains
	return res, ds, nil
}

// DeltaStats reports how much work an incremental inference run reused
// from its prior result.
type DeltaStats struct {
	// Reused counts domains whose prior attribution was carried over
	// verbatim; Reinferred counts domains attributed from scratch.
	// Reused+Reinferred equals the run's NumDomains.
	Reused     int `json:"reused"`
	Reinferred int `json:"reinferred"`
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
