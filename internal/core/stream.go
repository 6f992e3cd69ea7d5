package core

import (
	"net/netip"
	"sort"

	"mxmap/internal/dataset"
	"mxmap/internal/parallel"
	"mxmap/internal/psl"
)

// InferStream runs the selected approach over a record source without
// retaining anything per domain. It is the inference engine: Infer and
// InferDelta are this function over an in-memory *dataset.Snapshot,
// mxserve and the fleet run it over a *dataset.Stream, and the result
// depends only on the records the source yields, not on which of the
// two yields them. Memory beyond the source's own scales with the
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
	res, _, err := inferStream(src, approach, cfg, nil, nil, nil, emit)
	return res, err
}

// inferStream is the one body that runs steps 1-5 and the trust pass,
// behind all four entry points: prior == nil is a full run, otherwise
// prior attributions are reused for domains outside the changed set
// whose primary assignments are credit-equivalent.
func inferStream(src dataset.Source, approach Approach, cfg Config, prior *Result, priorAtt func(string) (DomainAttribution, bool), changed map[string]bool, emit func(DomainAttribution)) (*Result, DeltaStats, error) {
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
	// verbatim; see InferDelta for why that is provably identical.
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
