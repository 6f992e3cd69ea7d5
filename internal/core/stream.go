package core

import (
	"net/netip"
	"slices"
	"strings"

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
// The source is read twice:
//
//   - pass A reads domains and the IP section (see takeInventory): it
//     keeps the IP section whole (it is the bounded side) and builds the
//     deduplicated exchange inventory in first-appearance order
//     (first-wins observation), the popularity counters and the trust
//     statistics;
//   - pass B re-reads domains, attributing each one and handing it to
//     emit.
//
// Between the passes, steps 1-4 and the trust pass run over the IP
// section and the inventory; cfg.Parallelism shards steps 2 and 3.
//
// Per domain, the engine allocates the attribution it emits (its credit
// map) and nothing else: addresses are looked up and counted as
// netip.Addr, never formatted; the primary MX set, pass A's address set
// and its key are built in buffers reused from domain to domain; and
// the abuse stem is counted by its bytes. What the source allocates per
// record is the source's (a Stream's walk: the domain name, see
// dataset.Stream).
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

	// Pass A — the IP section, the exchange inventory, the popularity
	// counters and the trust statistics.
	var tstats *trustStats
	if approach == ApproachPriority {
		tstats = newTrustStats()
	}
	inv, err := takeInventory(src, tstats, memo)
	if err != nil {
		return nil, DeltaStats{}, err
	}
	ips, exchanges, numIP, numCert := inv.ips, inv.exchanges, inv.numIP, inv.numCert
	sortedKeys := sortedAddrs(ips)

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
	smtp := make(map[netip.Addr]bool)
	for a, info := range ips {
		if info.Port25Open {
			smtp[a] = true
		}
	}
	var (
		ds      DeltaStats
		primary []dataset.MXObs
	)
	usePrior := prior != nil && prior.Approach == approach && priorAtt != nil
	err = src.ForEach(func(d *dataset.DomainRecord) error {
		primary = d.AppendPrimaryMX(primary[:0])
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
		att := attributeDomain(d, primary, res.MX, smtp)
		if emit != nil {
			emit(att)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, DeltaStats{}, err
	}
	res.NumDomains = inv.nDomains
	return res, ds, nil
}

// sortedAddrs lists the IP table's addresses in the order of their
// text, the order steps 1 and 2 walk it in: each address is formatted
// once, here, bounded by the distinct-IP count.
func sortedAddrs(ips map[netip.Addr]dataset.IPInfo) []netip.Addr {
	type keyed struct {
		text string
		addr netip.Addr
	}
	keys := make([]keyed, 0, len(ips))
	for a := range ips {
		keys = append(keys, keyed{a.String(), a})
	}
	slices.SortFunc(keys, func(x, y keyed) int { return strings.Compare(x.text, y.text) })
	out := make([]netip.Addr, len(keys))
	for i, k := range keys {
		out[i] = k.addr
	}
	return out
}

// inventory is what pass A learns in its one read of the source.
type inventory struct {
	// ips is the IP section keyed by address, a repeated address's last
	// line winning.
	ips map[netip.Addr]dataset.IPInfo
	// exchanges is the deduplicated primary-exchange inventory in
	// first-appearance order, each exchange as its first domain saw it.
	exchanges []dataset.MXObs
	// numIP counts, per address, the domains whose distinct primary
	// addresses include it; numCert counts, per certificate fingerprint,
	// the domains whose distinct primary addresses include one carrying
	// it.
	numIP   map[netip.Addr]int
	numCert map[string]int
	// addrSets is the number of distinct primary-address sets numCert
	// was joined over.
	addrSets int
	nDomains int
}

// addrSet is one distinct primary-address set of pass A: its addresses
// and the number of domains that have it.
type addrSet struct {
	addrs   []netip.Addr
	domains int
}

// takeInventory is pass A: one ForEach over the domains and the IP
// section, folding each domain into tstats when it is non-nil. The
// domain lines come before the IP section, so a domain's certificates
// are unknown while its line is read and numCert is joined after the
// walk: domains are counted per distinct primary-address set, and each
// set adds its count to every distinct fingerprint among its addresses —
// the integer a per-domain join gives. Provider concentration bounds the
// set count as it bounds the IP table.
//
// Per domain the pass allocates nothing of its own: addresses are
// counted as netip.Addr, the primary set and the set key are built in
// buffers reused from domain to domain, and only a set's first domain
// stores a copy of it.
func takeInventory(src dataset.Source, tstats *trustStats, memo *psl.Memo) (*inventory, error) {
	inv := &inventory{
		ips:     make(map[netip.Addr]dataset.IPInfo),
		numIP:   make(map[netip.Addr]int),
		numCert: make(map[string]int),
	}
	var (
		exIndex = make(map[string]int)
		// sets holds the distinct primary-address sets, keyed by their
		// addresses in netip order, as text joined by spaces.
		sets    = make(map[string]*addrSet)
		primary []dataset.MXObs
		seen    []netip.Addr
		setKey  []byte
	)
	err := src.ForEach(func(d *dataset.DomainRecord) error {
		inv.nDomains++
		seen = seen[:0]
		primary = d.AppendPrimaryMX(primary[:0])
		if tstats != nil {
			// Trust statistics fold in here so the source needs no extra
			// pass.
			tstats.observe(d, primary, memo)
		}
		for _, mx := range primary {
			if _, ok := exIndex[mx.Exchange]; !ok {
				exIndex[mx.Exchange] = len(inv.exchanges)
				// The streamed record is reused; own the retained copy.
				kept := mx
				kept.Addrs = append([]netip.Addr(nil), mx.Addrs...)
				inv.exchanges = append(inv.exchanges, kept)
			}
			for _, a := range mx.Addrs {
				if slices.Contains(seen, a) {
					continue
				}
				seen = append(seen, a)
				inv.numIP[a]++
			}
		}
		if len(seen) == 0 {
			return nil
		}
		slices.SortFunc(seen, netip.Addr.Compare)
		setKey = setKey[:0]
		for i, a := range seen {
			if i > 0 {
				setKey = append(setKey, ' ')
			}
			setKey = a.AppendTo(setKey)
		}
		// Only a set's first domain allocates its key and its addresses.
		if set := sets[string(setKey)]; set != nil {
			set.domains++
		} else {
			sets[string(setKey)] = &addrSet{addrs: slices.Clone(seen), domains: 1}
		}
		return nil
	}, func(info *dataset.IPInfo) error {
		// Every IP line is decoded into a fresh record: the copy may keep
		// its Scan pointer.
		inv.ips[info.Addr] = *info
		return nil
	})
	if err != nil {
		return nil, err
	}
	var seenCert []string
	for _, set := range sets {
		seenCert = seenCert[:0]
		for _, a := range set.addrs {
			info, ok := inv.ips[a]
			if !ok || info.Scan == nil || info.Scan.CertFingerprint == "" {
				continue
			}
			if fp := info.Scan.CertFingerprint; !containsStr(seenCert, fp) {
				seenCert = append(seenCert, fp)
				inv.numCert[fp] += set.domains
			}
		}
	}
	inv.addrSets = len(sets)
	return inv, nil
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
