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
// Both passes do the work a domain's tail (its MX list, SPF and
// delegation) decides once per tail when the source says which tail
// each record has (a Stream; see dataset.ForEachTail), and once
// per record otherwise (an in-memory Snapshot): pass A the primary MX
// set, the inventory entries, the address set and the stale-glue mark,
// pass B the attribution, whose credit map the domains of one tail then
// share. Per domain, what is left is counting the domain into its
// address set, its naming stem when the abuse rule is on (by its bytes),
// and stamping Domain and Rank on a copy of its tail's attribution; none
// of it allocates, and neither does the per-record work of a source
// without tails but the credit map of the attribution. Addresses are
// looked up and counted as netip.Addr, never formatted, in buffers
// reused from record to record. What the source allocates per record is
// the source's (a Stream's walk: the domain name, see dataset.Stream).
//
// emit receives every DomainAttribution in domain order; it may be nil
// when only the MX assignments matter. Pass B calls emit from inside the
// source's domain callback, once, for the record that callback was
// handed and before it returns: a caller that wraps the source sees,
// at each emit, the record the attribution is of (analysis.Fold pairs
// them so, over any source). An attribution's Credits map is read-only
// and may be shared with other domains'. The returned Result carries a
// nil Domains slice — the attributions exist only during their emit
// call.
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
		if cfg.AbuseClusterMinDomains <= 0 {
			// Only the abuse rule reads the naming stems: none are counted.
			tstats.domains, tstats.stems = nil, nil
		}
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

	// Pass B — step 5, one attribution at a time.
	if prior != nil && (prior.Approach != approach || priorAtt == nil) {
		prior = nil // nothing to reuse: a full recompute
	}
	ds, _, err := attributeDomains(src, ips, res.MX, prior, priorAtt, changed, emit)
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

// tailMemo keeps a pass's per-tail work by tail ID. A pass looks a
// record's tail up and, on a miss, builds the work from the record and
// stores it. A source that names tails numbers a pass's tails 0, 1, 2,
// … as it meets them, so a tail met for the first time is the next
// index; a record without a tail (dataset.NoTail) is never found, and
// its work is built for it alone.
type tailMemo[T any] struct {
	work []T
	// builds counts the misses: the tails met plus the records without one.
	builds int
}

func (m *tailMemo[T]) lookup(tail int) (w T, ok bool) {
	if tail >= 0 && tail < len(m.work) {
		return m.work[tail], true
	}
	return w, false
}

func (m *tailMemo[T]) store(tail int, w T) {
	m.builds++
	if tail == len(m.work) {
		m.work = append(m.work, w)
	}
}

// exchangesOf copies a primary MX set's exchanges for a tailMemo, which
// outlives the record: the addresses are left out.
func exchangesOf(primary []dataset.MXObs) []dataset.MXObs {
	out := make([]dataset.MXObs, len(primary))
	for i, mx := range primary {
		out[i] = dataset.MXObs{Preference: mx.Preference, Exchange: mx.Exchange, Dangling: mx.Dangling}
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
	// addrSets is the number of distinct primary-address sets numIP and
	// numCert were joined over.
	addrSets int
	nDomains int
	// tailBuilds counts the times the pass did a tail's work (see
	// takeInventory).
	tailBuilds int
}

// addrSet is one distinct primary-address set of pass A: its addresses
// and the number of domains that have it.
type addrSet struct {
	addrs   []netip.Addr
	domains int
}

// tailInventory is pass A's work for one tail: its primary MX set (the
// exchanges only, when kept for a tail) and its distinct primary-address
// set, nil when the primary set has no address.
type tailInventory struct {
	primary []dataset.MXObs
	set     *addrSet
}

// takeInventory is pass A: one pass over the domains and the IP section,
// folding each domain into tstats when it is non-nil. The domain lines
// come before the IP section, so a domain's certificates are unknown
// while its line is read, and numIP and numCert are joined after the
// walk: domains are counted per distinct primary-address set, and each
// set adds its count to each of its addresses and to every distinct
// fingerprint among them — the integers a per-domain join gives.
// Provider concentration bounds the set count as it bounds the IP table.
//
// What a domain's tail decides is done once per tail (see tailMemo): its
// primary set, its exchanges' entries in the inventory (in the same
// first-appearance order), its address set and the set's key, and the
// stale-glue mark. Per domain the pass counts the domain into its set
// and, when the abuse rule is on, its naming stem into tstats, and
// allocates nothing: the primary set and the set key are built in
// reused buffers, and only a tail's first sighting stores copies.
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
		tails   tailMemo[tailInventory]
		primary []dataset.MXObs
		seen    []netip.Addr
		setKey  []byte
	)
	build := func(d *dataset.DomainRecord, tail int) tailInventory {
		primary = d.AppendPrimaryMX(primary[:0])
		if tstats != nil && d.Delegation == dataset.DelegationStaleGlue {
			tstats.markStale(primary)
		}
		seen = seen[:0]
		for _, mx := range primary {
			if _, ok := exIndex[mx.Exchange]; !ok {
				exIndex[mx.Exchange] = len(inv.exchanges)
				// The record is the source's; own the retained copy.
				kept := mx
				kept.Addrs = append([]netip.Addr(nil), mx.Addrs...)
				inv.exchanges = append(inv.exchanges, kept)
			}
			for _, a := range mx.Addrs {
				if !slices.Contains(seen, a) {
					seen = append(seen, a)
				}
			}
		}
		w := tailInventory{primary: primary}
		if tail != dataset.NoTail {
			w.primary = exchangesOf(primary)
		}
		if len(seen) == 0 {
			return w
		}
		slices.SortFunc(seen, netip.Addr.Compare)
		setKey = setKey[:0]
		for i, a := range seen {
			if i > 0 {
				setKey = append(setKey, ' ')
			}
			setKey = a.AppendTo(setKey)
		}
		// Only a set's first tail allocates its key and its addresses.
		if w.set = sets[string(setKey)]; w.set == nil {
			w.set = &addrSet{addrs: slices.Clone(seen)}
			sets[string(setKey)] = w.set
		}
		return w
	}
	err := dataset.ForEachTail(src, func(d *dataset.DomainRecord, tail int) error {
		inv.nDomains++
		w, ok := tails.lookup(tail)
		if !ok {
			w = build(d, tail)
			tails.store(tail, w)
		}
		if w.set != nil {
			w.set.domains++
		}
		if tstats != nil && tstats.stems != nil {
			tstats.countStem(d.Domain, w.primary, memo)
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
			inv.numIP[a] += set.domains
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
	inv.tailBuilds = tails.builds
	return inv, nil
}

// tailAttribution is pass B's work for one tail: its primary MX set (the
// exchanges only, when kept for a tail) and the attribution of every
// domain with the tail, Domain and Rank left for the domain to stamp.
type tailAttribution struct {
	primary []dataset.MXObs
	att     DomainAttribution
}

// attributeDomains is pass B: step 5 over src's domains, given the IP
// section and the MX assignments, handing each attribution to emit
// (which may be nil) in domain order. The attribution is built once per
// tail (see tailMemo), so the domains of one tail share its Credits map.
// On a delta run (a non-nil prior), a domain outside the changed set
// whose primary assignments are credit-equivalent to the prior run's
// reuses its prior attribution verbatim; InferStreamDelta's doc says why
// that is provably identical. It returns the delta counts and how many
// times it built a tail's attribution.
func attributeDomains(src dataset.Source, ips map[netip.Addr]dataset.IPInfo, mxAssign map[string]*MXAssignment, prior *Result, priorAtt func(string) (DomainAttribution, bool), changed map[string]bool, emit func(DomainAttribution)) (DeltaStats, int, error) {
	smtp := make(map[netip.Addr]bool)
	for a, info := range ips {
		if info.Port25Open {
			smtp[a] = true
		}
	}
	var (
		ds      DeltaStats
		tails   tailMemo[tailAttribution]
		primary []dataset.MXObs
	)
	err := dataset.ForEachTail(src, func(d *dataset.DomainRecord, tail int) error {
		w, ok := tails.lookup(tail)
		if !ok {
			primary = d.AppendPrimaryMX(primary[:0])
			w = tailAttribution{primary: primary, att: attributeTail(primary, mxAssign, smtp)}
			if tail != dataset.NoTail {
				w.primary = exchangesOf(primary)
			}
			tails.store(tail, w)
		}
		if prior != nil && !changed[d.Domain] && assignmentsEqual(w.primary, prior.MX, mxAssign) {
			if att, ok := priorAtt(d.Domain); ok {
				ds.Reused++
				if emit != nil {
					emit(att)
				}
				return nil
			}
		}
		ds.Reinferred++
		if emit != nil {
			att := w.att
			att.Domain, att.Rank = d.Domain, d.Rank
			emit(att)
		}
		return nil
	}, nil)
	return ds, tails.builds, err
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
// and identical in the three fields attributeTail reads (ProviderID,
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
