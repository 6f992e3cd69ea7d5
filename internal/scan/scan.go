// Package scan implements the measurement pipeline that joins the two
// external data sources the paper relies on: an OpenINTEL-style active
// DNS collection (domain → MX → A) and a Censys-style port-25 scan
// (IP → banner, EHLO, STARTTLS certificate chain). The output is a
// dataset.Snapshot ready for the inference methodology.
package scan

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mxmap/internal/asn"
	"mxmap/internal/certs"
	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/smtp"
)

// Collector gathers one snapshot. All fields except Resolver and Dialer
// are optional.
type Collector struct {
	// Resolver answers MX and A lookups (the OpenINTEL substitute).
	Resolver dns.Resolver
	// Dialer reaches SMTP endpoints (the scanning substrate).
	Dialer smtp.Dialer
	// Trust validates STARTTLS certificates ("trusted by a major
	// browser"); nil marks every certificate invalid.
	Trust *certs.TrustStore
	// Prefixes maps addresses to origin ASNs; nil leaves ASNs zero.
	Prefixes *asn.Table
	// ASRegistry names ASNs; nil leaves names empty.
	ASRegistry *asn.Registry
	// Covered reports whether the scanning service has data for an
	// address (the Censys-coverage oracle); nil means full coverage.
	Covered func(addr netip.Addr) bool
	// Parked reports whether an address belongs to a known domain-parking
	// service (a parking-IP blocklist); nil means no parking data. A
	// parked exchange whose port 25 never answers classifies as
	// FailParkedIP instead of a transient connect failure.
	Parked func(addr netip.Addr) bool
	// Concurrency bounds parallel DNS resolutions and SMTP scans
	// (default 32).
	Concurrency int
	// Retry bounds how transient-classed lookups and scans are retried;
	// nil uses DefaultRetryPolicy; Attempts: 1 never retries.
	Retry *RetryPolicy
	// ScanTimeout bounds one SMTP scan attempt (default 10s, matching
	// smtp.Scan's own default).
	ScanTimeout time.Duration
	// Journal, when set, receives every record this run completes before
	// the record reaches the snapshot — the write-ahead journal. Appends
	// are serialized. Records spliced from Prior are not re-journaled,
	// and a record finished under a cancelled context is dropped (its
	// failure classes reflect the cancellation, not the network).
	Journal Journal
	// Prior supplies records recovered from a crashed run's journal:
	// a domain marked in Seen takes its record from Prior instead of
	// being re-resolved (one absent from Prior is re-collected, the safe
	// direction), and any address present in Prior.IPs is reused instead
	// of being re-scanned. Pass JournalRecovery.Snapshot and
	// JournalRecovery.Seen.
	Prior *dataset.Snapshot
	Seen  map[string]bool
}

// Journal is the write-ahead log a collection appends completed records
// to; *dataset.Journal is the implementation.
type Journal interface {
	AddDomain(d *dataset.DomainRecord) error
	AddIP(info *dataset.IPInfo) error
}

// Close releases resources held by the collector's resolver (such as
// the shared DNS transports of an IterativeResolver). Collectors whose
// resolver holds no sockets (CatalogResolver) are unaffected.
func (c *Collector) Close() error {
	if closer, ok := c.Resolver.(interface{ Close() error }); ok {
		return closer.Close()
	}
	return nil
}

// Target is one domain to measure, with its list rank when known.
type Target struct {
	// Name is the registered domain.
	Name string
	// Rank is the source-list rank (0 when not ranked).
	Rank int
}

// collectRun bundles the per-lane resilience state threaded through both
// collection phases.
type collectRun struct {
	retry    *retryState
	breakers *breakerSet

	dnsRetries  atomic.Int64
	scanRetries atomic.Int64
}

// aResult is one exchange's address-resolution outcome.
type aResult struct {
	addrs    []netip.Addr
	class    dataset.FailureClass
	dangling bool
}

// definitive reports whether the outcome may be cached for the whole
// snapshot: successes and NXDOMAINs are facts, transient failures are
// not — memoizing a timed-out lookup as "no addresses" would silently
// bias every domain sharing the exchange.
func (r aResult) definitive() bool {
	return !r.class.Transient()
}

// aFlight is one in-progress address resolution shared by concurrent
// callers (singleflight).
type aFlight struct {
	done chan struct{}
	res  aResult
}

// domainResolver is the per-run DNS machinery for phase 1: the MX→A
// pipeline with singleflight address deduplication and the optional
// SPF/TXT lookup. One instance serves all goroutines of a lane (its
// cache rides the lane's own resolver).
type domainResolver struct {
	c   *Collector
	run *collectRun

	mu       sync.Mutex
	aCache   map[string]aResult
	aFlights map[string]*aFlight

	txt    dns.TXTResolver
	hasTXT bool

	prov    dns.ProvenanceChecker
	hasProv bool
}

// newDomainResolver builds the phase-1 pipeline bound to one run's
// retry budget and breakers.
func (c *Collector) newDomainResolver(run *collectRun) *domainResolver {
	dr := &domainResolver{
		c:        c,
		run:      run,
		aCache:   make(map[string]aResult),
		aFlights: make(map[string]*aFlight),
	}
	dr.txt, dr.hasTXT = c.Resolver.(dns.TXTResolver)
	dr.prov, dr.hasProv = c.Resolver.(dns.ProvenanceChecker)
	return dr
}

// lookupAddrs resolves one host's A (and best-effort AAAA) records
// under the run's retry budget.
func (dr *domainResolver) lookupAddrs(ctx context.Context, host string) aResult {
	var res aResult
	class, retries := dr.run.retry.do(ctx, func() (dataset.FailureClass, bool) {
		addrs, err := dr.c.Resolver.LookupA(ctx, host)
		res = aResult{addrs: addrs, class: ClassifyMXTarget(err)}
		if res.class.Failed() {
			res.addrs = nil
			return res.class, true
		}
		// The IPv6 extension: collect AAAA records alongside A
		// (best-effort; the A outcome drives retries).
		if v6, err := dr.c.Resolver.LookupAAAA(ctx, host); err == nil {
			res.addrs = append(res.addrs, v6...)
		}
		return res.class, true
	})
	res.class = class
	dr.run.dnsRetries.Add(int64(retries))
	// Provenance: an exchange whose enclosing registered zone is gone is
	// dangling whether or not stale glue still made it resolve.
	if dr.hasProv && (res.class == dataset.FailOK || res.class == dataset.FailDanglingMX) {
		res.dangling = dr.prov.ZoneGone(ctx, host)
	}
	return res
}

// resolveA deduplicates address lookups with singleflight semantics:
// the first caller for a host resolves it, concurrent callers block on
// that flight's result instead of issuing duplicate queries for popular
// exchanges. Only definitive outcomes are memoized; a transiently
// failed flight is forgotten so a later caller (budget permitting)
// tries again.
func (dr *domainResolver) resolveA(ctx context.Context, host string) aResult {
	dr.mu.Lock()
	if res, ok := dr.aCache[host]; ok {
		dr.mu.Unlock()
		return res
	}
	if f, ok := dr.aFlights[host]; ok {
		dr.mu.Unlock()
		<-f.done
		// Concurrent waiters share the flight's outcome even when
		// transient; only callers arriving after it finished
		// re-resolve (the flight itself already retried).
		return f.res
	}
	f := &aFlight{done: make(chan struct{})}
	dr.aFlights[host] = f
	dr.mu.Unlock()

	f.res = dr.lookupAddrs(ctx, host)
	dr.mu.Lock()
	delete(dr.aFlights, host)
	if f.res.definitive() {
		dr.aCache[host] = f.res
	}
	dr.mu.Unlock()
	close(f.done)
	return f.res
}

// collectDomain measures one target: MX set, each exchange's addresses,
// and the SPF record when the resolver supports TXT.
func (dr *domainResolver) collectDomain(ctx context.Context, t Target) dataset.DomainRecord {
	rec := dataset.DomainRecord{Domain: t.Name, Rank: t.Rank}
	if ctx.Err() != nil {
		return rec
	}
	var mxs []dns.MXData
	class, retries := dr.run.retry.do(ctx, func() (dataset.FailureClass, bool) {
		var err error
		mxs, err = dr.c.Resolver.LookupMX(ctx, t.Name)
		return ClassifyDNS(err), true
	})
	rec.Failure = class
	dr.run.dnsRetries.Add(int64(retries))
	if class == dataset.FailLameDelegation {
		rec.Delegation = dataset.DelegationLame
	}
	if dr.hasProv && !class.Failed() && ctx.Err() == nil && dr.prov.DelegationStale(ctx, t.Name) {
		// The MX answers arrived through stale parent glue: keep them —
		// they are what any resolver on the internet would see — but mark
		// the record so inference treats the attribution as forgeable.
		rec.Delegation = dataset.DelegationStaleGlue
		rec.Failure = dataset.FailHijackSuspect
	}
	for _, mx := range mxs {
		res := dr.resolveA(ctx, mx.Exchange)
		rec.MX = append(rec.MX, dataset.MXObs{
			Preference: mx.Preference,
			Exchange:   mx.Exchange,
			Addrs:      res.addrs,
			Dangling:   res.dangling,
			Failure:    res.class,
		})
	}
	if dr.hasTXT && ctx.Err() == nil {
		if txts, err := dr.txt.LookupTXT(ctx, t.Name); err == nil {
			for _, txt := range txts {
				if strings.HasPrefix(strings.ToLower(txt), "v=spf1") {
					rec.SPF = txt
					break
				}
			}
		}
	}
	return rec
}

// Collect measures the given domains and assembles a snapshot labelled
// with the date and corpus name, domains in target order: the engine
// as one lane of Concurrency goroutines over a memory sink. Partial
// failure degrades per record — every DNS and scan outcome is
// classified on the record rather than dropped — but a cancelled
// context aborts the whole collection and returns ctx.Err, and a
// journal write error aborts it with that error.
func (c *Collector) Collect(ctx context.Context, corpus, date string, domains []Target) (*dataset.Snapshot, error) {
	perLane := c.Concurrency
	if perLane <= 0 {
		perLane = 32
	}
	snap := dataset.NewSnapshot(date, corpus)
	snap.Domains = make([]dataset.DomainRecord, len(domains))
	l := newLane(c, c.Journal, memorySink(snap))
	stats, err := collect(ctx, []*lane{l}, perLane, domains, c.Prior, c.Seen)
	if err != nil {
		return nil, err
	}
	snap.Stats = stats.Collection
	return snap, nil
}

// scanIP produces the IP-level observation for one address.
func (c *Collector) scanIP(ctx context.Context, run *collectRun, addr netip.Addr) dataset.IPInfo {
	info := dataset.IPInfo{Addr: addr}
	if c.Prefixes != nil {
		if a, ok := c.Prefixes.Lookup(addr); ok {
			info.ASN = a
			if c.ASRegistry != nil {
				if as, ok := c.ASRegistry.Lookup(a); ok {
					info.ASName = as.Name
				}
			}
		}
	}
	if c.Covered != nil && !c.Covered(addr) {
		info.Failure = dataset.FailNotCovered
		return info // scanning service blind spot
	}
	info.HasCensys = true
	if c.Parked != nil && c.Parked(addr) {
		info.Parked = true
	}
	if ctx.Err() != nil {
		info.Failure = dataset.FailConnTimeout
		return info
	}
	if ok, tripped := run.breakers.allow(addr); !ok {
		info.Failure = ClassifyParked(tripped, info.Parked)
		return info
	}

	var res *smtp.ScanResult
	class, retries := run.retry.do(ctx, func() (dataset.FailureClass, bool) {
		res = smtp.Scan(ctx, netip.AddrPortFrom(addr, 25).String(),
			smtp.ScanConfig{Dialer: c.Dialer, Timeout: c.ScanTimeout})
		// The parked refinement runs inside the retry loop: a silent
		// parking address is definitive, not worth further attempts.
		cl := ClassifyParked(ClassifyScan(res), info.Parked)
		// An opened circuit vetoes further retries of this destination.
		return cl, !run.breakers.record(addr, cl)
	})
	info.Failure = class
	run.scanRetries.Add(int64(retries))

	// A completed TCP handshake is an open port even when the host then
	// said nothing useful: "connected but bannerless" must not be
	// conflated with "port closed".
	info.Port25Open = res.Connected
	if !res.Connected || res.Banner == "" {
		return info
	}
	si := &dataset.ScanInfo{
		Banner:     res.Banner,
		BannerHost: res.BannerHost,
		EHLOHost:   res.EHLOHost,
		STARTTLS:   res.SupportsSTARTTLS,
		TLSFailed:  res.SupportsSTARTTLS && !res.TLSHandshakeOK,
	}
	if len(res.PeerCertificates) > 0 {
		leaf := res.PeerCertificates[0]
		si.CertPresent = true
		si.CertFingerprint = certs.Fingerprint(leaf)
		si.CertNames = certs.Names(leaf)
		if c.Trust != nil && c.Trust.Validate(res.PeerCertificates) == nil {
			si.CertValid = true
		}
	}
	info.Scan = si
	return info
}
