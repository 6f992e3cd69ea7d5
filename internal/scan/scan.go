// Package scan implements the measurement pipeline that joins the two
// external data sources the paper relies on: an OpenINTEL-style active
// DNS collection (domain → MX → A) and a Censys-style port-25 scan
// (IP → banner, EHLO, STARTTLS certificate chain). The output is a
// dataset.Snapshot ready for the inference methodology.
package scan

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
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
// collection phases, and the run's chain verdicts, which every lane of
// the run shares.
type collectRun struct {
	retry    *retryState
	breakers *breakerSet

	dnsRetries  atomic.Int64
	scanRetries atomic.Int64

	verdicts *chainVerdicts
}

// chainVerdicts memoises the trust store's verdict per presented chain
// for one run (see validChain).
type chainVerdicts struct {
	mu sync.Mutex
	m  map[string]*chainVerdict
}

// chainVerdict is one chain's verdict, reached once.
type chainVerdict struct {
	once  sync.Once
	valid bool
}

// validChain reports whether trust verifies chain, once per distinct
// chain in the run, whichever lane presents it: a few providers' chains
// front most addresses, and TrustStore.Validate is a pure function of
// the chain's bytes, the roots and certs.SimNow. The key is the SHA-256
// of every certificate presented, in order, so a leaf shared under
// different intermediates is a different chain; a negative verdict is
// kept as well. A lane that asks while another verifies the same chain
// waits for that verdict. The memo belongs to the run (collect makes
// it), so no verdict outlives the Collect or CollectFleet that reached
// it: a root added to the store in between counts at the next one.
func (run *collectRun) validChain(trust *certs.TrustStore, chain []*x509.Certificate) bool {
	key := make([]byte, 0, len(chain)*sha256.Size)
	for _, c := range chain {
		sum := sha256.Sum256(c.Raw)
		key = append(key, sum[:]...)
	}
	v := run.verdicts
	v.mu.Lock()
	cv := v.m[string(key)]
	if cv == nil {
		cv = &chainVerdict{}
		v.m[string(key)] = cv
	}
	v.mu.Unlock()
	cv.once.Do(func() { cv.valid = trust.Validate(chain) == nil })
	return cv.valid
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

// aFlight is one address resolution shared by concurrent callers
// (singleflight). A flight that ends transient stays in aFlights,
// landed, until a later flight for its host replaces it.
type aFlight struct {
	done   chan struct{}
	res    aResult
	landed bool // under domainResolver.mu
}

// domainResolver is the per-run DNS machinery for phase 1: the MX→A
// pipeline with singleflight address deduplication and the optional
// SPF/TXT lookup. One instance serves all goroutines of a lane (its
// cache rides the lane's own resolver).
type domainResolver struct {
	c   *Collector
	run *collectRun

	// aCache and aFlights are the lane's resolution memo: between them
	// they hold every exchange it resolved, which the run's exchange
	// vote reads after phase 1 (exchangeVotes).
	mu       sync.Mutex
	aCache   map[string]aResult
	aFlights map[string]*aFlight
	// addrs is every address the lane's domains hold, phase 2's input:
	// noted once per resolution that found it, and per held domain.
	addrs map[netip.Addr]bool

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
		addrs:    make(map[netip.Addr]bool),
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
// exchanges. Only definitive outcomes are memoized: a transiently
// failed flight stays in aFlights, landed, for the exchange vote, and
// a later caller (budget permitting) starts a flight of its own.
func (dr *domainResolver) resolveA(ctx context.Context, host string) aResult {
	dr.mu.Lock()
	if res, ok := dr.aCache[host]; ok {
		dr.mu.Unlock()
		return res
	}
	if f, ok := dr.aFlights[host]; ok && !f.landed {
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
	if f.res.definitive() {
		delete(dr.aFlights, host)
		dr.aCache[host] = f.res
	} else {
		f.landed = true
	}
	for _, a := range f.res.addrs {
		dr.addrs[a] = true
	}
	dr.mu.Unlock()
	close(f.done)
	return f.res
}

// collectDomain measures one target: MX set, each exchange's addresses,
// and the SPF record when the resolver supports TXT. It returns the
// class of the domain's MX lookup beside the record.
func (dr *domainResolver) collectDomain(ctx context.Context, t Target) (dataset.DomainRecord, dataset.FailureClass) {
	rec := dataset.DomainRecord{Domain: t.Name, Rank: t.Rank}
	if ctx.Err() != nil {
		return rec, dataset.FailDNSTimeout // the engine drops it
	}
	var mxs []dns.MXData
	class, retries := dr.run.retry.do(ctx, func() (dataset.FailureClass, bool) {
		var err error
		mxs, err = dr.c.Resolver.LookupMX(ctx, t.Name)
		return ClassifyDNS(err), true
	})
	dr.run.dnsRetries.Add(int64(retries))
	if class == dataset.FailLameDelegation {
		rec.Delegation = dataset.DelegationLame
	}
	if dr.hasProv && !class.Failed() && ctx.Err() == nil && dr.prov.DelegationStale(ctx, t.Name) {
		// The MX answers arrived through stale parent glue: keep them —
		// they are what any resolver on the internet would see — but mark
		// the record so inference treats the attribution as forgeable.
		rec.Delegation = dataset.DelegationStaleGlue
		class = dataset.FailHijackSuspect
	}
	if len(mxs) > 0 {
		rec.MX = make([]dataset.MXObs, 0, len(mxs))
	}
	for _, mx := range mxs {
		res := dr.resolveA(ctx, mx.Exchange)
		rec.MX = append(rec.MX, dataset.MXObs{
			Preference: mx.Preference,
			Exchange:   mx.Exchange,
			Addrs:      res.addrs,
			Dangling:   res.dangling,
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
	return rec, class
}

// Collect measures the given domains and assembles a snapshot labelled
// with the date and corpus name, domains in target order: the engine
// as one lane of Concurrency goroutines over a memory sink. Partial
// failure degrades per record — every DNS and scan outcome is
// classified and counted in the snapshot's Health rather than dropped —
// but a cancelled context aborts the whole collection and returns
// ctx.Err. Collect keeps no checkpoint: only a fleet run can be resumed
// (CollectFleet).
func (c *Collector) Collect(ctx context.Context, corpus, date string, domains []Target) (*dataset.Snapshot, error) {
	perLane := c.Concurrency
	if perLane <= 0 {
		perLane = 32
	}
	snap := dataset.NewSnapshot(date, corpus)
	snap.Domains = make([]dataset.DomainRecord, len(domains))
	l := newLane(c, memorySink(snap))
	stats, err := collect(ctx, []*lane{l}, perLane, domains, nil)
	if err != nil {
		return nil, err
	}
	snap.Health, snap.Stats = stats.Health, stats.Health.Stats
	return snap, nil
}

// scanIP produces the IP-level observation for one address, and the
// class of its scan.
func (c *Collector) scanIP(ctx context.Context, run *collectRun, addr netip.Addr) (dataset.IPInfo, dataset.FailureClass) {
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
		return info, dataset.FailNotCovered // scanning service blind spot
	}
	info.HasCensys = true
	if c.Parked != nil && c.Parked(addr) {
		info.Parked = true
	}
	if ctx.Err() != nil {
		return info, dataset.FailConnTimeout
	}
	if ok, tripped := run.breakers.allow(addr); !ok {
		return info, ClassifyParked(tripped, info.Parked)
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
	run.scanRetries.Add(int64(retries))

	// A completed TCP handshake is an open port even when the host then
	// said nothing useful: "connected but bannerless" must not be
	// conflated with "port closed".
	info.Port25Open = res.Connected
	if !res.Connected || res.Banner == "" {
		return info, class
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
		si.CertValid = c.Trust != nil && run.validChain(c.Trust, res.PeerCertificates)
	}
	info.Scan = si
	return info, class
}
