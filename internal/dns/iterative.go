package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"
)

// IterativeResolver performs full iterative resolution the way the
// paper's active-DNS measurement platform does: start at the root
// servers, follow referrals through the TLD to the authoritative
// server, and chase CNAMEs by restarting from the root. It is a caching
// recursive resolver:
//
//   - Final answers (positive and RFC 2308 negative) are cached under
//     their TTLs, and repeated questions are answered from memory.
//   - Zone cuts discovered from referrals are cached too, and every
//     resolution starts at the deepest cached cut covering the name —
//     ten thousand domains hosted on one provider cost one walk of the
//     shared NS chain.
//   - Identical in-flight questions are coalesced: concurrent callers
//     asking the same (name, type) share one wire exchange.
//   - When every upstream for a question is unreachable, expired cache
//     entries within the stale window are served per RFC 8767, so
//     collection keeps moving through authoritative outages; each new
//     query retries the wire (shared via coalescing) before falling
//     back to stale data.
//   - Hot entries are refreshed shortly before expiry (prefetch), so
//     steady-state collection never blocks on the wire for popular
//     provider infrastructure.
//
// It implements the Resolver interface, so the measurement pipeline can
// run wire-faithful resolution end to end.
type IterativeResolver struct {
	// Roots are the root name-server addresses (the "hints file").
	Roots []netip.AddrPort
	// DialContext establishes connections ("udp" and "tcp"); nil uses
	// net.Dialer. The simulated fabric supplies its own.
	DialContext func(ctx context.Context, network, address string) (net.Conn, error)
	// Timeout bounds each single exchange (default 2s).
	Timeout time.Duration
	// Cache holds answers and zone cuts (see the type comment). Share one
	// between resolvers to share what they learn; nil is replaced by
	// NewCache() on first use.
	Cache *Cache
	// PrefetchMinHits is the fresh-hit count an entry must reach before
	// near-expiry prefetch refreshes it (default 3; negative disables
	// prefetch). An entry is "near expiry" in the last tenth of its
	// cache lifetime.
	PrefetchMinHits int

	cacheOnce sync.Once
	mu        sync.Mutex
	// flights holds one entry per in-flight (name, type) question; the
	// singleflight substrate of query coalescing.
	flights map[cacheKey]*queryFlight
	// clients holds one client, on its own multiplexed UDP transport,
	// per authority server, so iteration reuses sockets across queries
	// and callers instead of dialing per exchange. Closed by Close.
	clients map[netip.AddrPort]*Client
	// refreshSem bounds background refresh goroutines.
	refreshSem chan struct{}

	counters resolverCounters
}

// queryFlight is one in-flight resolution that concurrent identical
// questions attach to.
type queryFlight struct {
	done chan struct{}
	msg  *Message
	err  error
}

// Errors particular to iteration.
var (
	// ErrNoRoots reports a resolver with an empty hints list.
	ErrNoRoots = errors.New("dns: iterative resolver has no root servers")
	// ErrReferralLoop reports an overlong or cyclic referral chain.
	ErrReferralLoop = errors.New("dns: referral limit exceeded")
	// ErrLameDelegation reports a referral with no usable addresses.
	ErrLameDelegation = errors.New("dns: lame delegation (no usable name servers)")
)

// prefetchDefaultMinHits is the default PrefetchMinHits.
const prefetchDefaultMinHits = 3

// refreshBudget bounds one background refresh's full iteration.
const refreshBudget = 30 * time.Second

// maxReferrals bounds the referral chain per query.
const maxReferrals = 16

// maxAsyncRefresh bounds concurrent background prefetch refreshes;
// excess prefetch opportunities are skipped, not queued.
const maxAsyncRefresh = 4

// Query resolves one (name, type) question and returns the final
// authoritative response — from cache when fresh, over the wire
// otherwise, and from stale cache data when the wire fails.
func (r *IterativeResolver) Query(ctx context.Context, name string, typ Type) (*Message, error) {
	if len(r.Roots) == 0 {
		return nil, ErrNoRoots
	}
	r.cacheOnce.Do(func() {
		if r.Cache == nil {
			r.Cache = NewCache()
		}
	})
	name = CanonicalName(name)
	r.counters.queries.Add(1)
	if msg, lk := r.Cache.Lookup(name, typ, false); lk.State == CacheFresh {
		r.counters.cacheHits.Add(1)
		r.maybePrefetch(name, typ, lk)
		return msg, nil
	}
	r.counters.cacheMisses.Add(1)
	msg, err := r.coalesced(ctx, name, typ)
	if err != nil {
		// Serve-stale (RFC 8767): the wire attempt above was this
		// query's refresh try; having failed, an expired entry within
		// the stale window still answers.
		if stale, lk := r.Cache.Lookup(name, typ, true); lk.State == CacheStale {
			r.counters.staleServed.Add(1)
			return stale, nil
		}
	}
	return msg, err
}

// coalesced funnels identical concurrent questions into one iteration:
// the first caller resolves, the rest wait on its flight and share the
// outcome (each receiving a private copy).
func (r *IterativeResolver) coalesced(ctx context.Context, name string, typ Type) (*Message, error) {
	key := cacheKey{name: name, typ: typ}
	r.mu.Lock()
	if f, ok := r.flights[key]; ok {
		r.mu.Unlock()
		r.counters.coalesced.Add(1)
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			return cloneMessage(f.msg), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if r.flights == nil {
		r.flights = make(map[cacheKey]*queryFlight)
	}
	f := &queryFlight{done: make(chan struct{})}
	r.flights[key] = f
	r.mu.Unlock()

	f.msg, f.err = r.iterate(ctx, name, typ)
	r.mu.Lock()
	delete(r.flights, key)
	r.mu.Unlock()
	close(f.done)
	return f.msg, f.err
}

// iterate performs the referral walk for one question, starting from
// the deepest cached zone cut.
func (r *IterativeResolver) iterate(ctx context.Context, name string, typ Type) (*Message, error) {
	servers, zone := r.bestServers(name)
	for step := 0; step < maxReferrals; step++ {
		resp, err := r.askAny(ctx, servers, name, typ)
		if err != nil {
			return nil, err
		}
		switch {
		case resp.Header.RCode == RCodeNXDomain,
			resp.Header.RCode == RCodeSuccess && (len(resp.Answers) > 0 || resp.Header.Authoritative):
			r.Cache.Put(name, typ, resp)
			return resp, nil
		case resp.Header.RCode != RCodeSuccess:
			return nil, fmt.Errorf("%w: %s from %s zone servers", ErrServFail, resp.Header.RCode, zone)
		}
		// Referral: extract the child zone and its servers.
		child, next := referralTargets(resp)
		if child == "" || !IsSubdomain(child, zone) || child == zone {
			return nil, fmt.Errorf("%w: referral from %s did not descend", ErrReferralLoop, zone)
		}
		if len(next) == 0 {
			// Glueless referral: resolve one NS target address
			// out-of-band (bounded by the caller's context and our own
			// referral budget through recursion).
			next, err = r.resolveGlueless(ctx, resp)
			if err != nil {
				return nil, err
			}
		}
		r.Cache.PutDelegation(child, next, delegationTTL(resp))
		servers, zone = next, child
	}
	return nil, ErrReferralLoop
}

// maybePrefetch refreshes a hot entry in the background when a fresh
// hit lands in the last tenth of the entry's lifetime, so popular
// questions never expire into a wire-blocking miss.
func (r *IterativeResolver) maybePrefetch(name string, typ Type, lk CacheLookup) {
	minHits := r.PrefetchMinHits
	if minHits == 0 {
		minHits = prefetchDefaultMinHits
	}
	if minHits < 0 || lk.Hits < uint64(minHits) || lk.OriginalTTL <= 0 {
		return
	}
	if lk.Remaining > lk.OriginalTTL/10 {
		return
	}
	if !r.Cache.tryStartPrefetch(name, typ) {
		return
	}
	sem := r.refreshSemaphore()
	select {
	case sem <- struct{}{}:
	default:
		// Refresh capacity saturated: skip, the entry stays eligible.
		r.Cache.clearPrefetch(name, typ)
		return
	}
	go func() {
		defer func() { <-sem }()
		ctx, cancel := context.WithTimeout(context.Background(), refreshBudget)
		defer cancel()
		if _, err := r.coalesced(ctx, name, typ); err != nil {
			// The entry keeps serving until expiry (then stale); clear
			// the flag so a later hit retries the refresh.
			r.Cache.clearPrefetch(name, typ)
			r.counters.prefetchFailures.Add(1)
			return
		}
		r.counters.prefetches.Add(1)
	}()
}

func (r *IterativeResolver) refreshSemaphore() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refreshSem == nil {
		r.refreshSem = make(chan struct{}, maxAsyncRefresh)
	}
	return r.refreshSem
}

// Stats snapshots the resolver's counters.
func (r *IterativeResolver) Stats() ResolverStats {
	return r.counters.snapshot()
}

// LookupMX implements Resolver.
func (r *IterativeResolver) LookupMX(ctx context.Context, domain string) ([]MXData, error) {
	resp, err := r.Query(ctx, domain, TypeMX)
	if err != nil {
		return nil, err
	}
	return mxFromMessage(resp, domain)
}

// LookupA implements Resolver, restarting iteration for out-of-zone
// CNAME targets.
func (r *IterativeResolver) LookupA(ctx context.Context, host string) ([]netip.Addr, error) {
	const maxChase = 8
	name := host
	for i := 0; i < maxChase; i++ {
		resp, err := r.Query(ctx, name, TypeA)
		if err != nil {
			return nil, err
		}
		if addrs, err := aFromMessage(resp, name); err == nil {
			return addrs, nil
		} else if !errors.Is(err, ErrNoData) {
			return nil, err
		}
		// NODATA with a CNAME means the chain left the zone: restart.
		target := ""
		for _, rr := range resp.Answers {
			if c, ok := rr.Data.(CNAMEData); ok {
				target = c.Target
			}
		}
		if target == "" {
			return nil, fmt.Errorf("%w: A for %s", ErrNoData, host)
		}
		name = target
	}
	return nil, fmt.Errorf("dns: CNAME chain too long for %s", host)
}

// LookupAAAA implements Resolver.
func (r *IterativeResolver) LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error) {
	resp, err := r.Query(ctx, host, TypeAAAA)
	if err != nil {
		return nil, err
	}
	return aaaaFromMessage(resp, host)
}

// LookupTXT implements TXTResolver.
func (r *IterativeResolver) LookupTXT(ctx context.Context, domain string) ([]string, error) {
	resp, err := r.Query(ctx, domain, TypeTXT)
	if err != nil {
		return nil, err
	}
	return txtFromMessage(resp, domain)
}

// bestServers returns the deepest cached zone cut covering name, or the
// roots. The cut walk is O(labels), not O(cached zones).
func (r *IterativeResolver) bestServers(name string) ([]netip.AddrPort, string) {
	if servers, zone, ok := r.Cache.Delegation(name); ok {
		return servers, zone
	}
	return r.Roots, "."
}

// delegationTTL derives a referral's cache lifetime: the minimum TTL
// among its authority NS records.
func delegationTTL(referral *Message) uint32 {
	var ttl uint32
	seen := false
	for _, rr := range referral.Authority {
		if _, ok := rr.Data.(NSData); ok {
			if !seen || rr.TTL < ttl {
				ttl = rr.TTL
				seen = true
			}
		}
	}
	return ttl
}

// clientFor returns the shared client for one server address, creating
// it on first use. Two sockets per authority is plenty: each socket
// multiplexes thousands of concurrent queries.
func (r *IterativeResolver) clientFor(server netip.AddrPort) *Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cl, ok := r.clients[server]; ok {
		return cl
	}
	if r.clients == nil {
		r.clients = make(map[netip.AddrPort]*Client)
	}
	cl := &Client{Transport: &Transport{Server: server.String(), Conns: 2, DialContext: r.DialContext}}
	r.clients[server] = cl
	return cl
}

// Close releases the resolver's shared clients. The resolver remains
// usable; subsequent queries open fresh ones.
func (r *IterativeResolver) Close() error {
	r.mu.Lock()
	clients := r.clients
	r.clients = nil
	r.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
	return nil
}

// askAny queries the servers in order until one answers.
func (r *IterativeResolver) askAny(ctx context.Context, servers []netip.AddrPort, name string, typ Type) (*Message, error) {
	var lastErr error
	for _, srv := range servers {
		r.counters.wireQueries.Add(1)
		resp, err := r.clientFor(srv).exchange(ctx, name, typ, r.Timeout)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrLameDelegation
	}
	return nil, fmt.Errorf("dns: all servers failed for %s: %w", name, lastErr)
}

// referralTargets extracts the delegated zone and glue addresses from a
// referral response.
func referralTargets(m *Message) (zone string, servers []netip.AddrPort) {
	nsHosts := make(map[string]bool)
	for _, rr := range m.Authority {
		if ns, ok := rr.Data.(NSData); ok {
			if zone == "" {
				zone = CanonicalName(rr.Name)
			}
			nsHosts[CanonicalName(ns.Host)] = true
		}
	}
	for _, rr := range m.Additional {
		if !nsHosts[CanonicalName(rr.Name)] {
			continue
		}
		switch d := rr.Data.(type) {
		case AData:
			servers = append(servers, netip.AddrPortFrom(d.Addr, 53))
		case AAAAData:
			servers = append(servers, netip.AddrPortFrom(d.Addr, 53))
		}
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i].Addr().Less(servers[j].Addr()) })
	return zone, servers
}

// resolveGlueless resolves a referral's NS host out-of-band.
func (r *IterativeResolver) resolveGlueless(ctx context.Context, referral *Message) ([]netip.AddrPort, error) {
	for _, rr := range referral.Authority {
		ns, ok := rr.Data.(NSData)
		if !ok {
			continue
		}
		// Guard against self-referential glueless loops: the NS host must
		// not live inside the zone being delegated.
		if IsSubdomain(ns.Host, rr.Name) {
			continue
		}
		addrs, err := r.LookupA(ctx, strings.TrimSuffix(ns.Host, "."))
		if err != nil {
			continue
		}
		out := make([]netip.AddrPort, len(addrs))
		for i, a := range addrs {
			out[i] = netip.AddrPortFrom(a, 53)
		}
		return out, nil
	}
	return nil, ErrLameDelegation
}
