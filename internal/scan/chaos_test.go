package scan

// Chaos-grade soak of the collection pipeline: one netsim world carries
// every failure mode in the taxonomy at once, and the test asserts that
// the snapshot's health report reproduces the injected fault matrix
// exactly — counts per class, retry totals, breaker opens. These tests
// run in the race tier (go test -race -run Chaos).

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/ledger"
	"mxmap/internal/netsim"
	"mxmap/internal/smtp"
)

// lookupPlan scripts failures for one lookup key: the first `failures`
// calls return err (negative means every call fails).
type lookupPlan struct {
	failures int
	err      error
}

// chaosResolver wraps a resolver with scripted per-lookup failures, the
// DNS half of the fault matrix.
type chaosResolver struct {
	inner dns.Resolver

	mu    sync.Mutex
	plans map[string]*lookupPlan
	calls map[string]int
}

func newChaosResolver(inner dns.Resolver) *chaosResolver {
	return &chaosResolver{
		inner: inner,
		plans: make(map[string]*lookupPlan),
		calls: make(map[string]int),
	}
}

func (r *chaosResolver) plan(key string, failures int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plans[key] = &lookupPlan{failures: failures, err: err}
}

func (r *chaosResolver) count(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[key]
}

// outcome consumes one call against key's plan, returning the scripted
// error when one applies.
func (r *chaosResolver) outcome(key string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls[key]++
	p := r.plans[key]
	if p == nil {
		return nil
	}
	if p.failures < 0 {
		return p.err
	}
	if p.failures > 0 {
		p.failures--
		return p.err
	}
	return nil
}

func (r *chaosResolver) LookupMX(ctx context.Context, domain string) ([]dns.MXData, error) {
	if err := r.outcome("MX:" + domain); err != nil {
		return nil, err
	}
	return r.inner.LookupMX(ctx, domain)
}

func (r *chaosResolver) LookupA(ctx context.Context, host string) ([]netip.Addr, error) {
	if err := r.outcome("A:" + host); err != nil {
		return nil, err
	}
	return r.inner.LookupA(ctx, host)
}

func (r *chaosResolver) LookupAAAA(ctx context.Context, host string) ([]netip.Addr, error) {
	return r.inner.LookupAAAA(ctx, host)
}

// chaosWorld is one simulated corpus with a scripted fault per domain.
type chaosWorld struct {
	net      *netsim.Network
	cat      *dns.Catalog
	resolver *chaosResolver
	targets  []Target
}

func (w *chaosWorld) addDomain(t *testing.T, name, ip string) netip.Addr {
	t.Helper()
	z := dns.NewZone(name)
	z.MustAdd(dns.RR{Name: name + ".", Type: dns.TypeMX, TTL: 1,
		Data: dns.MXData{Preference: 10, Exchange: "mx." + name + "."}})
	addr := netip.Addr{}
	if ip != "" {
		addr = netip.MustParseAddr(ip)
		z.MustAdd(dns.RR{Name: "mx." + name + ".", Type: dns.TypeA, TTL: 1,
			Data: dns.AData{Addr: addr}})
	}
	w.cat.AddZone(z)
	w.targets = append(w.targets, Target{Name: name})
	return addr
}

func (w *chaosWorld) startSMTP(t *testing.T, ip, hostname string) {
	t.Helper()
	srv, err := smtp.NewServer(smtp.Config{Hostname: hostname})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := w.net.Listen(netip.MustParseAddrPort(ip + ":25"))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
}

// startRaw runs handler for every connection accepted at ip:25, for
// servers that misbehave in ways smtp.Server cannot.
func (w *chaosWorld) startRaw(t *testing.T, ip string, handler func(net.Conn)) {
	t.Helper()
	ln, err := w.net.Listen(netip.MustParseAddrPort(ip + ":25"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				handler(c)
			}(c)
		}
	}()
}

// TestChaosSoakMatrix drives one Collect across a world where every
// failure class in the taxonomy is injected at least once, then checks
// the health report against the fault matrix exactly: nothing silently
// dropped, nothing double-counted, retries and breaker opens accounted.
// What was injected and what the health report measured are pinned
// together as results/FAULTS.json.
func TestChaosSoakMatrix(t *testing.T) {
	w := &chaosWorld{net: netsim.New(), cat: dns.NewCatalog()}
	w.net.Seed(1)
	w.resolver = newChaosResolver(dns.CatalogResolver{Catalog: w.cat})
	injected := make(map[string]int)
	// add plants one domain whose exchange lives at ip under a fault label.
	add := func(label, name, ip string) {
		w.addDomain(t, name, ip)
		injected[label]++
	}

	// Healthy baseline.
	for i, ip := range []string{"10.20.0.1", "10.20.0.2", "10.20.0.3", "10.20.0.4"} {
		name := fmt.Sprintf("healthy%d.test", i+1)
		add("healthy", name, ip)
		w.startSMTP(t, ip, "mx."+name)
	}

	// conn-refused, both flavors: explicit refuse fault and no listener.
	add("conn-refused", "refused.test", "10.20.1.1")
	w.startSMTP(t, "10.20.1.1", "mx.refused.test")
	w.net.SetFault(netip.MustParseAddr("10.20.1.1"), netsim.FaultRefuse)
	add("conn-refused", "noserver.test", "10.20.1.2")

	// conn-timeout: dial hangs until the scan deadline.
	add("blackhole", "blackhole.test", "10.20.1.3")
	w.net.SetFault(netip.MustParseAddr("10.20.1.3"), netsim.FaultBlackhole)

	// conn-reset: TCP handshake succeeds, everything after is RST.
	add("conn-reset", "reset.test", "10.20.1.4")
	w.net.SetFault(netip.MustParseAddr("10.20.1.4"), netsim.FaultReset)

	// Transient flake the retry policy must absorb: first two dials fail,
	// the third (last allowed attempt) succeeds.
	add("flaky-recovered", "flaky.test", "10.20.1.5")
	w.startSMTP(t, "10.20.1.5", "mx.flaky.test")
	w.net.SetFlaky(netip.MustParseAddr("10.20.1.5"), 2)

	// conn-timeout after connect: accepts, then says nothing. The port
	// must still be recorded open.
	add("silent-after-accept", "silent.test", "10.20.1.6")
	w.startRaw(t, "10.20.1.6", func(c net.Conn) {
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	})

	// proto-error: speaks, but not SMTP.
	add("garbage-greeting", "garbage.test", "10.20.1.7")
	w.startRaw(t, "10.20.1.7", func(c net.Conn) {
		fmt.Fprintf(c, "999 not an smtp server\r\n")
	})

	// tls-error: advertises STARTTLS, accepts the command, then drops the
	// connection instead of negotiating.
	add("broken-starttls", "brokentls.test", "10.20.1.8")
	w.startRaw(t, "10.20.1.8", func(c net.Conn) {
		br := bufio.NewReader(c)
		fmt.Fprintf(c, "220 mx.brokentls.test ESMTP\r\n")
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			verb := strings.ToUpper(strings.TrimSpace(line))
			switch {
			case strings.HasPrefix(verb, "EHLO"):
				fmt.Fprintf(c, "250-mx.brokentls.test\r\n250 STARTTLS\r\n")
			case verb == "STARTTLS":
				fmt.Fprintf(c, "220 go ahead\r\n")
				return // hang up instead of speaking TLS
			case verb == "QUIT":
				fmt.Fprintf(c, "221 bye\r\n")
				return
			default:
				fmt.Fprintf(c, "250 ok\r\n")
			}
		}
	})

	// not-covered: host is fine, the scanning service is blind to it.
	add("not-covered", "uncovered.test", "10.20.1.9")
	w.startSMTP(t, "10.20.1.9", "mx.uncovered.test")
	uncovered := netip.MustParseAddr("10.20.1.9")

	// DNS-side faults. NXDOMAIN needs a name inside an authoritative zone
	// (an unzoned name gets REFUSED, which classifies as servfail-like).
	w.cat.AddZone(dns.NewZone("nxdomain.test"))
	w.targets = append(w.targets, Target{Name: "gone.nxdomain.test"})
	injected["nxdomain"]++
	add("dns-timeout", "dnstimeout.test", "10.20.2.1")
	w.resolver.plan("MX:dnstimeout.test", -1, context.DeadlineExceeded)
	add("dns-servfail", "dnsservfail.test", "10.20.2.2")
	w.resolver.plan("MX:dnsservfail.test", -1, fmt.Errorf("lookup: %w", dns.ErrServFail))
	add("dns-flaky-recovered", "dnsflaky.test", "10.20.2.3")
	w.startSMTP(t, "10.20.2.3", "mx.dnsflaky.test")
	w.resolver.plan("MX:dnsflaky.test", 1, context.DeadlineExceeded)
	add("dns-broken-exchange", "dnsbroken.test", "10.20.2.4")
	w.resolver.plan("A:mx.dnsbroken.test", -1, context.DeadlineExceeded)

	col := &Collector{
		Resolver:    w.resolver,
		Dialer:      w.net,
		Covered:     func(a netip.Addr) bool { return a != uncovered },
		ScanTimeout: 200 * time.Millisecond,
		Retry:       &RetryPolicy{Attempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
	}
	start := time.Now()
	snap, err := col.Collect(context.Background(), "faults", "chaos", w.targets)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("soak took %v; retry budget failed to bound wall clock", elapsed)
	}

	h := snap.Health()
	wantDomains := map[dataset.FailureClass]int{
		dataset.FailOK:          15,
		dataset.FailNXDomain:    1,
		dataset.FailDNSTimeout:  1,
		dataset.FailDNSServFail: 1,
	}
	wantExchanges := map[dataset.FailureClass]int{
		dataset.FailOK:         14,
		dataset.FailDNSTimeout: 1, // mx.dnsbroken.test
	}
	wantIPs := map[dataset.FailureClass]int{
		dataset.FailOK:          6, // healthy1-4, flaky, dnsflaky
		dataset.FailConnRefused: 2, // refused, noserver
		dataset.FailConnTimeout: 2, // blackhole, silent
		dataset.FailConnReset:   1,
		dataset.FailProtoError:  1,
		dataset.FailTLSError:    1,
		dataset.FailNotCovered:  1,
	}
	if !reflect.DeepEqual(h.Domains, wantDomains) {
		t.Errorf("domain classes = %v, want %v", h.Domains, wantDomains)
	}
	if !reflect.DeepEqual(h.Exchanges, wantExchanges) {
		t.Errorf("exchange classes = %v, want %v", h.Exchanges, wantExchanges)
	}
	if !reflect.DeepEqual(h.IPs, wantIPs) {
		t.Errorf("ip classes = %v, want %v", h.IPs, wantIPs)
	}
	if want := 13.0 / 14.0; h.Coverage < want-1e-9 || h.Coverage > want+1e-9 {
		t.Errorf("coverage = %v, want %v", h.Coverage, want)
	}

	// Retry accounting, exactly: every always-transient lookup burns the
	// full attempt bound (2 retries at Attempts=3), the flaky MX recovers
	// after one, and the four transient scan targets retry twice each.
	wantStats := dataset.CollectionStats{
		DNSRetries:  7, // dnstimeout 2 + dnsservfail 2 + dnsflaky 1 + dnsbroken A 2
		ScanRetries: 8, // blackhole 2 + reset 2 + flaky 2 + silent 2
		// blackhole, reset, and silent each fail hard three times in a row.
		BreakerOpens: 3,
		BreakerSkips: 0,
	}
	if h.Stats != wantStats {
		t.Errorf("stats = %+v, want %+v", h.Stats, wantStats)
	}

	// Spot-check the per-record observations behind the aggregates.
	checkIP := func(ip string, open bool, class dataset.FailureClass) {
		t.Helper()
		info, ok := snap.IP(netip.MustParseAddr(ip))
		if !ok {
			t.Errorf("%s missing from snapshot", ip)
			return
		}
		if info.Port25Open != open || info.Failure != class {
			t.Errorf("%s: open=%v class=%s, want open=%v class=%s",
				ip, info.Port25Open, info.Failure, open, class)
		}
	}
	checkIP("10.20.0.1", true, dataset.FailOK)
	checkIP("10.20.1.1", false, dataset.FailConnRefused)
	checkIP("10.20.1.3", false, dataset.FailConnTimeout)
	checkIP("10.20.1.4", true, dataset.FailConnReset) // handshake completed
	checkIP("10.20.1.5", true, dataset.FailOK)        // flake absorbed
	checkIP("10.20.1.6", true, dataset.FailConnTimeout)
	checkIP("10.20.1.7", true, dataset.FailProtoError)
	checkIP("10.20.1.8", true, dataset.FailTLSError)
	checkIP("10.20.1.9", false, dataset.FailNotCovered)

	if info, _ := snap.IP(netip.MustParseAddr("10.20.1.8")); info.Scan == nil || !info.Scan.TLSFailed || !info.Scan.STARTTLS {
		t.Errorf("brokentls scan info = %+v, want STARTTLS advertised with TLSFailed", info.Scan)
	}
	if info, _ := snap.IP(netip.MustParseAddr("10.20.0.1")); info.Scan == nil || info.Scan.TLSFailed {
		t.Errorf("healthy scan info = %+v, want TLSFailed unset", info.Scan)
	}

	ledger.Check(t, "FAULTS.json", struct {
		Corpus   string          `json:"corpus"`
		Injected map[string]int  `json:"injected"`
		Health   *dataset.Health `json:"health"`
	}{"faults", injected, h})
}

// TestChaosBudgetExhaustion pins the global retry budget: with budget 1
// and two always-transient domains, exactly one retry happens in total
// and the exhaustion flag is raised in the health stats.
func TestChaosBudgetExhaustion(t *testing.T) {
	w := &chaosWorld{net: netsim.New(), cat: dns.NewCatalog()}
	w.resolver = newChaosResolver(dns.CatalogResolver{Catalog: w.cat})
	w.addDomain(t, "slow1.test", "10.9.1.1")
	w.addDomain(t, "slow2.test", "10.9.1.2")
	w.resolver.plan("MX:slow1.test", -1, context.DeadlineExceeded)
	w.resolver.plan("MX:slow2.test", -1, context.DeadlineExceeded)

	col := &Collector{
		Resolver:    w.resolver,
		Dialer:      w.net,
		Concurrency: 1, // deterministic budget spend order
		Retry:       &RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, Budget: 1},
	}
	snap, err := col.Collect(context.Background(), "chaos", "now", w.targets)
	if err != nil {
		t.Fatal(err)
	}
	h := snap.Health()
	if h.Stats.DNSRetries != 1 {
		t.Errorf("DNSRetries = %d, want 1 (budget)", h.Stats.DNSRetries)
	}
	if !h.Stats.BudgetExhausted {
		t.Error("budget exhaustion not reported")
	}
	if h.Domains[dataset.FailDNSTimeout] != 2 {
		t.Errorf("domain classes = %v, want both dns-timeout", h.Domains)
	}
}

// TestChaosCollectCancel checks that cancellation aborts a collection
// promptly — blackholed dials and pending retries must not run out their
// timeouts — and that Collect reports ctx.Err rather than a snapshot.
func TestChaosCollectCancel(t *testing.T) {
	w := &chaosWorld{net: netsim.New(), cat: dns.NewCatalog()}
	w.resolver = newChaosResolver(dns.CatalogResolver{Catalog: w.cat})
	for i := 0; i < 8; i++ {
		ip := fmt.Sprintf("10.9.2.%d", i+1)
		w.addDomain(t, fmt.Sprintf("hang%d.test", i), ip)
		w.net.SetFault(netip.MustParseAddr(ip), netsim.FaultBlackhole)
	}

	col := &Collector{
		Resolver:    w.resolver,
		Dialer:      w.net,
		Concurrency: 2, // fewer workers than hung hosts: queue must drain fast
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	snap, err := col.Collect(ctx, "chaos", "now", w.targets)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Errorf("Collect after cancel: snap=%v err=%v, want context.Canceled", snap, err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("cancel took %v to propagate; scans sat out their timeouts", elapsed)
	}
}

// TestChaosTransientLookupNotCached pins the singleflight fix: a
// transiently failed address lookup must not poison the per-run cache —
// a later domain sharing the exchange re-resolves and succeeds — while
// definitive outcomes stay memoized.
func TestChaosTransientLookupNotCached(t *testing.T) {
	w := &chaosWorld{net: netsim.New(), cat: dns.NewCatalog()}
	w.resolver = newChaosResolver(dns.CatalogResolver{Catalog: w.cat})

	// Two domains share one exchange whose A lookup fails exactly once.
	shared := dns.NewZone("shared.test")
	shared.MustAdd(dns.RR{Name: "shared.test.", Type: dns.TypeMX, TTL: 1,
		Data: dns.MXData{Preference: 10, Exchange: "mx.shared.test."}})
	shared.MustAdd(dns.RR{Name: "mx.shared.test.", Type: dns.TypeA, TTL: 1,
		Data: dns.AData{Addr: netip.MustParseAddr("10.9.3.1")}})
	w.cat.AddZone(shared)
	alias := dns.NewZone("alias.test")
	alias.MustAdd(dns.RR{Name: "alias.test.", Type: dns.TypeMX, TTL: 1,
		Data: dns.MXData{Preference: 10, Exchange: "mx.shared.test."}})
	w.cat.AddZone(alias)
	w.startSMTP(t, "10.9.3.1", "mx.shared.test")
	w.resolver.plan("A:mx.shared.test", 1, context.DeadlineExceeded)

	// No retries and one worker: the first domain's lookup fails and must
	// not be cached; the second domain's own lookup succeeds.
	col := &Collector{
		Resolver:    w.resolver,
		Dialer:      w.net,
		Concurrency: 1,
		Retry:       &RetryPolicy{Attempts: 1},
	}
	snap, err := col.Collect(context.Background(), "chaos", "now",
		[]Target{{Name: "shared.test"}, {Name: "alias.test"}})
	if err != nil {
		t.Fatal(err)
	}
	domainRec := func(name string) dataset.DomainRecord {
		for i := range snap.Domains {
			if snap.Domains[i].Domain == name {
				return snap.Domains[i]
			}
		}
		t.Fatalf("%s: record missing", name)
		return dataset.DomainRecord{}
	}
	var classes []dataset.FailureClass
	var addrs int
	for _, d := range []string{"shared.test", "alias.test"} {
		rec := domainRec(d)
		if len(rec.MX) != 1 {
			t.Fatalf("%s: MX set malformed: %+v", d, rec.MX)
		}
		classes = append(classes, rec.MX[0].Failure)
		addrs += len(rec.MX[0].Addrs)
	}
	if classes[0] != dataset.FailDNSTimeout || classes[1] != dataset.FailOK {
		t.Errorf("exchange classes = %v, want [dns-timeout ok]", classes)
	}
	if addrs != 1 {
		t.Errorf("resolved %d addrs, want 1 (second lookup succeeded)", addrs)
	}
	if got := w.resolver.count("A:mx.shared.test"); got != 2 {
		t.Errorf("A lookups for shared exchange = %d, want 2 (transient not cached)", got)
	}

	// Control: definitive outcomes are memoized — a second pass over the
	// same corpus with a healthy exchange resolves it once.
	w2 := &chaosWorld{net: netsim.New(), cat: w.cat}
	w2.resolver = newChaosResolver(dns.CatalogResolver{Catalog: w.cat})
	col2 := &Collector{Resolver: w2.resolver, Dialer: w2.net, Concurrency: 1, Retry: &RetryPolicy{Attempts: 1}}
	if _, err := col2.Collect(context.Background(), "chaos", "now",
		[]Target{{Name: "shared.test"}, {Name: "alias.test"}}); err != nil {
		t.Fatal(err)
	}
	if got := w2.resolver.count("A:mx.shared.test"); got != 1 {
		t.Errorf("A lookups on healthy pass = %d, want 1 (definitive cached)", got)
	}
}
