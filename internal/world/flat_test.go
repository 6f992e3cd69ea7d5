package world

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"mxmap/internal/dns"
	"mxmap/internal/smtp"
)

func flatWorld(t *testing.T, n int) *FlatWorld {
	t.Helper()
	fw, err := NewFlatWorld(FlatConfig{Seed: 7, NumDomains: n})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestFlatNameRoundTrip(t *testing.T) {
	fw := flatWorld(t, 100_000)
	for _, i := range []int{0, 1, 42, 99_999} {
		name := fw.DomainName(i)
		got, ok := fw.DomainIndex(name)
		if !ok || got != i {
			t.Fatalf("DomainIndex(%q) = %d, %v", name, got, ok)
		}
	}
	for _, bad := range []string{"", "d.com", "d0001.com", "d100000000.com", "x000000042.com", "d000000042.net"} {
		if _, ok := fw.DomainIndex(bad); ok {
			t.Errorf("DomainIndex accepted %q", bad)
		}
	}
	a := fw.selfIP(70_000)
	if i, ok := fw.selfIndex(a); !ok || i != 70_000 {
		t.Fatalf("selfIndex(%v) = %d, %v", a, i, ok)
	}
	if _, ok := fw.selfIndex(netip.MustParseAddr("10.1.0.1")); ok {
		t.Error("selfIndex accepted a provider address")
	}
}

// TestFlatShares checks assignment lands close to the calibrated table:
// GoDaddy around 29%, Google around 9.4% of the .com corpus.
func TestFlatShares(t *testing.T) {
	fw := flatWorld(t, 200_000)
	counts := make(map[string]int)
	self, none := 0, 0
	for i := 0; i < fw.NumDomains(); i++ {
		p, ok := fw.provider(fw.draw(i))
		switch {
		case !ok:
			none++
		case p == nil:
			self++
		default:
			counts[p.company]++
		}
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(fw.NumDomains()) }
	for company, want := range map[string]float64{"GoDaddy": 29.0, "Google": 9.4, "Microsoft": 5.8} {
		got := pct(counts[company])
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("%s share = %.2f%%, want ~%.1f%%", company, got, want)
		}
	}
	if got := pct(none); got < noMXPercent*0.8 || got > noMXPercent*1.2 {
		t.Errorf("no-MX share = %.2f%%, want ~%.1f%%", got, noMXPercent)
	}
	if got := pct(self); got < 0.1 || got > 0.4 {
		t.Errorf("self-hosted share = %.2f%%, want ~0.2%%", got)
	}
	// Determinism: a second world with the same seed agrees everywhere.
	fw2 := flatWorld(t, 200_000)
	for _, i := range []int{0, 17, 54_321, 199_999} {
		if a, b := fw.TruthCompany(i), fw2.TruthCompany(i); a != b {
			t.Fatalf("truth for %d differs across generations: %q vs %q", i, a, b)
		}
	}
}

func TestFlatResolver(t *testing.T) {
	fw := flatWorld(t, 100_000)
	r := fw.Resolver()
	ctx := context.Background()

	if _, err := r.LookupMX(ctx, "not-a-flat-domain.org"); !errors.Is(err, dns.ErrNXDomain) {
		t.Errorf("junk domain: %v, want NXDOMAIN", err)
	}

	var provDomain, selfDomain, noneDomain string
	for i := 0; i < fw.NumDomains(); i++ {
		p, ok := fw.provider(fw.draw(i))
		switch {
		case !ok && noneDomain == "":
			noneDomain = fw.DomainName(i)
		case ok && p == nil && selfDomain == "":
			selfDomain = fw.DomainName(i)
		case ok && p != nil && provDomain == "":
			provDomain = fw.DomainName(i)
		}
		if provDomain != "" && selfDomain != "" && noneDomain != "" {
			break
		}
	}

	if _, err := r.LookupMX(ctx, noneDomain); !errors.Is(err, dns.ErrNoData) {
		t.Errorf("no-MX domain: %v, want NoData", err)
	}

	mxs, err := r.LookupMX(ctx, provDomain)
	if err != nil || len(mxs) != 2 {
		t.Fatalf("provider domain MX = %v, %v", mxs, err)
	}
	addrs, err := r.LookupA(ctx, mxs[0].Exchange)
	if err != nil || len(addrs) == 0 {
		t.Fatalf("exchange %s: %v, %v", mxs[0].Exchange, addrs, err)
	}
	if _, err := r.LookupAAAA(ctx, mxs[0].Exchange); !errors.Is(err, dns.ErrNoData) {
		t.Errorf("AAAA for %s: %v, want NoData", mxs[0].Exchange, err)
	}

	mxs, err = r.LookupMX(ctx, selfDomain)
	if err != nil || len(mxs) != 1 || mxs[0].Exchange != "mail."+selfDomain {
		t.Fatalf("self domain MX = %v, %v", mxs, err)
	}
	addrs, err = r.LookupA(ctx, mxs[0].Exchange)
	if err != nil || len(addrs) != 1 {
		t.Fatalf("self exchange: %v, %v", addrs, err)
	}
	if i, ok := fw.selfIndex(addrs[0]); !ok || fw.DomainName(i) != selfDomain {
		t.Errorf("self IP %v does not map back to %s", addrs[0], selfDomain)
	}
}

// TestFlatDialerPinsNoSessions scans one host many times and checks that
// closed sessions are garbage: net.Pipe's deadline timers (ten seconds
// on the scanner's end, a minute on the server's) must not outlive
// their connection, or a long scan holds every recent session in memory
// (2.2 KiB each before pipeEnd, 1.3 MiB over this loop).
func TestFlatDialerPinsNoSessions(t *testing.T) {
	fw := flatWorld(t, 1000)
	addr := netip.AddrPortFrom(fw.providers[0].addrs[0][0], 25).String()
	scan := func(n int) uint64 {
		for i := 0; i < n; i++ {
			if res := smtp.Scan(context.Background(), addr, smtp.ScanConfig{Dialer: fw.Dialer()}); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := scan(50)
	if after := scan(600); after > before+300<<10 {
		t.Errorf("600 closed sessions left %d KiB on the heap", (after-before)>>10)
	}
}

func TestFlatDialerServesSMTP(t *testing.T) {
	fw := flatWorld(t, 100_000)
	ctx := context.Background()

	// A curated provider address: banner identity plus trusted STARTTLS.
	p := fw.providers[0]
	res := smtp.Scan(ctx, netip.AddrPortFrom(p.addrs[0][0], 25).String(),
		smtp.ScanConfig{Dialer: fw.Dialer()})
	if res.Err != nil {
		t.Fatalf("provider scan: %v", res.Err)
	}
	if res.BannerHost != p.hosts[0] || res.EHLOHost != p.hosts[0] {
		t.Errorf("identity = %q/%q, want %q", res.BannerHost, res.EHLOHost, p.hosts[0])
	}
	if !res.SupportsSTARTTLS || !res.TLSHandshakeOK || len(res.PeerCertificates) == 0 {
		t.Fatalf("provider host should speak STARTTLS: %+v", res)
	}
	if err := fw.Trust.Validate(res.PeerCertificates); err != nil {
		t.Errorf("provider certificate not trusted: %v", err)
	}

	// A self-hosted address: banner-only under the domain's own name.
	var selfIdx int
	for i := 0; i < fw.NumDomains(); i++ {
		if p, ok := fw.provider(fw.draw(i)); ok && p == nil {
			selfIdx = i
			break
		}
	}
	res = smtp.Scan(ctx, netip.AddrPortFrom(fw.selfIP(selfIdx), 25).String(),
		smtp.ScanConfig{Dialer: fw.Dialer()})
	if res.Err != nil {
		t.Fatalf("self-hosted scan: %v", res.Err)
	}
	if want := "mail." + fw.DomainName(selfIdx); res.BannerHost != want {
		t.Errorf("self-hosted banner = %q, want %q", res.BannerHost, want)
	}
	if res.SupportsSTARTTLS {
		t.Error("self-hosted box should not offer STARTTLS")
	}

	// Nothing listens between the cracks.
	res = smtp.Scan(ctx, "10.250.0.1:25", smtp.ScanConfig{Dialer: fw.Dialer()})
	if res.Connected {
		t.Error("scan of an empty address connected")
	}
}

// TestAppendPaddedMatchesSprintf holds the appended names to the %0*d
// they replace, at and across every digit-count boundary.
func TestAppendPaddedMatchesSprintf(t *testing.T) {
	for width := 0; width <= 12; width++ {
		for _, n := range []int{0, 1, 9, 10, 99, 100, 42, 999999, 1000000, 123456789, 1234567890, 1<<62 + 7} {
			want := fmt.Sprintf("d%0*d.com", width, n)
			if got := string(append(appendPadded([]byte("d"), width, n), ".com"...)); got != want {
				t.Errorf("width %d, n %d: %q, want %q", width, n, got, want)
			}
		}
	}
}
