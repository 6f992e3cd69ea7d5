package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// iterTestNet builds a three-level DNS hierarchy on the simulated
// fabric: a root server delegating two TLDs, TLD servers delegating
// registered domains, and authoritative servers for the leaf zones.
type iterTestNet struct {
	net   *netsim.Network
	roots []netip.AddrPort
	// queries counts datagrams/requests written to servers. With the
	// shared transport, sockets are dialed once and reused, so writes —
	// not dials — are the per-exchange signal.
	queries atomic.Int64
}

// countingConn counts queries written through a fabric connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

const (
	rootIP = "198.41.0.4"
	comIP  = "192.5.6.30"
	netIP  = "192.5.6.31"
	auth1  = "10.1.1.53" // example.com
	auth2  = "10.2.2.53" // other.net
)

func startAuthServer(t testing.TB, n *netsim.Network, ip string, catalog *Catalog) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Catalog: catalog})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := n.ListenPacket(netip.MustParseAddrPort(ip + ":53"))
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	t.Cleanup(func() { srv.Close() })
}

func buildIterTestNet(t *testing.T) *iterTestNet {
	t.Helper()
	itn := &iterTestNet{net: netsim.New()}
	itn.roots = []netip.AddrPort{netip.MustParseAddrPort(rootIP + ":53")}

	addr := func(s string) netip.Addr { return netip.MustParseAddr(s) }

	// Root zone delegates com and net.
	root := NewZone(".")
	root.MustAdd(RR{Name: ".", Type: TypeSOA, TTL: 1, Data: SOAData{MName: "a.root.", RName: "root.root.", Serial: 1}})
	root.MustAdd(RR{Name: "com.", Type: TypeNS, TTL: 1, Data: NSData{Host: "ns1.com."}})
	root.MustAdd(RR{Name: "ns1.com.", Type: TypeA, TTL: 1, Data: AData{Addr: addr(comIP)}})
	root.MustAdd(RR{Name: "net.", Type: TypeNS, TTL: 1, Data: NSData{Host: "ns1.net."}})
	root.MustAdd(RR{Name: "ns1.net.", Type: TypeA, TTL: 1, Data: AData{Addr: addr(netIP)}})
	rootCat := NewCatalog()
	rootCat.AddZone(root)
	startAuthServer(t, itn.net, rootIP, rootCat)

	// com TLD delegates example.com (with glue).
	com := NewZone("com")
	com.MustAdd(RR{Name: "com.", Type: TypeSOA, TTL: 1, Data: SOAData{MName: "ns1.com.", RName: "h.com.", Serial: 1}})
	com.MustAdd(RR{Name: "example.com.", Type: TypeNS, TTL: 1, Data: NSData{Host: "ns1.example.com."}})
	com.MustAdd(RR{Name: "ns1.example.com.", Type: TypeA, TTL: 1, Data: AData{Addr: addr(auth1)}})
	comCat := NewCatalog()
	comCat.AddZone(com)
	startAuthServer(t, itn.net, comIP, comCat)

	// net TLD delegates other.net gluelessly: its NS host lives under
	// example.com, so the resolver must resolve it out of band.
	netz := NewZone("net")
	netz.MustAdd(RR{Name: "net.", Type: TypeSOA, TTL: 1, Data: SOAData{MName: "ns1.net.", RName: "h.net.", Serial: 1}})
	netz.MustAdd(RR{Name: "other.net.", Type: TypeNS, TTL: 1, Data: NSData{Host: "dns.example.com."}})
	netCat := NewCatalog()
	netCat.AddZone(netz)
	startAuthServer(t, itn.net, netIP, netCat)

	// Authoritative server for example.com.
	example := NewZone("example.com")
	example.MustAdd(RR{Name: "example.com.", Type: TypeSOA, TTL: 300, Data: SOAData{
		MName: "ns1.example.com.", RName: "h.example.com.", Serial: 1, Minimum: 300}})
	example.MustAdd(RR{Name: "example.com.", Type: TypeNS, TTL: 1, Data: NSData{Host: "ns1.example.com."}})
	example.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 1, Data: MXData{Preference: 10, Exchange: "mx1.example.com."}})
	example.MustAdd(RR{Name: "mx1.example.com.", Type: TypeA, TTL: 1, Data: AData{Addr: addr("203.0.113.25")}})
	example.MustAdd(RR{Name: "dns.example.com.", Type: TypeA, TTL: 1, Data: AData{Addr: addr(auth2)}})
	example.MustAdd(RR{Name: "www.example.com.", Type: TypeCNAME, TTL: 1, Data: CNAMEData{Target: "web.other.net."}})
	ex1 := NewCatalog()
	ex1.AddZone(example)
	startAuthServer(t, itn.net, auth1, ex1)

	// Authoritative server for other.net.
	other := NewZone("other.net")
	other.MustAdd(RR{Name: "other.net.", Type: TypeSOA, TTL: 1, Data: SOAData{MName: "dns.example.com.", RName: "h.other.net.", Serial: 1}})
	other.MustAdd(RR{Name: "web.other.net.", Type: TypeA, TTL: 1, Data: AData{Addr: addr("203.0.113.80")}})
	ex2 := NewCatalog()
	ex2.AddZone(other)
	startAuthServer(t, itn.net, auth2, ex2)

	return itn
}

func (itn *iterTestNet) resolver() *IterativeResolver {
	return &IterativeResolver{
		Roots:   itn.roots,
		Timeout: 2 * time.Second,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			ap, err := netip.ParseAddrPort(address)
			if err != nil {
				return nil, err
			}
			var conn net.Conn
			if network == "udp" {
				conn, err = itn.net.DialUDP(ap)
			} else {
				conn, err = itn.net.Dial(ctx, ap)
			}
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, n: &itn.queries}, nil
		},
	}
}

func TestIterativeLookupMX(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver()
	mx, err := r.LookupMX(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 1 || mx[0].Exchange != "mx1.example.com" {
		t.Errorf("MX = %+v", mx)
	}
}

func TestIterativeLookupA(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver()
	addrs, err := r.LookupA(context.Background(), "mx1.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].String() != "203.0.113.25" {
		t.Errorf("A = %v", addrs)
	}
}

func TestIterativeCrossZoneCNAME(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver()
	// www.example.com -> CNAME web.other.net, which lives under a
	// gluelessly-delegated zone on another server.
	addrs, err := r.LookupA(context.Background(), "www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0].String() != "203.0.113.80" {
		t.Errorf("A through cross-zone CNAME = %v", addrs)
	}
}

func TestIterativeNXDomain(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver()
	_, err := r.LookupA(context.Background(), "missing.example.com")
	if !errors.Is(err, ErrNXDomain) {
		t.Errorf("err = %v, want ErrNXDomain", err)
	}
	// A missing TLD is NXDOMAIN at the root.
	_, err = r.LookupA(context.Background(), "foo.nosuchtld")
	if !errors.Is(err, ErrNXDomain) {
		t.Errorf("missing TLD err = %v, want ErrNXDomain", err)
	}
}

func TestIterativeDelegationCache(t *testing.T) {
	itn := buildIterTestNet(t)
	r := itn.resolver()
	ctx := context.Background()
	if _, err := r.LookupA(ctx, "mx1.example.com"); err != nil {
		t.Fatal(err)
	}
	cold := itn.queries.Load()
	// A second name of the zone: the answer is not cached, the cut is.
	if _, err := r.LookupA(ctx, "dns.example.com"); err != nil {
		t.Fatal(err)
	}
	warm := itn.queries.Load() - cold
	if warm >= cold {
		t.Errorf("cache ineffective: cold=%d warm=%d", cold, warm)
	}
	if warm != 1 {
		t.Errorf("warm lookup used %d exchanges, want 1 (direct to authoritative)", warm)
	}
	r.Cache.FlushDelegations()
	if _, err := r.LookupMX(ctx, "example.com"); err != nil {
		t.Fatal(err)
	}
	if again := itn.queries.Load() - cold - warm; again != cold {
		t.Errorf("after invalidate: %d exchanges, want %d", again, cold)
	}
}

func TestIterativeNoRoots(t *testing.T) {
	r := &IterativeResolver{}
	if _, err := r.LookupA(context.Background(), "example.com"); !errors.Is(err, ErrNoRoots) {
		t.Errorf("err = %v, want ErrNoRoots", err)
	}
}

func TestIterativeLameDelegation(t *testing.T) {
	itn := buildIterTestNet(t)
	// Point the root's com delegation at an address with no server.
	r := itn.resolver()
	r.Cache = NewCache()
	r.Cache.PutDelegation("com.", []netip.AddrPort{netip.MustParseAddrPort("10.99.99.99:53")}, 30)
	r.Timeout = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := r.LookupA(ctx, "mx1.example.com"); err == nil {
		t.Error("lame delegation lookup succeeded")
	}
}

func TestZoneDelegationLookup(t *testing.T) {
	z := NewZone("com")
	z.MustAdd(RR{Name: "com.", Type: TypeSOA, TTL: 1, Data: SOAData{MName: "ns1.com.", RName: "h.com.", Serial: 1}})
	z.MustAdd(RR{Name: "child.com.", Type: TypeNS, TTL: 1, Data: NSData{Host: "ns1.child.com."}})
	z.MustAdd(RR{Name: "ns1.child.com.", Type: TypeA, TTL: 1, Data: AData{Addr: mustAddr("10.0.0.1")}})

	for _, name := range []string{"child.com", "deep.child.com", "ns1.child.com"} {
		res := z.Lookup(name, TypeA)
		if !res.Delegated {
			t.Errorf("Lookup(%s) not delegated", name)
			continue
		}
		if len(res.Authority) != 1 || res.Authority[0].Type != TypeNS {
			t.Errorf("Lookup(%s) authority = %+v", name, res.Authority)
		}
		if len(res.Additional) != 1 || res.Additional[0].Data.(AData).Addr.String() != "10.0.0.1" {
			t.Errorf("Lookup(%s) glue = %+v", name, res.Additional)
		}
	}
	// The apex itself is not a delegation.
	if res := z.Lookup("com", TypeSOA); res.Delegated {
		t.Error("apex lookup delegated")
	}
	// Unrelated names are normal authoritative answers.
	if res := z.Lookup("plain.com", TypeA); res.Delegated || res.RCode != RCodeNXDomain {
		t.Errorf("plain lookup = %+v", res)
	}
}

func TestCatalogReferralResponse(t *testing.T) {
	z := NewZone("com")
	z.MustAdd(RR{Name: "com.", Type: TypeSOA, TTL: 1, Data: SOAData{MName: "ns1.com.", RName: "h.com.", Serial: 1}})
	z.MustAdd(RR{Name: "child.com.", Type: TypeNS, TTL: 1, Data: NSData{Host: "ns1.child.com."}})
	z.MustAdd(RR{Name: "ns1.child.com.", Type: TypeA, TTL: 1, Data: AData{Addr: mustAddr("10.0.0.1")}})
	c := NewCatalog()
	c.AddZone(z)

	m := c.Resolve(Question{Name: "www.child.com.", Type: TypeA, Class: ClassIN})
	if m.Header.Authoritative {
		t.Error("referral marked authoritative")
	}
	if len(m.Answers) != 0 || len(m.Authority) != 1 || len(m.Additional) != 1 {
		t.Errorf("referral sections: %+v", m)
	}

	// When the catalog also holds the child zone, it answers directly.
	child := NewZone("child.com")
	child.MustAdd(RR{Name: "www.child.com.", Type: TypeA, TTL: 1, Data: AData{Addr: mustAddr("10.0.0.2")}})
	c.AddZone(child)
	m = c.Resolve(Question{Name: "www.child.com.", Type: TypeA, Class: ClassIN})
	if !m.Header.Authoritative || len(m.Answers) != 1 {
		t.Errorf("child-zone answer: %+v", m)
	}
}

func BenchmarkIterativeResolveWarm(b *testing.B) {
	itn := &iterTestNet{net: netsim.New()}
	itn.roots = []netip.AddrPort{netip.MustParseAddrPort(rootIP + ":53")}
	// Minimal single-zone setup served as root+authoritative.
	z := NewZone(".")
	z.MustAdd(RR{Name: "example.com.", Type: TypeMX, TTL: 1, Data: MXData{Preference: 10, Exchange: "mx.example.com."}})
	cat := NewCatalog()
	cat.AddZone(z)
	srv, err := NewServer(ServerConfig{Catalog: cat})
	if err != nil {
		b.Fatal(err)
	}
	pc, err := itn.net.ListenPacket(netip.MustParseAddrPort(rootIP + ":53"))
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeUDP(pc)
	defer srv.Close()
	r := itn.resolver()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.LookupMX(ctx, "example.com"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterativeResolveCold is the dev-loop stand-in for the
// scan-wire workload of the repository benchmark: each iteration walks
// root → TLD → authoritative over the fabric for a name that no cache,
// resolver's or server's, has seen (a wildcard MX under cold.bench
// answers every one). The timed window is three upstream exchanges and
// nothing else, so it can be profiled without patching bench/:
//
//	go test -run '^$' -bench IterativeResolveCold -cpuprofile /tmp/cold.prof ./internal/dns
func BenchmarkIterativeResolveCold(b *testing.B) {
	n := netsim.New()
	serve := func(ip string, z *Zone) {
		cat := NewCatalog()
		cat.AddZone(z)
		startAuthServer(b, n, ip, cat)
	}
	root := NewZone(".")
	root.MustAdd(RR{Name: ".", Type: TypeSOA, TTL: 3600, Data: SOAData{MName: "a.root.", RName: "root.root.", Serial: 1, Minimum: 300}})
	root.MustAdd(RR{Name: "bench.", Type: TypeNS, TTL: 3600, Data: NSData{Host: "ns.bench."}})
	root.MustAdd(RR{Name: "ns.bench.", Type: TypeA, TTL: 3600, Data: AData{Addr: mustAddr(crTLDIP)}})
	serve(crRootIP, root)
	tld := NewZone("bench")
	tld.MustAdd(RR{Name: "bench.", Type: TypeSOA, TTL: 3600, Data: SOAData{MName: "ns.bench.", RName: "h.bench.", Serial: 1, Minimum: 300}})
	tld.MustAdd(RR{Name: "cold.bench.", Type: TypeNS, TTL: 3600, Data: NSData{Host: "ns.cold.bench."}})
	tld.MustAdd(RR{Name: "ns.cold.bench.", Type: TypeA, TTL: 3600, Data: AData{Addr: mustAddr(crAuthIP)}})
	serve(crTLDIP, tld)
	auth := NewZone("cold.bench")
	auth.MustAdd(RR{Name: "cold.bench.", Type: TypeSOA, TTL: 3600, Data: SOAData{MName: "ns.cold.bench.", RName: "h.cold.bench.", Serial: 1, Minimum: 300}})
	auth.MustAdd(RR{Name: "*.cold.bench.", Type: TypeMX, TTL: 60, Data: MXData{Preference: 10, Exchange: "mx.cold.bench."}})
	serve(crAuthIP, auth)

	r := &IterativeResolver{
		Roots:       []netip.AddrPort{netip.MustParseAddrPort(crRootIP + ":53")},
		Timeout:     2 * time.Second,
		DialContext: lossyFabricDial(n),
	}
	defer r.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Cache = &Cache{MaxEntries: 1 << 16}
		mx, err := r.LookupMX(ctx, fmt.Sprintf("d%d.cold.bench", i))
		if err != nil {
			b.Fatal(err)
		}
		if len(mx) != 1 {
			b.Fatalf("MX = %+v", mx)
		}
	}
	b.StopTimer()
	if got, want := r.Stats().WireQueries, uint64(3*b.N); got != want {
		b.Fatalf("upstream queries = %d, want %d (three per walk)", got, want)
	}
}
