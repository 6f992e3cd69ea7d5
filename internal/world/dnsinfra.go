package world

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"

	"mxmap/internal/dns"
	"mxmap/internal/netsim"
)

// DNSInfra is a running, fully delegated DNS hierarchy on the simulated
// fabric: one root server, one server per TLD, and a set of sharded
// authoritative servers hosting the leaf zones. It lets the measurement
// pipeline perform wire-faithful iterative resolution, the way the
// paper's active-DNS platform does, instead of the in-memory catalog
// shortcut.
type DNSInfra struct {
	// Roots are the root server addresses (the hints for an iterative
	// resolver).
	Roots []netip.AddrPort

	servers []*dns.Server
}

// Close hard-stops every DNS server in the hierarchy.
func (inf *DNSInfra) Close() error {
	for _, s := range inf.servers {
		s.Close()
	}
	return nil
}

// Stats aggregates the serving counters of every server in the
// hierarchy.
func (inf *DNSInfra) Stats() dns.ServerStats {
	var total dns.ServerStats
	for _, s := range inf.servers {
		total.Merge(s.Stats())
	}
	return total
}

// NumServers reports how many DNS servers are running.
func (inf *DNSInfra) NumServers() int { return len(inf.servers) }

// Addressing plan for the DNS hierarchy; separate from provider and ISP
// space.
var (
	dnsRootAddr  = netip.MustParseAddr("10.250.0.1")
	dnsTLDBase   = [4]byte{10, 250, 1, 0}
	dnsShardBase = [4]byte{10, 250, 2, 0}
)

// dnsShards is the number of authoritative leaf-zone servers.
const dnsShards = 8

// StartDNS builds and serves the delegated hierarchy for one snapshot
// date: the root zone delegates every TLD, each TLD zone delegates the
// registered zones beneath it to an authoritative shard, and the shards
// serve the leaf zones from CatalogAt.
func (w *World) StartDNS(n *netsim.Network, date string) (*DNSInfra, error) {
	leafCatalog, err := w.CatalogAt(date)
	if err != nil {
		return nil, err
	}
	zones := leafCatalog.Zones()
	sort.Slice(zones, func(i, j int) bool { return zones[i].Origin < zones[j].Origin })

	// Assign each leaf zone to a shard and index zones by TLD.
	shardCatalogs := make([]*dns.Catalog, dnsShards)
	for i := range shardCatalogs {
		shardCatalogs[i] = dns.NewCatalog()
	}
	byTLD := make(map[string][]*dns.Zone)
	for _, z := range zones {
		labels := dns.SplitLabels(z.Origin)
		if len(labels) == 0 {
			continue
		}
		tld := labels[len(labels)-1]
		byTLD[tld] = append(byTLD[tld], z)
		shard := int(hash64(z.Origin) % dnsShards)
		shardCatalogs[shard].AddZone(z)
	}

	inf := &DNSInfra{}
	shardAddrs := make([]netip.Addr, dnsShards)
	for i := range shardAddrs {
		shardAddrs[i] = netip.AddrFrom4([4]byte{dnsShardBase[0], dnsShardBase[1], dnsShardBase[2], byte(1 + i)})
	}

	// TLD zones with one delegation per leaf zone; glue points at the
	// leaf's shard.
	tlds := make([]string, 0, len(byTLD))
	for tld := range byTLD {
		tlds = append(tlds, tld)
	}
	sort.Strings(tlds)
	rootZone := dns.NewZone(".")
	if err := addApex(rootZone, "."); err != nil {
		return nil, err
	}
	for i, tld := range tlds {
		tldAddr := netip.AddrFrom4([4]byte{dnsTLDBase[0], dnsTLDBase[1], dnsTLDBase[2], byte(1 + i%250)})
		if i >= 250 {
			return nil, fmt.Errorf("world: too many TLDs for the address plan")
		}
		tldZone := dns.NewZone(tld)
		if err := addApex(tldZone, tld); err != nil {
			return nil, err
		}
		for _, z := range byTLD[tld] {
			child := strings.TrimSuffix(z.Origin, ".")
			if child == tld {
				continue // a provider ID equal to a TLD would be its own zone
			}
			shard := int(hash64(z.Origin) % dnsShards)
			nsHost := "ns1." + child
			if err := tldZone.Add(dns.RR{Name: child, Type: dns.TypeNS, TTL: zoneTTL,
				Data: dns.NSData{Host: nsHost}}); err != nil {
				return nil, err
			}
			if err := tldZone.Add(dns.RR{Name: nsHost, Type: dns.TypeA, TTL: zoneTTL,
				Data: dns.AData{Addr: shardAddrs[shard]}}); err != nil {
				return nil, err
			}
		}
		tldCat := dns.NewCatalog()
		tldCat.AddZone(tldZone)
		if err := inf.serve(n, tldAddr, tldCat); err != nil {
			inf.Close()
			return nil, err
		}
		// Root delegation for the TLD.
		nsHost := "ns1." + tld
		if err := rootZone.Add(dns.RR{Name: tld, Type: dns.TypeNS, TTL: zoneTTL,
			Data: dns.NSData{Host: nsHost}}); err != nil {
			inf.Close()
			return nil, err
		}
		if err := rootZone.Add(dns.RR{Name: nsHost, Type: dns.TypeA, TTL: zoneTTL,
			Data: dns.AData{Addr: tldAddr}}); err != nil {
			inf.Close()
			return nil, err
		}
	}

	rootCat := dns.NewCatalog()
	rootCat.AddZone(rootZone)
	if err := inf.serve(n, dnsRootAddr, rootCat); err != nil {
		inf.Close()
		return nil, err
	}
	inf.Roots = []netip.AddrPort{netip.AddrPortFrom(dnsRootAddr, 53)}

	for i, cat := range shardCatalogs {
		if err := inf.serve(n, shardAddrs[i], cat); err != nil {
			inf.Close()
			return nil, err
		}
	}
	return inf, nil
}

// serve starts one DNS server bound to addr:53 on the fabric, UDP and
// TCP — the TCP listener is what lets clients retry truncated (or
// RRL-slipped) answers. Two UDP workers per simulated authority: the
// fabric hosts dozens of servers per process, so the default
// (per-host-sized) pool would oversubscribe.
func (inf *DNSInfra) serve(n *netsim.Network, addr netip.Addr, cat *dns.Catalog) error {
	srv, err := dns.NewServer(dns.ServerConfig{Catalog: cat, UDPWorkers: 2})
	if err != nil {
		return err
	}
	ap := netip.AddrPortFrom(addr, 53)
	pc, err := n.ListenPacket(ap)
	if err != nil {
		return err
	}
	ln, err := n.Listen(ap)
	if err != nil {
		pc.Close()
		return err
	}
	go srv.ServeUDP(pc)
	go srv.ServeTCP(ln)
	inf.servers = append(inf.servers, srv)
	return nil
}

// NewIterativeResolver returns a caching recursive resolver seeded with
// the hierarchy's root hints, dialing over the fabric. The attached
// cache is sized for snapshot-scale collection: positive/negative
// answers, zone cuts, serve-stale and coalescing all engage, so
// thousands of domains concentrated on one provider's infrastructure
// cost one delegation walk.
func (inf *DNSInfra) NewIterativeResolver(n *netsim.Network) *dns.IterativeResolver {
	return &dns.IterativeResolver{
		Roots:       inf.Roots,
		DialContext: fabricDial(n),
		Cache:       &dns.Cache{MaxEntries: 1 << 16},
	}
}

// fabricDial adapts the simulated network to the resolver's dial hook,
// supporting both datagram and stream transports.
func fabricDial(n *netsim.Network) func(ctx context.Context, network, address string) (net.Conn, error) {
	return func(ctx context.Context, network, address string) (net.Conn, error) {
		ap, err := netip.ParseAddrPort(address)
		if err != nil {
			return nil, err
		}
		if network == "udp" || network == "udp4" {
			return n.DialUDP(ap)
		}
		return n.Dial(ctx, ap)
	}
}
