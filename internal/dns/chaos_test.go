package dns

// Chaos tests for the DNS data plane: lossy UDP links must be absorbed
// by the client's retry/backoff machinery, and stray duplicate responses
// must be discarded by the transport's demux instead of corrupting later
// exchanges. These run in the race tier (go test -race -run Chaos).

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"mxmap/internal/netsim"
)

// lossyFabricDial adapts a simulated network to the client's dial hook.
func lossyFabricDial(n *netsim.Network) func(ctx context.Context, network, address string) (net.Conn, error) {
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

// chaosCatalog builds a catalog of `count` MX zones dNN.chaos.example.
func chaosCatalog(t *testing.T, count int) *Catalog {
	t.Helper()
	cat := NewCatalog()
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("d%02d.chaos.example", i)
		z := NewZone(name)
		z.MustAdd(RR{Name: name + ".", Type: TypeMX, TTL: 60,
			Data: MXData{Preference: 10, Exchange: "mx." + name + "."}})
		cat.AddZone(z)
	}
	return cat
}

// TestChaosUDPLossRetryBackoff serves a catalog over a link that drops
// 30% of datagrams in each direction and checks that every query still
// completes — the multiplexed transport re-sends under the client's
// backoff — and that the retry counter actually grew.
func TestChaosUDPLossRetryBackoff(t *testing.T) {
	n := netsim.New()
	n.Seed(5) // deterministic loss pattern
	const server = "10.4.0.1"
	const domains = 24

	srv, err := NewServer(ServerConfig{Catalog: chaosCatalog(t, domains), UDPWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := n.ListenPacket(netip.MustParseAddrPort(server + ":53"))
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	t.Cleanup(func() { srv.Close() })
	n.SetUDPLoss(netip.MustParseAddr(server), 0.3)

	tr := &Transport{Server: server + ":53", Conns: 1, DialContext: lossyFabricDial(n)}
	client := testClient(t, &Client{
		Transport:    tr,
		Timeout:      50 * time.Millisecond,
		Retries:      12,
		RetryBackoff: time.Millisecond,
	})

	// Sequential on purpose: one outstanding query at a time keeps the
	// fabric's seeded loss rolls on a reproducible schedule.
	resolver := ClientResolver{Client: client}
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%02d.chaos.example", i)
		mxs, err := resolver.LookupMX(context.Background(), name)
		if err != nil {
			t.Fatalf("%s: %v (after %d retries)", name, err, client.RetryCount())
		}
		if len(mxs) != 1 || mxs[0].Exchange != "mx."+name {
			t.Fatalf("%s: unexpected answer %+v", name, mxs)
		}
	}
	// At p=0.3 per direction a round trip survives with probability .49;
	// dozens of queries cannot all get through on their first attempt.
	if client.RetryCount() == 0 {
		t.Error("no retries recorded despite 30% datagram loss")
	}
	t.Logf("completed %d queries with %d retries", domains, client.RetryCount())
}

// TestChaosDuplicateResponses runs against a responder that answers
// every query twice. The transport must hand the first copy to the
// waiting call and drop the stray — no errors, no retries, and later
// exchanges over the same socket stay correct.
func TestChaosDuplicateResponses(t *testing.T) {
	n := netsim.New()
	const server = "10.4.0.2"
	const domains = 12
	cat := chaosCatalog(t, domains)

	pc, err := n.ListenPacket(netip.MustParseAddrPort(server + ":53"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 64*1024)
		for {
			nr, addr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			query, err := Unpack(buf[:nr])
			if err != nil || len(query.Questions) == 0 {
				continue
			}
			resp := cat.Resolve(query.Questions[0])
			resp.Header.ID = query.Header.ID
			wire, err := resp.Pack()
			if err != nil {
				continue
			}
			pc.WriteTo(wire, addr) // the answer
			pc.WriteTo(wire, addr) // ...and a stray duplicate
		}
	}()

	tr := &Transport{Server: server + ":53", Conns: 1, DialContext: lossyFabricDial(n)}
	client := testClient(t, &Client{Transport: tr, Timeout: time.Second, Retries: 2})

	resolver := ClientResolver{Client: client}
	for round := 0; round < 2; round++ {
		for i := 0; i < domains; i++ {
			name := fmt.Sprintf("d%02d.chaos.example", i)
			mxs, err := resolver.LookupMX(context.Background(), name)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if len(mxs) != 1 || mxs[0].Exchange != "mx."+name {
				t.Fatalf("round %d %s: unexpected answer %+v", round, name, mxs)
			}
		}
	}
	if got := client.RetryCount(); got != 0 {
		t.Errorf("retries = %d, want 0 (duplicates must not look like loss)", got)
	}
}
