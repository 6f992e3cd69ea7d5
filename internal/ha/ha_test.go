package ha

import (
	"context"
	"net"
	"net/netip"
	"net/textproto"
	"strconv"
	"sync"
	"testing"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/ledger"
	"mxmap/internal/netsim"
	"mxmap/internal/serve"
	"mxmap/internal/serve/servetest"
)

// writeHAWorlds materializes servetest's fixture pair, one churn step
// apart: two.example migrates prov-a→prov-b, three.example disappears,
// five.example arrives on prov-b.
func writeHAWorlds(t *testing.T) (oldPath, newPath string) {
	t.Helper()
	oldPath, newPath, err := servetest.WriteWorlds(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return oldPath, newPath
}

// replicaAddr numbers the fleet's fabric addresses.
func replicaAddr(i int) string { return "10.0.0." + strconv.Itoa(i+1) + ":80" }

const frontAddr = "203.0.113.1:80"

// startReplica runs one backend query server on the fabric: a Service
// loaded from path (unloaded when path is empty) behind a swap-enabled
// Server. The service clock is stepped, so every swap latency a rollout
// reports is exactly servetest.ClockStep.
func startReplica(t *testing.T, n *netsim.Network, addr, path string, cfg serve.Config) (*serve.Service, *serve.Server) {
	t.Helper()
	svc := serve.NewService(core.ApproachMXOnly, serve.ServiceConfig{Now: servetest.SteppedClock()})
	if path != "" {
		if _, err := svc.Load(path); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Service = svc
	cfg.AllowSwap = true
	srv := startServer(t, n, addr, cfg)
	return svc, srv
}

// startServer runs a serve.Server on the fabric at addr.
func startServer(t *testing.T, n *netsim.Network, addr string, cfg serve.Config) *serve.Server {
	t.Helper()
	srv, _ := serveOn(t, n, addr, cfg)
	return srv
}

// serveOn runs a serve.Server on the fabric and returns it with an
// idempotent stop, so a test can take a replica down (and bring another
// up on the same address) before cleanup.
func serveOn(t *testing.T, n *netsim.Network, addr string, cfg serve.Config) (*serve.Server, func()) {
	t.Helper()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			srv.Close()
			if err := <-errc; err != nil {
				t.Errorf("serve loop %s: %v", addr, err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, stop
}

// fabricDialer is a ReplicaConfig.Dial over the netsim fabric.
func fabricDialer(n *netsim.Network, addr string) func(ctx context.Context) (net.Conn, error) {
	ap := netip.MustParseAddrPort(addr)
	return func(ctx context.Context) (net.Conn, error) { return n.Dial(ctx, ap) }
}

// fleet is a balanced replica set on one fabric, fronted by a server
// running the balancer as its handler.
type fleet struct {
	n     *netsim.Network
	svcs  []*serve.Service
	srvs  []*serve.Server
	b     *Balancer
	front *serve.Server
}

// newFleet starts size replicas all serving path (empty = unloaded),
// builds a balancer over them from cfg (Replicas is filled in), starts
// the front server, and admits the fleet with one probe round.
func newFleet(t *testing.T, size int, path string, cfg Config, repCfg serve.Config, frontCfg serve.Config) *fleet {
	t.Helper()
	f := &fleet{n: netsim.New()}
	for i := 0; i < size; i++ {
		svc, srv := startReplica(t, f.n, replicaAddr(i), path, repCfg)
		f.svcs = append(f.svcs, svc)
		f.srvs = append(f.srvs, srv)
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{
			Name: "r" + strconv.Itoa(i),
			Addr: replicaAddr(i),
			Dial: fabricDialer(f.n, replicaAddr(i)),
		})
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.b = b
	frontCfg.Handler = b.Handle
	f.front = startServer(t, f.n, frontAddr, frontCfg)
	b.AttachFront(f.front)
	b.Pool().ProbeOnce(context.Background())
	return f
}

// client returns a keep-alive client dialed at the front.
func (f *fleet) client(t *testing.T) *tClient { return dialClient(t, f.n, frontAddr) }

// tClient is servetest's keep-alive client failing the test on error.
type tClient struct {
	t *testing.T
	*servetest.Client
}

func dialClient(t *testing.T, n *netsim.Network, addr string) *tClient {
	t.Helper()
	c, err := servetest.Dial(n, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Conn.Close() })
	return &tClient{t, c}
}

// get performs one request and decodes the JSON answer into out.
func (c *tClient) get(method, target string, wantStatus int, out any) textproto.MIMEHeader {
	c.t.Helper()
	hdr, err := c.Do(method, target, wantStatus, out)
	if err != nil {
		c.t.Fatal(err)
	}
	return hdr
}

// awaitZeroLost polls until every request the server has read is
// answered (the response write races the client's read, so the counter
// can trail the wire by an instant).
func awaitZeroLost(t *testing.T, srv *serve.Server) {
	t.Helper()
	awaitStats(t, func() uint64 { return srv.Stats().Lost() }, 0)
}

// haPhase is one element of results/BENCH_ha.json: the balancer's whole
// counter ledger at a fixed point of the test that carries the phase,
// plus whatever that test exercised — the front server's counters, the
// bounds the re-probe schedule handed its jitter source, or rollout
// reports. Fleets run over the lossless fabric, schedules on a frozen
// clock with zero jitter and replica service clocks are stepped, so
// every field is exact.
type haPhase struct {
	Phase        string             `json:"phase"`
	Detail       string             `json:"detail"`
	Balancer     BalancerStats      `json:"balancer"`
	Front        *serve.ServerStats `json:"front,omitempty"`
	JitterBounds []int64            `json:"jitter_bounds,omitempty"`
	Rollouts     []*RolloutReport   `json:"rollouts,omitempty"`
}

// awaitStats polls until stats() equals want: counters land just after
// the response the client has already read.
func awaitStats[S comparable](t *testing.T, stats func() S, want S) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for stats() != want {
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged:\ngot  %+v\nwant %+v", stats(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBalancerForwarding(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	f := newFleet(t, 3, oldPath, Config{}, serve.Config{}, serve.Config{})
	c := f.client(t)

	// Fleet health: three ready replicas, none stale or ejected.
	var health FleetHealth
	c.get("GET", "/healthz", 200, &health)
	if health.State != "serving" || health.ReadyReplicas != 3 ||
		health.StaleReplicas != 0 || health.EjectedReplicas != 0 {
		t.Fatalf("healthz = %+v, want serving 3/0/0", health)
	}
	if len(health.Replicas) != 3 || health.Replicas[0].Name != "r0" ||
		health.Replicas[0].Epoch != 1 || !health.Replicas[0].Ready {
		t.Fatalf("replicas = %+v", health.Replicas)
	}
	c.get("GET", "/readyz", 200, nil)

	// Queries round-robin across the fleet and answer exactly as a
	// single replica would.
	for i := 0; i < 3; i++ {
		var look serve.LookupResponse
		c.get("GET", "/v1/domain?name=one.example", 200, &look)
		if !look.Found || look.Primary != "prov-a.net" || look.Snapshot.Date != "2021-01" {
			t.Fatalf("lookup = %+v", look)
		}
	}
	for _, srv := range f.srvs {
		if l := srv.Stats().Lookups; l != 1 {
			t.Errorf("replica lookups = %d, want 1 each (round-robin)", l)
		}
	}
	// Only the three forwarded lookups count: the control-plane answers
	// never reach the fleet.
	want := BalancerStats{Requests: 3, Attempts: 3, Probes: 3}
	front := serve.ServerStats{Accepted: 1, Requests: 5, Responses: 5}
	awaitStats(t, f.b.Stats, want)
	awaitStats(t, f.front.Stats, front)
	ledger.CheckPhase(t, "BENCH_ha.json", haPhase{Phase: "fleet_forwarding",
		Detail:   "3 lookups round-robined 1/1/1 across the fleet, control plane answered locally",
		Balancer: want, Front: &front})

	// Replica-side swap is the rollout's job, never a client's.
	c.get("POST", "/v1/swap?path=x", 403, nil)
	// Non-idempotent methods are not forwarded.
	c.get("POST", "/v1/domain?name=one.example", 405, nil)

	// The merged stats carry the whole exact counter set, and the
	// rejected POSTs did not reach the fleet either.
	var fs FleetStats
	c.get("GET", "/v1/stats", 200, &fs)
	if fs.Balancer != want {
		t.Fatalf("balancer stats = %+v, want %+v", fs.Balancer, want)
	}
	// The merged snapshot is taken while the /v1/stats request itself
	// is still unanswered, so the front legitimately shows it in
	// flight; it settles to zero lost immediately after.
	if fs.Front == nil || fs.Front.Lost() > 1 {
		t.Fatalf("front stats = %+v, want attached with at most the stats request in flight", fs.Front)
	}
	if len(fs.Replicas) != 3 {
		t.Fatalf("replicas = %+v", fs.Replicas)
	}
	awaitZeroLost(t, f.front)
}

func TestBalancerDegradationLadder(t *testing.T) {
	oldPath, _ := writeHAWorlds(t)
	f := newFleet(t, 2, oldPath,
		Config{EjectThreshold: 1, ProbeInterval: time.Millisecond},
		serve.Config{}, serve.Config{})
	c := f.client(t)

	// Rung 1: every replica goes stale (a failed replica-side swap
	// leaves the old epoch serving, marked stale). Answers still flow,
	// stale markers intact, StaleForwards exact.
	for i := range f.srvs {
		rc := dialClient(t, f.n, replicaAddr(i))
		rc.get("POST", "/v1/swap?path=/nonexistent.jsonl", 500, nil)
	}
	time.Sleep(5 * time.Millisecond) // past the probe interval: fleet is due
	f.b.Pool().ProbeOnce(context.Background())
	var health FleetHealth
	c.get("GET", "/healthz", 200, &health)
	if health.State != "degraded" || health.ReadyReplicas != 2 || health.StaleReplicas != 2 {
		t.Fatalf("healthz = %+v, want degraded 2 ready 2 stale", health)
	}
	var look serve.LookupResponse
	c.get("GET", "/v1/domain?name=one.example", 200, &look)
	if !look.Found || !look.Stale {
		t.Fatalf("lookup = %+v, want found with stale marker", look)
	}

	// Rung 2: the whole fleet dies. The first request burns through
	// both replicas (ejecting each at threshold 1) and relays the
	// failure; every request after that sheds 503 + Retry-After
	// without touching the wire.
	for _, srv := range f.srvs {
		srv.Close()
	}
	c.get("GET", "/v1/domain?name=one.example", 502, nil)
	hdr := c.get("GET", "/v1/domain?name=one.example", 503, nil)
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("shed headers = %v, want retry-after 1", hdr)
	}
	c.get("GET", "/readyz", 503, nil)
	c.get("GET", "/healthz", 200, &health)
	if health.State != "down" || health.ReadyReplicas != 0 || health.EjectedReplicas != 2 {
		t.Fatalf("healthz = %+v, want down with 2 ejected", health)
	}

	var fs FleetStats
	c.get("GET", "/v1/stats", 200, &fs)
	want := BalancerStats{
		Requests:      3, // stale lookup + burned lookup + shed lookup
		Attempts:      3, // 1 stale forward + 2 against the dead fleet
		Retries:       1,
		UpstreamErrs:  2,
		StaleForwards: 3, // the dead replicas were last probed stale too
		DownSheds:     1,
		ProxyFails:    1,
		Probes:        4, // admission round + staleness round
		Ejections:     2,
	}
	if fs.Balancer != want {
		t.Fatalf("balancer stats = %+v, want %+v", fs.Balancer, want)
	}
	ledger.CheckPhase(t, "BENCH_ha.json", haPhase{Phase: "degradation_ladder",
		Detail:   "all-stale still served with markers; all-down shed 503+Retry-After, 2 ejected",
		Balancer: want})
}
