package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"net/textproto"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/ledger"
	"mxmap/internal/netsim"
	"mxmap/internal/serve/servetest"
)

// writeServeWorlds materializes both fixture snapshots as files.
func writeServeWorlds(t *testing.T) (oldPath, newPath string) {
	t.Helper()
	oldPath, newPath, err := servetest.WriteWorlds(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return oldPath, newPath
}

// servingService builds a Service already serving the snapshot at path,
// on a stepped clock so every swap latency it reports is exact.
func servingService(t *testing.T, path string) *Service {
	t.Helper()
	svc := NewService(core.ApproachMXOnly, ServiceConfig{Now: servetest.SteppedClock()})
	if _, err := svc.Load(path); err != nil {
		t.Fatal(err)
	}
	return svc
}

// startTestServer runs a server on the fabric at addr and registers
// cleanup that verifies the serve loop exited nil.
func startTestServer(t *testing.T, n *netsim.Network, addr string, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	for {
		if lns, _, _ := srv.core.Open(); lns == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("serve loop: %v", err)
		}
	})
	return srv
}

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

func (c *tClient) send(method, target string) {
	c.t.Helper()
	if err := c.Send(method, target); err != nil {
		c.t.Fatalf("write %s %s: %v", method, target, err)
	}
}

func (c *tClient) readResponse() (int, textproto.MIMEHeader, []byte) {
	c.t.Helper()
	status, hdr, body, err := c.Read()
	if err != nil {
		c.t.Fatal(err)
	}
	return status, hdr, body
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

// awaitServerStats polls until the server's counters equal want.
func awaitServerStats(t *testing.T, srv *Server, want ServerStats) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.Stats() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged:\ngot  %+v\nwant %+v", srv.Stats(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// queryPhase is one element of results/BENCH_query.json: a server's
// whole counter snapshot at a fixed point of the test that carries the
// phase plus, for swap phases, the service's swap accounting and the
// churn report the swap produced. Clients are sequential, the fabric is
// lossless and the service clock stepped, so every field is exact.
type queryPhase struct {
	Phase   string        `json:"phase"`
	Detail  string        `json:"detail"`
	Server  ServerStats   `json:"server"`
	Lost    uint64        `json:"lost"`
	Service *ServiceStats `json:"service,omitempty"`
	Churn   *ChurnReport  `json:"churn,omitempty"`
}

// checkQueryPhase waits for srv's counters to reach want and compares
// the phase they make with its committed ledger entry.
func checkQueryPhase(t *testing.T, phase, detail string, srv *Server, want ServerStats, svc *Service, churn *ChurnReport) {
	t.Helper()
	awaitServerStats(t, srv, want)
	p := queryPhase{Phase: phase, Detail: detail, Server: want, Lost: want.Lost(), Churn: churn}
	if svc != nil {
		ss := svc.Stats()
		p.Service = &ss
	}
	ledger.CheckPhase(t, "BENCH_query.json", p)
}

func TestServeEndpoints(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	n := netsim.New()
	const addr = "203.0.113.10:80"
	srv := startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)

	var ready ReadyResponse
	c.get("GET", "/readyz", 200, &ready)
	if !ready.Ready || ready.State != "serving" {
		t.Errorf("readyz = %+v, want ready/serving", ready)
	}
	var health HealthResponse
	c.get("GET", "/healthz", 200, &health)
	if health.State != "serving" || health.Stale || health.Epoch != 1 {
		t.Errorf("healthz = %+v, want serving epoch 1", health)
	}

	var look LookupResponse
	c.get("GET", "/v1/domain?name=one.example", 200, &look)
	want := LookupResponse{
		Domain: "one.example", Found: true, Primary: "prov-a.net",
		Credits: map[string]float64{"prov-a.net": 1}, Rank: 1,
		Snapshot: SnapshotMeta{Date: "2021-01", Corpus: "test", Epoch: 1, Domains: 4},
	}
	if !reflect.DeepEqual(look, want) {
		t.Errorf("lookup = %+v, want %+v", look, want)
	}
	for _, tc := range []struct {
		name, primary string
		found         bool
	}{
		{"two.example", "prov-a.net", true},
		{"four.example", "four.example", true}, // self-hosted
		{"missing.example", "", false},
	} {
		look = LookupResponse{}
		c.get("GET", "/v1/domain?name="+tc.name, 200, &look)
		if look.Found != tc.found || look.Primary != tc.primary {
			t.Errorf("lookup %s = %+v, want found %v with primary %q", tc.name, look, tc.found, tc.primary)
		}
	}

	var share ShareResponse
	c.get("GET", "/v1/share?top=1", 200, &share)
	if len(share.Top) != 1 || share.Top[0].Company != "prov-a.net" || share.Top[0].Percent != 50 {
		t.Errorf("share top 1 = %+v, want prov-a.net at 50%%", share.Top)
	}
	var conc ConcentrationResponse
	c.get("GET", "/v1/concentration", 200, &conc)
	// prov-a 2 of 3 managed credits, prov-b 1 of 3.
	if math.Abs(conc.CR1-200.0/3) > 1e-9 || conc.Snapshot.Epoch != 1 {
		t.Errorf("concentration = %+v, want CR1 %.4f", conc, 200.0/3)
	}
	c.get("GET", "/v1/stats", 200, nil)
	checkQueryPhase(t, "lookup_endpoints", "9 requests over one connection: 4 lookups, 1 miss, 0 lost", srv,
		ServerStats{Accepted: 1, Requests: 9, Responses: 9, Lookups: 4, LookupMisses: 1}, nil, nil)

	// A name is looked up and echoed in its canonical form: ASCII case
	// folded, one trailing dot dropped. (Past the ledger phase above, so
	// its committed counters stand.)
	for _, tc := range []struct {
		name, canonical string
		found           bool
	}{
		{"ONE.example", "one.example", true},
		{"one.example.", "one.example", true},
		{"Two.Example.", "two.example", true},
		{"one.example..", "one.example.", false},
	} {
		look = LookupResponse{}
		c.get("GET", "/v1/domain?name="+tc.name, 200, &look)
		if look.Domain != tc.canonical || look.Found != tc.found {
			t.Errorf("lookup %s = %+v, want %q found %v", tc.name, look, tc.canonical, tc.found)
		}
	}

	c.get("GET", "/v1/share", 200, &share)
	if len(share.Top) != 2 {
		t.Errorf("share = %+v, want 2 companies (self-hosted excluded)", share.Top)
	}
	var churn ChurnResponse
	c.get("GET", "/v1/churn", 200, &churn)
	if churn.Swaps != 0 || churn.Last != nil {
		t.Errorf("churn before any swap = %+v, want empty", churn)
	}

	c.get("GET", "/v1/swap?path=/nope", 403, nil)
	c.get("GET", "/missing", 404, nil)
	c.get("POST", "/v1/domain", 405, nil)
	// A parameterless lookup is a 400, which closes the connection.
	hdr := c.get("GET", "/v1/domain", 400, nil)
	if hdr.Get("Connection") != "close" {
		t.Errorf("400 headers = %v, want Connection: close", hdr)
	}
	c2 := dialClient(t, n, addr)
	c2.get("GET", "/v1/share?top=0", 400, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	awaitServerStats(t, srv, ServerStats{
		Accepted: 2, Requests: 20, Responses: 20,
		Lookups: 8, LookupMisses: 2,
		Drains: 1,
	})
	if svc.State() != StateDraining {
		t.Errorf("service state after drain = %v, want draining", svc.State())
	}
}

// TestServeGracefulDrain serves a burst of lookups on one connection and
// shuts down gracefully: every request read was answered, the drain is
// counted once, and the service ends draining (its state is in the
// phase's service stats).
func TestServeGracefulDrain(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	n := netsim.New()
	const addr, lookups = "203.0.113.21:80", 16
	srv := startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)
	names := []string{"one.example", "two.example", "three.example", "no-such.example"}
	for i := 0; i < lookups; i++ {
		c.get("GET", "/v1/domain?name="+names[i%len(names)], 200, nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	checkQueryPhase(t, "graceful_drain", fmt.Sprintf("drained clean after %d lookups, 0 lost", lookups), srv,
		ServerStats{Accepted: 1, Requests: lookups, Responses: lookups,
			Lookups: lookups, LookupMisses: lookups / 4, Drains: 1}, svc, nil)
}

// TestServeHotSwapAndStaleMode pins the swap endpoint's two outcomes on
// one server each: a good swap flips the epoch and reports the churn
// exactly; a failed one leaves the old epoch answering, marked stale,
// until a good swap clears the degradation.
func TestServeHotSwapAndStaleMode(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	wantRep := ChurnReport{
		FromDate: "2021-01", ToDate: "2021-02", FromEpoch: 1, ToEpoch: 2,
		Diff:  dataset.DiffStats{OldDomains: 4, NewDomains: 4, Added: 1, Removed: 1, Changed: 1, Unchanged: 2},
		Delta: core.DeltaStats{Reused: 2, Reinferred: 2},
		Flows: []ProviderFlow{
			{From: NoProviderLabel, To: "prov-b.net", Count: 1},
			{From: "prov-a.net", To: "prov-b.net", Count: 1},
			{From: "prov-b.net", To: NoProviderLabel, Count: 1},
		},
		SwapLatencyNS: servetest.ClockStep.Nanoseconds(),
	}

	t.Run("hot swap", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.11:80"
		srv := startTestServer(t, n, addr, Config{Service: svc, AllowSwap: true})
		c := dialClient(t, n, addr)

		var look LookupResponse
		c.get("GET", "/v1/domain?name=two.example", 200, &look)
		if look.Primary != "prov-a.net" || look.Snapshot.Epoch != 1 {
			t.Errorf("pre-swap lookup = %+v, want prov-a.net at epoch 1", look)
		}
		var rep ChurnReport
		c.get("POST", "/v1/swap?path="+newPath, 200, &rep)
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("churn report = %+v, want %+v", rep, wantRep)
		}
		look = LookupResponse{}
		c.get("GET", "/v1/domain?name=two.example", 200, &look)
		if look.Primary != "prov-b.net" || look.Stale || look.Snapshot.Epoch != 2 || look.Snapshot.Date != "2021-02" {
			t.Errorf("lookup after swap = %+v, want prov-b.net at epoch 2", look)
		}
		checkQueryPhase(t, "hot_swap", "epoch 1->2: reused 2, re-inferred 2 of 4 domains, swap 500µs", srv,
			ServerStats{Accepted: 1, Requests: 3, Responses: 3, Lookups: 2}, svc, &rep)

		look = LookupResponse{}
		c.get("GET", "/v1/domain?name=three.example", 200, &look)
		if look.Found {
			t.Errorf("removed domain still found: %+v", look)
		}
		var churn ChurnResponse
		c.get("GET", "/v1/churn", 200, &churn)
		if churn.Swaps != 1 || churn.Last == nil || churn.Last.ToEpoch != 2 {
			t.Errorf("churn = %+v, want one swap to epoch 2", churn)
		}
	})

	t.Run("stale mode", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.22:80"
		srv := startTestServer(t, n, addr, Config{Service: svc, AllowSwap: true})
		c := dialClient(t, n, addr)
		gone := filepath.Join(t.TempDir(), "gone.jsonl")

		// A swap whose load fails leaves the old epoch serving, stale.
		c.get("POST", "/v1/swap?path="+gone, 500, nil)
		var look LookupResponse
		c.get("GET", "/v1/domain?name=one.example", 200, &look)
		if !look.Stale || !look.Found || look.Snapshot.Epoch != 1 {
			t.Errorf("lookup after failed swap = %+v, want stale epoch-1 answer", look)
		}
		var health HealthResponse
		c.get("GET", "/healthz", 200, &health)
		if !health.Stale || health.State != "serving" {
			t.Errorf("healthz after failed swap = %+v, want stale serving", health)
		}
		// A successful swap flips the epoch and clears stale.
		var rep ChurnReport
		c.get("POST", "/v1/swap?path="+newPath, 200, &rep)
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("churn report = %+v, want %+v", rep, wantRep)
		}
		look = LookupResponse{}
		c.get("GET", "/v1/domain?name=one.example", 200, &look)
		if look.Stale || look.Snapshot.Epoch != 2 {
			t.Errorf("recovered lookup = %+v, want fresh answer from epoch 2", look)
		}
		checkQueryPhase(t, "stale_swap", "failed swap served 1 stale answers from old epoch, recovery swap cleared", srv,
			ServerStats{Accepted: 1, Requests: 5, Responses: 5, Lookups: 2, StaleServes: 1}, svc, &rep)

		// Degraded again: readiness holds while stale, and /v1/stats
		// carries the whole swap history.
		c.get("POST", "/v1/swap?path="+gone, 500, nil)
		var ready ReadyResponse
		c.get("GET", "/readyz", 200, &ready)
		if !ready.Ready || !ready.Stale {
			t.Errorf("readyz after failed swap = %+v, want ready but stale", ready)
		}
		var stats StatsResponse
		c.get("GET", "/v1/stats", 200, &stats)
		ss := stats.Service
		if ss.State != "serving" || !ss.Stale || ss.Epoch != 2 || ss.Domains != 4 ||
			ss.Swaps != 1 || ss.SwapFails != 2 ||
			ss.DomainsReused != 2 || ss.DomainsReinferred != 2 {
			t.Errorf("service stats = %+v", ss)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		awaitServerStats(t, srv, ServerStats{
			Accepted: 1, Requests: 8, Responses: 8,
			Lookups: 2, StaleServes: 1,
			Drains: 1,
		})
	})
}

func TestServeProbesBeforeLoad(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)
	svc := NewService(core.ApproachMXOnly, ServiceConfig{})
	n := netsim.New()
	const addr = "203.0.113.12:80"
	startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)

	var ready ReadyResponse
	c.get("GET", "/readyz", 503, &ready)
	if ready.Ready || ready.State != "loading" {
		t.Errorf("readyz before load = %+v, want loading", ready)
	}
	var health HealthResponse
	c.get("GET", "/healthz", 200, &health)
	if health.State != "loading" || health.Epoch != 0 {
		t.Errorf("healthz before load = %+v, want loading epoch 0", health)
	}
	c.get("GET", "/v1/domain?name=one.example", 503, nil)
	c.get("GET", "/v1/share", 503, nil)
	c.get("GET", "/v1/concentration", 503, nil)

	// A failed initial load keeps the service loading and retryable.
	if _, err := svc.Load(filepath.Join(t.TempDir(), "gone.jsonl")); err == nil {
		t.Fatal("load of a missing snapshot succeeded")
	}
	c.get("GET", "/readyz", 503, &ready)
	if ready.Ready {
		t.Errorf("ready after failed load: %+v", ready)
	}
	meta, err := svc.Load(oldPath)
	if err != nil {
		t.Fatalf("retried load: %v", err)
	}
	if meta.Epoch != 1 || meta.Domains != 4 {
		t.Errorf("meta = %+v, want epoch 1 with 4 domains", meta)
	}
	c.get("GET", "/readyz", 200, &ready)
	if !ready.Ready {
		t.Errorf("readyz after load = %+v, want ready", ready)
	}

	// A drain that begins while the initial load runs (a signal during
	// mxserve's startup) outlasts the load: the service comes up
	// draining, never ready.
	drained := NewService(core.ApproachMXOnly, ServiceConfig{})
	drained.BeginDrain()
	if _, err := drained.Load(oldPath); err != nil {
		t.Fatal(err)
	}
	if st, ok := drained.State(), drained.Ready(); st != StateDraining || ok {
		t.Errorf("state %v ready %v after a load during drain, want draining and not ready", st, ok)
	}
}

// TestServeShareTop: a store holds every company's share; /v1/share
// lists defaultTop of them without a top parameter and up to top with
// one.
func TestServeShareTop(t *testing.T) {
	svc := NewService(core.ApproachMXOnly, ServiceConfig{})
	store := &Store{meta: SnapshotMeta{Date: "2021-01", Corpus: "test", Epoch: 1, Domains: 20}}
	for i := 0; i < 20; i++ {
		share := float64(20 - i)
		store.shares = append(store.shares, ShareEntry{Company: fmt.Sprintf("prov-%02d.net", i), Domains: share, Percent: share})
	}
	svc.cur.Store(store)
	n := netsim.New()
	const addr = "203.0.113.25:80"
	startTestServer(t, n, addr, Config{Service: svc})
	c := dialClient(t, n, addr)
	for _, tc := range []struct {
		target string
		want   int
	}{
		{"/v1/share", 15},
		{"/v1/share?top=50", 20},
		{"/v1/share?top=3", 3},
	} {
		var share ShareResponse
		c.get("GET", tc.target, 200, &share)
		if !reflect.DeepEqual(share.Top, store.shares[:tc.want]) {
			t.Errorf("%s = %+v, want the first %d shares", tc.target, share.Top, tc.want)
		}
	}
}

func TestServeAdmissionControl(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)

	t.Run("conn cap", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.13:80"
		srv := startTestServer(t, n, addr, Config{Service: svc, MaxConns: 1})
		c1 := dialClient(t, n, addr)
		c1.get("GET", "/healthz", 200, nil)
		// The second connection is shed at the door.
		c2 := dialClient(t, n, addr)
		status, hdr, _ := c2.readResponse()
		if status != 429 || hdr.Get("Retry-After") != "1" || hdr.Get("Connection") != "close" {
			t.Errorf("over-cap conn got %d %v, want 429 + Retry-After", status, hdr)
		}
		if st := srv.Stats(); st.Rejected != 1 || st.Accepted != 1 {
			t.Errorf("stats = %+v, want Accepted 1 Rejected 1", st)
		}
	})
}

// TestServeSlowSwapAnswered: no request deadline stands between a
// handler and its client. A swap held at the gate well past a lookup's
// time is answered with its own churn report, and the epoch it reports
// is the one serving afterwards.
func TestServeSlowSwapAnswered(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	n := netsim.New()
	const addr = "203.0.113.23:80"
	srv := startTestServer(t, n, addr, Config{
		Service: svc, AllowSwap: true,
		Gate: func(path string) {
			if path == "/v1/swap" {
				time.Sleep(100 * time.Millisecond)
			}
		},
	})
	c := dialClient(t, n, addr)
	var rep ChurnReport
	c.get("POST", "/v1/swap?path="+newPath, 200, &rep)
	if rep.FromEpoch != 1 || rep.ToEpoch != 2 || rep.Diff.Changed != 1 {
		t.Errorf("churn report = %+v, want epoch 1->2 with one changed domain", rep)
	}
	var health HealthResponse
	c.get("GET", "/healthz", 200, &health)
	if health.Epoch != 2 {
		t.Errorf("healthz after swap = %+v, want epoch 2", health)
	}
	awaitServerStats(t, srv, ServerStats{Accepted: 1, Requests: 2, Responses: 2})
}

// TestServeHardStopCancelsHandlers: a handler waiting on its context is
// released by the hard stop, so it cannot hold one. Close returns at
// once; Shutdown returns its context's error once that context ends,
// counted as a drain that fell back to a hard close. Either way the
// handler's answer is booked and nothing is lost.
func TestServeHardStopCancelsHandlers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stop    func(*Server) error
		wantErr error
		want    ServerStats
	}{
		{"Close", (*Server).Close, nil,
			ServerStats{Accepted: 1, Requests: 1, Responses: 1}},
		{"Shutdown", func(s *Server) error {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			return s.Shutdown(ctx)
		}, context.DeadlineExceeded,
			ServerStats{Accepted: 1, Requests: 1, Responses: 1, DrainTimeouts: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New()
			const addr = "203.0.113.24:80"
			entered := make(chan struct{})
			srv := startTestServer(t, n, addr, Config{Handler: func(ctx context.Context, req *Request) Response {
				close(entered)
				<-ctx.Done()
				return ErrorResponse(503, "stopping")
			}})
			c := dialClient(t, n, addr)
			c.send("GET", "/v1/domain?name=one.example")
			<-entered
			begin := time.Now()
			if err := tc.stop(srv); err != tc.wantErr {
				t.Fatalf("%s = %v, want %v", tc.name, err, tc.wantErr)
			}
			if took := time.Since(begin); took > time.Second {
				t.Errorf("%s took %v with a handler waiting on its context, want under 1s", tc.name, took)
			}
			if st := srv.Stats(); st != tc.want {
				t.Errorf("stats = %+v, want %+v", st, tc.want)
			}
		})
	}
}

func TestServeConnHygiene(t *testing.T) {
	oldPath, _ := writeServeWorlds(t)

	t.Run("slowloris", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.18:80"
		srv := startTestServer(t, n, addr, Config{Service: svc, ReadTimeout: 30 * time.Millisecond})
		c := dialClient(t, n, addr)
		// Half a request line, then silence: the read deadline reaps it.
		if _, err := c.Conn.Write([]byte("GET /v1/dom")); err != nil {
			t.Fatal(err)
		}
		c.Conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.R.ReadByte(); err == nil {
			t.Fatal("slowloris connection was answered")
		}
		awaitServerStats(t, srv, ServerStats{Accepted: 1, ReadTimeouts: 1})
	})

	t.Run("malformed", func(t *testing.T) {
		svc := servingService(t, oldPath)
		n := netsim.New()
		const addr = "203.0.113.19:80"
		srv := startTestServer(t, n, addr, Config{Service: svc})
		c := dialClient(t, n, addr)
		if _, err := c.Conn.Write([]byte("NOT A REQUEST\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		status, hdr, _ := c.readResponse()
		if status != 400 || hdr.Get("Connection") != "close" {
			t.Errorf("malformed request got %d %v, want 400 close", status, hdr)
		}
		awaitServerStats(t, srv, ServerStats{
			Accepted: 1, Requests: 1, Responses: 1, BadRequests: 1,
		})
	})

	// A keep-alive client that aborts between requests (the balancer
	// severing an attempt past its deadline with the reply unread)
	// reaches the server as ECONNRESET on its next read: a disconnect,
	// not a bad request.
	// Only a real socket delivers a reset, so this one runs on loopback.
	t.Run("peer reset", func(t *testing.T) {
		svc := servingService(t, oldPath)
		srv, err := NewServer(Config{Service: svc})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("no loopback TCP: %v", err)
		}
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(ln) }()
		t.Cleanup(func() {
			srv.Close()
			if err := <-errc; err != nil {
				t.Errorf("serve loop: %v", err)
			}
		})
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		// The reply is written and left unread; linger 0 turns the
		// close into a RST.
		answered := ServerStats{Accepted: 1, Requests: 1, Responses: 1}
		awaitServerStats(t, srv, answered)
		conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, _, open := srv.core.Open(); open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("server never noticed the reset")
			}
			time.Sleep(time.Millisecond)
		}
		if st := srv.Stats(); st != answered || st.Lost() != 0 {
			t.Fatalf("stats after reset = %+v, want %+v", st, answered)
		}
	})
}

// failingReader yields err once its data is spent.
type failingReader struct {
	data string
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadRequestConnectionEnd pins how a connection ending is
// classified: before any byte of a request the transport's error comes
// back as is (a disconnect), after the first byte it is a malformed
// request, and a timeout is a timeout wherever it lands.
func TestReadRequestConnectionEnd(t *testing.T) {
	reset := &net.OpError{Op: "read", Err: syscall.ECONNRESET}
	timeout := &net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}
	for _, tc := range []struct {
		name, sent string
		end, want  error
	}{
		{"eof between requests", "", io.EOF, io.EOF},
		{"reset between requests", "", reset, reset},
		{"eof mid line", "GET /v1/dom", io.EOF, errMalformed},
		{"reset mid line", "GET /v1/dom", reset, errMalformed},
		{"reset inside headers", "GET / HTTP/1.1\r\n", reset, errMalformed},
		{"reset mid header", "GET / HTTP/1.1\r\nHost: te", reset, errMalformed},
		{"timeout mid line", "GET /v1/dom", timeout, timeout},
		{"timeout inside headers", "GET / HTTP/1.1\r\n", timeout, timeout},
	} {
		_, err := readRequest(bufio.NewReader(&failingReader{data: tc.sent, err: tc.end}))
		if err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestServeSwapEquivalence proves the serving store built through the
// incremental swap path answers identically to one built by a fresh
// full load of the same snapshot.
func TestServeSwapEquivalence(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	swapped := servingService(t, oldPath)
	if _, err := swapped.Swap(context.Background(), newPath); err != nil {
		t.Fatal(err)
	}
	fresh := servingService(t, newPath)

	ss := swapped.cur.Load()
	fs := fresh.cur.Load()
	if len(ss.domains) != len(fs.domains) {
		t.Fatalf("store sizes differ: %d vs %d", len(ss.domains), len(fs.domains))
	}
	for name := range fs.domains {
		got, ok := ss.lookup(name)
		want, _ := fs.lookup(name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("domain %s: swapped %+v, fresh %+v", name, got, want)
		}
	}
	if !reflect.DeepEqual(ss.shares, fs.shares) {
		t.Errorf("shares differ: %+v vs %+v", ss.shares, fs.shares)
	}
	if ss.conc != fs.conc {
		t.Errorf("concentration differs: %+v vs %+v", ss.conc, fs.conc)
	}
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := mustJSON(ss.res), mustJSON(fs.res); a != b {
		t.Errorf("results differ:\nswapped: %s\nfresh:   %s", a, b)
	}
}

// TestServeSwapFallbackFullRecompute pins the degraded path: when the
// prior snapshot file has vanished, the swap silently recomputes from
// scratch and says so.
func TestServeSwapFallbackFullRecompute(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	svc := servingService(t, oldPath)
	if err := os.Remove(oldPath); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Swap(context.Background(), newPath)
	if err != nil {
		t.Fatalf("swap after prior vanished: %v", err)
	}
	if !rep.FullRecompute || rep.Delta.Reused != 0 || rep.Delta.Reinferred != 4 {
		t.Errorf("report = %+v, want full recompute of 4 domains", rep)
	}
	if svc.Stale() {
		t.Error("service stale after successful fallback swap")
	}
}

// TestServeSwapRewrittenInPlace pins a swap to the served path after a
// new snapshot was renamed over it (mxscan -out to the served path, then
// /v1/swap to that path): the prior store's file is gone from the path,
// so the swap recomputes in full and answers as a fresh load of the new
// file does, instead of diffing the new file against itself.
func TestServeSwapRewrittenInPlace(t *testing.T) {
	oldPath, newPath := writeServeWorlds(t)
	swapped := servingService(t, oldPath)
	if err := os.Rename(newPath, oldPath); err != nil {
		t.Fatal(err)
	}
	rep, err := swapped.Swap(context.Background(), oldPath)
	if err != nil {
		t.Fatalf("swap to the rewritten path: %v", err)
	}
	if !rep.FullRecompute || rep.Delta.Reused != 0 || rep.Delta.Reinferred != 4 {
		t.Errorf("report = %+v, want full recompute of 4 domains", rep)
	}
	fresh := servingService(t, oldPath)
	ss := swapped.cur.Load()
	fs := fresh.cur.Load()
	if !reflect.DeepEqual(ss.domains, fs.domains) {
		t.Errorf("swapped store %+v, fresh load %+v", ss.domains, fs.domains)
	}
	if got := ss.domains["two.example"].ans.primary; got != "prov-b.net" {
		t.Errorf("two.example credited to %q after the swap, want prov-b.net", got)
	}
}
