// Command mxlb fronts a fleet of mxserve replicas with the
// high-availability balancer: health-checked routing, passive outlier
// ejection with jittered re-probing, sequential fail-over to the next
// replica inside one retry budget, and (behind -allow-rollout) rolling
// zero-loss snapshot rollouts through each replica's /v1/swap.
//
// Usage:
//
//	mxlb [-listen :8081] [-allow-rollout] host:port [host:port ...]
//
// Each positional argument is one replica's address. The front listener
// comes up immediately and the first probe round runs before traffic is
// forwarded, so /readyz answers honestly from the start. SIGINT/SIGTERM
// drains gracefully — every accepted query is answered or cleanly shed
// before the process exits — and the final balancer and server counters
// are printed so operators can verify zero loss.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"time"

	"mxmap/internal/ha"
	"mxmap/internal/serve"
	"mxmap/internal/sigctx"
)

func main() {
	var (
		listen        = flag.String("listen", ":8081", "address to serve on")
		probeInterval = flag.Duration("probe-interval", 0, "healthy-replica probe period")
		probeTimeout  = flag.Duration("probe-timeout", 0, "one probe round-trip bound")
		ejectAfter    = flag.Int("eject-after", 0, "consecutive failures before ejection (negative disables)")
		retryBudget   = flag.Duration("retry-budget", 0, "per-request budget, split evenly over up to 3 attempts")
		allowRollout  = flag.Bool("allow-rollout", false, "enable POST /v1/rollout (operator-only listeners)")
		maxConns      = flag.Int("max-conns", 0, "connection cap (0 = default, negative = unlimited)")
		readTimeout   = flag.Duration("read-timeout", 0, "slowloris read deadline")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mxlb [flags] replica-host:port [replica-host:port ...]")
		os.Exit(2)
	}

	var reps []ha.ReplicaConfig
	dialer := &net.Dialer{}
	for i, addr := range flag.Args() {
		if _, _, err := net.SplitHostPort(addr); err != nil {
			log.Fatalf("mxlb: replica %q: %v", addr, err)
		}
		reps = append(reps, ha.ReplicaConfig{
			Name: fmt.Sprintf("r%d", i),
			Addr: addr,
			Dial: func(ctx context.Context) (net.Conn, error) {
				return dialer.DialContext(ctx, "tcp", addr)
			},
		})
	}

	b, err := ha.New(ha.Config{
		Replicas:       reps,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		EjectThreshold: *ejectAfter,
		RetryBudget:    *retryBudget,
		AllowRollout:   *allowRollout,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Handler:     b.Handle,
		MaxConns:    *maxConns,
		ReadTimeout: *readTimeout,
		Clock:       time.Now, // feeds the latency histograms /v1/stats reports
	})
	if err != nil {
		log.Fatal(err)
	}
	b.AttachFront(srv)

	// Listen before the first probe round: /healthz and /readyz answer
	// from the start (readyz says how much of the fleet is live), and
	// orchestrators never see connection-refused.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mxlb: listening on %s, fronting %d replicas", ln.Addr(), len(reps))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := sigctx.WithInterrupt(context.Background())
	defer stop()
	b.Pool().ProbeOnce(ctx)
	go b.Run(ctx) // periodic probing + ejected re-probe schedule

	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil {
			log.Fatalf("mxlb: serve: %v", err)
		}
		return
	}

	log.Printf("mxlb: draining (budget %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("mxlb: drain: %v", err)
	}
	b.Close() // the front is drained: nothing forwards any more
	st := srv.Stats()
	out, _ := json.Marshal(struct {
		Server   serve.ServerStats `json:"server"`
		Balancer ha.BalancerStats  `json:"balancer"`
		Fleet    ha.FleetHealth    `json:"fleet"`
	}{st, b.Stats(), b.Health()})
	fmt.Println(string(out))
	if lost := st.Lost(); lost != 0 {
		log.Fatalf("mxlb: %d queries lost in drain", lost)
	}
}
