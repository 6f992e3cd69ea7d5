// Command mxserve runs the online mail-provider query service over a
// measured snapshot (as written by mxscan): per-domain provider
// lookups, market-share and concentration summaries, and churn reports,
// all answered from an immutable in-memory epoch.
//
// Usage:
//
//	mxserve [-listen :8080] [-approach priority] [-allow-swap] snapshot.jsonl
//
// The listener comes up immediately; /healthz and /readyz report
// "loading" until the initial snapshot is built, so orchestrators can
// probe before the first epoch is ready. With -allow-swap, POST
// /v1/swap?path=... hot-swaps a newer snapshot with zero downtime:
// only the churned domains are re-inferred, in-flight queries drain
// from the old epoch, and a failed load leaves the service answering
// from the old epoch marked stale. SIGINT/SIGTERM drains gracefully —
// every accepted query is answered before the process exits — and the
// final serving counters are printed so operators can verify zero loss.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"mxmap/internal/analysis"
	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/serve"
	"mxmap/internal/sigctx"
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "address to serve on")
		approach     = flag.String("approach", "priority", "inference approach: mx, cert, banner or priority")
		top          = flag.Int("top", serve.DefaultTopShares, "providers precomputed for /v1/share")
		allowSwap    = flag.Bool("allow-swap", false, "enable POST /v1/swap (operator-only listeners)")
		maxConns     = flag.Int("max-conns", 0, "connection cap (0 = default, negative = unlimited)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent request cap (0 = default, negative = unlimited)")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue depth (0 = default, negative = unlimited)")
		queueWait    = flag.Duration("queue-wait", 0, "max wait for a request slot before shedding")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request execution deadline")
		readTimeout  = flag.Duration("read-timeout", 0, "slowloris read deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mxserve [flags] snapshot.jsonl")
		os.Exit(2)
	}
	snapshot := flag.Arg(0)

	ap, err := core.ParseApproach(*approach)
	if err != nil {
		log.Fatal(err)
	}
	dir := companies.Curated()
	svc := serve.NewService(ap, serve.ServiceConfig{
		Infer:     core.Config{Profiles: analysis.ProviderProfiles(dir)},
		Directory: dir,
		TopShares: *top,
	})
	srv, err := serve.NewServer(serve.Config{
		Service:        svc,
		MaxConns:       *maxConns,
		MaxInflight:    *maxInflight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		ReadTimeout:    *readTimeout,
		AllowSwap:      *allowSwap,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Listen before loading: probes answer "loading" while the first
	// epoch is built, instead of connection-refused.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mxserve: listening on %s (approach %s), loading %s", ln.Addr(), ap, snapshot)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	go func() {
		start := time.Now()
		meta, err := svc.Load(snapshot)
		if err != nil {
			log.Printf("mxserve: load %s: %v (still probing; service stays unready)", snapshot, err)
			return
		}
		log.Printf("mxserve: serving %s %s (%d domains, epoch %d) after %v",
			meta.Corpus, meta.Date, meta.Domains, meta.Epoch, time.Since(start).Round(time.Millisecond))
	}()

	ctx, stop := sigctx.WithInterrupt(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errc:
		if err != nil {
			log.Fatalf("mxserve: serve: %v", err)
		}
		return
	}

	log.Printf("mxserve: draining (budget %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("mxserve: drain: %v", err)
	}
	st := srv.Stats()
	out, _ := json.Marshal(serve.StatsResponse{Server: st, Service: svc.Stats()})
	fmt.Println(string(out))
	if lost := st.Lost(); lost != 0 {
		log.Fatalf("mxserve: %d queries lost in drain", lost)
	}
}
