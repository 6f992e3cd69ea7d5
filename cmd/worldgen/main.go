// Command worldgen generates a synthetic Internet and writes its
// inventory to disk: the provider roster, the prefix-to-AS table in CAIDA
// prefix2as format, per-corpus domain listings with ground truth, and
// the provider DNS zones in zone-file format.
//
// With -serve it instead binds a real authoritative DNS server (UDP and
// TCP on the same port) for the generated zones, with connection
// admission control, and drains gracefully on SIGINT/SIGTERM, printing
// the serving counters on exit.
//
// Usage:
//
//	worldgen [-scale 0.05] [-seed 1] -out worlddir/
//	worldgen [-scale 0.05] [-seed 1] -serve 127.0.0.1:5300 [-max-tcp-conns 256]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mxmap/internal/dns"
	"mxmap/internal/report"
	"mxmap/internal/world"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.05, "fraction of the paper's corpus sizes")
		seed        = flag.Uint64("seed", 1, "generation seed")
		outDir      = flag.String("out", "world", "output directory")
		serveAddr   = flag.String("serve", "", "serve the generated zones on this host:port instead of writing files")
		maxTCPConns = flag.Int("max-tcp-conns", dns.DefaultMaxTCPConns, "concurrent DNS-over-TCP connection cap (-1 unlimited)")
	)
	flag.Parse()

	w, err := world.Generate(world.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	if *serveAddr != "" {
		if err := serveWorld(w, *serveAddr, *maxTCPConns); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	// Provider roster.
	t := report.NewTable("Provider roster", "Company", "Kind", "Country", "Primary ID", "ASN", "Mail IPs", "Shared IPs")
	for _, p := range w.Providers {
		t.AddRow(p.Company.Name, p.Company.Kind.String(), p.Company.Country,
			p.ID, p.ASN.String(), fmt.Sprint(len(p.MailIPs)), fmt.Sprint(len(p.SharedIPs)))
	}
	mustWrite(*outDir, "providers.txt", func(f *os.File) error { return t.WriteText(f) })

	// Routing table.
	mustWrite(*outDir, "prefix2as.txt", func(f *os.File) error {
		_, err := w.Prefixes.WriteTo(f)
		return err
	})

	// Per-corpus domain listings with ground truth at the last snapshot.
	for _, name := range []string{world.CorpusAlexa, world.CorpusCOM, world.CorpusGOV} {
		c := w.Corpus(name)
		last := len(c.Dates) - 1
		dt := report.NewTable("Corpus "+name, "Domain", "Rank", "Country", "Mode", "Truth")
		for _, d := range c.Domains {
			st := d.StintAt(last)
			dt.AddRow(d.Name, fmt.Sprint(d.Rank), d.Country, st.Mode.String(), w.TruthCompany(d, last))
		}
		mustWrite(*outDir, "corpus_"+name+".tsv", func(f *os.File) error { return dt.WriteCSV(f) })
	}

	// Provider zones at the most recent date, in parseable zone format.
	catalog, err := w.CatalogAt(world.AllDates[len(world.AllDates)-1])
	if err != nil {
		log.Fatal(err)
	}
	mustWrite(*outDir, "zones.txt", func(f *os.File) error {
		for _, z := range catalog.Zones() {
			if _, err := z.WriteTo(f); err != nil {
				return err
			}
			fmt.Fprintln(f)
		}
		return nil
	})

	fmt.Printf("world written to %s: %d providers, %d hosts, %d+%d+%d domains\n",
		*outDir, len(w.Providers), len(w.Hosts),
		len(w.Corpus(world.CorpusAlexa).Domains),
		len(w.Corpus(world.CorpusCOM).Domains),
		len(w.Corpus(world.CorpusGOV).Domains))
}

// serveWorld binds the most recent snapshot's catalog on real sockets
// and serves until SIGINT/SIGTERM, then drains gracefully.
func serveWorld(w *world.World, addr string, maxTCPConns int) error {
	catalog, err := w.CatalogAt(world.AllDates[len(world.AllDates)-1])
	if err != nil {
		return err
	}
	srv, err := dns.NewServer(dns.ServerConfig{Catalog: catalog, MaxTCPConns: maxTCPConns})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	// The background context keeps ListenAndServe from hard-closing on
	// the signal; the drain below owns shutdown.
	go func() { errc <- srv.ListenAndServe(context.Background(), addr, ready) }()
	select {
	case bound := <-ready:
		fmt.Printf("serving %d zones on %s (udp+tcp); ^C to drain\n", len(catalog.Zones()), bound)
	case err := <-errc:
		return err
	}

	<-ctx.Done()
	stop()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
	}
	if err := <-errc; err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	st := srv.Stats()
	fmt.Printf("udp: %d queries, %d responses\n", st.UDPQueries, st.UDPResponses)
	fmt.Printf("tcp: %d accepted, %d rejected, %d queries, %d responses\n",
		st.TCPAccepted, st.TCPRejected, st.TCPQueries, st.TCPResponses)
	fmt.Printf("drains: %d clean, %d timed out, %d queries lost\n",
		st.Drains, st.DrainTimeouts, st.Lost())
	return nil
}

func mustWrite(dir, name string, write func(*os.File) error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
}
