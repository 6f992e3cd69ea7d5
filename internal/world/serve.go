package world

import (
	"crypto/tls"
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"mxmap/internal/netsim"
	"mxmap/internal/smtp"
)

// serverConfig is the smtp.Server configuration that announces the
// identity: the one translation from what a host claims to what a
// server says, for listeners on the fabric and per-dial flat servers
// alike.
func (s *SMTPSpec) serverConfig() smtp.Config {
	cfg := smtp.Config{Hostname: s.Hostname, Banner: s.Banner, EHLOName: s.EHLOName}
	if s.Leaf != nil {
		cfg.TLS = &tls.Config{Certificates: []tls.Certificate{s.Leaf.TLSCertificate()}}
	}
	return cfg
}

// Fleet is a running set of SMTP servers backing the world's hosts on a
// simulated network fabric.
type Fleet struct {
	servers []*smtp.Server
	// serving counts the servers' serve goroutines. One that finds its
	// server closed closes its listener, so once Close has waited for
	// them every fabric address is unbound.
	serving sync.WaitGroup
}

// StartSMTP brings up an SMTP server for every host that runs one, bound
// to port 25 of its address on the fabric. Hosts without SMTP leave their
// port closed, which the fabric reports as connection refused. The caller
// owns the returned fleet and must Close it.
func (w *World) StartSMTP(n *netsim.Network) (*Fleet, error) {
	f := &Fleet{}
	// Deterministic bring-up order for reproducible logs.
	addrs := make([]netip.Addr, 0, len(w.Hosts))
	for a := range w.Hosts {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	for _, a := range addrs {
		h := w.Hosts[a]
		if h.SMTP == nil {
			continue
		}
		srv, err := smtp.NewServer(h.SMTP.serverConfig())
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("world: host %s: %w", a, err)
		}
		ln, err := n.Listen(netip.AddrPortFrom(a, 25))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("world: listen %s: %w", a, err)
		}
		f.serving.Add(1)
		go func() { defer f.serving.Done(); srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
	}
	return f, nil
}

// Close hard-stops every server in the fleet and unbinds its fabric
// addresses.
func (f *Fleet) Close() error {
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
	return nil
}

// NumServers reports the number of running SMTP servers.
func (f *Fleet) NumServers() int { return len(f.servers) }
