package scan

import (
	"fmt"
	"net/netip"

	"mxmap/internal/dns"
	"mxmap/internal/netsim"
	"mxmap/internal/world"
)

// WorldSession holds the running measurement substrate for one world: the
// SMTP fleet on its network fabric. Create one per study, collect many
// snapshots through it (a collector per corpus date, NewCollector, over
// Targets), then Close it.
type WorldSession struct {
	World *world.World
	Net   *netsim.Network

	fleet *world.Fleet
}

// NewWorldSession brings up the world's SMTP servers on a fresh fabric.
func NewWorldSession(w *world.World) (*WorldSession, error) {
	n := netsim.New()
	fleet, err := w.StartSMTP(n)
	if err != nil {
		return nil, err
	}
	return &WorldSession{World: w, Net: n, fleet: fleet}, nil
}

// Close stops the SMTP fleet.
func (s *WorldSession) Close() error { return s.fleet.Close() }

// NewCollector builds a collector measuring one corpus date over the
// session's fabric. Each call returns an independent collector, so it
// doubles as the per-worker constructor for CollectFleet.
func (s *WorldSession) NewCollector(corpusName, date string) (*Collector, error) {
	corpus := s.World.Corpus(corpusName)
	if corpus == nil {
		return nil, fmt.Errorf("scan: unknown corpus %q", corpusName)
	}
	dateIdx := corpus.DateIndex(date)
	if dateIdx < 0 {
		return nil, fmt.Errorf("scan: corpus %s has no snapshot %s", corpusName, date)
	}
	catalog, err := s.World.CatalogAt(date)
	if err != nil {
		return nil, err
	}
	var resolver dns.Resolver = dns.CatalogResolver{Catalog: catalog}
	if s.World.HasAdversarial() {
		// Adversarial worlds come with a registry-side view: lame
		// delegations, lapsed zones, stale glue and forged apex NS sets
		// become observable, not just servable.
		resolver = s.World.ScenarioResolverAt(catalog, date)
	}
	return &Collector{
		Resolver:   resolver,
		Dialer:     s.Net,
		Trust:      s.World.Trust,
		Prefixes:   s.World.Prefixes,
		ASRegistry: s.World.ASRegistry,
		Covered: func(addr netip.Addr) bool {
			h, ok := s.World.Host(addr)
			if !ok {
				// Unknown address (e.g. an unresolvable exchange's
				// stale glue): nothing to scan, but the service "covers"
				// it in the sense of having attempted it.
				return true
			}
			return h.CensysMode.CoveredAt(dateIdx)
		},
		Parked: s.World.ParkedAddr,
	}, nil
}

// Targets returns the corpus domain list as collection targets.
func (s *WorldSession) Targets(corpusName string) ([]Target, error) {
	corpus := s.World.Corpus(corpusName)
	if corpus == nil {
		return nil, fmt.Errorf("scan: unknown corpus %q", corpusName)
	}
	targets := make([]Target, len(corpus.Domains))
	for i, d := range corpus.Domains {
		targets[i] = Target{Name: d.Name, Rank: d.Rank}
	}
	return targets, nil
}
