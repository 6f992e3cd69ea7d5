package scan

import (
	"context"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/dns"
	"mxmap/internal/world"
)

// smallSession generates a small world and brings up its substrate once.
var (
	cachedWorld   *world.World
	cachedSession *WorldSession
)

func session(t *testing.T) *WorldSession {
	t.Helper()
	if cachedSession == nil {
		w, err := world.Generate(world.Config{Seed: 11, Scale: 0.002, TailProviders: 15, SelfISPs: 5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWorldSession(w)
		if err != nil {
			t.Fatal(err)
		}
		cachedWorld, cachedSession = w, s
	}
	return cachedSession
}

// googleOf returns the world's google.com provider.
func googleOf(t *testing.T, w *world.World) *world.Provider {
	t.Helper()
	for _, p := range w.Providers {
		if p.ID == "google.com" {
			return p
		}
	}
	t.Fatal("world has no google.com provider")
	return nil
}

func TestSnapshotEndToEnd(t *testing.T) {
	s := session(t)
	snap, err := s.Snapshot(context.Background(), world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	w := cachedWorld
	corpus := w.Corpus(world.CorpusAlexa)
	if len(snap.Domains) != len(corpus.Domains) {
		t.Fatalf("domains = %d, want %d", len(snap.Domains), len(corpus.Domains))
	}
	if len(snap.IPs) == 0 {
		t.Fatal("no IPs scanned")
	}
	// Every generated MX record must be visible in the snapshot.
	byName := make(map[string]*dataset.DomainRecord)
	for i := range snap.Domains {
		byName[snap.Domains[i].Domain] = &snap.Domains[i]
	}
	dateIdx := corpus.DateIndex("2021-06")
	for _, d := range corpus.Domains[:50] {
		st := d.StintAt(dateIdx)
		recs := w.MXRecords(d, st)
		got := byName[d.Name]
		if got == nil {
			t.Fatalf("%s missing from snapshot", d.Name)
		}
		if len(got.MX) != len(recs) {
			t.Errorf("%s: %d MX observed, %d generated", d.Name, len(got.MX), len(recs))
		}
	}
}

func TestSnapshotScanDetail(t *testing.T) {
	s := session(t)
	snap, err := s.Snapshot(context.Background(), world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	w := cachedWorld
	// Google's mail servers must show valid certs and matching banners.
	google := googleOf(t, w)
	for _, ip := range google.MailIPs {
		info, ok := snap.IP(ip)
		if !ok {
			continue // not referenced by any sampled domain this date
		}
		if !info.HasCensys || !info.Port25Open || info.Scan == nil {
			t.Fatalf("google IP %s: %+v", ip, info)
		}
		if !info.Scan.CertValid {
			t.Errorf("google IP %s: cert not valid", ip)
		}
		if info.Scan.EHLOHost == "" {
			t.Errorf("google IP %s: no EHLO host", ip)
		}
		if info.ASN != google.ASN {
			t.Errorf("google IP %s: ASN %v, want %v", ip, info.ASN, google.ASN)
		}
	}
}

func TestSnapshotRespectsCensysCoverage(t *testing.T) {
	s := session(t)
	snap, err := s.Snapshot(context.Background(), world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	w := cachedWorld
	for key, info := range snap.IPs {
		h, ok := w.Host(info.Addr)
		if !ok {
			continue
		}
		covered := h.CensysMode.CoveredAt(w.Corpus(world.CorpusAlexa).DateIndex("2021-06"))
		if covered != info.HasCensys {
			t.Errorf("IP %s: coverage %v, snapshot says %v", key, covered, info.HasCensys)
		}
		if h.SMTP == nil && info.Port25Open {
			t.Errorf("IP %s: port open but host has no SMTP", key)
		}
	}
}

// TestInferenceAccuracyOnWorld runs the full loop — generate, serve,
// measure, infer — and checks the priority approach against ground
// truth, mirroring §3.3's evaluation protocol (domains with SMTP servers
// only).
func TestInferenceAccuracyOnWorld(t *testing.T) {
	s := session(t)
	snap, err := s.Snapshot(context.Background(), world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	w := cachedWorld
	corpus := w.Corpus(world.CorpusAlexa)
	dateIdx := corpus.DateIndex("2021-06")

	profiles := worldProfiles(w)
	results := map[core.Approach]*core.Result{}
	for _, ap := range core.Approaches() {
		results[ap] = core.Infer(snap, ap, core.Config{Profiles: profiles})
	}

	accuracy := func(res *core.Result) (correct, total int) {
		att := make(map[string]core.DomainAttribution)
		for _, a := range res.Domains {
			att[a.Domain] = a
		}
		for _, d := range corpus.Domains {
			truth := w.TruthCompany(d, dateIdx)
			if truth == "" {
				continue // no SMTP: excluded as in the paper's sampling
			}
			a, ok := att[d.Name]
			if !ok || !a.HasSMTP {
				continue
			}
			total++
			inferred := a.Primary()
			var inferredCompany string
			if inferred == d.Name {
				inferredCompany = d.Name // self-hosted
			} else {
				inferredCompany = w.Directory.CompanyName(inferred)
			}
			if inferredCompany == truth {
				correct++
			}
		}
		return correct, total
	}

	accs := map[core.Approach]float64{}
	for ap, res := range results {
		c, n := accuracy(res)
		if n == 0 {
			t.Fatal("no evaluable domains")
		}
		accs[ap] = float64(c) / float64(n)
		t.Logf("%s: %d/%d = %.1f%%", ap, c, n, 100*float64(c)/float64(n))
	}
	// The paper's headline: priority-based is the most accurate, with at
	// least ~97%; MX-only is the worst.
	if accs[core.ApproachPriority] < 0.93 {
		t.Errorf("priority accuracy = %.1f%%, want >= 93%%", 100*accs[core.ApproachPriority])
	}
	if accs[core.ApproachPriority] < accs[core.ApproachMXOnly] {
		t.Errorf("priority (%.2f) not better than MX-only (%.2f)", accs[core.ApproachPriority], accs[core.ApproachMXOnly])
	}
	if accs[core.ApproachMXOnly] > 0.95 {
		t.Errorf("MX-only accuracy suspiciously high: %.2f (world lacks hidden-provider cases?)", accs[core.ApproachMXOnly])
	}
}

// worldProfiles converts the world's provider roster into step-4
// profiles, as cmd/experiments does.
func worldProfiles(w *world.World) []core.ProviderProfile {
	var out []core.ProviderProfile
	for _, c := range w.Directory.Companies() {
		if len(c.ProviderIDs) == 0 {
			continue
		}
		p := core.ProviderProfile{ID: c.ProviderIDs[0], ASNs: c.ASNs}
		p.VPSPatterns = []string{"vps*." + c.ProviderIDs[0], "s*-*-*." + c.ProviderIDs[0]}
		p.DedicatedPatterns = []string{"mailstore*." + c.ProviderIDs[0], "mx*." + c.ProviderIDs[0], "shared*.shared." + c.ProviderIDs[0]}
		out = append(out, p)
	}
	return out
}

func TestCollectHandlesEmptyDomainList(t *testing.T) {
	s := session(t)
	catalog, err := cachedWorld.CatalogAt("2021-06")
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{Resolver: dns.CatalogResolver{Catalog: catalog}, Dialer: s.Net}
	snap, err := col.Collect(context.Background(), "x", "2021-06", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Domains) != 0 || len(snap.IPs) != 0 {
		t.Errorf("empty collect: %d domains, %d IPs", len(snap.Domains), len(snap.IPs))
	}
}

func TestCollectUnresolvableDomain(t *testing.T) {
	s := session(t)
	catalog, err := cachedWorld.CatalogAt("2021-06")
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{Resolver: dns.CatalogResolver{Catalog: catalog}, Dialer: s.Net}
	snap, err := col.Collect(context.Background(), "x", "2021-06", []Target{{Name: "does-not-exist.example"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Domains) != 1 || len(snap.Domains[0].MX) != 0 {
		t.Errorf("unresolvable domain record: %+v", snap.Domains)
	}
}
