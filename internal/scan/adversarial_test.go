package scan

// Seeded adversarial soak: one world carries every hostile scenario
// family at once — dangling MX targets (lapsed and re-parked zones),
// stale-glue hijack clusters, lame delegations, look-alike abuse
// clusters and BLBFO failover topologies — and the test asserts the
// collection health report reproduces the injected scenario matrix
// EXACTLY, class by class. Any drift in the generator, the resolver's
// registry view, or the collector's typed degradation shows up here as
// a counter mismatch, not a silent misattribution downstream.

import (
	"context"
	"reflect"
	"testing"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/world"
)

// advWorldConfig pins the soak's world; the exact counters below belong
// to this seed and must be regenerated together with it.
var advWorldConfig = world.Config{Seed: 7, Scale: 0.003, Adversarial: 0.25}

func adversarialSoakSnapshot(t *testing.T) (*world.World, *dataset.Snapshot) {
	t.Helper()
	w, err := world.Generate(advWorldConfig)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	snap, err := collectAt(context.Background(), sess, world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	return w, snap
}

func TestAdversarialSoakHealth(t *testing.T) {
	_, snap := adversarialSoakSnapshot(t)
	h := snap.Health

	// 280 domains: 17 hijacked (stale delegation detected during the MX
	// walk), 9 lame delegations, the rest answering normally.
	wantDomains := map[dataset.FailureClass]int{
		dataset.FailHijackSuspect:  17,
		dataset.FailLameDelegation: 9,
		dataset.FailOK:             254,
	}
	if !reflect.DeepEqual(h.Domains, wantDomains) {
		t.Errorf("domain classes = %v, want %v", h.Domains, wantDomains)
	}
	// 9 dangling-nx domains point at exchanges in lapsed zones.
	wantExchanges := map[dataset.FailureClass]int{
		dataset.FailDanglingMX: 9,
		dataset.FailOK:         189,
	}
	if !reflect.DeepEqual(h.Exchanges, wantExchanges) {
		t.Errorf("exchange classes = %v, want %v", h.Exchanges, wantExchanges)
	}
	// Parked sinkholes never listen (conn-refused on the parking ASN's
	// addresses, the two distinct sinkholes classified parked-ip by the
	// parking feed); the rest of the scan matrix is the honest world's.
	wantIPs := map[dataset.FailureClass]int{
		dataset.FailConnRefused: 10,
		dataset.FailNotCovered:  3,
		dataset.FailOK:          164,
		dataset.FailParkedIP:    2,
	}
	if !reflect.DeepEqual(h.IPs, wantIPs) {
		t.Errorf("IP classes = %v, want %v", h.IPs, wantIPs)
	}
}

// TestAdversarialSoakOracleAlignment cross-checks the snapshot's typed
// degradation against the world's per-domain oracle: every lame-family
// domain carries the lame mark, every hijack-family domain the
// stale-glue mark, and no other domain picks up either. The collector
// sets the marks exactly when it classes the lookup lame-delegation or
// hijack-suspect, so TestAdversarialSoakHealth's 9 and 17 count them.
func TestAdversarialSoakOracleAlignment(t *testing.T) {
	w, snap := adversarialSoakSnapshot(t)
	family := make(map[string]world.ScenarioFamily)
	for _, e := range w.Oracle(world.CorpusAlexa) {
		family[e.Domain] = e.Family
	}
	for i := range snap.Domains {
		rec := &snap.Domains[i]
		fam, ok := family[rec.Domain]
		if !ok {
			t.Fatalf("%s not in oracle", rec.Domain)
		}
		switch rec.Delegation {
		case dataset.DelegationLame:
			if fam != world.FamilyLame {
				t.Errorf("%s marked lame but family is %s", rec.Domain, fam)
			}
		case dataset.DelegationStaleGlue:
			if fam != world.FamilyHijack {
				t.Errorf("%s marked stale-glue but family is %s", rec.Domain, fam)
			}
		default:
			if fam == world.FamilyLame || fam == world.FamilyHijack {
				t.Errorf("%s family %s escaped typed degradation (delegation %q)", rec.Domain, fam, rec.Delegation)
			}
		}
	}
}

// TestHonestWorldHasNoAdversarialClasses guards the default path: with
// Adversarial unset the generator must not leak any hostile machinery
// into the snapshot — no parked, lame or hijack classes. (dangling-mx
// is excluded: honest worlds model the paper's Table 4 NXDOMAIN-MX
// misconfiguration, which classifies dangling too.)
func TestHonestWorldHasNoAdversarialClasses(t *testing.T) {
	w, err := world.Generate(world.Config{Seed: 7, Scale: 0.003})
	if err != nil {
		t.Fatal(err)
	}
	if w.HasAdversarial() {
		t.Fatal("honest world materialized an adversary")
	}
	sess, err := NewWorldSession(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	snap, err := collectAt(context.Background(), sess, world.CorpusAlexa, "2021-06")
	if err != nil {
		t.Fatal(err)
	}
	h := snap.Health
	for _, class := range []dataset.FailureClass{
		dataset.FailParkedIP, dataset.FailLameDelegation, dataset.FailHijackSuspect,
	} {
		for _, counts := range []map[dataset.FailureClass]int{h.Domains, h.Exchanges, h.IPs} {
			if n := counts[class]; n != 0 {
				t.Errorf("honest world reports %d %s observations", n, class)
			}
		}
	}
}

// TestFlatAdversarialPipeline runs the hostile flat band through the
// fleet path — fleet collection, shard merge, streaming
// inference — and pins the typed degradation the fleet's Health counts
// and the trust verdicts at this seed. The counters are exact: any
// change to the band math, the family slices or the collector's
// classification moves them.
func TestFlatAdversarialPipeline(t *testing.T) {
	fw, err := world.NewFlatWorld(world.FlatConfig{Seed: 7, NumDomains: 2000, AdversarialPercent: 12})
	if err != nil {
		t.Fatal(err)
	}
	out, stats := flatFleetCollect(t, fw, t.TempDir(), 2, 0)
	if stats.Domains != fw.NumDomains() {
		t.Fatalf("collected %d domains, want %d", stats.Domains, fw.NumDomains())
	}
	h := stats.Health
	wantDomains := map[dataset.FailureClass]int{
		dataset.FailOK:             1923,
		dataset.FailLameDelegation: 34,
		dataset.FailHijackSuspect:  43,
	}
	if !reflect.DeepEqual(h.Domains, wantDomains) {
		t.Errorf("flat domain classes = %v, want %v", h.Domains, wantDomains)
	}
	// The hostile exchanges are the shared adversary's: four gone zones,
	// two parked zones, two hijack clusters of two relays, two bulk
	// exchanges and the backup relay pair.
	wantExchanges := map[dataset.FailureClass]int{
		dataset.FailOK:         141,
		dataset.FailDanglingMX: 4,
	}
	if !reflect.DeepEqual(h.Exchanges, wantExchanges) {
		t.Errorf("flat exchange classes = %v, want %v", h.Exchanges, wantExchanges)
	}
	wantIPs := map[dataset.FailureClass]int{
		dataset.FailOK:       265,
		dataset.FailParkedIP: 2,
	}
	if !reflect.DeepEqual(h.IPs, wantIPs) {
		t.Errorf("flat IP classes = %v, want %v", h.IPs, wantIPs)
	}

	// Streaming inference with the trust pass: every hijack-family
	// domain is flagged, none credits the impersonated provider.
	st, err := dataset.OpenStream(out)
	if err != nil {
		t.Fatal(err)
	}
	hijacked, flagged := 0, 0
	res, err := core.InferStream(st, core.ApproachPriority, core.Config{
		Parallelism: 2, AbuseClusterMinDomains: 8,
	}, func(att core.DomainAttribution) {
		i, ok := fw.DomainIndex(att.Domain)
		if !ok {
			t.Errorf("unknown domain %s in stream", att.Domain)
			return
		}
		if fw.OracleAt(i).Family != world.FamilyHijack {
			return
		}
		hijacked++
		if att.Untrusted {
			flagged++
		}
		if att.Credits["google.com"] > 0 {
			t.Errorf("%s credits the forged provider", att.Domain)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDomains != fw.NumDomains() {
		t.Fatalf("inferred %d domains, want %d", res.NumDomains, fw.NumDomains())
	}
	if hijacked != 43 || flagged != hijacked {
		t.Errorf("hijack verdicts: %d/%d flagged, want 43/43", flagged, hijacked)
	}
}
