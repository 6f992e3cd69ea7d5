package world

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mxmap/internal/dns"
)

func flatAdvWorld(t *testing.T, n int, pct float64) *FlatWorld {
	t.Helper()
	fw, err := NewFlatWorld(FlatConfig{Seed: 7, NumDomains: n, AdversarialPercent: pct})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestFlatAdversarialValidation(t *testing.T) {
	if _, err := NewFlatWorld(FlatConfig{Seed: 1, NumDomains: 10, AdversarialPercent: 51}); err == nil {
		t.Error("AdversarialPercent 51 accepted, want error")
	}
	if _, err := NewFlatWorld(FlatConfig{Seed: 1, NumDomains: 10, AdversarialPercent: -1}); err == nil {
		t.Error("negative AdversarialPercent accepted, want error")
	}
}

// TestFlatAdversarialBand checks the band's share and family balance:
// a pure function of the index, every family populated, the hostile
// fraction close to the configured percentage.
func TestFlatAdversarialBand(t *testing.T) {
	const n, pct = 50_000, 12.0
	fw := flatAdvWorld(t, n, pct)
	counts := make(map[ScenarioFamily]int)
	for i := 0; i < n; i++ {
		fam := fw.family(fw.draw(i))
		if fam2 := fw.family(fw.draw(i)); fam2 != fam {
			t.Fatalf("family of %d unstable: %s then %s", i, fam, fam2)
		}
		counts[fam]++
	}
	hostile := n - counts[FamilyHonest]
	share := 100 * float64(hostile) / n
	if share < pct-1 || share > pct+1 {
		t.Errorf("hostile share %.2f%%, want about %.0f%%", share, pct)
	}
	for _, fam := range flatFamilies {
		got := counts[fam]
		want := hostile / len(flatFamilies)
		if got < want*8/10 || got > want*12/10 {
			t.Errorf("family %s: %d domains, want about %d (equal slices)", fam, got, want)
		}
	}

	// Honest flat worlds never consult the band.
	honest := flatWorld(t, 1000)
	for i := 0; i < 1000; i++ {
		if fam := honest.family(honest.draw(i)); fam != FamilyHonest {
			t.Fatalf("honest flat world classed domain %d as %s", i, fam)
		}
	}
}

// TestFlatAbuseNames pins the look-alike naming: abuse members carry
// their cluster's stem (the materialised world's stems), their names
// round-trip through DomainIndex, and neither the canonical d%09d.com
// spelling of an abuse index nor the other cluster's spelling resolves
// (the name simply is the look-alike; there is no alias).
func TestFlatAbuseNames(t *testing.T) {
	fw := flatAdvWorld(t, 50_000, 12)
	members := make([]int, len(fw.adv.AbuseClusters))
	for i := 0; i < fw.NumDomains() && members[0]+members[1] < 50; i++ {
		name := fw.DomainName(i)
		if spec, _ := fw.advSpec(i, fw.draw(i)); spec.Family == FamilyAbuse {
			if want := fw.adv.AbuseClusters[spec.Cluster].memberName(9, i); name != want {
				t.Fatalf("abuse domain %d named %q, want %q", i, name, want)
			}
			for _, alias := range []string{
				fmt.Sprintf("d%09d.com", i),
				fw.adv.AbuseClusters[1-spec.Cluster].memberName(9, i),
			} {
				if _, ok := fw.DomainIndex(alias); ok {
					t.Fatalf("abuse domain %d also resolves as %q", i, alias)
				}
			}
			members[spec.Cluster]++
		} else if strings.HasSuffix(name, abuseSuffix) {
			t.Fatalf("non-abuse domain %d carries the abuse name %q", i, name)
		}
		if got, ok := fw.DomainIndex(name); !ok || got != i {
			t.Fatalf("DomainIndex(%q) = %d, %v; want %d", name, got, ok, i)
		}
	}
	if members[0] == 0 || members[1] == 0 {
		t.Fatalf("abuse cluster populations %v: want both clusters populated", members)
	}
}

// TestFlatAdversarialResolver exercises each hostile family through the
// flat resolver: typed lame failures, dangling NXDOMAIN targets,
// parked sinkholes in the feed, hijack glue with stale provenance, and
// BLBFO topologies ending in the backup relay.
func TestFlatAdversarialResolver(t *testing.T) {
	fw := flatAdvWorld(t, 50_000, 12)
	r := fw.Resolver()
	ctx := context.Background()

	// One representative index per family.
	rep := make(map[ScenarioFamily]int)
	for i := 0; i < fw.NumDomains() && len(rep) < len(flatFamilies); i++ {
		fam := fw.family(fw.draw(i))
		if fam != FamilyHonest {
			if _, ok := rep[fam]; !ok {
				rep[fam] = i
			}
		}
	}
	if len(rep) != len(flatFamilies) {
		t.Fatalf("only %d families found in 50k domains", len(rep))
	}

	if _, err := r.LookupMX(ctx, fw.DomainName(rep[FamilyLame])); !errors.Is(err, dns.ErrLame) {
		t.Errorf("lame flat domain: %v, want ErrLame", err)
	}

	mxs, err := r.LookupMX(ctx, fw.DomainName(rep[FamilyDanglingNX]))
	if err != nil || len(mxs) != 1 {
		t.Fatalf("dangling-nx MX: %v, %v", mxs, err)
	}
	if _, err := r.LookupA(ctx, mxs[0].Exchange); !errors.Is(err, dns.ErrNXDomain) {
		t.Errorf("dangling target %s: %v, want NXDOMAIN", mxs[0].Exchange, err)
	}

	mxs, err = r.LookupMX(ctx, fw.DomainName(rep[FamilyDanglingParked]))
	if err != nil || len(mxs) != 1 {
		t.Fatalf("dangling-parked MX: %v, %v", mxs, err)
	}
	addrs, err := r.LookupA(ctx, mxs[0].Exchange)
	if err != nil || len(addrs) == 0 {
		t.Fatalf("parked target %s: %v, %v", mxs[0].Exchange, addrs, err)
	}
	for _, a := range addrs {
		if !fw.Parked(a) {
			t.Errorf("parked target address %v missing from the parking feed", a)
		}
	}

	// Hijack: glue resolves, provenance exposes the stale delegation and
	// the lapsed relay zone.
	hijacked := fw.DomainName(rep[FamilyHijack])
	mxs, err = r.LookupMX(ctx, hijacked)
	if err != nil || len(mxs) == 0 {
		t.Fatalf("hijack MX: %v, %v", mxs, err)
	}
	if addrs, err := r.LookupA(ctx, mxs[0].Exchange); err != nil || len(addrs) == 0 {
		t.Fatalf("hijack relay %s: %v, %v", mxs[0].Exchange, addrs, err)
	}
	pc, ok := r.(dns.ProvenanceChecker)
	if !ok {
		t.Fatal("flat resolver does not implement dns.ProvenanceChecker")
	}
	if !pc.DelegationStale(ctx, hijacked) {
		t.Errorf("hijacked %s: DelegationStale = false, want true", hijacked)
	}
	if !pc.ZoneGone(ctx, mxs[0].Exchange) {
		t.Errorf("relay %s: ZoneGone = false, want true", mxs[0].Exchange)
	}
	if pc.DelegationStale(ctx, fw.DomainName(0)) {
		t.Error("honest flat domain reported a stale delegation")
	}

	// BLBFO: well-formed topology whose lowest-priority tier (or all
	// tiers) lands on the backup relay.
	mxs, err = r.LookupMX(ctx, fw.DomainName(rep[FamilyBLBFO]))
	if err != nil || len(mxs) < 2 {
		t.Fatalf("blbfo MX: %v, %v", mxs, err)
	}
	backup := false
	for _, mx := range mxs {
		if strings.HasSuffix(mx.Exchange, fw.adv.BackupRelay.Zone) {
			backup = true
		}
	}
	if !backup {
		t.Errorf("blbfo topology %v lacks the backup relay", mxs)
	}
}

// TestFlatOracleAt checks the per-index oracle against each family's
// contract — the flat counterpart of TestOracleFamilies.
func TestFlatOracleAt(t *testing.T) {
	fw := flatAdvWorld(t, 50_000, 12)
	for i := 0; i < 20_000; i++ {
		e := fw.OracleAt(i)
		spec, _ := fw.advSpec(i, fw.draw(i))
		if e.Domain != fw.DomainName(i) || e.Family != fw.family(fw.draw(i)) {
			t.Fatalf("oracle %d inconsistent with the world: %+v", i, e)
		}
		switch e.Family {
		case FamilyHijack:
			if !e.ExpectFlagged || e.Forged == "" || e.Truth == e.Forged {
				t.Fatalf("hijack oracle %d: %+v", i, e)
			}
		case FamilyDanglingNX, FamilyDanglingParked:
			if !e.ExpectFlagged || e.Truth != "" {
				t.Fatalf("dangling oracle %d: %+v", i, e)
			}
		case FamilyAbuse:
			ac := fw.adv.AbuseClusters[spec.Cluster]
			if !e.ExpectFlagged || e.Truth != ac.Company || e.Detail != ac.Zone {
				t.Fatalf("abuse oracle %d: %+v", i, e)
			}
		case FamilyBLBFO:
			if e.ExpectFlagged || e.Truth == "" || e.Detail != spec.Topology {
				t.Fatalf("blbfo oracle %d: %+v", i, e)
			}
			if backup := fw.adv.BackupRelay.Company; e.Detail == TopologyBackupOnly && e.Truth != backup {
				t.Fatalf("backup-only oracle %d credits %q, want %q", i, e.Truth, backup)
			}
		case FamilyHonest:
			if e.ExpectFlagged || e.Forged != "" || e.Detail != "" {
				t.Fatalf("honest oracle %d carries adversarial fields: %+v", i, e)
			}
		}
	}
}

// TestAccessISPsClearOfAdversary pins the shared address plan: the
// access-ISP /16s and the adversary's /24s both come out of 100.64/10,
// and a world whose ISP blocks would reach the adversary's octets is
// refused instead of handing honest self-hosted domains the relay,
// sinkhole and bulk addresses. (Before the plan was shared, the flat
// world at Seed 25 / 64<<16 domains / 1% hostile resolved the honest
// d003997698.com to the hijack relay 100.125.0.2.)
func TestAccessISPsClearOfAdversary(t *testing.T) {
	const full = 64 << 16 // every /16 of 100.64/10
	if _, err := NewFlatWorld(FlatConfig{Seed: 25, NumDomains: full}); err != nil {
		t.Fatalf("honest flat world over the whole /10: %v", err)
	}
	for seed := uint64(1); seed <= 30; seed++ {
		if _, err := NewFlatWorld(FlatConfig{Seed: seed, NumDomains: full, AdversarialPercent: 1}); err == nil {
			t.Fatalf("seed %d: hostile flat world over the whole /10 accepted", seed)
		}
	}

	// The largest hostile world that fits: no adversary address inverts
	// to a self-hosting index, and the last ISP block's addresses all
	// route to that ISP, not to an adversary prefix.
	const most = 59 << 16
	fw, err := NewFlatWorld(FlatConfig{Seed: 25, NumDomains: most, AdversarialPercent: 1})
	if err != nil {
		t.Fatalf("hostile flat world of %d domains: %v", most, err)
	}
	for _, h := range fw.adv.hosts {
		if !h.addr.IsValid() {
			continue // a gone zone's exchange: no address at all
		}
		if i, ok := fw.selfIndex(h.addr); ok {
			t.Errorf("adversary host %s (%s) is also the self-hosting address of domain %d", h.host, h.addr, i)
		}
	}
	for i := most - 1<<16; i < most; i++ {
		if got, _ := fw.Prefixes.Lookup(fw.selfIP(i)); got != 65000+58 {
			t.Fatalf("self-hosting address %s of domain %d routes to %v, want the last access ISP", fw.selfIP(i), i, got)
		}
	}
	if _, err := NewFlatWorld(FlatConfig{Seed: 25, NumDomains: most + 1, AdversarialPercent: 1}); err == nil {
		t.Errorf("hostile flat world of %d domains accepted", most+1)
	}

	// The materialised world draws its ISPs from the same plan.
	small := Config{Seed: 1, Scale: 0.001, TailProviders: 10, Adversarial: 0.1}
	small.SelfISPs = 60
	if _, err := Generate(small); err == nil {
		t.Error("hostile world with 60 access ISPs accepted")
	}
	small.SelfISPs = 59
	if _, err := Generate(small); err != nil {
		t.Errorf("hostile world with 59 access ISPs: %v", err)
	}
}
