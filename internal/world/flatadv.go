package world

import (
	"context"
	"net/netip"
)

// Flat-world adversarial band. With FlatConfig.AdversarialPercent > 0, a
// band of the assignment coordinate between the no-MX cut and the
// provider ladder turns hostile, split into six equal family slices.
// What a family IS — fixtures, MX shape, ground truth, oracle — is
// Adversary's business (adversary.go), shared with the materialised
// world; this file only maps a domain index to its AdvSpec, as a pure
// function, so a hundred million hostile domains cost no more memory
// than ten honest ones.

// flatFamilies orders the band's equal slices.
var flatFamilies = []ScenarioFamily{
	FamilyDanglingNX, FamilyDanglingParked, FamilyHijack,
	FamilyLame, FamilyAbuse, FamilyBLBFO,
}

// familyOf returns domain i's scenario family; FamilyHonest outside the
// adversarial band.
func (fw *FlatWorld) familyOf(i int) ScenarioFamily {
	if fw.adv == nil {
		return FamilyHonest
	}
	u := fw.draw(i)
	if u < fw.noMXCut || u >= fw.advCut {
		return FamilyHonest
	}
	slice := int((u - fw.noMXCut) / (fw.advCut - fw.noMXCut) * float64(len(flatFamilies)))
	if slice >= len(flatFamilies) {
		slice = len(flatFamilies) - 1
	}
	return flatFamilies[slice]
}

// advSpec returns domain i's scenario — Family honest outside the band —
// and the per-domain variant that stands in for a stint's: one hash of
// the index, its low bits placing the domain in a cluster or topology,
// the rest picking its MX shape and BLBFO primary.
func (fw *FlatWorld) advSpec(i int) (AdvSpec, uint64) {
	fam := fw.familyOf(i)
	if fam == FamilyHonest {
		return AdvSpec{Family: FamilyHonest}, 0
	}
	h := fw.indexHash("/adv/", i)
	return newAdvSpec(fam, int(h&0xffff)), h >> 16
}

// advPrimary picks the primary-tier provider of a flat BLBFO domain.
func (fw *FlatWorld) advPrimary(variant uint64) *flatProvider {
	return fw.providers[variant%uint64(len(fw.providers))]
}

// Parked reports whether addr is one of the world's parking sinkholes.
// Safe on honest worlds (always false), so collectors can wire it
// unconditionally.
func (fw *FlatWorld) Parked(addr netip.Addr) bool { return fw.adv.Parked(addr) }

// DelegationStale implements dns.ProvenanceChecker: in a flat world the
// registry-vs-serving mismatch is exactly the hijack family.
func (r flatResolver) DelegationStale(_ context.Context, domain string) bool {
	if r.fw.adv == nil {
		return false
	}
	i, ok := r.fw.DomainIndex(domain)
	return ok && r.fw.familyOf(i) == FamilyHijack
}

// ZoneGone implements dns.ProvenanceChecker: the dangling targets and
// the hijack relays sit in zones lapsed from the registry.
func (r flatResolver) ZoneGone(_ context.Context, host string) bool {
	return r.fw.adv != nil && r.fw.adv.zoneLapsed(host)
}

// OracleAt returns domain i's machine-readable ground truth, the flat
// counterpart of World.Oracle — per index rather than materialized,
// matching how everything else in a flat world is computed.
func (fw *FlatWorld) OracleAt(i int) OracleEntry {
	spec, _ := fw.advSpec(i)
	return fw.adv.OracleEntry(fw.DomainName(i), spec, fw.TruthCompany(i))
}
