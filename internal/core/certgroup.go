// Package core implements the paper's primary contribution: the
// priority-based methodology that maps a domain's MX configuration to the
// provider actually operating its inbound mail service, plus the three
// baseline approaches it is evaluated against (MX-only, certificate-based
// and banner-based).
//
// The five steps mirror Figure 3 of the paper:
//
//  1. Certificate preprocessing — group certificates that share FQDNs and
//     pick a representative registered domain per group.
//  2. Per-IP identities — derive a certificate ID and a Banner/EHLO ID
//     for every scanned address.
//  3. Per-MX provider ID — certificate consensus first, then Banner/EHLO
//     consensus, then the MX record's own registered domain.
//  4. Misidentification checking — flag low-confidence assignments to
//     large providers and correct them with AS-membership and host-naming
//     heuristics.
//  5. Per-domain assignment — credit the provider(s) of the most
//     preferred MX record set, splitting credit on ties.
//
// One function, InferStreamDelta, runs the five steps (and the trust
// pass) over a dataset.Source — an IP table plus repeatable passes over
// the domain records, whose result depends only on the records yielded —
// reusing a prior run's attributions where it provably can. InferStream
// is the run without a prior; both hand their caller each attribution as
// it is made. Infer is the same run over an in-memory snapshot,
// collecting the attributions into Result.Domains for the one caller
// that still needs the list (see Infer).
package core

import (
	"sort"

	"mxmap/internal/psl"
)

// Cert is the inference-relevant view of one captured certificate.
type Cert struct {
	// Fingerprint uniquely identifies the certificate.
	Fingerprint string
	// Names holds the subject CN (first) and SANs.
	Names []string
	// Valid reports browser trust; invalid certificates contribute no
	// certificate ID.
	Valid bool
}

// CertGroups is the outcome of step 1: a partition of certificates into
// operator groups, each with a representative registered domain.
type CertGroups struct {
	// repr maps a certificate fingerprint to its group's representative
	// registered domain.
	repr map[string]string
	// size maps a fingerprint to the number of certificates in its group.
	size map[string]int
	n    int
}

// groupCertificates performs certificate preprocessing. Certificates that
// share at least one FQDN are merged into one group (transitively); each
// group is represented by the registered domain that occurs most often
// across all certificates in the dataset (ties broken lexicographically
// for determinism). The run's shared memo suffix-walks a repeated
// certificate name once.
func groupCertificates(certList []Cert, memo *psl.Memo) *CertGroups {
	// Step 1.1: count occurrences of each registered domain across every
	// FQDN on every certificate.
	regCount := make(map[string]int)
	for _, c := range certList {
		for _, name := range c.Names {
			if reg, ok := memo.RegisteredDomain(name); ok {
				regCount[reg]++
			}
		}
	}
	// Step 1.2: union-find over certificates keyed by shared FQDNs.
	uf := newUnionFind(len(certList))
	byName := make(map[string]int) // FQDN -> first certificate index
	for i, c := range certList {
		for _, name := range c.Names {
			name = normalizeHost(name)
			if name == "" {
				continue
			}
			if j, ok := byName[name]; ok {
				uf.union(i, j)
			} else {
				byName[name] = i
			}
		}
	}
	// Step 1.3: per group, pick the most common registered domain.
	type groupAgg struct {
		members []int
	}
	groups := make(map[int]*groupAgg)
	for i := range certList {
		root := uf.find(i)
		g := groups[root]
		if g == nil {
			g = &groupAgg{}
			groups[root] = g
		}
		g.members = append(g.members, i)
	}
	cg := &CertGroups{
		repr: make(map[string]string, len(certList)),
		size: make(map[string]int, len(certList)),
		n:    len(groups),
	}
	for _, g := range groups {
		rep := representativeName(g.members, certList, regCount, memo)
		for _, i := range g.members {
			cg.repr[certList[i].Fingerprint] = rep
			cg.size[certList[i].Fingerprint] = len(g.members)
		}
	}
	return cg
}

// representativeName picks the registered domain with the highest global
// occurrence count among the group's FQDNs; ties break lexicographically.
// Groups whose names yield no registered domain fall back to the first
// normalized FQDN.
func representativeName(members []int, certList []Cert, regCount map[string]int, memo *psl.Memo) string {
	var candidates []string
	seen := make(map[string]bool)
	var fallback string
	for _, i := range members {
		for _, name := range certList[i].Names {
			name = normalizeHost(name)
			if name == "" {
				continue
			}
			if fallback == "" {
				fallback = name
			}
			if reg, ok := memo.RegisteredDomain(name); ok && !seen[reg] {
				seen[reg] = true
				candidates = append(candidates, reg)
			}
		}
	}
	if len(candidates) == 0 {
		return fallback
	}
	sort.Strings(candidates)
	best := candidates[0]
	for _, c := range candidates[1:] {
		if regCount[c] > regCount[best] {
			best = c
		}
	}
	return best
}

// singletonGroups is the ablation counterpart of groupCertificates: each
// certificate forms its own group whose representative is the most
// globally common registered domain among that certificate's names. It
// quantifies what the FQDN-overlap grouping buys.
func singletonGroups(certList []Cert, memo *psl.Memo) *CertGroups {
	regCount := make(map[string]int)
	for _, c := range certList {
		for _, name := range c.Names {
			if reg, ok := memo.RegisteredDomain(name); ok {
				regCount[reg]++
			}
		}
	}
	cg := &CertGroups{
		repr: make(map[string]string, len(certList)),
		size: make(map[string]int, len(certList)),
		n:    len(certList),
	}
	for i := range certList {
		cg.repr[certList[i].Fingerprint] = representativeName([]int{i}, certList, regCount, memo)
		cg.size[certList[i].Fingerprint] = 1
	}
	return cg
}

// Representative returns the group representative for a certificate
// fingerprint.
func (cg *CertGroups) Representative(fingerprint string) (string, bool) {
	rep, ok := cg.repr[fingerprint]
	return rep, ok
}

// GroupSize returns how many certificates share the fingerprint's group.
func (cg *CertGroups) GroupSize(fingerprint string) int { return cg.size[fingerprint] }

// NumGroups reports the number of groups formed.
func (cg *CertGroups) NumGroups() int { return cg.n }

// unionFind is a standard disjoint-set with path compression and union by
// size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
