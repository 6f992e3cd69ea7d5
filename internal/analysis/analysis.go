// Package analysis computes the paper's evaluation artifacts from
// inference results: market shares (Figure 5, Table 6), longitudinal
// trends (Figure 6), churn flows (Figure 7), national provider
// preferences (Figure 8), approach accuracy (Figure 4) and the data
// availability breakdown (Table 4).
package analysis

import (
	"sort"

	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/psl"
)

// SelfHostedLabel is the bucket used for domains that run their own mail
// service (provider ID equals the domain's own registered domain).
const SelfHostedLabel = "Self-Hosted"

// NoSMTPLabel is the bucket for domains whose MX leads to no responding
// SMTP server.
const NoSMTPLabel = "No SMTP"

// ProviderProfiles derives step-4 provider profiles (AS membership, VPS
// and dedicated host-name patterns) from a company directory — the
// codified form of the paper's "prior knowledge about large providers".
func ProviderProfiles(dir *companies.Directory) []core.ProviderProfile {
	var out []core.ProviderProfile
	for _, c := range dir.Companies() {
		// The paper only runs the misidentification check for large,
		// well-known providers; long-tail providers are skipped.
		if len(c.ProviderIDs) == 0 || c.Kind == companies.KindOther {
			continue
		}
		id := c.ProviderIDs[0]
		out = append(out, core.ProviderProfile{
			ID:   id,
			ASNs: c.ASNs,
			VPSPatterns: []string{
				"vps*." + id, "s*-*-*." + id,
			},
			DedicatedPatterns: []string{
				"mailstore*." + id, "mx*." + id, "mailgw*." + id,
				"shared*.shared." + id, "mx." + id,
			},
		})
	}
	return out
}

// Attributions indexes a result's per-domain outcomes by domain name.
func Attributions(res *core.Result) map[string]core.DomainAttribution {
	out := make(map[string]core.DomainAttribution, len(res.Domains))
	for _, d := range res.Domains {
		out[d.Domain] = d
	}
	return out
}

// CompanyOf maps a provider ID credited to a domain onto the bucket used
// in market-share style analyses: the operating company's name, or
// SelfHostedLabel when the provider ID is the domain's own registered
// domain (the paper's self-hosting definition), or the provider ID
// itself for unmapped long-tail providers.
func CompanyOf(domain, providerID string, dir *companies.Directory) string {
	if reg, ok := psl.RegisteredDomain(domain); ok && reg == providerID {
		return SelfHostedLabel
	}
	if providerID == domain {
		return SelfHostedLabel
	}
	if dir != nil {
		return dir.CompanyName(providerID)
	}
	return providerID
}

// CompanyCredits aggregates a result's split credits into per-company
// domain counts (fractional because of split credit).
func CompanyCredits(res *core.Result, dir *companies.Directory) map[string]float64 {
	out := make(map[string]float64)
	for _, att := range res.Domains {
		for id, credit := range att.Credits {
			out[CompanyOf(att.Domain, id, dir)] += credit
		}
	}
	return out
}

// Share is one company's standing in a market-share table.
type Share struct {
	// Company is the display bucket.
	Company string
	// Domains is the (fractional) number of domains credited.
	Domains float64
	// Percent is Domains over the segment's total domain count.
	Percent float64
}

// TopShares ranks company credits and returns the n largest (all when
// n <= 0), excluding the self-hosted bucket, which the paper plots as its
// own series.
func TopShares(credits map[string]float64, totalDomains int, n int) []Share {
	shares := make([]Share, 0, len(credits))
	for company, c := range credits {
		if company == SelfHostedLabel {
			continue
		}
		shares = append(shares, Share{
			Company: company,
			Domains: c,
			Percent: 100 * c / float64(totalDomains),
		})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].Domains != shares[j].Domains {
			return shares[i].Domains > shares[j].Domains
		}
		return shares[i].Company < shares[j].Company
	})
	if n > 0 && len(shares) > n {
		shares = shares[:n]
	}
	return shares
}
