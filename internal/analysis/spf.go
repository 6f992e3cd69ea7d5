package analysis

import (
	"sort"
	"strings"

	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
	"mxmap/internal/spf"
)

// SPFStats summarizes the SPF-based eventual-provider extension — the
// heuristic the paper sketches in §3.4: the MX record reveals only the
// first delivery hop, but a domain's SPF policy must authorize its real
// outbound (mailbox) provider, so behind filtering services SPF exposes
// the eventual provider.
type SPFStats struct {
	// Total is the number of domains considered.
	Total int
	// WithSPF counts domains publishing a v=spf1 policy.
	WithSPF int
	// Agree counts non-filtered domains whose SPF organization matches
	// their MX attribution; Disagree counts mismatches; NoSignal counts
	// SPF policies without an attributable include.
	Agree, Disagree, NoSignal int
	// FilteredTotal counts domains attributed to e-mail security
	// companies; FilteredWithMailbox counts those whose SPF reveals a
	// distinct mailbox provider.
	FilteredTotal, FilteredWithMailbox int
	// MailboxCompanies distributes the revealed eventual providers.
	MailboxCompanies map[string]int

	dir *companies.Directory
}

// MailboxShares returns the revealed eventual providers sorted by count.
func (s SPFStats) MailboxShares() []Share {
	out := make([]Share, 0, len(s.MailboxCompanies))
	for c, n := range s.MailboxCompanies {
		pct := 0.0
		if s.FilteredTotal > 0 {
			pct = 100 * float64(n) / float64(s.FilteredTotal)
		}
		out = append(out, Share{Company: c, Domains: float64(n), Percent: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domains != out[j].Domains {
			return out[i].Domains > out[j].Domains
		}
		return out[i].Company < out[j].Company
	})
	return out
}

// NewSPFStats returns an empty fold of the extension, bucketing
// providers through dir.
func NewSPFStats(dir *companies.Directory) *SPFStats {
	return &SPFStats{MailboxCompanies: make(map[string]int), dir: dir}
}

// Add folds one domain's record and its attribution.
func (stats *SPFStats) Add(d *dataset.DomainRecord, att core.DomainAttribution) {
	stats.Total++
	if d.SPF == "" {
		return
	}
	rec, err := spf.Parse(d.SPF)
	if err != nil {
		return
	}
	stats.WithSPF++

	primary := att.Primary()
	mxCompany := CompanyOf(d.Domain, primary, stats.dir)

	includeCompanies := spfIncludeCompanies(d.Domain, rec, stats.dir)
	if c, ok := stats.dir.CompanyFor(primary); ok && c.Kind == companies.KindEmailSecurity {
		stats.FilteredTotal++
		// An eventual provider is any included organization other
		// than the filtering service itself.
		for _, ic := range includeCompanies {
			if ic != mxCompany {
				stats.FilteredWithMailbox++
				stats.MailboxCompanies[ic]++
				break
			}
		}
		return
	}
	// Non-filtered: check agreement between SPF and MX attribution.
	switch {
	case len(includeCompanies) == 0:
		if usesOwnInfra(rec) && mxCompany == SelfHostedLabel {
			stats.Agree++
		} else {
			stats.NoSignal++
		}
	case contains(includeCompanies, mxCompany):
		stats.Agree++
	default:
		stats.Disagree++
	}
}

// spfIncludeCompanies maps the record's include targets to company
// buckets, dropping includes that resolve to the domain's own
// organization.
func spfIncludeCompanies(domain string, rec *spf.Record, dir *companies.Directory) []string {
	var out []string
	seen := make(map[string]bool)
	targets := make([]string, 0, len(rec.Mechanisms)+1)
	for _, m := range rec.Mechanisms {
		if m.Kind == spf.MechInclude {
			targets = append(targets, m.Domain)
		}
	}
	if rec.Redirect != "" {
		targets = append(targets, rec.Redirect)
	}
	for _, target := range targets {
		host := strings.TrimPrefix(strings.ToLower(target), "_spf.")
		reg, ok := psl.RegisteredDomain(host)
		if !ok {
			continue
		}
		company := CompanyOf(domain, reg, dir)
		if !seen[company] {
			seen[company] = true
			out = append(out, company)
		}
	}
	return out
}

// usesOwnInfra reports an SPF policy that authorizes the domain's own
// A/MX hosts or literal addresses only — the self-hosting fingerprint.
func usesOwnInfra(rec *spf.Record) bool {
	hasSignal := false
	for _, m := range rec.Mechanisms {
		switch m.Kind {
		case spf.MechA, spf.MechMX, spf.MechIP4, spf.MechIP6:
			hasSignal = true
		case spf.MechInclude:
			return false
		}
	}
	return hasSignal && rec.Redirect == ""
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
