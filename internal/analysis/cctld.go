package analysis

import (
	"maps"
	"math"
	"slices"
	"strings"

	"mxmap/internal/companies"
	"mxmap/internal/core"
)

// studiedCCTLDs are the country-code TLDs Figure 8 studies. Domains
// under other TLDs are excluded from the national analysis.
var studiedCCTLDs = map[string]bool{
	"br": true, "ar": true, "uk": true, "fr": true, "de": true,
	"it": true, "es": true, "ro": true, "ca": true, "au": true,
	"ru": true, "cn": true, "jp": true, "in": true, "sg": true,
}

// CCTLDPreferences folds Figure 8: one ShareAccumulator per studied
// ccTLD (the domain's last label), fed the attributions under it.
type CCTLDPreferences struct {
	dir   *companies.Directory
	byTLD map[string]*ShareAccumulator
}

// NewCCTLDPreferences returns an empty Figure 8 fold bucketing providers
// through dir.
func NewCCTLDPreferences(dir *companies.Directory) *CCTLDPreferences {
	return &CCTLDPreferences{dir: dir, byTLD: make(map[string]*ShareAccumulator)}
}

// Add folds one attribution into its ccTLD's accumulator; a domain
// outside the studied ccTLDs is skipped.
func (p *CCTLDPreferences) Add(att core.DomainAttribution) {
	i := strings.LastIndexByte(att.Domain, '.')
	if i < 0 {
		return
	}
	tld := att.Domain[i+1:]
	if !studiedCCTLDs[tld] {
		return
	}
	acc := p.byTLD[tld]
	if acc == nil {
		acc = NewShareAccumulator(p.dir)
		p.byTLD[tld] = acc
	}
	acc.Add(att)
}

// TLDs lists the studied ccTLDs that hold a domain, sorted: Figure
// 8's rows.
func (p *CCTLDPreferences) TLDs() []string { return slices.Sorted(maps.Keys(p.byTLD)) }

// Percent is the share of tld's domains credited to company: one cell
// of Figure 8. A ccTLD without domains has none (NaN).
func (p *CCTLDPreferences) Percent(tld, company string) float64 {
	acc := p.byTLD[tld]
	if acc == nil {
		return math.NaN()
	}
	return 100 * acc.Credits()[company] / float64(acc.Domains())
}
