package analysis

import (
	"sort"
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

// CCTLDs lists the studied ccTLDs in the paper's display order.
func CCTLDs() []string {
	out := make([]string, 0, len(studiedCCTLDs))
	for tld := range studiedCCTLDs {
		out = append(out, tld)
	}
	sort.Strings(out)
	return out
}

// CCTLDCell is one (ccTLD, provider) cell of Figure 8.
type CCTLDCell struct {
	TLD     string
	Company string
	Domains float64
	Percent float64 // of the ccTLD's domains
}

// CCTLDPreferences computes the Figure 8 matrix: for each studied ccTLD,
// the share of its domains using each tracked company.
func CCTLDPreferences(res *core.Result, dir *companies.Directory, track []string) []CCTLDCell {
	type agg struct {
		total   int
		credits map[string]float64
	}
	byTLD := make(map[string]*agg)
	for _, att := range res.Domains {
		i := strings.LastIndexByte(att.Domain, '.')
		if i < 0 {
			continue
		}
		tld := att.Domain[i+1:]
		if !studiedCCTLDs[tld] {
			continue
		}
		a := byTLD[tld]
		if a == nil {
			a = &agg{credits: make(map[string]float64)}
			byTLD[tld] = a
		}
		a.total++
		for id, credit := range att.Credits {
			a.credits[CompanyOf(att.Domain, id, dir)] += credit
		}
	}
	var out []CCTLDCell
	for _, tld := range CCTLDs() {
		a := byTLD[tld]
		if a == nil {
			continue
		}
		for _, company := range track {
			c := a.credits[company]
			out = append(out, CCTLDCell{
				TLD: tld, Company: company,
				Domains: c, Percent: 100 * c / float64(a.total),
			})
		}
	}
	return out
}
