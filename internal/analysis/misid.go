package analysis

import (
	"math"
	"sort"

	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/psl"
)

// Oracle-scored misidentification robustness (Fig. 4 extension).
//
// An adversarial world ships machine-readable per-domain ground truth:
// which hostile scenario family each domain belongs to, who the true
// operator is (when one exists), and which provider identity an attacker
// forged. ScoreMisidentification replays that oracle against an
// inference result and reports, per family, how often the pipeline
// reached the verdict the scenario demands — flagged the forgery instead
// of crediting it, classified the lame delegation, matched the honest
// bucket.
//
// The oracle types mirror world.OracleEntry field for field but stay
// neutral, following the accuracy harness's convention of taking truth
// as data rather than importing the simulation layer.

// Scenario family names, matching world.ScenarioFamily values.
const (
	famHonest         = "honest"
	famDanglingNX     = "dangling-nx"
	famDanglingParked = "dangling-parked"
	famHijack         = "hijack"
	famLame           = "lame"
	famAbuse          = "abuse"
	famBLBFO          = "blbfo"
)

// MisidOracle is one domain's adversarial ground truth.
type MisidOracle struct {
	// Domain is the corpus domain.
	Domain string `json:"domain"`
	// Family is the scenario family ("honest" for unperturbed domains).
	Family string `json:"family"`
	// Truth is the true operating company, "" when no mail service
	// legitimately exists; equal to Domain for self-hosting.
	Truth string `json:"truth,omitempty"`
	// Forged is the provider identity an attacker impersonates (hijack
	// family only).
	Forged string `json:"forged,omitempty"`
	// ExpectFlagged marks families whose correct verdict is a low-trust
	// flag rather than an attribution.
	ExpectFlagged bool `json:"expect_flagged,omitempty"`
	// Detail carries family-specific context (relay zone, cluster zone,
	// failover topology).
	Detail string `json:"detail,omitempty"`
}

// FamilyScore grades one scenario family.
type FamilyScore struct {
	// Family is the scenario family name.
	Family string `json:"family"`
	// Domains is the family's corpus population.
	Domains int `json:"domains"`
	// Graded counts domains with a decidable correct verdict (honest
	// domains without mail service are ungraded, as in Fig. 4).
	Graded int `json:"graded"`
	// Correct counts graded domains where inference reached the verdict
	// the oracle demands.
	Correct int `json:"correct"`
	// Flagged counts domains whose attribution the trust pass marked
	// low-trust.
	Flagged int `json:"flagged"`
	// CreditedForged counts domains credited to the forged provider —
	// the attack succeeding against inference.
	CreditedForged int `json:"credited_forged,omitempty"`
	// Accuracy is Correct/Graded as a percentage.
	Accuracy float64 `json:"accuracy_percent"`
}

// MisidReport is the oracle-scored robustness summary.
type MisidReport struct {
	// Families holds one row per scenario family, sorted by name.
	Families []FamilyScore `json:"families"`
	// TotalDomains is the corpus size scored.
	TotalDomains int `json:"total_domains"`
	// TotalFlagged counts low-trust attributions across all families.
	TotalFlagged int `json:"total_flagged"`
	// CreditedForged counts attack successes across all families.
	CreditedForged int `json:"credited_forged"`
}

// ScoreMisidentification grades an inference result against an
// adversarial oracle. The snapshot supplies the collection-side verdicts
// (failure classes) the DNS-only families are graded on; res must come
// from an Infer run, which retains the per-domain attributions.
//
// Correctness per family:
//
//   - honest, blbfo — the credited company bucket matches the oracle
//     truth and the attribution is not flagged; domains without mail
//     service (empty truth) are ungraded.
//   - dangling-nx, dangling-parked — the attribution is flagged
//     low-trust (sentinel-credited) rather than attributed.
//   - hijack — flagged, AND the forged provider received no credit.
//   - abuse — flagged, AND credit still stands on the bulk operator
//     (the attribution is right; the trust downgrade is the verdict).
//   - lame — collection classified the domain's lookup as a lame
//     delegation.
func ScoreMisidentification(snap *dataset.Snapshot, res *core.Result, oracle []MisidOracle, dir *companies.Directory) *MisidReport {
	atts := Attributions(res)
	records := make(map[string]*dataset.DomainRecord, len(snap.Domains))
	for i := range snap.Domains {
		records[snap.Domains[i].Domain] = &snap.Domains[i]
	}

	scores := make(map[string]*FamilyScore)
	rep := &MisidReport{}
	for _, e := range oracle {
		fs := scores[e.Family]
		if fs == nil {
			fs = &FamilyScore{Family: e.Family}
			scores[e.Family] = fs
		}
		fs.Domains++
		rep.TotalDomains++

		att, hasAtt := atts[e.Domain]
		flagged := hasAtt && att.Untrusted
		bucket := ""
		if hasAtt {
			bucket = CompanyOf(e.Domain, att.Primary(), dir)
		}
		if flagged {
			fs.Flagged++
			rep.TotalFlagged++
		}

		graded, correct := true, false
		switch e.Family {
		case famLame:
			rec := records[e.Domain]
			correct = rec != nil && rec.Failure == dataset.FailLameDelegation
		case famDanglingNX, famDanglingParked:
			correct = flagged
		case famHijack:
			forged := e.Forged != "" && bucket == e.Forged
			if forged {
				fs.CreditedForged++
				rep.CreditedForged++
			}
			correct = flagged && !forged
		case famAbuse:
			correct = flagged && (e.Truth == "" || bucket == e.Truth)
		default: // honest, blbfo, future families with attribution truth
			truth := e.Truth
			if truth == e.Domain {
				truth = SelfHostedLabel
			}
			if truth == "" {
				graded = false
			} else {
				correct = bucket == truth && !flagged
			}
		}
		if graded {
			fs.Graded++
			if correct {
				fs.Correct++
			}
		}
	}

	for _, fs := range scores {
		if fs.Graded > 0 {
			fs.Accuracy = math.Round(float64(fs.Correct)/float64(fs.Graded)*10000) / 100
		}
		rep.Families = append(rep.Families, *fs)
	}
	sort.Slice(rep.Families, func(i, j int) bool { return rep.Families[i].Family < rep.Families[j].Family })
	return rep
}

// Failover-structure correlation (Ruohonen's BLBFO observation): how MX
// redundancy topology co-varies with the class of provider running the
// primary tier.

// FailoverCell is one (topology, provider class) population.
type FailoverCell struct {
	// Topology is the domain's MX redundancy shape: "single" (one
	// record), "load-balanced" (several records, one preference tier),
	// "tiered" (multiple tiers, one operator), or "backup-provider"
	// (multiple tiers with a different operator behind the backup tier —
	// the backup-MX business the paper's long tail hides).
	Topology string `json:"topology"`
	// ProviderClass buckets the primary tier's operator: a company kind
	// from the directory, "self-hosted", "long-tail" for unmapped
	// provider IDs, "flagged" for low-trust attributions, or "unknown"
	// when no assignment exists.
	ProviderClass string `json:"provider_class"`
	// Domains is the cell population.
	Domains int `json:"domains"`
}

// FailoverStructure classifies every domain with MX records by
// redundancy topology and primary-tier provider class. Cells come back
// sorted by topology then class.
func FailoverStructure(snap *dataset.Snapshot, res *core.Result, dir *companies.Directory) []FailoverCell {
	type key struct{ topo, class string }
	counts := make(map[key]int)
	for i := range snap.Domains {
		rec := &snap.Domains[i]
		if len(rec.MX) == 0 {
			continue
		}
		topo := failoverTopology(rec, res.MX)
		primary := rec.PrimaryMX()
		class := providerClass(rec.Domain, res.MX[primary[0].Exchange], dir)
		counts[key{topo, class}]++
	}
	cells := make([]FailoverCell, 0, len(counts))
	for k, n := range counts {
		cells = append(cells, FailoverCell{Topology: k.topo, ProviderClass: k.class, Domains: n})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Topology != cells[j].Topology {
			return cells[i].Topology < cells[j].Topology
		}
		return cells[i].ProviderClass < cells[j].ProviderClass
	})
	return cells
}

// failoverTopology names the redundancy shape of one domain's MX set.
func failoverTopology(rec *dataset.DomainRecord, mxAssign map[string]*core.MXAssignment) string {
	if len(rec.MX) == 1 {
		return "single"
	}
	best, multiTier := rec.MX[0].Preference, false
	for _, mx := range rec.MX[1:] {
		if mx.Preference != rec.MX[0].Preference {
			multiTier = true
		}
		if mx.Preference < best {
			best = mx.Preference
		}
	}
	if !multiTier {
		return "load-balanced"
	}
	// Multiple tiers: does any backup tier sit with a different operator
	// than the primary tier?
	primaryOps := make(map[string]bool)
	for _, mx := range rec.MX {
		if mx.Preference == best {
			primaryOps[creditID(mxAssign[mx.Exchange])] = true
		}
	}
	for _, mx := range rec.MX {
		if mx.Preference == best {
			continue
		}
		if id := creditID(mxAssign[mx.Exchange]); id != "" && !primaryOps[id] {
			return "backup-provider"
		}
	}
	return "tiered"
}

// creditID is the identity an assignment actually credits: the sentinel
// bucket when the trust pass downgraded it, the provider ID otherwise.
func creditID(a *core.MXAssignment) string {
	if a == nil {
		return ""
	}
	if a.CreditAs != "" {
		return a.CreditAs
	}
	return a.ProviderID
}

// providerClass buckets a primary-tier assignment for the failover
// correlation.
func providerClass(domain string, a *core.MXAssignment, dir *companies.Directory) string {
	if a == nil {
		return "unknown"
	}
	if a.Untrusted {
		return "flagged"
	}
	id := a.ProviderID
	if id == "" {
		return "unknown"
	}
	if reg, ok := psl.RegisteredDomain(domain); ok && reg == id {
		return "self-hosted"
	}
	if id == domain {
		return "self-hosted"
	}
	if dir != nil {
		if c, ok := dir.CompanyFor(id); ok {
			return c.Kind.String()
		}
	}
	return "long-tail"
}
