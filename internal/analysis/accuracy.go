package analysis

import (
	"math/rand/v2"
	"sort"

	"mxmap/internal/core"
	"mxmap/internal/dataset"
)

// AccuracyConfig parameterizes a Figure 4 style evaluation.
type AccuracyConfig struct {
	// SampleSize is the number of domains graded (the paper uses 200).
	SampleSize int
	// UniqueMX restricts the sampling frame to domains whose primary MX
	// exchange is used by no other domain in the snapshot — the paper's
	// "w/ Unique MX" variant, which stresses customer-named MX records.
	UniqueMX bool
	// Seed drives the sampling.
	Seed uint64
	// Truth returns the ground-truth operator for a domain: a company
	// name, the domain itself for self-hosting, or "" when the domain has
	// no real mail service. Required.
	Truth func(domain string) string
	// Company maps an inferred provider ID for a domain onto a company
	// bucket comparable with Truth. Required.
	Company func(domain, providerID string) string
	// InferConfig configures the inference runs (profiles, thresholds).
	InferConfig core.Config
}

// AccuracyResult grades one approach over the sample.
type AccuracyResult struct {
	// Approach evaluated.
	Approach core.Approach
	// Correct counts correctly attributed sampled domains.
	Correct int
	// Total is the sample size actually graded.
	Total int
	// Examined counts sampled domains whose assignment was flagged by
	// step 4 (priority approach only) — the dark segment of Figure 4.
	Examined int
}

// Percent returns the accuracy percentage.
func (r AccuracyResult) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Correct) / float64(r.Total)
}

// EvaluateAccuracy reproduces the §3.3 protocol on one snapshot: sample
// domains that have responding SMTP servers (optionally with unique MX
// records), run all four approaches over the full snapshot, and grade
// the sampled domains' primaries against ground truth as each pass
// emits them. The error is the inference pass's.
func EvaluateAccuracy(snap *dataset.Snapshot, cfg AccuracyConfig) ([]AccuracyResult, error) {
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 200
	}
	inSample := make(map[string]bool)
	for _, d := range sampleDomains(snap, cfg) {
		inSample[d] = true
	}

	var out []AccuracyResult
	for _, ap := range core.Approaches() {
		r := AccuracyResult{Approach: ap}
		sampledMX := make(map[string]bool) // the sampled domains' primary exchanges
		res, err := Fold(snap, ap, cfg.InferConfig, func(rec *dataset.DomainRecord, att core.DomainAttribution) {
			if !inSample[att.Domain] {
				return
			}
			for _, mx := range rec.PrimaryMX() {
				sampledMX[mx.Exchange] = true
			}
			truth := cfg.Truth(att.Domain)
			if truth == "" {
				return
			}
			r.Total++
			if cfg.Company(att.Domain, att.Primary()) == truth {
				r.Correct++
			}
		})
		if err != nil {
			return nil, err
		}
		// Count step 4's examined assignments among the sampled
		// domains' exchanges (only the priority approach runs step 4).
		for ex, a := range res.MX {
			if a.Examined && sampledMX[ex] {
				r.Examined++
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// sampleDomains draws the evaluation sample: domains with SMTP servers,
// optionally with unique primary MX records.
func sampleDomains(snap *dataset.Snapshot, cfg AccuracyConfig) []string {
	// Count exchange usage for the unique-MX frame.
	mxUsers := make(map[string]int)
	for i := range snap.Domains {
		for _, mx := range snap.Domains[i].PrimaryMX() {
			mxUsers[mx.Exchange]++
		}
	}
	var frame []string
	for i := range snap.Domains {
		d := &snap.Domains[i]
		if !domainHasSMTP(snap, d) {
			continue
		}
		if cfg.UniqueMX {
			unique := true
			for _, mx := range d.PrimaryMX() {
				if mxUsers[mx.Exchange] > 1 {
					unique = false
					break
				}
			}
			if !unique {
				continue
			}
		}
		frame = append(frame, d.Domain)
	}
	sort.Strings(frame)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xacc))
	rng.Shuffle(len(frame), func(i, j int) { frame[i], frame[j] = frame[j], frame[i] })
	if len(frame) > cfg.SampleSize {
		frame = frame[:cfg.SampleSize]
	}
	return frame
}

func domainHasSMTP(snap *dataset.Snapshot, d *dataset.DomainRecord) bool {
	for _, mx := range d.PrimaryMX() {
		for _, a := range mx.Addrs {
			if info, ok := snap.IP(a); ok && info.Port25Open {
				return true
			}
		}
	}
	return false
}
