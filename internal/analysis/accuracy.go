package analysis

import (
	"math/rand/v2"
	"slices"
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
// emits them. The sample is drawn from one read of src (LoadIPs, then
// ForEach); the error is that read's or an inference pass's.
func EvaluateAccuracy(src dataset.Source, cfg AccuracyConfig) ([]AccuracyResult, error) {
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 200
	}
	sample, err := sampleDomains(src, cfg)
	if err != nil {
		return nil, err
	}
	inSample := make(map[string]bool)
	for _, d := range sample {
		inSample[d] = true
	}

	var out []AccuracyResult
	for _, ap := range core.Approaches() {
		r := AccuracyResult{Approach: ap}
		sampledMX := make(map[string]bool) // the sampled domains' primary exchanges
		res, err := Fold(src, ap, cfg.InferConfig, func(rec *dataset.DomainRecord, att core.DomainAttribution) {
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
// optionally with unique primary MX records. One pass counts every
// primary exchange's users and keeps the domains with SMTP servers,
// each with its primary exchanges; the unique-MX frame is cut after it.
func sampleDomains(src dataset.Source, cfg AccuracyConfig) ([]string, error) {
	ips, err := src.LoadIPs()
	if err != nil {
		return nil, err
	}
	type candidate struct {
		domain    string
		exchanges []string
	}
	var (
		mxUsers    = make(map[string]int)
		candidates []candidate
	)
	err = src.ForEach(func(d *dataset.DomainRecord) error {
		primary := d.PrimaryMX()
		c := candidate{domain: d.Domain}
		for _, mx := range primary {
			mxUsers[mx.Exchange]++
			c.exchanges = append(c.exchanges, mx.Exchange)
		}
		if hasSMTP(ips, primary) {
			candidates = append(candidates, c)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	var frame []string
	for _, c := range candidates {
		if cfg.UniqueMX && slices.ContainsFunc(c.exchanges, func(ex string) bool { return mxUsers[ex] > 1 }) {
			continue
		}
		frame = append(frame, c.domain)
	}
	sort.Strings(frame)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xacc))
	rng.Shuffle(len(frame), func(i, j int) { frame[i], frame[j] = frame[j], frame[i] })
	if len(frame) > cfg.SampleSize {
		frame = frame[:cfg.SampleSize]
	}
	return frame, nil
}

// hasSMTP reports whether any address of a primary MX set has port 25
// open, in an IP section keyed by address text.
func hasSMTP(ips map[string]dataset.IPInfo, primary []dataset.MXObs) bool {
	for _, mx := range primary {
		for _, a := range mx.Addrs {
			if ips[a.String()].Port25Open {
				return true
			}
		}
	}
	return false
}
