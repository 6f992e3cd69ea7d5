package experiments

import (
	"context"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/world"
)

// MisidWorld is the world behind the committed results/MISID.json.
// Scale keeps a run under a minute; a quarter of the corpus turns
// hostile so every scenario family lands a multi-domain population.
var MisidWorld = world.Config{Seed: 7, Scale: 0.003, Adversarial: 0.25}

// misidAbuseMin enables the abuse-cluster rule: an exchange needs at
// least this many referring domains before look-alike naming is judged.
// The generated clusters sit comfortably above it.
const misidAbuseMin = 8

// Misid is one oracle-scored adversarial run. Marshalled, it is the
// MISID.json schema; the unexported-to-JSON fields are what it was
// scored from, for callers that inspect single attributions.
type Misid struct {
	Corpus      string                  `json:"corpus"`
	Date        string                  `json:"date"`
	Seed        uint64                  `json:"seed"`
	Scale       float64                 `json:"scale"`
	Adversarial float64                 `json:"adversarial"`
	Misid       *analysis.MisidReport   `json:"misidentification"`
	Failover    []analysis.FailoverCell `json:"failover_structure"`
	Oracle      map[string]int          `json:"oracle_families"`
	Health      *dataset.Health         `json:"health"`

	Study  *Study       `json:"-"` // the caller closes it
	Result *core.Result `json:"-"`
}

// ScoreMisid runs the adversarial robustness chain on cfg's world: it
// collects the final Alexa snapshot through the registry-aware resolver,
// infers with the priority approach and the abuse-cluster rule switched
// on, and scores the result against the world's per-domain oracle. Every
// step — scenario assignment, typed collection degradation, trust-pass
// verdicts, oracle accuracy, the failover-structure correlation — is
// deterministic in cfg, whatever the parallelism.
func ScoreMisid(cfg world.Config, parallelism int) (*Misid, error) {
	study, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	const corpus = world.CorpusAlexa
	date := study.LastDate(corpus)
	snap, err := study.Snapshot(context.Background(), corpus, date)
	if err != nil {
		study.Close()
		return nil, err
	}
	res := core.Infer(snap, core.ApproachPriority, core.Config{
		Profiles:               study.Profiles,
		Parallelism:            parallelism,
		AbuseClusterMinDomains: misidAbuseMin,
	})

	entries := study.World.Oracle(corpus)
	oracle := make([]analysis.MisidOracle, len(entries))
	families := make(map[string]int)
	for i, e := range entries {
		oracle[i] = misidOracle(e)
		families[string(e.Family)]++
	}
	return &Misid{
		Corpus:      corpus,
		Date:        date,
		Seed:        cfg.Seed,
		Scale:       cfg.Scale,
		Adversarial: cfg.Adversarial,
		Misid:       analysis.ScoreMisidentification(snap, res, oracle, study.World.Directory),
		Failover:    analysis.FailoverStructure(snap, res, study.World.Directory),
		Oracle:      families,
		Health:      snap.Health(),
		Study:       study,
		Result:      res,
	}, nil
}

// misidOracle hands one of the world's oracle entries to the scorer.
func misidOracle(e world.OracleEntry) analysis.MisidOracle {
	return analysis.MisidOracle{
		Domain:        e.Domain,
		Family:        string(e.Family),
		Truth:         e.Truth,
		Forged:        e.Forged,
		ExpectFlagged: e.ExpectFlagged,
		Detail:        e.Detail,
	}
}
