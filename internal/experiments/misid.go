package experiments

import (
	"context"

	"mxmap/internal/analysis"
	"mxmap/internal/companies"
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
// MISID.json schema; Health is the collection run's own report (the
// fleet's FleetStats.Health). The unexported-to-JSON fields are what it
// was scored from: the study, whose directory holds the collected file
// until the caller closes it (Study.File gives its path), and the
// inference pass's Result, for callers that inspect single assignments.
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
// collects the final Alexa snapshot through the registry-aware resolver
// into the study's file, infers over that file with the priority
// approach and the abuse-cluster rule switched on, and scores the result
// against the world's per-domain oracle. Every
// step — scenario assignment, typed collection degradation, trust-pass
// verdicts, oracle accuracy, the failover-structure correlation — is
// deterministic in cfg, whatever the parallelism.
func ScoreMisid(cfg world.Config, parallelism int) (*Misid, error) {
	study, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	m := &Misid{
		Corpus:      world.CorpusAlexa,
		Date:        study.LastDate(world.CorpusAlexa),
		Seed:        cfg.Seed,
		Scale:       cfg.Scale,
		Adversarial: cfg.Adversarial,
		Oracle:      make(map[string]int),
		Study:       study,
	}
	if err := m.score(parallelism); err != nil {
		study.Close()
		return nil, err
	}
	return m, nil
}

// score fills m from its study's collection of (m.Corpus, m.Date): the
// oracle families, the scored pass and its Result, the failover table
// (one more read of the file) and the collection's Health.
func (m *Misid) score(parallelism int) error {
	s := m.Study
	c := s.collection(context.Background(), corpusDate{m.Corpus, m.Date})
	if c.err != nil {
		return c.err
	}
	st, err := dataset.OpenStream(c.path)
	if err != nil {
		return err
	}
	entries := s.World.Oracle(m.Corpus)
	oracle := make([]analysis.MisidOracle, len(entries))
	for i, e := range entries {
		oracle[i] = misidOracle(e)
		m.Oracle[string(e.Family)]++
	}
	if m.Misid, m.Result, err = scoreMisid(st, s.Profiles, parallelism, oracle, s.World.Directory); err != nil {
		return err
	}
	m.Failover, err = analysis.FailoverStructure(st, m.Result, s.World.Directory)
	m.Health = c.health
	return err
}

// scoreMisid is the chain's inference and scoring over one collected
// snapshot: one priority pass, with the abuse-cluster rule switched on,
// folds every record and attribution into the oracle scorer, and its
// Result carries the MX assignments the failover table reads.
func scoreMisid(src dataset.Source, profiles []core.ProviderProfile, parallelism int, oracle []analysis.MisidOracle, dir *companies.Directory) (*analysis.MisidReport, *core.Result, error) {
	scorer := analysis.NewMisidScorer(oracle, dir)
	cfg := core.Config{Profiles: profiles, Parallelism: parallelism, AbuseClusterMinDomains: misidAbuseMin}
	res, err := analysis.Fold(src, core.ApproachPriority, cfg, scorer.Add)
	if err != nil {
		return nil, nil, err
	}
	return scorer.Report(), res, nil
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
