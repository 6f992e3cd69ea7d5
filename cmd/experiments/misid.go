package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"mxmap/internal/experiments"
)

// runMisid writes the adversarial robustness artifact —
// experiments.ScoreMisid on experiments.MisidWorld — as MISID.json into
// outDir, or prints it when none is given. TestMisidOracleScoring holds
// the committed results/MISID.json to the same bytes.
func runMisid(outDir string, parallelism int) error {
	start := time.Now()
	m, err := experiments.ScoreMisid(experiments.MisidWorld, parallelism)
	if err != nil {
		return err
	}
	// The report is in memory: the study's files go before a write
	// can exit through log.Fatal.
	if err := m.Study.Close(); err != nil {
		return err
	}
	write := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}
	if outDir == "" {
		return write(os.Stdout)
	}
	writeArtifact(outDir, "MISID.json", write)
	fmt.Fprintf(os.Stderr, "adversarial corpus scored in %v: %d domains, report written to %s/MISID.json\n",
		time.Since(start).Round(time.Millisecond), m.Misid.TotalDomains, outDir)
	return nil
}
