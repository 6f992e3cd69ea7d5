// Quickstart: build a tiny simulated Internet, measure it with real DNS
// and SMTP exchanges, infer each domain's mail provider with the
// priority-based methodology, and print what was found. The inference
// pass hands over one attribution at a time (Study.Pass), and the
// ranking is a ShareAccumulator fed as the pass runs.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/experiments"
	"mxmap/internal/world"
)

func main() {
	// 1. Generate a small world: a provider roster with simulated server
	//    fleets plus three domain corpora assigned to them over time.
	study, err := experiments.NewStudy(world.Config{Seed: 7, Scale: 0.002})
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()

	// 2. Measure the Alexa-like corpus at the most recent snapshot. This
	//    resolves each domain's MX and A records against authoritative
	//    zone data, runs genuine SMTP+STARTTLS sessions against every
	//    distinct mail-server address, and writes the joined snapshot
	//    to a file the study owns.
	ctx := context.Background()
	date := study.LastDate(world.CorpusAlexa)
	path, err := study.File(ctx, world.CorpusAlexa, date)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := dataset.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured %d domains and %d distinct mail-server IPs at %s\n\n",
		len(snap.Domains), len(snap.IPs), date)

	// 3. Infer each domain's provider with the paper's five-step
	//    priority-based methodology. The pass hands over one domain's
	//    attribution at a time, in the file's (name) order: keep the ten
	//    best-ranked to show, and fold every one into the market-share
	//    ranking.
	acc := analysis.NewShareAccumulator(study.World.Directory)
	type shown struct {
		rank int
		line string
	}
	var sample []shown
	res, err := study.Pass(ctx, world.CorpusAlexa, date, func(_ *dataset.DomainRecord, att core.DomainAttribution) {
		acc.Add(att)
		if primary := att.Primary(); primary != "" {
			company := analysis.CompanyOf(att.Domain, primary, study.World.Directory)
			sample = append(sample, shown{att.Rank, fmt.Sprintf("  %-28s -> %-22s (%s)", att.Domain, primary, company)})
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inference: %d MX records examined in step 4, %d corrected\n\n",
		res.NumExamined, res.NumCorrected)

	// 4. Show a few attributions with the signal that produced them.
	fmt.Println("sample attributions:")
	slices.SortFunc(sample, func(a, b shown) int { return a.rank - b.rank })
	for _, s := range sample[:min(len(sample), 10)] {
		fmt.Println(s.line)
	}

	// 5. Rank the folded market shares.
	fmt.Println("\ntop five companies:")
	for i, s := range acc.TopShares(5) {
		fmt.Printf("  %d. %-18s %5.1f domains (%.1f%%)\n", i+1, s.Company, s.Domains, s.Percent)
	}
	selfN, selfPct := analysis.SelfHostedCount(acc)
	fmt.Printf("  self-hosted: %.1f domains (%.1f%%)\n", selfN, selfPct)
}
