// Command mxmap runs the mail-provider inference methodology over a
// measured snapshot (as written by mxscan) and reports either the
// per-domain attributions or the aggregated provider ranking.
//
// Usage:
//
//	mxmap [-approach priority] [-top 15] [-domains] snapshot.jsonl
//
// Approaches: mx, cert, banner, priority (the paper's §3.3 comparison).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mxmap/internal/analysis"
	"mxmap/internal/companies"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/report"
)

func main() {
	var (
		approach    = flag.String("approach", "priority", "inference approach: mx, cert, banner or priority")
		top         = flag.Int("top", 15, "number of providers in the ranking")
		showDomains = flag.Bool("domains", false, "print per-domain attributions instead of the ranking")
		parallelism = flag.Int("parallelism", 0, "inference worker count (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mxmap [flags] snapshot.jsonl")
		os.Exit(2)
	}
	snap, err := dataset.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	ap, err := core.ParseApproach(*approach)
	if err != nil {
		log.Fatal(err)
	}
	dir := companies.Curated()
	cfg := core.Config{Profiles: analysis.ProviderProfiles(dir), Parallelism: *parallelism}
	res := core.Infer(snap, ap, cfg)

	if *showDomains {
		for _, att := range res.Domains {
			primary := att.Primary()
			if primary == "" {
				fmt.Printf("%s\t-\t-\n", att.Domain)
				continue
			}
			fmt.Printf("%s\t%s\t%s\n", att.Domain, primary, analysis.CompanyOf(att.Domain, primary, dir))
		}
		return
	}

	credits := analysis.CompanyCredits(res, dir)
	shares := analysis.TopShares(credits, len(res.Domains), *top)
	t := report.NewTable(
		fmt.Sprintf("Top providers (%s approach, %s %s, %d domains, %d MX examined, %d corrected)",
			ap, snap.Corpus, snap.Date, len(res.Domains), res.NumExamined, res.NumCorrected),
		"Rank", "Company", "Domains", "Share")
	for i, s := range shares {
		t.AddRow(fmt.Sprint(i+1), s.Company,
			fmt.Sprintf("%.1f", s.Domains), fmt.Sprintf("%.2f%%", s.Percent))
	}
	selfN, selfPct := analysis.SelfHostedCount(res, dir)
	t.AddRow("-", analysis.SelfHostedLabel, fmt.Sprintf("%.1f", selfN), fmt.Sprintf("%.2f%%", selfPct))
	if err := t.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
