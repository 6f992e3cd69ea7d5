// Command mxmap runs the mail-provider inference methodology over a
// measured snapshot (as written by mxscan) and reports either the
// per-domain attributions or the aggregated provider ranking. It
// streams the file (dataset.OpenStream): each attribution is printed or
// folded into the ranking as the inference pass emits it, so memory
// follows the snapshot's distinct addresses and exchanges, not its
// domain count.
//
// Usage:
//
//	mxmap [-approach priority] [-top 15] [-domains] snapshot.jsonl
//
// Approaches: mx, cert, banner, priority (the paper's §3.3 comparison).
package main

import (
	"bufio"
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
	st, err := dataset.OpenStream(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	ap, err := core.ParseApproach(*approach)
	if err != nil {
		log.Fatal(err)
	}
	dir := companies.Curated()
	cfg := core.Config{Profiles: analysis.ProviderProfiles(dir), Parallelism: *parallelism}

	out := bufio.NewWriter(os.Stdout)
	acc := analysis.NewShareAccumulator(dir)
	emit := acc.Add
	if *showDomains {
		emit = func(att core.DomainAttribution) {
			primary := att.Primary()
			if primary == "" {
				fmt.Fprintf(out, "%s\t-\t-\n", att.Domain)
				return
			}
			fmt.Fprintf(out, "%s\t%s\t%s\n", att.Domain, primary, analysis.CompanyOf(att.Domain, primary, dir))
		}
	}
	res, err := core.InferStream(st, ap, cfg, emit)
	if err != nil {
		log.Fatal(err)
	}

	if !*showDomains {
		t := report.NewTable(
			fmt.Sprintf("Top providers (%s approach, %s %s, %d domains, %d MX examined, %d corrected)",
				ap, st.Corpus, st.Date, res.NumDomains, res.NumExamined, res.NumCorrected),
			"Rank", "Company", "Domains", "Share")
		for i, s := range acc.TopShares(*top) {
			t.AddRow(fmt.Sprint(i+1), s.Company,
				fmt.Sprintf("%.1f", s.Domains), fmt.Sprintf("%.2f%%", s.Percent))
		}
		selfN, selfPct := analysis.SelfHostedCount(acc)
		t.AddRow("-", analysis.SelfHostedLabel, fmt.Sprintf("%.1f", selfN), fmt.Sprintf("%.2f%%", selfPct))
		if err := t.WriteText(out); err != nil {
			log.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
}
