// Longitudinal: reproduce the paper's §5.2 trend analysis (Figure 6a) —
// measure the Alexa-like corpus at every semi-annual snapshot from
// 2017-06 to 2021-06, fold each snapshot's inference pass into a
// market-share accumulator (Study.Shares), and chart the consolidation
// of the top companies against the decline of self-hosting.
//
// Run with:
//
//	go run ./examples/longitudinal
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mxmap/internal/analysis"
	"mxmap/internal/experiments"
	"mxmap/internal/report"
	"mxmap/internal/world"
)

func main() {
	study, err := experiments.NewStudy(world.Config{Seed: 9, Scale: 0.005})
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()

	ctx := context.Background()
	dates := study.World.Corpus(world.CorpusAlexa).Dates
	track := []string{"Google", "Microsoft", "Yandex", "ProofPoint", "Mimecast"}

	l := analysis.NewLongitudinal()
	for _, date := range dates {
		acc, err := study.Shares(ctx, world.CorpusAlexa, date)
		if err != nil {
			log.Fatal(err)
		}
		l.Add(acc, track, 5)
		fmt.Fprintf(os.Stderr, "measured %s\n", date)
	}

	chart := report.NewChart("Top companies in the Alexa corpus, 2017-2021 (Figure 6a)", dates)
	for _, name := range track {
		chart.AddSeries(name, l.Get(name))
	}
	chart.AddSeries("Top5 Total", l.Get("TopN Total"))
	chart.AddSeries("Self-Hosted", l.Get(analysis.SelfHostedLabel))
	if err := chart.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	top, self := l.Get("TopN Total"), l.Get(analysis.SelfHostedLabel)
	fmt.Printf("\ntop-5 share: %.1f%% -> %.1f%%   self-hosted: %.1f%% -> %.1f%%\n",
		top[0], top[len(dates)-1], self[0], self[len(dates)-1])
	fmt.Println("(the paper reports 40.1% -> 49.0% and 11.7% -> 7.9%)")
}
