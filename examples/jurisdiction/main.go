// Jurisdiction: reproduce the paper's §5.4 national-bias analysis
// (Figure 8) — for each studied country-code TLD, measure what share of
// its domains hand their mail to Google, Microsoft, Tencent or Yandex,
// and thereby to US, Chinese or Russian legal jurisdiction. One
// inference pass feeds a per-ccTLD accumulator as it emits each
// domain's attribution.
//
// Run with:
//
//	go run ./examples/jurisdiction
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"slices"

	"mxmap/internal/analysis"
	"mxmap/internal/core"
	"mxmap/internal/dataset"
	"mxmap/internal/experiments"
	"mxmap/internal/world"
)

func main() {
	study, err := experiments.NewStudy(world.Config{Seed: 13, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()

	ctx := context.Background()
	date := study.LastDate(world.CorpusAlexa)
	prefs := analysis.NewCCTLDPreferences(study.World.Directory)
	_, err = study.Pass(ctx, world.CorpusAlexa, date, func(_ *dataset.DomainRecord, att core.DomainAttribution) {
		prefs.Add(att)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Provider preferences by ccTLD (%s):\n\n", date)
	fmt.Printf("%-6s %9s %10s %8s %7s %12s\n", "ccTLD", "Google", "Microsoft", "Tencent", "Yandex", "US combined")
	for _, tld := range prefs.TLDs() {
		g, m := prefs.Percent(tld, "Google"), prefs.Percent(tld, "Microsoft")
		fmt.Printf(".%-5s %8.1f%% %9.1f%% %7.1f%% %6.1f%% %11.1f%%\n",
			tld, g, m, prefs.Percent(tld, "Tencent"), prefs.Percent(tld, "Yandex"), g+m)
	}

	fmt.Println("\nExpected shape (paper Figure 8): US providers in wide use across")
	fmt.Println("Europe, the Americas and most of Asia; Yandex essentially only in")
	fmt.Println(".ru; Tencent essentially only in .cn.")
	if tlds := prefs.TLDs(); slices.Contains(tlds, "ru") && slices.Contains(tlds, "cn") {
		if prefs.Percent("ru", "Yandex") > prefs.Percent("ru", "Tencent") && prefs.Percent("cn", "Tencent") > prefs.Percent("cn", "Yandex") {
			fmt.Println("Shape holds in this run.")
		} else {
			fmt.Fprintln(os.Stderr, "warning: home-market dominance did not hold in this run")
		}
	}
}
