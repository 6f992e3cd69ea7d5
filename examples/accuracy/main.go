// Accuracy: reproduce the paper's §3.3 evaluation (Figure 4) — compare
// the MX-only, cert-based, banner-based and priority-based approaches on
// sampled domains with SMTP servers, in both the random and unique-MX
// variants, grading the sampled domains against the world's ground
// truth as each approach's inference pass emits them.
//
// Run with:
//
//	go run ./examples/accuracy
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mxmap/internal/experiments"
	"mxmap/internal/world"
)

func main() {
	study, err := experiments.NewStudy(world.Config{Seed: 3, Scale: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	defer study.Close()

	table, err := study.Fig4(context.Background(), 200, 3)
	if err != nil {
		log.Fatal(err)
	}
	if err := table.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading the table: the priority-based approach should dominate")
	fmt.Println("every row, and MX-only should collapse on the unique-MX .com")
	fmt.Println("sample — the paper's Figure 4 shape.")
}
