// Command consensus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	consensus-bench            # run every experiment
//	consensus-bench t1 f7      # run selected experiments by ID
//	consensus-bench -list      # list experiment IDs
//
// Experiment IDs and their mapping to the paper's artifacts are indexed
// in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fortyconsensus/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	exit := 0
	for _, id := range ids {
		r, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
			continue
		}
		fmt.Printf("=== %s — %s ===\n%s\n", r.ID, r.Caption, r.Artifact)
	}
	os.Exit(exit)
}
