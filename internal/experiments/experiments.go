// Package experiments regenerates every table and figure of the paper's
// survey (see EXPERIMENTS.md for the index). Each experiment is a
// function returning rendered text artifacts; cmd/consensus-bench and
// the top-level benchmarks both dispatch here, so the printed rows are
// identical wherever an experiment runs.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	// The commitment protocols register their C&C profiles on import;
	// F10/F11 reference them even though their agreement cores are
	// exercised in their own package tests.
	_ "fortyconsensus/internal/commit"
)

// Result is one experiment's rendered output.
type Result struct {
	ID       string
	Caption  string
	Artifact string // rendered table/figure text
}

// Runner produces one experiment.
type Runner func() Result

var registry = map[string]Runner{}
var order []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate " + id)
	}
	registry[id] = r
	order = append(order, id)
}

// IDs returns every experiment ID, sorted lexically (not in
// registration order, which varies with package init sequence).
func IDs() []string {
	out := make([]string, len(order))
	copy(out, order)
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID (case-insensitive).
func Run(id string) (Result, error) {
	r, ok := registry[strings.ToLower(id)]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(), nil
}
