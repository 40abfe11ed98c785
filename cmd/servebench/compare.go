package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: the
// direction and regression bound of every end-to-end metric live there
// and nowhere else.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// failedRatioBound is the one absolute bound: a set of runs may fail
// this much more of what it attempts before it counts as worse.
const failedRatioBound = 0.001

// compareMain prints one row per (workload, end-to-end metric) of two
// reports from `all`. A row is "worse" when NEW is worse than OLD by
// more than the metric's bound, "unresolved" when either run's own
// slices spread wider than the bound (the comparison cannot tell), and
// "ok" otherwise. It exits 1 on any worse row of a gated workload or
// exact-metric mismatch; an ungated workload's rows say so and decide
// nothing.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("servebench compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "where the bounds are")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: servebench compare [-benchmark BENCHMARK.json] OLD.json NEW.json")
		return 2
	}
	var bench benchmarkFile
	var older, newer report
	for _, in := range []struct {
		path string
		v    any
	}{{*benchPath, &bench}, {fs.Arg(0), &older}, {fs.Arg(1), &newer}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			return 2
		}
	}
	fmt.Fprintf(out, "OLD %s: seed %d, %g s, nproc %d, %s\n", fs.Arg(0), older.Seed, older.Seconds, older.NProc, older.GoVersion)
	fmt.Fprintf(out, "NEW %s: seed %d, %g s, nproc %d, %s\n", fs.Arg(1), newer.Seed, newer.Seconds, newer.NProc, newer.GoVersion)
	fmt.Fprintf(out, "%-17s %-14s %12s %12s %18s %7s  %s\n", "workload", "metric", "OLD", "NEW", "NEW/OLD", "bound", "verdict")
	bad := false
	for _, w := range workloads {
		o, n := older.find(w.name, false), newer.find(w.name, false)
		if o == nil || n == nil {
			fmt.Fprintf(out, "%-17s missing from one report\n", w.name)
			bad = bad || !w.ungated
			continue
		}
		judge := func(verdict string) string {
			if w.ungated {
				return verdict + " (not gated)"
			}
			bad = bad || verdict == "worse"
			return verdict
		}
		for _, m := range bench.EndToEnd {
			ov, nv := o.Metrics[m.Name].Value, n.Metrics[m.Name].Value
			change := (nv - ov) / ov // how much worse NEW is, as a share of OLD
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case o.Spread[m.Name] > m.Bound || n.Spread[m.Name] > m.Bound:
				verdict = fmt.Sprintf("unresolved (slice spread %.0f%% / %.0f%%)", o.Spread[m.Name]*100, n.Spread[m.Name]*100)
			case change > m.Bound:
				verdict = "worse"
			}
			fmt.Fprintf(out, "%-17s %-14s %12.3f %12.3f %7.3f of %-8.4g %6.0f%%  %s\n", w.name, m.Name, ov, nv, nv/ov, ov, m.Bound*100, judge(verdict))
		}
		of, nf := float64(o.Failed)/float64(o.Attempted), float64(n.Failed)/float64(n.Attempted)
		verdict := "ok"
		if nf > of+failedRatioBound {
			verdict = "worse"
		}
		fmt.Fprintf(out, "%-17s %-14s %12.6f %12.6f %18s %7s  %s\n", w.name, "failed_ratio", of, nf, "", "+0.001", judge(verdict))
	}
	// Exact metrics come from the layer suite, which every traced run
	// repeats; with equal seeds they must match to the last digit.
	exactDiffer := false
	for _, s := range perLayer {
		if !s.exact || older.Seed != newer.Seed {
			continue
		}
		for _, w := range workloads {
			o, n := older.find(w.name, true), newer.find(w.name, true)
			if o == nil || n == nil {
				continue
			}
			if ov, nv := o.Metrics[s.name].Value, n.Metrics[s.name].Value; ov != nv {
				fmt.Fprintf(out, "exact metric %s differs on %s: %v then %v\n", s.name, w.name, ov, nv)
				exactDiffer = true
			}
		}
	}
	if older.Seed != newer.Seed {
		fmt.Fprintln(out, "seeds differ: exact metrics not compared")
	} else if !exactDiffer {
		fmt.Fprintln(out, "every exact metric is identical in the two reports")
	}
	if bad || exactDiffer {
		return 1
	}
	return 0
}
