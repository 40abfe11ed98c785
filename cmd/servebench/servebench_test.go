package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testConfig is the benchmark shrunk to a fraction of a second per run:
// same code paths and metric names, numbers nobody should read.
func testConfig(t *testing.T, traced bool) runConfig {
	cfg := defaultConfig()
	cfg.seed, cfg.seconds, cfg.traced = 7, 0.3, traced
	cfg.setups, cfg.warmOps, cfg.warmEpisodes, cfg.countedEpisodes, cfg.slices = 2, 64, 6, 6, 2
	cfg.snapshotSessions, cfg.pipelineRounds, cfg.tracedSlices, cfg.refReps = 500, 64, 8, 30
	if traced {
		cfg.seconds = 0.6
	}
	cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	return cfg
}

func names(specs []metricSpec) []string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name+" "+s.unit)
	}
	return ns
}

func emitted(r *result) []string {
	var ns []string
	for name, m := range r.Metrics {
		ns = append(ns, name+" "+m.Unit)
	}
	return ns
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// TestNamesMatchBenchmarkJSON pins the benchmark's vocabulary: the
// gated workloads and the metrics this program emits are the ones
// BENCHMARK.json declares, name for name and unit for unit.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, layers, progWs []string
	for _, w := range bench.Workloads {
		ws = append(ws, w.Name)
	}
	for _, w := range workloads {
		if !w.ungated {
			progWs = append(progWs, w.name)
		}
	}
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bench.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	sameSet(t, "workloads", progWs, ws)
	sameSet(t, "end-to-end metrics", names(endToEnd), e2e)
	sameSet(t, "per-layer metrics", names(perLayer), layers)
}

// TestEveryWorkloadRuns runs each workload untraced, and the two kinds
// of traced run, and requires clean output checks and exactly the
// declared metrics.
func TestEveryWorkloadRuns(t *testing.T) {
	for _, w := range workloads {
		r, err := run(w, testConfig(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name, r.Correct, r.Attempted, r.Failed, r.Violations)
		}
		sameSet(t, w.name+" metrics", emitted(r), names(endToEnd))
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics are never zero", w.name, name, m.Value)
			}
		}
	}
	for _, name := range []string{"raft-serial", "sim-campaign"} {
		w, _ := findWorkload(name)
		cfg := testConfig(t, true)
		r, err := run(w, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d %v", name, r.Correct, r.Failed, r.Violations)
		}
		sameSet(t, name+" traced metrics", emitted(r), names(perLayer))
		if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
			t.Errorf("%s traced: no spans at %s (%v)", name, cfg.traceOut, err)
		}
	}
}

// TestExactMetricsRepeat runs the clock-free pipeline and the counted
// simulator episodes twice from one seed: every metric marked exact
// must come out identical.
func TestExactMetricsRepeat(t *testing.T) {
	var runs [2]*result
	for i := range runs {
		runs[i] = newResult(workload{}, true)
		cfg := testConfig(t, true)
		if err := pipelines(runs[i], cfg); err != nil {
			t.Fatal(err)
		}
		if err := simLayers(runs[i], cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range perLayer {
		if a, b := runs[0].values[s.name], runs[1].values[s.name]; s.exact && a != b {
			t.Errorf("%s: %v then %v", s.name, a, b)
		}
	}
}

// TestRunMainAndCompare drives the command line: an unknown workload is
// refused, and compare tells ok from worse on gated workloads only.
func TestRunMainAndCompare(t *testing.T) {
	var out bytes.Buffer
	if code := runMain([]string{"--workload", "no-such"}, &out); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	dir := t.TempDir()
	write := func(name string, opsPerS, ungatedOpsPerS float64) string {
		rep := report{Seed: 1, Seconds: 1, NProc: 2, GoVersion: "go"}
		for _, w := range workloads {
			r := newResult(w, false)
			r.Attempted, r.Correct = 100, true
			r.Metrics = map[string]metric{}
			for _, s := range endToEnd {
				r.Metrics[s.name] = metric{Value: 100, Unit: s.unit}
			}
			r.Metrics["ops_per_s"] = metric{Value: opsPerS, Unit: "ops/s"}
			if w.ungated {
				r.Metrics["ops_per_s"] = metric{Value: ungatedOpsPerS, Unit: "ops/s"}
			}
			rep.Runs = append(rep.Runs, r)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join("..", "..", "BENCHMARK.json")
	base, same, slow := write("base.json", 1000, 1000), write("same.json", 990, 500), write("slow.json", 500, 1000)
	out.Reset()
	if code := compareMain([]string{"-benchmark", bench, base, same}, &out); code != 0 || !strings.Contains(out.String(), "worse (not gated)") {
		t.Errorf("1%% slower, the ungated workload 50%%: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-benchmark", bench, base, slow}, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("50%% slower: exit %d\n%s", code, out.String())
	}
}
