package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// report is what `all` writes and `compare` reads: every run of a full
// set, with what produced it.
type report struct {
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"go_version"`
	Runs      []*result `json:"runs"` // per workload: the untraced run, then the traced one
}

func (rep *report) find(workload string, traced bool) *result {
	for _, r := range rep.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// allMain runs every workload untraced and then traced, each in a fresh
// child process so no run inherits another's heap, sockets or sessions.
func allMain(args []string) int {
	fs := flag.NewFlagSet("servebench all", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "the only source of variation in generated inputs")
	seconds := fs.Float64("seconds", 10, "how long each untraced run measures")
	out := fs.String("out", "", "write the full report here, for compare")
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	rep := &report{Seed: *seed, Seconds: *seconds, NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	failed := false
	for _, trace := range []int{0, 1} {
		for _, w := range workloads {
			spans := filepath.Join(filepath.Dir(defaultConfig().traceOut), "servebench-spans-"+w.name+".jsonl")
			r, err := child(exe, "--workload", w.name, "--seed", fmt.Sprint(*seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(trace), "--trace-out", spans)
			if r != nil {
				rep.Runs = append(rep.Runs, r)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "servebench: %s trace=%d: %v\n", w.name, trace, err)
				failed = true
			}
		}
	}
	if !rep.summary() {
		failed = true
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			return 1
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if failed {
		return 1
	}
	return 0
}

// child runs one workload in a child process, passes its readable lines
// through and returns the result from its detail line.
func child(exe string, args ...string) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var r *result
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			r = &result{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, detailPrefix)), r); err != nil {
				r = nil
			}
		case strings.HasPrefix(line, "{"): // the contract's result line; detail has it all
		default:
			fmt.Println(line)
		}
	}
	if err := cmd.Wait(); err != nil {
		return r, err
	}
	if r == nil {
		return nil, fmt.Errorf("no result line")
	}
	return r, nil
}

// summary prints what only a full set can show: the layer suite's
// median over the traced runs, and that every exact metric agreed
// between them. It reports whether they did.
func (rep *report) summary() bool {
	var traced []*result
	for _, r := range rep.Runs {
		if r.Traced {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return false
	}
	fmt.Printf("layer suite, median of %d traced runs (seed %d)\n", len(traced), rep.Seed)
	agree := true
	for _, s := range perLayer {
		if s.perWorkload {
			continue
		}
		var vs []float64
		for _, r := range traced {
			vs = append(vs, r.Metrics[s.name].Value)
		}
		fmt.Printf("  %-36s %14.3f %-9s", s.name, median(vs), s.unit)
		switch {
		case !s.exact:
			fmt.Printf("  spread %5.1f%%\n", spread(vs)*100)
		case allEqual(vs):
			fmt.Println("  (exact: identical in every run)")
		default:
			fmt.Printf("  EXACT METRIC DIFFERS BETWEEN RUNS: %v\n", vs)
			agree = false
		}
	}
	return agree
}

func allEqual(vs []float64) bool {
	for _, v := range vs {
		if v != vs[0] {
			return false
		}
	}
	return true
}
