// Command servebench is the repository's benchmark: five serving
// workloads through live.Client → TCP → live.Server → raft/multipaxos →
// smr → shard.Store on a 3-node loopback cluster, one simulator
// workload that is reported but not gated, and a traced run that
// attributes the time to layers. It measures every layer from outside,
// through public functions only.
//
//	go run ./cmd/servebench --workload raft-serial --seed 1 --seconds 10 --trace 0
//	go run ./cmd/servebench all -seed 1 -out new.json
//	go run ./cmd/servebench compare old.json new.json
//
// The first form is what BENCHMARK.json names: one run of one workload,
// ending in one JSON line. README.md in this directory defines every
// metric and says which end-to-end number each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all":
			os.Exit(allMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runMain is one run of one workload, as the benchmark contract calls
// it. The last line of standard output is the result object.
func runMain(args []string, out io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "the only source of variation in generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics, spans on")
	fs.StringVar(&cfg.traceOut, "trace-out", cfg.traceOut, "where a traced run writes its spans, as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || cfg.seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "usage: servebench --workload NAME --seed N --seconds S --trace 0|1\n       servebench all [-seed N] [-seconds S] [-out FILE]\n       servebench compare OLD.json NEW.json\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	cfg.traced = *trace == 1

	fmt.Fprintf(out, "servebench %s seed=%d seconds=%g trace=%d nproc=%d %s\n", w.name, cfg.seed, cfg.seconds, *trace, runtime.NumCPU(), runtime.Version())
	if w.backend != "" {
		fmt.Fprintf(out, "  closed loop: %d callers on one live.Client, each sending its next request when the last returns; %d%% Get, rest Incr, over %d keys\n", w.callers, w.getPct, numKeys)
		fmt.Fprintf(out, "  3 %s nodes in this process on loopback TCP, %d shards, 1 ms ticks, snapshot every %d\n", w.backend, numShards, w.snapshotEvery)
		fmt.Fprintln(out, "  no message delay is injected: latency is processor, kernel loopback and scheduler time only")
	} else {
		fmt.Fprintln(out, "  no sockets: explore episodes one after another, raft → multipaxos → shard, 4 faults each; an op is one episode")
	}
	if w.ungated {
		fmt.Fprintln(out, "  not in BENCHMARK.json: no bound rests on these numbers")
	}
	r, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	r.print(out)
	detail, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s%s\n", detailPrefix, detail)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", last)
	if !r.Correct {
		return 1
	}
	return 0
}

// detailPrefix marks the line that carries the full result (slices,
// spreads, notes) for `all`; the contract's result line follows it.
const detailPrefix = "#detail "

// print lists every metric by name with its unit.
func (r *result) print(out io.Writer) {
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(out, "  %-36s %14.3f %-9s", s.name, r.Metrics[s.name].Value, s.unit)
		if vs, ok := r.Slices[s.name]; ok {
			fmt.Fprintf(out, "  spread %5.1f%%  of %.4g", r.Spread[s.name]*100, vs)
		}
		if raw, ok := r.Slices["raw_"+s.name]; ok {
			fmt.Fprintf(out, "  at reference speed; as measured %.3f", median(raw))
		}
		if s.exact {
			fmt.Fprint(out, "  (exact)")
		}
		fmt.Fprintln(out)
	}
	if vs, ok := r.Slices["p99_us"]; ok && !r.Traced {
		fmt.Fprintf(out, "  %-36s %14.3f %-9s  spread %5.1f%%  of %.4g  as measured; not in BENCHMARK.json\n", "p99_us", median(vs), "us", r.Spread["p99_us"]*100, vs)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d (failed_ratio %.6f)\n", r.Attempted, r.Failed, ratio)
	for _, n := range r.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(out, "  OUTPUT CHECK FAILED: %s\n", v)
	}
}
