// benchjson converts `go test -bench -benchmem` text output into a
// JSON benchmark record, one entry per benchmark with ns/op, B/op and
// allocs/op, so successive PRs can diff performance numbers
// mechanically (see `make bench-json`, which writes $(BENCH_JSON)).
//
//	go test -bench=. -benchmem -run='^$' ./... | benchjson -o BENCH_12.json
//
// Unknown trailing metrics (e.g. ReportMetric outputs such as
// "failover-ticks") are preserved under "metrics". Lines that are not
// benchmark results or package trailers are ignored, so the raw `go
// test` stream can be piped in unfiltered.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark result row.
type Entry struct {
	Package     string             `json:"package"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "output path (default stdout)")
	flag.Parse()

	entries, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(entries), *out)
}

// parse reads `go test -bench` output. Benchmark lines precede their
// package's "ok <pkg> <time>" trailer, so entries accumulate unlabeled
// and are stamped with the package when the trailer arrives.
func parse(sc *bufio.Scanner) ([]Entry, error) {
	var entries []Entry
	unlabeled := 0 // index of the first entry not yet assigned a package
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) >= 3 && strings.HasPrefix(f[0], "Benchmark"):
			e, err := parseBench(f)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", sc.Text(), err)
			}
			entries = append(entries, e)
		case len(f) >= 2 && (f[0] == "ok" || f[0] == "FAIL"):
			for ; unlabeled < len(entries); unlabeled++ {
				entries[unlabeled].Package = f[1]
			}
		}
	}
	return entries, sc.Err()
}

func parseBench(f []string) (Entry, error) {
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Entry{}, err
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			b := int64(v)
			e.BytesPerOp = &b
		case "allocs/op":
			a := int64(v)
			e.AllocsPerOp = &a
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return e, nil
}
