// Command consensus-load is a closed-loop load generator for a
// consensus-serve cluster: N workers each keep one operation in
// flight, and the run ends with throughput and latency percentiles.
//
//	consensus-load -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	    -workers 8 -duration 5s
//
// When -addrs is not the cluster's full ordered peer list (a node was
// voted out, or only some nodes are named), write each entry as
// id=host:port so leader hints find the right address.
//
// Exits nonzero if no operation committed — a burst against a dead or
// leaderless cluster fails loudly, which the smoke script relies on —
// or if the cluster did not do what it acknowledged: the working set's
// counters are read before and after the run, and they must have risen
// by at least the number of acknowledged Incrs and at most that plus
// the Incrs that failed (applied or not, unknown). The check assumes
// nobody else writes the same -keys meanwhile. Throughput is also
// printed per 10 s interval, so a cluster that slows as it runs shows.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/live"
	"fortyconsensus/internal/metrics"
	"fortyconsensus/internal/types"
)

func main() {
	var (
		addrsFlag = flag.String("addrs", "", "comma-separated server addresses: host:port (index = node ID) or id=host:port")
		shards    = flag.Int("shards", 2, "cluster shard count (must match the servers)")
		workers   = flag.Int("workers", 8, "concurrent closed-loop workers")
		duration  = flag.Duration("duration", 3*time.Second, "how long to run")
		keys      = flag.Int("keys", 64, "distinct keys in the working set")
		writePct  = flag.Int("write-pct", 80, "percentage of operations that write (rest read)")
		session   = flag.Int64("session", 0, "client session base (0 = derive from clock)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-attempt timeout")
	)
	flag.Parse()

	if *addrsFlag == "" {
		fmt.Fprintln(os.Stderr, "consensus-load: -addrs is required")
		os.Exit(2)
	}
	addrs, ids, err := live.ParseAddrs(*addrsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
		os.Exit(2)
	}
	base := *session
	if base == 0 {
		// Back-to-back runs must not collide in the servers' dedup
		// caches, so the default session base is clock-derived. This is
		// harness code: the determinism discipline binds the protocol
		// packages, not the load generator.
		base = time.Now().UnixNano() & 0x7fff_ffff_0000
	}

	cl, err := live.NewClient(live.ClientConfig{
		Addrs:          addrs,
		IDs:            ids,
		Shards:         *shards,
		SessionBase:    types.ClientID(base),
		AttemptTimeout: *timeout,
		Deadline:       *duration + 10*time.Second,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-load: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()

	// counters sums the working set's counters as the cluster holds them.
	counters := func() (sum int64) {
		for k := 0; k < *keys; k++ {
			res, err := cl.Do(kvstore.Get(fmt.Sprintf("load-%d", k)))
			if err != nil {
				fmt.Fprintf(os.Stderr, "consensus-load: reading load-%d: %v\n", k, err)
				os.Exit(1)
			}
			n, _ := strconv.ParseInt(string(res), 10, 64) // NOT_FOUND reads as 0
			sum += n
		}
		return sum
	}
	before := counters()

	type workerResult struct {
		lat   [2]metrics.Histogram // latency per successful read, write: microseconds
		errs  int
		acked int // Incrs acknowledged
		lost  int // Incrs that failed: applied or not, unknown
	}
	results := make([]workerResult, *workers)
	var done atomic.Int64 // operations acknowledged so far
	wire0 := cl.Stats()
	start := time.Now()
	stop := start.Add(*duration)
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		var last int64
		for at := start.Add(interval); at.Before(stop) || at.Equal(stop); at = at.Add(interval) {
			time.Sleep(time.Until(at))
			n := done.Load()
			fmt.Printf("consensus-load: interval %s-%s %.1f ops/s\n",
				at.Sub(start)-interval, at.Sub(start), float64(n-last)/interval.Seconds())
			last = n
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			r := &results[w]
			for time.Now().Before(stop) {
				key := fmt.Sprintf("load-%d", rng.Intn(*keys))
				cmd, write, kind := kvstore.Get(key), rng.Intn(100) < *writePct, 0
				if write {
					cmd, kind = kvstore.Incr(key, 1), 1
				}
				t0 := time.Now()
				_, err := cl.Do(cmd)
				if err != nil {
					r.errs++
					if write {
						r.lost++
					}
					continue
				}
				if write {
					r.acked++
				}
				done.Add(1)
				r.lat[kind].Add(int(time.Since(t0).Microseconds()))
			}
		}(w)
	}
	wg.Wait()
	wire := cl.Stats()
	<-reported
	applied := counters() - before

	var hist metrics.Histogram
	var kinds [2]metrics.Histogram
	var errs, acked, lost int
	for i := range results {
		r := &results[i]
		for k := range kinds {
			hist.Merge(&r.lat[k])
			kinds[k].Merge(&r.lat[k])
		}
		errs, acked, lost = errs+r.errs, acked+r.acked, lost+r.lost
	}
	sum := hist.Snapshot()
	tput := float64(sum.Count) / duration.Seconds()
	// Frames per write: how many workers' requests left in one write(2).
	frames, writes := wire.Frames-wire0.Frames, wire.Writes-wire0.Writes
	fmt.Printf("consensus-load: ops=%d errors=%d throughput=%.1f ops/s frames_per_write=%.2f\n",
		sum.Count, errs, tput, float64(frames)/float64(max(writes, 1)))
	fmt.Printf("consensus-load: latency_us p50=%d p90=%d p99=%d max=%d mean=%.1f\n",
		sum.P50, sum.P90, sum.P99, sum.Max, sum.Mean)
	// Reads leave the log and writes do not, so each kind has its own line.
	for k, name := range []string{"read", "write"} {
		ks := kinds[k].Snapshot()
		fmt.Printf("consensus-load: latency_us %s ops=%d p50=%d p99=%d\n", name, ks.Count, ks.P50, ks.P99)
	}

	if sum.Count == 0 {
		fmt.Fprintln(os.Stderr, "consensus-load: no operation committed")
		os.Exit(1)
	}
	if applied < int64(acked) || applied > int64(acked+lost) {
		fmt.Fprintf(os.Stderr, "consensus-load: NOT verified: the counters rose by %d over %d acknowledged Incrs and %d of unknown fate\n", applied, acked, lost)
		os.Exit(1)
	}
	fmt.Printf("consensus-load: verified: applied=%d acked=%d unknown=%d\n", applied, acked, lost)
}

// interval is how often throughput is printed while the run lasts.
const interval = 10 * time.Second
