package main

import (
	"fmt"
	"slices"
	"time"
)

// runConfig sizes one run. The driver fixes seed, seconds and traced;
// the rest are the benchmark's own constants (defaultConfig), shrunk
// only by the test.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	// setups is how many fresh clusters an untraced run measures, one
	// after another; setup_s is the median of their set-up times, so one
	// slow election does not decide it. slices is the total over all of
	// them, a multiple of setups.
	setups int
	// refReps is how many times a probe runs the reference kernel (ref.go).
	refReps int
	// warmOps ends a serving set-up: it is a count, not a time, so work
	// a later change moves into set-up or the first requests shows.
	warmOps int
	// warmEpisodes is the same for sim-campaign.
	warmEpisodes int
	// countedEpisodes is how many episodes sim.msgs_per_episode sums over.
	countedEpisodes int
	slices          int
	// tracedSlices cuts a traced window; many short slices, so that each
	// untraced one has a traced neighbour the machine treated alike.
	tracedSlices int
	// snapshotSessions sizes smr.snapshot_100k_ms.
	snapshotSessions int
	// pipelineRounds is how many rounds the clock-free pipeline runs at
	// each depth; a count, so its exact metrics repeat.
	pipelineRounds int
	traceOut       string
}

func defaultConfig() runConfig {
	return runConfig{
		seed: 1, seconds: 10, setups: 5, refReps: 400, warmOps: 2048, warmEpisodes: 48, countedEpisodes: 30,
		slices: 10, tracedSlices: 32, snapshotSessions: 100_000, pipelineRounds: 2000,
		traceOut: ".bench_build/servebench-spans.jsonl",
	}
}

func (c runConfig) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// result is one run of one workload.
type result struct {
	Workload   string               `json:"workload"`
	Traced     bool                 `json:"traced"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Violations []string             `json:"violations,omitempty"`
	Metrics    map[string]metric    `json:"metrics"`
	Slices     map[string][]float64 `json:"slices,omitempty"`
	Spread     map[string]float64   `json:"spread,omitempty"`
	Notes      []string             `json:"notes,omitempty"`

	values metricSet
	logs   []*spanLog
}

func newResult(w workload, traced bool) *result {
	return &result{Workload: w.name, Traced: traced, values: metricSet{},
		Slices: map[string][]float64{}, Spread: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// sliced records an end-to-end metric as the median of its slice
// values, with the values and their spread kept for compare.
func (r *result) sliced(name string, vs []float64) {
	r.values[name] = median(vs)
	r.Slices[name] = vs
	r.Spread[name] = spread(vs)
}

// run measures one workload: end-to-end metrics when untraced, every
// per-layer metric when traced.
func run(w workload, cfg runConfig) (*result, error) {
	r := newResult(w, cfg.traced)
	var err error
	switch {
	case w.backend == "" && !cfg.traced:
		err = simEndToEnd(r, cfg)
	case w.backend == "":
		err = simTraced(r, cfg)
	case !cfg.traced:
		err = serveEndToEnd(r, w, cfg)
	default:
		err = serveTraced(r, w, cfg)
	}
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if cfg.traced {
		if err := layerSuite(r, cfg); err != nil {
			return nil, err
		}
		n, err := writeSpans(cfg.traceOut, r.logs)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.note("%d spans written to %s", n, cfg.traceOut)
		specs = perLayer
	}
	var missing []string
	if r.Metrics, missing = r.values.render(specs); len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	r.Correct = len(r.Violations) == 0
	return r, nil
}

// setUp brings up a cluster and its load and returns once warmOps
// operations have completed, with the time all of that took.
func setUp(w workload, nodes int, seed uint64, warmOps int, check bool) (*load, time.Duration, error) {
	t0 := time.Now()
	tgt, err := startCluster(w, nodes, seed)
	if err != nil {
		return nil, 0, err
	}
	l, err := startLoad(w, tgt, seed, warmOps, check)
	if err != nil {
		tgt.close()
		return nil, 0, err
	}
	select {
	case <-l.warmed:
		return l, time.Since(t0), nil
	case <-time.After(60 * time.Second):
		l.finish()
		return nil, 0, fmt.Errorf("%s: warm-up of %d operations did not finish", w.name, warmOps)
	}
}

// serveEndToEnd measures a serving workload on cfg.setups fresh
// clusters, one after another: each is set up (timed), measured for its
// share of the run and torn down after its output checks. Fresh
// clusters make the slices independent samples of the same thing. One
// long-lived cluster does not: its raft log and session table grow, so
// late slices are slower than early ones, and with compaction on it
// falls off a cliff at a moment that differs from run to run (README,
// "What the baseline shows").
func serveEndToEnd(r *result, w workload, cfg runConfig) error {
	ref, err := newReference()
	if err != nil {
		return err
	}
	defer ref.close()
	before, err := ref.probe(cfg.refReps)
	if err != nil {
		return err
	}
	var setups, slowOp, slowRun []float64
	var st []sliceStats
	for i := 0; i < cfg.setups; i++ {
		l, took, err := setUp(w, 3, cfg.seed*64+uint64(i), cfg.warmOps, true)
		if err != nil {
			return err
		}
		time.Sleep(cfg.dur(0.02)) // past the first GC cycles
		win := l.measure(cfg.dur(1)/time.Duration(cfg.setups), cfg.slices/cfg.setups, false)
		r.Violations = append(r.Violations, l.finish()...)
		after, err := ref.probe(cfg.refReps)
		if err != nil {
			return err
		}
		slow := around(before, after)
		for _, s := range l.cut(win) {
			r.raw(s)
			s.atReferenceSpeed(slow)
			st = append(st, s)
		}
		r.Slices["raw_setup_s"] = append(r.Slices["raw_setup_s"], took.Seconds())
		setups = append(setups, took.Seconds()/slow.run)
		slowOp, slowRun = append(slowOp, slow.op), append(slowRun, slow.run)
		before = after
	}
	r.sliced("setup_s", setups)
	r.Slices["machine_slowness_op"], r.Slices["machine_slowness_run"] = slowOp, slowRun
	r.note("every end-to-end metric is stated at reference speed; the machine took %.3f of the nominal time over one repetition of the reference kernel and %.3f over groups of %d (medians over the windows)", median(slowOp), median(slowRun), refGroup)
	return r.endToEnd(st)
}

// raw keeps what a slice measured before it is restated at reference
// speed, for the detail line and for anyone who doubts the yardstick.
func (r *result) raw(s sliceStats) {
	r.Slices["raw_ops_per_s"] = append(r.Slices["raw_ops_per_s"], s.opsPerS)
	r.Slices["raw_p50_us"] = append(r.Slices["raw_p50_us"], s.p50)
	r.Slices["raw_cpu_us_per_op"] = append(r.Slices["raw_cpu_us_per_op"], s.cpuPerOp)
}

// endToEnd turns slices into the end-to-end metrics.
func (r *result) endToEnd(st []sliceStats) error {
	var ops, p50, p99, cpu []float64
	beyond := st[0].beyondP99
	for _, s := range st {
		if s.ops == 0 {
			return errNoOps
		}
		r.Attempted += s.ops + s.failed
		r.Failed += s.failed
		ops, p50, p99, cpu = append(ops, s.opsPerS), append(p50, s.p50), append(p99, s.p99), append(cpu, s.cpuPerOp)
		beyond = min(beyond, s.beyondP99)
	}
	r.sliced("ops_per_s", ops)
	r.sliced("p50_us", p50)
	r.sliced("p99_us", p99) // printed, not in endToEnd: see spec.go
	r.sliced("cpu_us_per_op", cpu)
	r.note("each metric is the median of %d slices; the thinnest slice has %d samples beyond its p99", len(st), beyond)
	return nil
}

// serveTraced is the traced run of a serving workload: one set-up, then
// a window half of whose slices record a span per operation. Counters are
// read at the window's two ends.
func serveTraced(r *result, w workload, cfg runConfig) error {
	l, _, err := setUp(w, 3, cfg.seed*64, cfg.warmOps, true)
	if err != nil {
		return err
	}
	time.Sleep(cfg.dur(0.05))
	before := l.tgt.counters()
	win := l.measure(cfg.dur(0.4), cfg.tracedSlices, true)
	after := l.tgt.counters()
	r.values["server.submit_apply_p50_us"] = l.tgt.submitApplyP50()
	r.Violations = append(r.Violations, l.finish()...)
	st := l.cut(win)

	ops, err := r.tracedWindow(st, before, after)
	if err != nil {
		return err
	}
	sent, dropped := float64(after.sent-before.sent), float64(after.dropped-before.dropped)
	r.values["transport.frames_per_op"] = sent / float64(ops)
	r.values["transport.drop_ratio"] = 0
	if sent+dropped > 0 {
		r.values["transport.drop_ratio"] = dropped / (sent + dropped)
	}
	r.values["server.not_leader_per_op"] = float64(after.notLeader-before.notLeader) / float64(ops)
	for _, c := range l.cs {
		r.logs = append(r.logs, c.spans)
	}
	return nil
}

// drift is the throughput of a window's last quarter over its first
// quarter: below 1, something grows with run length and costs time.
func drift(st []sliceStats) float64 {
	q := max(len(st)/4, 1)
	var first, last []float64
	for i := 0; i < q; i++ {
		first, last = append(first, st[i].opsPerS), append(last, st[len(st)-1-i].opsPerS)
	}
	return median(last) / median(first)
}

// tracedWindow turns a traced window's slices into the rows every
// workload has: the runtime.MemStats deltas between the two counter
// readings, and what comes from the spans themselves — the far tail,
// the drift, and what tracing cost. It returns the successful
// operations the window saw.
func (r *result) tracedWindow(st []sliceStats, before, after counters) (int, error) {
	var plain, traced, lats []float64
	ops := 0
	for i, s := range st {
		if s.ops == 0 {
			return 0, errNoOps
		}
		r.Attempted += s.ops + s.failed
		r.Failed += s.failed
		ops += s.ops
		if tracedSlice(i) {
			traced = append(traced, s.opsPerS)
			lats = append(lats, s.lats...)
		} else {
			plain = append(plain, s.opsPerS)
		}
	}
	r.values["proc.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / float64(ops)
	r.values["proc.alloc_kb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(ops)
	r.values["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	r.values["proc.heap_mb_end"] = float64(after.mem.HeapAlloc) / (1 << 20)
	r.values["proc.slice_drift"] = drift(st)

	slices.Sort(lats)
	r.values["client.p99_us"], _ = percentile(lats, 99)
	p999, beyond := percentile(lats, 99.9)
	r.values["client.p999_us"] = p999
	r.note("client.p999_us has %d samples beyond it", beyond)
	// Slices come off-on-on-off, so the k-th untraced and the k-th traced
	// slice are neighbours in time; the median of their ratios shrugs off
	// one slice the machine spoiled.
	ratios := make([]float64, len(traced))
	for k := range ratios {
		ratios[k] = traced[k] / plain[k]
	}
	r.values["trace.overhead_pct"] = (1 - median(ratios)) * 100
	return ops, nil
}
