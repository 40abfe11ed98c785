package explore

import (
	"runtime"

	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/runner"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/types"
)

// nodeIDs returns the membership 0..n-1 schedules are drawn over.
func nodeIDs(n int) []types.NodeID {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return ids
}

// Campaign sweeps (seed × random schedule) space for one protocol.
type Campaign struct {
	Proto Protocol
	// Seeds is how many runs to perform; run i uses seed SeedBase+i.
	Seeds    int
	SeedBase uint64
	// Faults is the per-schedule fault budget (0 = fault-free sweep).
	Faults int
	// Nodes/Horizon override the protocol defaults when > 0.
	Nodes, Horizon int
	// Classes restricts generated fault families (nil = nemesis default
	// crash-model mix).
	Classes []nemesis.Op
	// MaxDown overrides the generator's simultaneous-down bound.
	MaxDown int
	// Shrink minimizes every failing schedule before reporting it.
	Shrink bool
	// ShrinkBudget bounds re-runs per shrink (0 = default).
	ShrinkBudget int
	// Workers bounds the episode worker pool: 0 picks GOMAXPROCS, 1 runs
	// the sweep sequentially. Every episode is a pure function of its
	// seed and results merge in canonical seed order, so the
	// CampaignResult is bit-identical for every worker count.
	Workers int
	// Cancel, when non-nil and closed, stops the sweep early: no new
	// episodes start and Run returns the canonical prefix merged so far.
	Cancel <-chan struct{}
	// Log, when set, receives one line per completed run, in seed order.
	Log func(format string, args ...any)
}

// Failure is one violating run with its reproducers.
type Failure struct {
	Result Result
	Spec   *nemesis.Spec // reproducer for the original failing run
	Shrunk *nemesis.Spec // minimized reproducer (nil when shrinking is off)
}

// CampaignResult aggregates one campaign.
type CampaignResult struct {
	Protocol string
	Runs     int
	// Outcomes counts runs per outcome.
	Outcomes map[string]int
	// Matrix is the survival matrix: fault class → outcome → runs whose
	// schedule contained that class. A fault-free run counts under
	// "none". Rows overlap: a schedule with both crash and partition
	// events counts in both rows.
	Matrix map[string]map[string]int
	// Exposure sums fault-event and message counters across runs.
	Exposure runner.Stats
	// Failures holds violating runs in canonical seed order regardless
	// of episode completion order.
	Failures []Failure
}

// episodeOut is everything one episode contributes to the merge. The
// worker computes it; the merger folds it in, in seed order.
type episodeOut struct {
	sched nemesis.Schedule
	res   Result
	spec  *nemesis.Spec // reproducer, violations only
	// Shrink products (violations with Shrink on).
	shrunk     *nemesis.Spec
	shrinkRuns int
}

// workerCount resolves the effective pool size.
func (c Campaign) workerCount() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Seeds {
		w = c.Seeds
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the sweep: episodes fan out across the worker pool and
// merge back in canonical seed order, so the survival matrix, failure
// list, exposure counters and every trace hash are bit-identical to a
// sequential (Workers: 1) sweep. An episode panic cancels the remaining
// episodes and re-throws deterministically as *EpisodePanic.
func (c Campaign) Run() *CampaignResult {
	res := &CampaignResult{
		Protocol: c.Proto.Name,
		Outcomes: map[string]int{},
		Matrix:   map[string]map[string]int{},
	}
	nodes := c.Nodes
	if nodes <= 0 {
		nodes = c.Proto.Nodes
	}
	horizon := c.Horizon
	if horizon <= 0 {
		horizon = c.Proto.Horizon
	}
	// Membership is identical for every episode: build it once instead
	// of once per generated schedule. Generate only reads it.
	members := nodeIDs(nodes)

	outs := make([]episodeOut, c.Seeds)
	p := startPool(c.workerCount(), c.Seeds, c.Cancel, func(i int) {
		outs[i] = c.runEpisode(c.SeedBase+uint64(i), nodes, horizon, members)
	})
	for i := 0; i < c.Seeds; i++ {
		if !p.waitFor(i) {
			break // cancelled, or a worker panicked (finish re-throws)
		}
		c.merge(res, c.SeedBase+uint64(i), &outs[i])
	}
	p.finish()
	return res
}

// runEpisode is the per-seed unit of work: generate the schedule, drive
// the episode, and shrink a failing schedule. It runs on a pool worker
// and touches no campaign state besides its own output slot.
func (c Campaign) runEpisode(seed uint64, nodes, horizon int, members []types.NodeID) episodeOut {
	sched := c.generate(seed, members, horizon)
	out := episodeOut{sched: sched, res: RunOnce(c.Proto, seed, nodes, horizon, sched)}
	if out.res.Outcome != OutcomeViolation {
		return out
	}
	out.spec = out.res.Spec(sched)
	if c.Shrink {
		sh := ShrinkSchedule(c.Proto, seed, nodes, horizon, sched, c.ShrinkBudget)
		out.shrunk = sh.Final.Spec(sh.Schedule)
		out.shrinkRuns = sh.Runs
	}
	return out
}

// merge folds one episode into the aggregate. Called for seeds in
// ascending order only, which keeps Outcomes/Matrix insertion order,
// Exposure summation order, the failure list, and the Log stream
// identical to the sequential engine's.
func (c Campaign) merge(res *CampaignResult, seed uint64, o *episodeOut) {
	res.Runs++
	res.Outcomes[o.res.Outcome]++
	classes := o.sched.Classes()
	if len(classes) == 0 {
		classes = []string{"none"}
	}
	for _, cl := range classes {
		row := res.Matrix[cl]
		if row == nil {
			row = map[string]int{}
			res.Matrix[cl] = row
		}
		row[o.res.Outcome]++
	}
	res.Exposure.Add(o.res.Stats)
	if c.Log != nil {
		c.Log("seed %d: %s (faults %d, hash %s)", seed, o.res.Outcome, o.sched.FaultCount(), o.res.Hash)
	}
	if o.res.Outcome != OutcomeViolation {
		return
	}
	fail := Failure{Result: o.res, Spec: o.spec}
	if o.shrunk != nil {
		fail.Shrunk = o.shrunk
		if c.Log != nil {
			c.Log("seed %d: shrunk %d -> %d fault(s) in %d re-run(s)",
				seed, o.sched.FaultCount(), o.shrunk.Schedule.FaultCount(), o.shrinkRuns)
		}
	}
	res.Failures = append(res.Failures, fail)
}

// generate draws the run's schedule from a stream decorrelated from the
// fabric seed. members is the shared, read-only sweep membership.
func (c Campaign) generate(seed uint64, members []types.NodeID, horizon int) nemesis.Schedule {
	if c.Faults <= 0 {
		return nemesis.Schedule{}
	}
	return nemesis.Generate(simnet.NewRNG(ScheduleSeed(seed)), nemesis.GenConfig{
		Nodes:   members,
		Horizon: horizon,
		Faults:  c.Faults,
		Classes: c.Classes,
		MaxDown: c.MaxDown,
	})
}
