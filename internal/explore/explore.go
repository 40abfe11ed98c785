// Package explore is the campaign engine over the nemesis fault
// language: it sweeps (seed × random schedule) space against registered
// protocol harnesses, checks a shared invariant suite every tick, and
// shrinks failing schedules to minimal replayable reproducers.
//
// The paper's comparison tables answer "which failure models does each
// protocol tolerate" analytically; a campaign answers it empirically on
// this codebase. One run is an Episode: a protocol cluster on a seeded
// fabric, driven tick by tick while a nemesis.Injector applies the
// fault schedule and the episode's invariant checker watches for safety
// violations (agreed-value divergence, committed-log divergence, atomic
// commitment mixing commit and abort). Because the whole substrate is
// deterministic, a Result's trace hash is bit-identical across replays
// of the same (protocol, nodes, seed, horizon, schedule) tuple — which
// is what makes shrinking and reproducer files trustworthy.
package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/nemesis"
	"fortyconsensus/internal/runner"
)

// Episode is one protocol cluster under campaign control. Adapters in
// protocols.go build episodes; RunOnce drives them. All closures must
// be deterministic in (nodes, seed).
type Episode struct {
	// Target is the fault-application surface (the runner cluster).
	Target nemesis.Target
	// Tick advances the cluster one step: submit scheduled workload,
	// step the runner, drain decisions into the invariant tracker.
	Tick func(now int)
	// Check returns the first invariant violation observed, or nil.
	Check func() *Violation
	// Fingerprint summarizes committed state; it feeds the trace hash
	// every tick, so equal traces hash equal and diverging traces
	// diverge at the first differing tick.
	Fingerprint func() string
	// Healthy reports whether the protocol completed its expected work
	// (all faults recover before the final quarter of the horizon, so a
	// live protocol should be healthy by the end). An unhealthy,
	// unviolated run is a stall.
	Healthy func() bool
	// Settle, if set, is called once the schedule's last event (tick 0
	// if none) has fired, for a Healthy that asks for progress since.
	Settle func()
	// Stats returns the runner's message and fault-exposure counters.
	Stats func() runner.Stats
}

// Protocol names a harness the campaign engine can instantiate.
type Protocol struct {
	Name     string
	Nodes    int // default cluster size
	MinNodes int // smallest size the shrinker may try
	Horizon  int // default run length in ticks
	New      func(nodes int, seed uint64) *Episode
}

// Violation is one invariant failure.
type Violation struct {
	Invariant string // e.g. "single-value-agreement"
	Detail    string
}

func (v *Violation) String() string { return v.Invariant + ": " + v.Detail }

// Outcome classification for one run.
const (
	OutcomeOK        = "ok"        // no violation, protocol healthy at the end
	OutcomeStall     = "stall"     // no violation, but expected work incomplete
	OutcomeViolation = "violation" // an invariant failed
)

// Result is one episode's outcome.
type Result struct {
	Protocol    string
	Nodes       int
	Seed        uint64
	Horizon     int
	Outcome     string
	Violation   *Violation // nil unless Outcome == OutcomeViolation
	ViolationAt int        // tick of the violation, -1 otherwise
	Hash        string     // trace hash; equal across bit-identical replays
	Stats       runner.Stats
}

// scheduleSalt decorrelates the schedule-generation RNG stream from the
// fabric RNG stream, which is seeded with the run seed directly.
const scheduleSalt = 0x9e3779b97f4a7c15

// ScheduleSeed returns the generator seed a campaign derives from a run
// seed, exported so replay tooling can regenerate schedules.
func ScheduleSeed(seed uint64) uint64 { return seed ^ scheduleSalt }

// RunOnce drives one episode of p under sched for horizon ticks
// (nodes/horizon <= 0 pick p's defaults). The run stops at the first
// invariant violation. Identical arguments produce identical Results,
// including the trace hash.
func RunOnce(p Protocol, seed uint64, nodes, horizon int, sched nemesis.Schedule) Result {
	if nodes <= 0 {
		nodes = p.Nodes
	}
	if horizon <= 0 {
		horizon = p.Horizon
	}
	ep := p.New(nodes, seed)
	inj := nemesis.NewInjector(sched)
	h := sha256.New()
	fmt.Fprintf(h, "%s n%d s%d h%d\n", p.Name, nodes, seed, horizon)

	res := Result{
		Protocol: p.Name, Nodes: nodes, Seed: seed, Horizon: horizon,
		Outcome: OutcomeOK, ViolationAt: -1,
	}
	settle := 0
	for _, e := range sched.Events {
		settle = max(settle, e.At)
	}
	for now := 0; now < horizon; now++ {
		inj.Fire(ep.Target, now)
		if now == settle && ep.Settle != nil {
			ep.Settle()
		}
		ep.Tick(now)
		fmt.Fprintf(h, "t%d %s\n", now, ep.Fingerprint())
		if v := ep.Check(); v != nil {
			res.Outcome = OutcomeViolation
			res.Violation = v
			res.ViolationAt = now
			break
		}
	}
	res.Stats = ep.Stats()
	if res.Outcome == OutcomeOK && !ep.Healthy() {
		res.Outcome = OutcomeStall
	}
	hashStats(h, res.Stats)
	fmt.Fprintf(h, "outcome %s\n", res.Outcome)
	res.Hash = hex.EncodeToString(h.Sum(nil)[:16])
	return res
}

// hashStats folds the final counters into the trace hash with sorted
// ByKind keys so the digest is deterministic.
func hashStats(h interface{ Write(p []byte) (int, error) }, s runner.Stats) {
	fmt.Fprintf(h, "stats %d %d %d %d %d %d %d %d %d\n",
		s.Sent, s.Delivered, s.Dropped, s.Ticks,
		s.Crashes, s.Restarts, s.Partitions, s.Heals, s.CutLinks)
	for _, k := range det.SortedKeys(s.ByKind) {
		fmt.Fprintf(h, "kind %s %d\n", k, s.ByKind[k])
	}
}

// Spec builds the replayable reproducer for r under sched.
func (r Result) Spec(sched nemesis.Schedule) *nemesis.Spec {
	sp := &nemesis.Spec{
		Protocol: r.Protocol,
		Nodes:    r.Nodes,
		Seed:     r.Seed,
		Horizon:  r.Horizon,
		Hash:     r.Hash,
		Schedule: sched,
	}
	if r.Violation != nil {
		sp.Violation = r.Violation.String()
	}
	return sp
}

// Replay re-runs a reproducer spec and reports whether the trace hash
// matches the recorded one. An unrecorded hash ("") always matches.
func Replay(p Protocol, sp *nemesis.Spec) (Result, bool) {
	res := RunOnce(p, sp.Seed, sp.Nodes, sp.Horizon, sp.Schedule)
	return res, sp.Hash == "" || res.Hash == sp.Hash
}

// registry of runnable protocols, filled by protocols.go.
var registry = map[string]Protocol{}

// Register adds a protocol to the campaign registry (last write wins).
func Register(p Protocol) { registry[p.Name] = p }

// Lookup resolves a registered protocol by name.
func Lookup(name string) (Protocol, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names lists registered protocols, sorted.
func Names() []string {
	return det.SortedKeys(registry)
}
