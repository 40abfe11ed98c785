package main

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"fortyconsensus/internal/explore"
)

// simProtocols is the rotation sim-campaign runs: one episode of each
// in turn, so runner, simnet, nemesis, the harnesses and three protocol
// stacks all carry weight in every slice.
var simProtocols = [...]string{"raft", "multipaxos", "shard"}

// simHashed episodes feed the replay check: the XOR of their trace
// hashes must come out the same on a second pass.
const simHashed = 64

// simRun runs episodes one after another on this goroutine. Episode i
// is explore.Campaign{Seeds: 1, SeedBase: base+i, Faults: 4, Workers: 1}
// of protocol i mod 3; seed is the only input.
type simRun struct {
	protos  [len(simProtocols)]explore.Protocol
	base    uint64
	next    int
	xor     [16]byte // over the first simHashed episodes
	counted int      // how many leading episodes msgs sums over
	msgs    uint64
	r       *result // where violations go
	samples []sample
	proto   []uint8 // protocol of samples[i]
	epoch   time.Time
	spans   *spanLog
}

func newSimRun(seed uint64, r *result) (*simRun, error) {
	s := &simRun{base: seed * 1_000_003, epoch: time.Now(), r: r}
	for i, name := range simProtocols {
		p, ok := explore.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("explore protocol %q is not registered", name)
		}
		s.protos[i] = p
	}
	s.spans = newSpanLog("sim", s.epoch)
	return s, nil
}

// episode runs the next episode and records it as a sample.
func (s *simRun) episode(traced bool) {
	i := s.next
	s.next++
	hash := ""
	t0 := time.Now()
	res := explore.Campaign{
		Proto: s.protos[i%len(s.protos)], Seeds: 1, SeedBase: s.base + uint64(i), Faults: 4, Workers: 1,
		// The campaign reports an episode's trace hash only through its
		// log line (seed, outcome, faults, hash).
		Log: func(_ string, args ...any) {
			if h, ok := args[len(args)-1].(string); ok && hash == "" {
				hash = h
			}
		},
	}.Run()
	t1 := time.Now()
	s.samples = append(s.samples, sample{end: int64(t1.Sub(s.epoch)), lat: int64(t1.Sub(t0))})
	s.proto = append(s.proto, uint8(i%len(s.protos)))
	if traced {
		s.spans.add(spanEpisode, int64(i), t0, t1)
	}
	for _, f := range res.Failures {
		s.r.Violations = append(s.r.Violations, fmt.Sprintf("episode %d (%s seed %d): %v", i, res.Protocol, f.Result.Seed, f.Result.Violation))
	}
	if i < s.counted {
		s.msgs += uint64(res.Exposure.Sent)
	}
	if i < simHashed {
		raw, err := hex.DecodeString(hash)
		if err != nil || len(raw) != len(s.xor) {
			s.r.Violations = append(s.r.Violations, fmt.Sprintf("episode %d logged no trace hash (%q)", i, hash))
			return
		}
		for j := range s.xor {
			s.xor[j] ^= raw[j]
		}
	}
}

// measure runs episodes through n slices of total/n each. With traced
// set, the slices tracedSlice names record a span per episode.
func (s *simRun) measure(total time.Duration, n int, traced bool) []slice {
	w := make([]slice, n)
	for i := range w {
		cpu, start := cpuSeconds(), time.Now()
		w[i].start = int64(start.Sub(s.epoch))
		for time.Since(start) < total/time.Duration(n) {
			s.episode(traced && tracedSlice(i))
		}
		w[i].end = int64(time.Since(s.epoch))
		w[i].cpu = cpuSeconds() - cpu
	}
	return w
}

// replayCheck runs the hashed episodes a second time from the same seed
// and requires the same XOR of trace hashes: the simulator is only
// worth timing while it is still deterministic.
func (s *simRun) replayCheck(seed uint64) {
	again, err := newSimRun(seed, &result{})
	if err != nil {
		s.r.Violations = append(s.r.Violations, err.Error())
		return
	}
	for again.next < min(s.next, simHashed) {
		again.episode(false)
	}
	if again.xor != s.xor {
		s.r.Violations = append(s.r.Violations, fmt.Sprintf("trace hashes of the first %d episodes XOR to %x, a second pass gave %x", again.next, s.xor, again.xor))
	}
}

func (s *simRun) cut(w []slice) []sliceStats {
	return cutSamples(w, [][]sample{s.samples}, nil)
}

// simSetUp is sim-campaign's set-up: resolve the protocols and run a
// fixed number of warm-up episodes.
func simSetUp(r *result, seed uint64, episodes int) (*simRun, time.Duration, error) {
	t0 := time.Now()
	s, err := newSimRun(seed, r)
	if err != nil {
		return nil, 0, err
	}
	for s.next < episodes {
		s.episode(false)
	}
	return s, time.Since(t0), nil
}

func simEndToEnd(r *result, cfg runConfig) error {
	var s *simRun
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		var took time.Duration
		var err error
		if s, took, err = simSetUp(r, cfg.seed, cfg.warmEpisodes); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	r.sliced("setup_s", setups)
	w := s.measure(cfg.dur(1), cfg.slices, false)
	s.replayCheck(cfg.seed)
	r.Failed = len(r.Violations)
	return r.endToEnd(s.cut(w))
}

// simTraced is the traced run of sim-campaign. It opens no socket, so
// the transport and server rows are zero by construction; the process
// rows and the episode tail are measured.
func simTraced(r *result, cfg runConfig) error {
	s, _, err := simSetUp(r, cfg.seed, cfg.warmEpisodes)
	if err != nil {
		return err
	}
	var before, after counters
	runtime.ReadMemStats(&before.mem)
	win := s.measure(cfg.dur(0.4), cfg.tracedSlices, true)
	runtime.ReadMemStats(&after.mem)
	s.replayCheck(cfg.seed)
	if _, err := r.tracedWindow(s.cut(win), before, after); err != nil {
		return err
	}
	r.Failed = len(r.Violations)
	for _, name := range []string{"transport.frames_per_op", "transport.drop_ratio",
		"server.submit_apply_p50_us", "server.not_leader_per_op"} {
		r.values[name] = 0
	}
	r.logs = append(r.logs, s.spans)
	return nil
}

// simLayers measures the simulator rows of the layer suite: median
// episode time per protocol, allocations per episode, and the exact
// message count of the first cfg.countedEpisodes episodes: a fixed set,
// so the number repeats exactly for a seed.
func simLayers(r *result, cfg runConfig) error {
	s, err := newSimRun(cfg.seed, r)
	if err != nil {
		return err
	}
	s.counted = cfg.countedEpisodes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for t0 := time.Now(); s.next < s.counted || time.Since(t0) < cfg.dur(0.15); {
		s.episode(false)
	}
	runtime.ReadMemStats(&after)
	byProto := make([][]float64, len(simProtocols))
	for i, sm := range s.samples {
		byProto[s.proto[i]] = append(byProto[s.proto[i]], float64(sm.lat)/1e3)
	}
	for i, name := range []string{"sim.raft_episode_us", "sim.mpaxos_episode_us", "sim.shard_episode_us"} {
		r.values[name] = median(byProto[i])
	}
	r.values["sim.allocs_per_episode"] = float64(after.Mallocs-before.Mallocs) / float64(s.next)
	r.values["sim.msgs_per_episode"] = float64(s.msgs) / float64(s.counted)
	return nil
}
