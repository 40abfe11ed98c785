package main

import "fortyconsensus/internal/live"

// workload is one named traffic shape. The five serving workloads run a
// 3-node loopback cluster in this process under a closed loop of
// callers on one live.Client; sim-campaign runs explore episodes and
// opens no socket.
type workload struct {
	name          string
	backend       string // "" = the simulator workload
	callers       int
	getPct        int // share of Gets in the op mix; the rest are Incrs
	snapshotEvery int
	// ungated workloads run under `all` and by name, and compare prints
	// them, but BENCHMARK.json does not list them, so no bound rests on
	// their numbers.
	ungated bool
}

var workloads = []workload{
	{name: "raft-serial", backend: live.BackendRaft, callers: 2, getPct: 20},
	{name: "raft-pipelined", backend: live.BackendRaft, callers: 4},
	{name: "mpaxos-pipelined", backend: live.BackendMultiPaxos, callers: 4},
	{name: "raft-reads", backend: live.BackendRaft, callers: 2, getPct: 95},
	{name: "raft-compact", backend: live.BackendRaft, callers: 2, getPct: 20, snapshotEvery: 1024},
	// Ungated: it is one goroutine of allocation-heavy computing, which
	// on a shared host follows the neighbours' load. Ten runs of the same
	// code spread 21–26% between their quartiles when the benchmark was
	// checked, and 30 s of it no less than 10 s (README, "Why
	// sim-campaign is not gated").
	{name: "sim-campaign", ungated: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number. The two name lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them and the test
// fails when the two drift apart.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSpec struct {
	name, unit string
	// perWorkload marks per-layer metrics measured on the workload the
	// run names; the others come from the layer suite, which is the same
	// whatever the workload.
	perWorkload bool
	// exact marks counts from single-goroutine, clock-free drives: they
	// repeat bit for bit under a fixed seed, and compare checks that.
	exact bool
}

// The p99 is not among them: beyond the 95th percentile this machine's
// bad minutes decide the latency, not the program (the same code read
// 1068 and 1710 µs as the medians of two sets of ten runs), so it is
// reported by every run and, as client.p99_us, by the traced ones, and
// no bound rests on it.
var endToEnd = []metricSpec{
	{name: "ops_per_s", unit: "ops/s"},
	{name: "p50_us", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "setup_s", unit: "s"},
}

var perLayer = []metricSpec{
	// The traced run of the named workload.
	{name: "transport.frames_per_op", unit: "frames/op", perWorkload: true},
	{name: "transport.drop_ratio", unit: "ratio", perWorkload: true},
	{name: "server.submit_apply_p50_us", unit: "us", perWorkload: true},
	{name: "server.not_leader_per_op", unit: "count/op", perWorkload: true},
	{name: "client.p99_us", unit: "us", perWorkload: true},
	{name: "client.p999_us", unit: "us", perWorkload: true},
	{name: "proc.allocs_per_op", unit: "allocs/op", perWorkload: true},
	{name: "proc.alloc_kb_per_op", unit: "KB/op", perWorkload: true},
	{name: "proc.gc_pause_ms", unit: "ms", perWorkload: true},
	{name: "proc.heap_mb_end", unit: "MB", perWorkload: true},
	{name: "proc.slice_drift", unit: "ratio", perWorkload: true},
	{name: "trace.overhead_pct", unit: "%", perWorkload: true},
	// Socket baselines and the subtraction table for one committed write.
	{name: "base.echo_p50_us", unit: "us"},
	{name: "base.single_p50_us", unit: "us"},
	{name: "base.single_ops_per_s", unit: "ops/s"},
	{name: "attr.client_wire_us", unit: "us"},
	{name: "attr.loop_core_apply_us", unit: "us"},
	{name: "attr.replication_us", unit: "us"},
	{name: "attr.residual_us", unit: "us"},
	// Isolated layer timings.
	{name: "frame.rw_64b_ns", unit: "ns"},
	{name: "frame.rw_4k_ns", unit: "ns"},
	{name: "codec.raft_append_ns", unit: "ns"},
	{name: "codec.raft_decode_ns", unit: "ns"},
	{name: "codec.raft_batch32_append_ns", unit: "ns"},
	{name: "codec.raft_batch32_decode_ns", unit: "ns"},
	{name: "codec.mpaxos_append_ns", unit: "ns"},
	{name: "codec.mpaxos_decode_ns", unit: "ns"},
	{name: "transport.oneway_p50_us", unit: "us"},
	{name: "transport.burst_frames_per_s", unit: "frames/s"},
	{name: "node.callwait_p50_us", unit: "us"},
	{name: "node.deliver_per_s", unit: "1/s"},
	{name: "smr.encode_decode_ns", unit: "ns"},
	{name: "smr.commit_ns", unit: "ns"},
	{name: "smr.snapshot_100k_ms", unit: "ms"},
	{name: "shard.apply_incr_ns", unit: "ns"},
	{name: "shard.apply_get_ns", unit: "ns"},
	{name: "wal.append_nosync_ns", unit: "ns"},
	{name: "wal.append_sync_us", unit: "us"},
	// The traced pipeline: protocol cores driven by hand, no clock.
	{name: "raft.d1.msgs_per_op", unit: "msgs/op", exact: true},
	{name: "raft.d32.msgs_per_op", unit: "msgs/op", exact: true},
	{name: "mpaxos.d1.msgs_per_op", unit: "msgs/op", exact: true},
	{name: "mpaxos.d32.msgs_per_op", unit: "msgs/op", exact: true},
	{name: "raft.d32.entries_sent_per_commit", unit: "count/op", exact: true},
	{name: "mpaxos.d32.values_sent_per_commit", unit: "count/op", exact: true},
	{name: "raft.d32.wire_bytes_per_op", unit: "bytes/op", exact: true},
	{name: "mpaxos.d32.wire_bytes_per_op", unit: "bytes/op", exact: true},
	{name: "path.raft.core_us", unit: "us"},
	{name: "path.raft.codec_us", unit: "us"},
	{name: "path.raft.frame_us", unit: "us"},
	{name: "path.raft.smr_us", unit: "us"},
	{name: "path.raft.shard_us", unit: "us"},
	{name: "path.raft.total_us", unit: "us"},
	{name: "path.mpaxos.core_us", unit: "us"},
	{name: "path.mpaxos.codec_us", unit: "us"},
	{name: "path.mpaxos.frame_us", unit: "us"},
	{name: "path.mpaxos.smr_us", unit: "us"},
	{name: "path.mpaxos.shard_us", unit: "us"},
	{name: "path.mpaxos.total_us", unit: "us"},
	{name: "raft.d32.cpu_us_per_op", unit: "us"},
	{name: "mpaxos.d32.cpu_us_per_op", unit: "us"},
	// Simulator layers.
	{name: "sim.raft_episode_us", unit: "us"},
	{name: "sim.mpaxos_episode_us", unit: "us"},
	{name: "sim.shard_episode_us", unit: "us"},
	{name: "sim.allocs_per_episode", unit: "allocs/op"},
	{name: "sim.msgs_per_episode", unit: "msgs/op", exact: true},
}

// metricSet collects values by name and renders them against a spec
// list, so a metric nobody measured is an error and not a silent zero.
type metricSet map[string]float64

func (m metricSet) render(specs []metricSpec) (map[string]metric, []string) {
	out := make(map[string]metric, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			missing = append(missing, s.name)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return out, missing
}
