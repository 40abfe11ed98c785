package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/live"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
	"fortyconsensus/internal/wal"
)

// layerSuite measures every per-layer metric that does not depend on
// the workload named on the command line: socket baselines, isolated
// calls into each layer, the clock-free pipeline and the simulator
// sample. Each traced run repeats it, so `all` sees six samples of it.
func layerSuite(r *result, cfg runConfig) error {
	for _, part := range []func(*result, runConfig) error{baselines, isolated, pipelines, simLayers} {
		if err := part(r, cfg); err != nil {
			return err
		}
	}
	return nil
}

// --- socket baselines and the subtraction table ---

// serialShape is raft-serial's traffic; every baseline carries it, so
// the three rungs of the ladder differ only in what answers.
var serialShape = workload{name: "baseline", backend: live.BackendRaft, callers: 2, getPct: 20}

// baselines climbs from a transport that answers at once, to a 1-node
// raft server, to the 3-node cluster, under the same two callers. Each
// step adds one thing, so each difference of medians has one owner.
func baselines(r *result, cfg runConfig) error {
	share := cfg.dur(0.15)
	echoP50, _, _, err := baseline(cfg, share, startEcho, false)
	if err != nil {
		return fmt.Errorf("echo baseline: %w", err)
	}
	cluster := func(nodes int) func(uint64) (*target, error) {
		return func(seed uint64) (*target, error) { return startCluster(serialShape, nodes, seed) }
	}
	singleP50, singleOps, _, err := baseline(cfg, share, cluster(1), true)
	if err != nil {
		return fmt.Errorf("single-node baseline: %w", err)
	}
	tripleP50, _, submitApply, err := baseline(cfg, share, cluster(3), true)
	if err != nil {
		return fmt.Errorf("three-node baseline: %w", err)
	}
	r.values["base.echo_p50_us"] = echoP50
	r.values["base.single_p50_us"] = singleP50
	r.values["base.single_ops_per_s"] = singleOps
	r.values["attr.client_wire_us"] = echoP50
	r.values["attr.loop_core_apply_us"] = singleP50 - echoP50
	r.values["attr.replication_us"] = tripleP50 - singleP50
	residual := tripleP50 - echoP50 - submitApply
	r.values["attr.residual_us"] = residual
	r.note("one committed write, raft-serial shape: p50 %.1f us = client+wire %.1f + loop+core+apply %.1f + replication %.1f",
		tripleP50, echoP50, singleP50-echoP50, tripleP50-singleP50)
	if tripleP50 > 0 && (residual > 0.15*tripleP50 || residual < -0.15*tripleP50) {
		r.note("warning: attr.residual_us %.1f is over 15%% of the p50: the server's own submit→apply median (%.1f us) and the socket baseline do not add up to what callers see", residual, submitApply)
	}
	return nil
}

// baseline runs serialShape against whatever start builds and returns
// the callers' p50 (µs), their throughput and the target's own
// submit→apply median.
func baseline(cfg runConfig, d time.Duration, start func(seed uint64) (*target, error), check bool) (p50, opsPerS, submitApply float64, err error) {
	tgt, err := start(cfg.seed)
	if err != nil {
		return 0, 0, 0, err
	}
	l, err := startLoad(serialShape, tgt, cfg.seed, cfg.warmOps/4, check)
	if err != nil {
		tgt.close()
		return 0, 0, 0, err
	}
	select {
	case <-l.warmed:
	case <-time.After(60 * time.Second):
		l.finish()
		return 0, 0, 0, fmt.Errorf("warm-up did not finish")
	}
	win := l.measure(d, 1, false)
	submitApply = tgt.submitApplyP50()
	if bad := l.finish(); len(bad) > 0 {
		return 0, 0, 0, fmt.Errorf("output check: %s", bad[0])
	}
	st := l.cut(win)[0]
	if st.ops == 0 || st.failed > 0 {
		return 0, 0, 0, fmt.Errorf("%d operations completed, %d failed", st.ops, st.failed)
	}
	return st.p50, st.opsPerS, submitApply, nil
}

// startEcho is the floor under every serving number: a bare transport
// whose client handler answers StatusOK at once. What Client.Do costs
// against it is client library + framing + TCP + ClientConn, and no
// consensus at all.
func startEcho(uint64) (*target, error) {
	ln, addr, err := live.Listen()
	if err != nil {
		return nil, err
	}
	tr := live.NewTransport(ln, live.TransportConfig{
		Self: 0, Addrs: map[types.NodeID]string{0: addr},
		OnClient: func(cc *live.ClientConn) {
			for {
				req, err := cc.ReadRequest()
				if err != nil {
					return
				}
				cc.Send(live.Response{ReqID: req.ReqID, Status: live.StatusOK, Result: types.Value("1")})
			}
		},
	})
	tr.Start()
	return &target{addrs: []string{addr}, close: tr.Close}, nil
}

// --- isolated layer timings ---

// incrRequest is the consensus value one workload Incr becomes: the
// smr envelope around the encoded kvstore command.
func incrRequest(client, seq uint64) types.Value {
	return smr.EncodeRequest(types.Request{
		Client: types.ClientID(client), SeqNo: seq, Op: incrCmds[seq%numKeys].Encode(),
	})
}

var sink int // keeps timed results alive

func isolated(r *result, cfg runConfig) error {
	loop := cfg.dur(0.01)
	timed := func(name string, fn func(n int)) { r.values[name] = timeLoop(loop, fn) }

	for _, f := range []struct {
		name string
		size int
	}{{"frame.rw_64b_ns", 64}, {"frame.rw_4k_ns", 4096}} {
		payload, buf := make([]byte, f.size), &bytes.Buffer{}
		timed(f.name, func(n int) {
			for i := 0; i < n; i++ {
				if err := live.WriteFrame(buf, payload); err != nil {
					panic(err)
				}
				got, err := live.ReadFrame(buf, live.DefaultMaxFrame)
				if err != nil {
					panic(err)
				}
				sink += len(got)
			}
		})
	}

	raftMsg := func(entries int) raft.Message {
		m := raft.Message{Kind: raft.MsgAppend, From: 0, To: 1, Term: 3, PrevIndex: 1000, PrevTerm: 3, LeaderCommit: 1000}
		for i := 0; i < entries; i++ {
			m.Entries = append(m.Entries, raft.LogEntry{Term: 3, Val: incrRequest(1<<32+uint64(i), uint64(i+1))})
		}
		return m
	}
	timeCodec(timed, "codec.raft", live.RaftCodec{}, raftMsg(1))
	timeCodec(timed, "codec.raft_batch32", live.RaftCodec{}, raftMsg(32))
	timeCodec(timed, "codec.mpaxos", live.MultiPaxosCodec{}, multipaxos.Message{
		Kind: multipaxos.MsgAccept, From: 0, To: 1, Ballot: types.Ballot{Num: 3}, Slot: 1000, Val: incrRequest(1<<32, 1),
	})

	if err := transportTimings(r, cfg); err != nil {
		return err
	}
	nodeTimings(r, cfg)

	timed("smr.encode_decode_ns", func(n int) {
		for i := 0; i < n; i++ {
			req, err := smr.DecodeRequest(incrRequest(7, uint64(i+1)))
			if err != nil {
				panic(err)
			}
			sink += int(req.SeqNo)
		}
	})
	// Each request runs under its own session, as live.Client issues
	// them, so the executor's session table grows with every commit.
	exec, slot := smr.NewExecutor(0, shard.NewStore()), uint64(0)
	timed("smr.commit_ns", func(n int) {
		for i := 0; i < n; i++ {
			slot++
			sink += len(exec.Commit(types.Decision{Slot: types.Seq(slot), Val: incrRequest(1<<32+slot, slot)}))
		}
	})
	exec = smr.NewExecutor(0, shard.NewStore())
	for s := uint64(1); s <= uint64(cfg.snapshotSessions); s++ {
		exec.Commit(types.Decision{Slot: types.Seq(s), Val: incrRequest(1<<32+s, s)})
	}
	var snaps []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sink += len(exec.SnapshotState())
		snaps = append(snaps, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	r.values["smr.snapshot_100k_ms"] = median(snaps)

	store := shard.NewStore()
	incr, get := incrCmds[0].Encode(), getCmds[0].Encode()
	timed("shard.apply_incr_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += len(store.Apply(incr))
		}
	})
	timed("shard.apply_get_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += len(store.Apply(get))
		}
	})
	return walTimings(r, cfg, loop)
}

func timeCodec[M any](timed func(string, func(int)), prefix string, codec live.Codec[M], m M) {
	var dst []byte
	timed(prefix+"_append_ns", func(n int) {
		for i := 0; i < n; i++ {
			dst = codec.Append(dst[:0], m)
		}
	})
	timed(prefix+"_decode_ns", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := codec.Decode(dst); err != nil {
				panic(err)
			}
		}
	})
}

// transportTimings runs two transports on loopback: the one-way time of
// a single 64 B frame from Send to OnPeerFrame, and how many such
// frames per second arrive when the sender keeps the peer queue full.
func transportTimings(r *result, cfg runConfig) error {
	lnA, addrA, err := live.Listen()
	if err != nil {
		return err
	}
	lnB, addrB, err := live.Listen()
	if err != nil {
		lnA.Close()
		return err
	}
	addrs := map[types.NodeID]string{0: addrA, 1: addrB}
	var arrived atomic.Int64
	got := make(chan struct{}, 1)
	a := live.NewTransport(lnA, live.TransportConfig{Self: 0, Addrs: addrs})
	b := live.NewTransport(lnB, live.TransportConfig{Self: 1, Addrs: addrs,
		OnPeerFrame: func(types.NodeID, []byte) {
			arrived.Add(1)
			select {
			case got <- struct{}{}:
			default:
			}
		}})
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()

	var oneway []float64
	for t0 := time.Now(); time.Since(t0) < cfg.dur(0.05) || len(oneway) < 100; {
		sent := time.Now()
		a.Send(1, make([]byte, 64))
		select {
		case <-got:
			oneway = append(oneway, float64(time.Since(sent).Nanoseconds())/1e3)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("transport: a frame sent over loopback never arrived")
		}
	}
	r.values["transport.oneway_p50_us"] = median(oneway)

	// Keep fewer frames in flight than the peer queue holds (1024), so
	// the burst measures delivery and not the drop path.
	const window = 512
	start, sent, t0 := arrived.Load(), int64(0), time.Now()
	for time.Since(t0) < cfg.dur(0.05) {
		if sent-(arrived.Load()-start) < window {
			a.Send(1, make([]byte, 64))
			sent++
		} else {
			runtime.Gosched()
		}
	}
	r.values["transport.burst_frames_per_s"] = float64(arrived.Load()-start) / time.Since(t0).Seconds()
	return nil
}

// idleModule is a protocol module that does nothing, so what is timed
// is live.Node's loop and queues alone.
type idleModule struct{ steps atomic.Int64 }

func (m *idleModule) Step(int)     { m.steps.Add(1) }
func (m *idleModule) Tick()        {}
func (m *idleModule) Drain() []int { return nil }

func nodeTimings(r *result, cfg runConfig) {
	mod := &idleModule{}
	n := live.NewNode[int](mod, 0, func(int) types.NodeID { return 1 }, func(int) {}, nil,
		live.NodeConfig{TickEvery: time.Millisecond})
	n.Start()
	defer n.Close()

	var waits []float64
	for t0 := time.Now(); time.Since(t0) < cfg.dur(0.05) || len(waits) < 100; {
		c0 := time.Now()
		n.CallWait(func() {})
		waits = append(waits, float64(time.Since(c0).Nanoseconds())/1e3)
	}
	r.values["node.callwait_p50_us"] = median(waits)

	t0 := time.Now()
	for time.Since(t0) < cfg.dur(0.05) {
		if !n.Deliver(1) {
			runtime.Gosched() // inbox full: let the loop drain
		}
	}
	r.values["node.deliver_per_s"] = float64(mod.steps.Load()) / time.Since(t0).Seconds()
}

// walTimings appends 128 B records to a log in a scratch directory
// next to the span file, with and without fsync. The live path never
// calls wal today; these are the floor it will pay once it does.
func walTimings(r *result, cfg runConfig, loop time.Duration) error {
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Dir(cfg.traceOut), "servebench-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := wal.Record{Type: 1, Payload: make([]byte, 128)}
	for _, v := range []struct {
		name   string
		noSync bool
		scale  float64
	}{{"wal.append_nosync_ns", true, 1}, {"wal.append_sync_us", false, 1e-3}} {
		log, err := wal.Open(filepath.Join(dir, v.name), wal.Options{NoSync: v.noSync})
		if err != nil {
			return err
		}
		var appendErr error
		ns := timeLoop(loop, func(n int) {
			for i := 0; i < n && appendErr == nil; i++ {
				appendErr = log.Append(rec)
			}
		})
		if err := log.Close(); appendErr == nil {
			appendErr = err
		}
		if appendErr != nil {
			return fmt.Errorf("wal append: %w", appendErr)
		}
		r.values[v.name] = ns * v.scale
	}
	return nil
}
