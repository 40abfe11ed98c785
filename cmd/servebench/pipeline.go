package main

import (
	"bytes"
	"fmt"
	"time"

	"fortyconsensus/internal/live"
	"fortyconsensus/internal/multipaxos"
	"fortyconsensus/internal/raft"
	"fortyconsensus/internal/shard"
	"fortyconsensus/internal/smr"
	"fortyconsensus/internal/types"
)

// The clock-free pipeline drives the three replicas of one group by
// hand on this goroutine, the way live.Node's loop and live.Server's
// group host do but with no socket, queue or timer in between: every
// event is followed by a pump of the module's outbox and by taking its
// decisions into the replica's executor, and every message makes the
// whole trip Codec.Append → WriteFrame → ReadFrame → Codec.Decode →
// Step. Nothing here reads a clock to decide anything, so for a seed
// the message, value and byte counts repeat exactly.

const pipeNodes = 3

type pipeline[M any] struct {
	mods   [pipeNodes]live.SMRModule[M]
	execs  [pipeNodes]*smr.Executor
	codec  live.Codec[M]
	dest   func(M) types.NodeID
	values func(M) int // consensus values the message carries

	// shadows[i] is a bare store fed the operations replica i commits,
	// once more and directly. Executor.Commit calls the real store's
	// Apply somewhere inside itself; timing the same call on the same
	// sequence from here is how the smr.commit span gets split into smr
	// and shard without putting a clock inside a state machine (which
	// the repository's determinism lint forbids, rightly). Only traced
	// rounds pay for it.
	shadows [pipeNodes]*shard.Store

	// socks[i] is the byte stream into node i; order is the global FIFO
	// of destinations, so delivery interleaves as it was sent.
	socks [pipeNodes]bytes.Buffer
	order []types.NodeID
	enc   []byte

	leader  int
	replies int // produced by the leader's executor

	msgs, wireBytes, valuesSent int

	log *spanLog // nil = untraced
	cur int32    // span the next recorded span is caused by
	op  int64
}

func (p *pipeline[M]) begin(name spanName) int32 {
	if p.log == nil {
		return 0
	}
	return p.log.begin(name, p.cur, p.op)
}

func (p *pipeline[M]) end(h int32) {
	if p.log != nil {
		p.log.end(h)
	}
}

func newPipeline[M any](mods [pipeNodes]live.SMRModule[M], codec live.Codec[M], dest func(M) types.NodeID, values func(M) int) (*pipeline[M], error) {
	p := &pipeline[M]{mods: mods, codec: codec, dest: dest, values: values, leader: -1}
	for i := range p.execs {
		p.execs[i] = smr.NewExecutor(types.NodeID(i), shard.NewStore())
		p.shadows[i] = shard.NewStore()
	}
	// Tick to a leader: one tick per node per turn, every message
	// delivered before the next turn.
	for turn := 0; p.leader < 0; turn++ {
		if turn > 10_000 {
			return nil, fmt.Errorf("pipeline: no leader after %d ticks", turn)
		}
		for i, m := range p.mods {
			m.Tick()
			p.after(i)
		}
		p.deliverAll()
		for i, m := range p.mods {
			if m.IsLeader() {
				p.leader = i
			}
		}
	}
	p.msgs, p.wireBytes, p.valuesSent = 0, 0, 0
	return p, nil
}

// after is what follows every event on node i: pump the outbox until
// it stays empty (self-addressed messages step at once), then hand new
// decisions to the executor.
func (p *pipeline[M]) after(i int) {
	for {
		h := p.begin(spanCoreDrain)
		out := p.mods[i].Drain()
		p.end(h)
		if len(out) == 0 {
			break
		}
		for _, m := range out {
			if int(p.dest(m)) == i {
				p.mods[i].Step(m)
			} else {
				p.send(m)
			}
		}
	}
	h := p.begin(spanCoreDecisions)
	ds := p.mods[i].TakeDecisions()
	p.end(h)
	for _, d := range ds {
		h := p.begin(spanSMRCommit)
		n := len(p.execs[i].Commit(d))
		p.end(h)
		if i == p.leader {
			p.replies += n
		}
		if p.log == nil {
			continue
		}
		if req, err := smr.DecodeRequest(d.Val); err == nil {
			hs := p.log.begin(spanShardApply, h, p.op)
			p.shadows[i].Apply(req.Op)
			p.log.end(hs)
		}
	}
}

// send frames m as the group host does (u32 group index, then the
// codec's bytes) and writes it to the destination's stream.
func (p *pipeline[M]) send(m M) {
	h := p.begin(spanCodecAppend)
	p.enc = p.codec.Append(append(p.enc[:0], 0, 0, 0, 0), m)
	p.end(h)
	to := p.dest(m)
	h = p.begin(spanFrameWrite)
	live.WriteFrame(&p.socks[to], p.enc) // a bytes.Buffer write cannot fail
	p.end(h)
	p.order = append(p.order, to)
	p.msgs++
	p.wireBytes += 4 + len(p.enc)
	p.valuesSent += p.values(m)
}

// deliverAll delivers queued messages in FIFO order until none is left.
func (p *pipeline[M]) deliverAll() {
	for head := 0; head < len(p.order); head++ {
		to := p.order[head]
		h := p.begin(spanFrameRead)
		payload, err := live.ReadFrame(&p.socks[to], live.DefaultMaxFrame)
		p.end(h)
		if err != nil {
			panic(fmt.Sprintf("pipeline: reading back a frame just written: %v", err))
		}
		h = p.begin(spanCodecDecode)
		m, err := p.codec.Decode(payload[4:])
		p.end(h)
		if err != nil {
			panic(fmt.Sprintf("pipeline: decoding a message just encoded: %v", err))
		}
		h = p.begin(spanCoreStep)
		p.mods[to].Step(m)
		p.end(h)
		p.after(int(to))
	}
	p.order = p.order[:0]
}

// round submits depth requests to the leader, an event each, then
// delivers until the group is quiet. All depth replies must be out.
func (p *pipeline[M]) round(depth int) error {
	p.op++
	p.cur = 0
	root := p.begin(spanRound)
	p.cur = root
	want := p.replies + depth
	for i := 0; i < depth; i++ {
		seq := uint64(p.op)*uint64(depth) + uint64(i)
		v := incrRequest(1<<32+seq, seq)
		h := p.begin(spanCoreSubmit)
		p.mods[p.leader].Submit(v)
		p.end(h)
		p.after(p.leader)
	}
	p.deliverAll()
	p.end(root)
	if p.replies != want {
		return fmt.Errorf("pipeline: %d of %d requests answered once the group went quiet", depth-(want-p.replies), depth)
	}
	return nil
}

// pathLayers are the layers a round's time is split over; what is left
// of the total is this driver's own loop.
var pathLayers = []string{"core", "codec", "frame", "smr", "shard"}

// pipeStats is what rounds at one depth measured.
type pipeStats struct {
	msgsPerOp, valuesPerOp, bytesPerOp float64
	wallUsPerOp                        float64
	selfUs                             map[string]float64 // per layer, median over rounds, per op
	totalUs                            float64
}

func (p *pipeline[M]) rounds(n, depth int, log *spanLog) (pipeStats, error) {
	p.log = log
	p.msgs, p.wireBytes, p.valuesSent = 0, 0, 0
	perLayer := map[string][]float64{}
	var totals []float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		lo := 0
		if log != nil {
			lo = len(log.spans)
		}
		if err := p.round(depth); err != nil {
			return pipeStats{}, err
		}
		if log != nil && len(log.spans) > lo && len(log.spans) < maxSpans {
			// The shadow applies repeat work the round already did inside
			// Commit: they give smr.commit its child, and come off the total.
			self := log.selfTimes(lo)
			for _, layer := range pathLayers {
				perLayer[layer] = append(perLayer[layer], float64(self[layer])/1e3/float64(depth))
			}
			root := log.spans[lo]
			totals = append(totals, float64(root.end-root.start-self["shard"])/1e3/float64(depth))
		}
	}
	ops := float64(n * depth)
	st := pipeStats{
		msgsPerOp: float64(p.msgs) / ops, valuesPerOp: float64(p.valuesSent) / ops, bytesPerOp: float64(p.wireBytes) / ops,
		wallUsPerOp: float64(time.Since(t0).Nanoseconds()) / 1e3 / ops,
		selfUs:      map[string]float64{}, totalUs: median(totals),
	}
	for _, layer := range pathLayers {
		st.selfUs[layer] = median(perLayer[layer])
	}
	return st, nil
}

func raftPipeline(seed uint64) (*pipeline[raft.Message], error) {
	peers := []types.NodeID{0, 1, 2}
	var mods [pipeNodes]live.SMRModule[raft.Message]
	for i := range mods {
		mods[i] = raft.New(types.NodeID(i), raft.Config{Peers: peers, Seed: seed + uint64(i)})
	}
	return newPipeline(mods, live.RaftCodec{}, raft.Dest,
		func(m raft.Message) int { return len(m.Entries) })
}

func mpaxosPipeline(seed uint64) (*pipeline[multipaxos.Message], error) {
	peers := []types.NodeID{0, 1, 2}
	var mods [pipeNodes]live.SMRModule[multipaxos.Message]
	for i := range mods {
		mods[i] = multipaxos.New(types.NodeID(i), multipaxos.Config{Peers: peers, Seed: seed + uint64(i)})
	}
	return newPipeline(mods, live.MultiPaxosCodec{}, multipaxos.Dest,
		func(m multipaxos.Message) int {
			if m.Kind == multipaxos.MsgAccept {
				return 1
			}
			return 0
		})
}

// pipelines runs both cores at depth 1 with spans on (the path.* split
// of one committed write) and at depth 32 with spans off (the counts
// batching and pipelining should move, and the CPU per op they buy).
func pipelines(r *result, cfg runConfig) error {
	rp, err := raftPipeline(cfg.seed)
	if err != nil {
		return err
	}
	if err := pipelineMetrics(r, cfg, "raft", "entries", rp); err != nil {
		return err
	}
	mp, err := mpaxosPipeline(cfg.seed)
	if err != nil {
		return err
	}
	return pipelineMetrics(r, cfg, "mpaxos", "values", mp)
}

func pipelineMetrics[M any](r *result, cfg runConfig, proto, unit string, p *pipeline[M]) error {
	log := newSpanLog("pipeline-"+proto, time.Now())
	d1, err := p.rounds(cfg.pipelineRounds, 1, log)
	if err != nil {
		return fmt.Errorf("%s depth 1: %w", proto, err)
	}
	r.logs = append(r.logs, log)
	d32, err := p.rounds(max(cfg.pipelineRounds/32, 1), 32, nil)
	if err != nil {
		return fmt.Errorf("%s depth 32: %w", proto, err)
	}
	r.values[proto+".d1.msgs_per_op"] = d1.msgsPerOp
	r.values[proto+".d32.msgs_per_op"] = d32.msgsPerOp
	r.values[proto+".d32."+unit+"_sent_per_commit"] = d32.valuesPerOp
	r.values[proto+".d32.wire_bytes_per_op"] = d32.bytesPerOp
	r.values[proto+".d32.cpu_us_per_op"] = d32.wallUsPerOp
	for _, layer := range pathLayers {
		r.values["path."+proto+"."+layer+"_us"] = d1.selfUs[layer]
	}
	r.values["path."+proto+".total_us"] = d1.totalUs
	return nil
}
