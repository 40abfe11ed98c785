package multipaxos

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/replog"
	"fortyconsensus/internal/simnet"
	"fortyconsensus/internal/snapshot"
	"fortyconsensus/internal/types"
)

// refNode is what a follower's log was before it had pages: a map per
// role, swept on compaction. It lives here only, as the model the paged
// log is checked against.
type acceptedEntry struct {
	num types.Ballot
	val types.Value
}

type refNode struct {
	accepted     map[types.Seq]acceptedEntry
	chosen       map[types.Seq]types.Value
	commit, base types.Seq
	decided      []types.Decision
}

// farSlot is a slot number no log here comes within replog.MaxAhead of.
const farSlot = types.Seq(1) << 40

func (r *refNode) accept(b types.Ballot, s types.Seq, v types.Value, commit types.Seq) (voted bool) {
	if s >= farSlot {
		return false
	}
	if s > r.base {
		r.accepted[s] = acceptedEntry{num: b, val: v}
	}
	for r.commit < commit {
		e, ok := r.accepted[r.commit+1]
		if !ok || e.num != b {
			break
		}
		r.learn(r.commit+1, e.val)
	}
	return true
}

func (r *refNode) learn(s types.Seq, v types.Value) {
	if _, known := r.chosen[s]; known || s <= r.base || s >= farSlot {
		return
	}
	r.chosen[s] = v
	r.advance()
}

func (r *refNode) advance() {
	for {
		v, ok := r.chosen[r.commit+1]
		if !ok {
			return
		}
		r.commit++
		r.decided = append(r.decided, types.Decision{Slot: r.commit, Val: v})
	}
}

func (r *refNode) drop(upTo types.Seq) {
	for s := r.base + 1; s <= upTo; s++ { // nothing is held at or below the base
		delete(r.accepted, s)
		delete(r.chosen, s)
	}
	r.base = upTo
}

func (r *refNode) install(last types.Seq) {
	r.commit = last
	r.drop(last)
	r.decided = nil
	r.advance()
}

// acceptAt hands n, a follower of node 0, Accept(b, s, v) carrying
// frontier commit, and reports whether it voted.
func acceptAt(n *Node, b types.Ballot, s types.Seq, v types.Value, commit types.Seq) (voted bool) {
	n.Step(Message{Kind: MsgAccept, From: 0, To: n.id, Ballot: b, Slot: s, Val: v, Commit: commit})
	for _, m := range n.Drain() {
		voted = voted || (m.Kind == MsgAccepted && m.Slot == s && m.Ballot == b)
	}
	return voted
}

// same compares the node with the model: the frontier and the base, every
// slot in [lo, hi], the walk phase 1 makes, and the decisions since the
// last call.
func (r *refNode) same(t *testing.T, n *Node, lo, hi types.Seq, step string) {
	t.Helper()
	if n.commitSeq != r.commit || n.SnapshotIndex() != r.base {
		t.Fatalf("%s: frontier %d base %d, model %d and %d", step, n.commitSeq, n.SnapshotIndex(), r.commit, r.base)
	}
	for s := lo; s <= hi; s++ {
		var got slot
		if sl := n.log.Get(s); sl != nil {
			got = *sl
		}
		want := slot{}
		if e, ok := r.accepted[s]; ok {
			want.num, want.val, want.accepted = e.num, e.val, true
		}
		if v, ok := r.chosen[s]; ok {
			want.chosen, want.learned = v, true
		}
		if got.accepted != want.accepted || got.learned != want.learned || got.num != want.num ||
			!got.val.Equal(want.val) || !got.chosen.Equal(want.chosen) || got.votes != nil {
			t.Fatalf("%s: slot %d holds %+v, model %+v (base %d)", step, s, got, want, r.base)
		}
	}
	var walk []Entry
	for s := r.commit + 1; s <= hi; s++ {
		if e, ok := r.accepted[s]; ok {
			walk = append(walk, Entry{Slot: s, AcceptNum: e.num, Val: e.val})
		}
	}
	got := n.acceptedAbove(n.commitSeq)
	if len(got) != len(walk) {
		t.Fatalf("%s: phase 1 would report %d slots, model %d", step, len(got), len(walk))
	}
	for i := range walk {
		if got[i].Slot != walk[i].Slot || got[i].AcceptNum != walk[i].AcceptNum || !got[i].Val.Equal(walk[i].Val) {
			t.Fatalf("%s: phase 1 entry %d is %+v, model %+v", step, i, got[i], walk[i])
		}
	}
	ds := n.TakeDecisions()
	if len(ds) != len(r.decided) {
		t.Fatalf("%s: %d decisions, model %d", step, len(ds), len(r.decided))
	}
	for i, d := range r.decided {
		if ds[i].Slot != d.Slot || !ds[i].Val.Equal(d.Val) {
			t.Fatalf("%s: decision %d is %+v, model %+v", step, i, ds[i], d)
		}
	}
	r.decided = nil
}

// A follower and the model take the same random run of what reaches a log:
// accepts in runs and alone, ahead with holes, below the base and far past
// the end; catch-up batches out of order; compaction in the middle of a
// page, on its edges and one to either side; snapshots installed inside
// the log and pages past it. After every step they must hold the same.
func TestPagedLogMatchesMapModel(t *testing.T) {
	seqs := 1000
	if testing.Short() {
		seqs = 100
	}
	members := []types.NodeID{0, 1, 2}
	val := func(s types.Seq) types.Value { return types.Value(fmt.Sprintf("v%d", s)) }
	for seed := 0; seed < seqs; seed++ {
		rng := simnet.NewRNG(uint64(seed) + 1)
		n := New(1, Config{Peers: members})
		r := &refNode{accepted: map[types.Seq]acceptedEntry{}, chosen: map[types.Seq]types.Value{}}
		b := types.Ballot{Num: 1}
		top := types.Seq(0) // highest slot touched
		accept := func(s types.Seq, v types.Value, commit types.Seq) {
			voted := acceptAt(n, b, s, v, commit)
			if want := r.accept(b, s, v, commit); voted != want {
				t.Fatalf("seed %d: accept of slot %d voted: %v, model %v", seed, s, voted, want)
			}
			if s < farSlot {
				top = max(top, s)
			}
		}
		for step := 0; step < 40; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 30: // a run from the frontier, each accept carrying the one before
				k := 1 + rng.Intn(replog.PageSlots/2)
				if rng.Intn(8) == 0 {
					k += replog.PageSlots
				}
				what = fmt.Sprintf("run of %d from %d", k, r.commit+1)
				for s := r.commit + 1; k > 0; s, k = s+1, k-1 {
					accept(s, val(s), s-1)
				}
			case op < 40: // ahead of the frontier, leaving a hole; sometimes pages ahead
				s := r.commit + 2 + types.Seq(rng.Intn(8))
				if rng.Intn(4) == 0 {
					s += types.Seq(rng.Intn(3 * replog.PageSlots))
				}
				what = fmt.Sprintf("accept ahead at %d", s)
				accept(s, val(s), r.commit)
			case op < 46: // a value that will not be the chosen one, under a ballot then retired
				s := r.commit + 1 + types.Seq(rng.Intn(4))
				what = fmt.Sprintf("accept of another value at %d", s)
				accept(s, types.Value("other"), 0)
				b.Num++
			case op < 54: // at or below the base, or below the frontier
				s := types.Seq(rng.Intn(int(r.commit) + 1))
				what = fmt.Sprintf("accept again at %d", s)
				accept(s, val(s), r.commit)
			case op < 58:
				what = "accept far past the end"
				accept(farSlot+types.Seq(rng.Intn(9)), val(0), r.commit)
			case op < 72: // a catch-up batch: out of order, with holes, some known, one far
				es := []Entry{{Slot: farSlot, Val: val(0)}}
				for i := rng.Intn(12); i >= 0; i-- {
					s := types.Seq(rng.Intn(int(top) + 12))
					es = append(es, Entry{Slot: s, Val: val(s)})
				}
				what = fmt.Sprintf("learn %d slots", len(es))
				n.Step(Message{Kind: MsgCommit, From: 0, To: 1, Entries: es})
				for _, e := range es {
					r.learn(e.Slot, e.Val)
					if e.Slot < farSlot {
						top = max(top, e.Slot)
					}
				}
			case op < 90: // compact: anywhere, on a page's edges, one to either side
				if r.commit <= r.base {
					continue
				}
				upTo := r.base + 1 + types.Seq(rng.Intn(int(r.commit-r.base)))
				if edge := r.commit / replog.PageSlots * replog.PageSlots; rng.Intn(2) == 0 && edge > r.base+1 {
					upTo = min(edge-1+types.Seq(rng.Intn(3)), r.commit)
				}
				what = fmt.Sprintf("compact through %d", upTo)
				if !n.Compact(upTo, nil) {
					t.Fatalf("seed %d: %s refused", seed, what)
				}
				r.drop(upTo)
			default: // a snapshot: inside the log, at its end, pages past it
				last := r.commit + 1 + types.Seq(rng.Intn(2*replog.PageSlots))
				if rng.Intn(3) == 0 {
					last = top + types.Seq(rng.Intn(4*replog.PageSlots))
				}
				if last <= r.commit {
					continue
				}
				what = fmt.Sprintf("install through %d", last)
				snap := snapshot.Encode(snapshot.Snapshot{LastIndex: last, Members: members})
				n.Step(Message{Kind: MsgState, From: 0, To: 1, Slot: last, Val: types.Value(snap), Done: true, Commit: last})
				n.Drain()
				if n.TakeInstalledSnapshot() == nil {
					t.Fatalf("seed %d: %s: nothing installed", seed, what)
				}
				r.install(last)
				top = max(top, last)
			}
			lo := types.Seq(0) // from a page below the base, which must read empty
			if r.base > replog.PageSlots {
				lo = r.base - replog.PageSlots
			}
			r.same(t, n, lo, top+2, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
		}
	}
}

func TestASlotFarPastTheLogIsIgnored(t *testing.T) {
	n := New(1, Config{Peers: []types.NodeID{0, 1, 2}})
	accept := func(s types.Seq) bool { return acceptAt(n, types.Ballot{Num: 1}, s, types.Value("v"), 0) }
	if accept(1 << 40) {
		t.Fatal("voted for slot 1<<40")
	}
	n.Step(Message{Kind: MsgCommit, From: 0, To: 1, Entries: []Entry{{Slot: 1 << 40, Val: types.Value("v")}}})
	if n.log.End() != 0 || n.Leader() != 0 {
		t.Fatalf("a far slot grew the log to %d and left leader %v, want no page and the sender followed", n.log.End(), n.Leader())
	}
	if !accept(1) || !n.log.Get(1).accepted {
		t.Fatal("slot 1 was not accepted after the far one was ignored")
	}
	// The bound is on how far one message reaches past the last page.
	if accept(replog.PageSlots + replog.MaxAhead) {
		t.Fatal("voted for the first slot past the bound")
	}
	if !accept(replog.PageSlots + replog.MaxAhead - 1) {
		t.Fatal("refused the last slot within the bound")
	}
}

func TestNoStepIsProportionalToTheLog(t *testing.T) {
	// One write — accept, accepted, learn — allocates the same at the
	// leader and its acceptors, and at an acceptor alone, whether the log
	// is 1k slots long or 256k.
	g := newTrio(t)
	lead := g.elect(0, nil)
	v := types.Value("a value of a usual size, 40 bytes or so")
	round := func() {
		lead.Submit(v)
		g.pump(nil)
		for _, n := range g.nodes {
			n.TakeDecisions()
		}
	}
	lone := New(1, Config{Peers: []types.NodeID{0, 1, 2}})
	at := types.Seq(0)
	accept := func() {
		at++
		acceptAt(lone, types.Ballot{Num: 1}, at, v, at-1)
		lone.TakeDecisions()
	}
	measure := func(size int) [2]float64 {
		for int(lead.CommitFrontier()) < size {
			round()
			accept()
		}
		return [2]float64{testing.AllocsPerRun(200, round), testing.AllocsPerRun(200, accept)}
	}
	short, long := measure(1<<10), measure(256<<10)
	if short != long || lone.CommitFrontier() < 256<<10 {
		t.Fatalf("allocations per write (group, lone acceptor): %v at 1k slots, %v at 256k", short, long)
	}
}
