package pbft

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/quorum"
	"fortyconsensus/internal/types"
)

// UpRight is this package at Config.C > 0. These tests hold the hybrid
// thresholds (network 3m+2c+1, quorum 2m+c+1, intersection m+1) to the
// places PBFT counts votes, and pin Config.C = 0 to the message sequence
// PBFT sent before it could count crash faults.

// hybridGrid is T4's (m, c) grid.
var hybridGrid = [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}

func eachGridPoint(t *testing.T, fn func(t *testing.T, m, c int)) {
	for _, mc := range hybridGrid {
		m, c := mc[0], mc[1]
		t.Run(fmt.Sprintf("m=%d,c=%d", m, c), func(t *testing.T) { fn(t, m, c) })
	}
}

func mute(Message) []Message { return nil }

// spendBudget crashes the last c replicas and mutes the m before them
// (byzantine-silent: they hear everything and say nothing), plus extra
// more muted past the budget. It returns the faulty replicas.
func spendBudget(cl *Cluster, m, c, extra int) []types.NodeID {
	var faulty []types.NodeID
	id := types.NodeID(len(cl.Nodes) - 1)
	for i := 0; i < c; i, id = i+1, id-1 {
		cl.Crash(id)
		faulty = append(faulty, id)
	}
	for i := 0; i < m+extra; i, id = i+1, id-1 {
		cl.Intercept(id, mute)
		faulty = append(faulty, id)
	}
	return faulty
}

// need reads how many distinct votes t asks for. Tally keeps it
// unexported, and only this test looks.
func need(t *quorum.Tally) int {
	return int(reflect.ValueOf(t).Elem().FieldByName("need").Int())
}

func TestHybridThresholds(t *testing.T) {
	for m := 0; m <= 3; m++ {
		for c := 0; c <= 3; c++ {
			q := Config{F: m, C: c}.Quorums()
			if q.Size() != 3*m+2*c+1 || q.Threshold() != 2*m+c+1 || q.Intersection() != m+1 {
				t.Fatalf("m=%d c=%d: n=%d q=%d i=%d", m, c, q.Size(), q.Threshold(), q.Intersection())
			}
			cl := NewCluster(m, nil, Config{C: c}, nil)
			if len(cl.Nodes) != q.Size() {
				t.Fatalf("m=%d c=%d: cluster of %d, want %d", m, c, len(cl.Nodes), q.Size())
			}
			// A slot's certificates: 2m+c prepares beside the pre-prepare,
			// 2m+c+1 commits.
			s := cl.Nodes[0].getSlot(1)
			if need(s.prepares) != 2*m+c || need(s.commits) != 2*m+c+1 {
				t.Fatalf("m=%d c=%d: slot needs %d prepares, %d commits", m, c, need(s.prepares), need(s.commits))
			}
			// Entering a view re-arms an uncommitted slot the same.
			cl.Nodes[0].enterView(1)
			if need(s.prepares) != 2*m+c || need(s.commits) != 2*m+c+1 {
				t.Fatalf("m=%d c=%d: after a view change the slot needs %d prepares, %d commits", m, c, need(s.prepares), need(s.commits))
			}
		}
	}
}

func TestHybridCommitNoFaults(t *testing.T) {
	cl := NewCluster(1, nil, Config{C: 1}, nil) // n = 6, quorum 4
	cl.Submit(0, types.Value("op"))
	if !cl.RunUntil(func() bool { return cl.ExecutedEverywhere(1) }, 500) {
		t.Fatal("request never committed")
	}
}

func TestHybridToleratesExactBudget(t *testing.T) {
	// c crashed and m silent at once: the 2m+c+1 replicas left are
	// exactly a quorum and still commit.
	eachGridPoint(t, func(t *testing.T, m, c int) {
		cl := NewCluster(m, nil, Config{C: c}, nil)
		faulty := spendBudget(cl, m, c, 0)
		cl.Submit(0, types.Value("survives"))
		if !cl.RunUntil(func() bool { return cl.ExecutedEverywhere(1, faulty...) }, 2000) {
			t.Fatal("m+c fault budget broke commitment")
		}
	})
	// The byzantine replica may lie instead of keeping quiet.
	cl := NewCluster(1, nil, Config{C: 1}, nil)
	cl.Crash(5)
	evil := chaincrypto.Hash([]byte("evil"))
	cl.Intercept(3, func(msg Message) []Message {
		if msg.Kind == MsgPrepare || msg.Kind == MsgCommit {
			msg.Digest = evil
		}
		return []Message{msg}
	})
	cl.Submit(0, types.Value("survives"))
	if !cl.RunUntil(func() bool { return cl.ExecutedEverywhere(1, 3) }, 2000) {
		t.Fatal("a lying replica within the budget broke commitment")
	}
}

func TestHybridBeyondBudgetStalls(t *testing.T) {
	// One silent replica past the budget leaves 2m+c: a vote short of
	// every certificate, whatever view the timeouts move to. Liveness is
	// lost, safety is not.
	eachGridPoint(t, func(t *testing.T, m, c int) {
		cl := NewCluster(m, nil, Config{C: c, RequestTimeout: 25}, nil)
		faulty := spendBudget(cl, m, c, 1)
		cl.Submit(0, types.Value("stuck"))
		cl.Run(600)
		for i, rep := range cl.Nodes {
			if cl.Correct(types.NodeID(i), faulty) && rep.ExecutedFrontier() != 0 {
				t.Fatalf("replica %d executed slot %d without a quorum", i, rep.ExecutedFrontier())
			}
		}
		// The silent replicas hear a full quorum (the 2m+c plus
		// themselves) and may execute; what they execute must agree.
		bySlot := map[types.Seq]types.Value{}
		for i, ds := range cl.TakeAllDecisions() {
			for _, d := range ds {
				if v, ok := bySlot[d.Slot]; ok && !v.Equal(d.Val) {
					t.Fatalf("replica %d diverges at slot %d", i, d.Slot)
				}
				bySlot[d.Slot] = d.Val
			}
		}
	})
}

func TestHybridCrashOnlyMatchesPaxosSizes(t *testing.T) {
	// m=0: n=2c+1, quorum c+1 — Paxos arithmetic.
	for c := 1; c <= 3; c++ {
		q, maj := Config{C: c}.Quorums(), quorum.MajorityFor(c)
		if q.Size() != maj.Size() || q.Threshold() != maj.Threshold() {
			t.Fatalf("c=%d: %+v, want %+v", c, q, maj)
		}
	}
	cl := NewCluster(0, nil, Config{C: 2}, nil)
	cl.Crash(3)
	cl.Crash(4)
	cl.Submit(0, types.Value("crash-only"))
	if !cl.RunUntil(func() bool { return cl.ExecutedEverywhere(1) }, 500) {
		t.Fatal("crash-only configuration failed under c crashes")
	}
}

func TestHybridByzantineOnlyMatchesPBFTSizes(t *testing.T) {
	// c=0: n=3m+1, quorum 2m+1, and PBFT's f+1 weak certificate.
	for f := 0; f <= 3; f++ {
		q, byz := Config{F: f}.Quorums(), quorum.Byzantine{F: f}
		if q.Size() != byz.Size() || q.Threshold() != byz.Threshold() || q.Intersection() != f+1 {
			t.Fatalf("f=%d: %+v i=%d, want %+v i=%d", f, q, q.Intersection(), byz, f+1)
		}
	}
}

func TestHybridAgreementAcrossReplicas(t *testing.T) {
	cl := NewCluster(1, nil, Config{C: 1}, nil)
	for i := 0; i < 10; i++ {
		cl.Submit(0, types.Value{byte('a' + i)})
	}
	if !cl.RunUntil(func() bool { return cl.ExecutedEverywhere(10) }, 2000) {
		t.Fatal("batch never fully committed")
	}
	all := cl.TakeAllDecisions()
	for i, ds := range all {
		if len(ds) != len(all[0]) {
			t.Fatalf("replica %d executed %d, replica 0 %d", i, len(ds), len(all[0]))
		}
		for j := range ds {
			if !ds[j].Val.Equal(all[0][j].Val) {
				t.Fatalf("replica %d diverges at %d", i, j)
			}
		}
	}
}

func TestHybridMessageComplexityQuadratic(t *testing.T) {
	// One request at the primary: n−1 pre-prepares, (n−1)² prepares,
	// n(n−1) commits — T1's upright row is the n=6 line.
	for _, mc := range [][2]int{{1, 0}, {1, 1}, {2, 0}, {2, 2}} {
		cl := NewCluster(mc[0], nil, Config{C: mc[1]}, nil)
		n := len(cl.Nodes)
		want := (n - 1) + (n-1)*(n-1) + n*(n-1)
		cl.Submit(0, types.Value("x"))
		cl.RunUntil(func() bool { return cl.ExecutedEverywhere(1) }, 500)
		if st := cl.Stats(); st.Sent != want {
			t.Fatalf("m=%d c=%d (n=%d): %d messages, want %d: %v", mc[0], mc[1], n, st.Sent, want, st.ByKind)
		}
	}
}

// --- what the fork could not run: view change, checkpoints, catch-up ---

func TestHybridCrashedPrimaryViewChange(t *testing.T) {
	// The whole budget spent, the crash on the primary: the four
	// replicas left are exactly the quorum a new view needs.
	cl := NewCluster(1, nil, Config{C: 1, RequestTimeout: 25}, nil)
	cl.Crash(0)
	cl.Intercept(5, mute)
	cl.Submit(1, types.Value("after-failover"))
	if !cl.RunUntil(func() bool { return cl.ExecutedEverywhere(1, 5) }, 2000) {
		t.Fatal("request never committed past the crashed primary")
	}
	for i := 1; i <= 4; i++ {
		if rep := cl.Nodes[i]; rep.view == 0 || rep.viewChanges == 0 {
			t.Fatalf("replica %d: view %d after %d view changes", i, rep.view, rep.viewChanges)
		}
	}
}

// sent reports whether r's outbox held a message of kind k, draining it.
func sent(r *Replica, k MsgKind) bool {
	found := false
	for _, m := range r.Drain() {
		found = found || m.Kind == k
	}
	return found
}

func TestHybridPreparedAtQuorum(t *testing.T) {
	// A backup commits to a slot on the pre-prepare plus 2m+c prepares,
	// its own among them: with the primary's, 2m+c+1 replicas stand
	// behind the assignment.
	eachGridPoint(t, func(t *testing.T, m, c int) {
		r := NewReplica(1, Config{F: m, C: c})
		v := types.Value("op")
		d := chaincrypto.Hash(v)
		r.Step(Message{Kind: MsgPrePrepare, From: 0, Seq: 1, Digest: d, Req: v})
		for have, from := 1, 2; ; have, from = have+1, from+1 {
			prepared := sent(r, MsgCommit)
			if have == 2*m+c {
				if !prepared {
					t.Fatalf("not prepared at %d prepares", have)
				}
				return
			}
			if prepared {
				t.Fatalf("prepared at %d prepares, needs %d", have, 2*m+c)
			}
			r.Step(Message{Kind: MsgPrepare, From: types.NodeID(from), Seq: 1, Digest: d})
		}
	})
}

func TestHybridNewViewAtQuorum(t *testing.T) {
	// The next primary opens its view on 2m+c+1 view-change votes: its
	// own (cast when it joins at m+1) and 2m+c peers'.
	eachGridPoint(t, func(t *testing.T, m, c int) {
		r := NewReplica(1, Config{F: m, C: c})
		for peers, from := 0, 2; ; peers, from = peers+1, from+1 {
			opened := sent(r, MsgNewView)
			if peers == 2*m+c {
				if !opened || r.view != 1 {
					t.Fatalf("view %d, new-view sent %v at %d peer votes", r.view, opened, peers)
				}
				return
			}
			if opened {
				t.Fatalf("new view opened on %d peer votes, needs %d", peers, 2*m+c)
			}
			r.Step(Message{Kind: MsgViewChange, From: types.NodeID(from), View: 1})
		}
	})
}

func TestHybridCheckpointStabilisesAtQuorum(t *testing.T) {
	eachGridPoint(t, func(t *testing.T, m, c int) {
		r := NewReplica(0, Config{F: m, C: c})
		const seq = 16
		d := chaincrypto.Hash(chaincrypto.HashUint64(seq))
		for from := 1; from <= 2*m+c+1; from++ {
			if r.lastStable != 0 {
				t.Fatalf("checkpoint stable at %d votes, quorum is %d", from-1, 2*m+c+1)
			}
			r.Step(Message{Kind: MsgCheckpoint, From: types.NodeID(from), Seq: seq, StateDigest: d})
		}
		if r.lastStable != seq {
			t.Fatalf("checkpoint not stable at %d votes", 2*m+c+1)
		}
	})
}

func TestHybridViewChangeJoinedAtIntersection(t *testing.T) {
	// m+1 view-change votes hold one from a correct replica, which is
	// the reason to join before the local timer fires: 1 vote when m=0.
	eachGridPoint(t, func(t *testing.T, m, c int) {
		r := NewReplica(0, Config{F: m, C: c})
		for from := 1; from <= m+1; from++ {
			if r.viewChanges != 0 {
				t.Fatalf("joined at %d votes, intersection is %d", from-1, m+1)
			}
			r.Step(Message{Kind: MsgViewChange, From: types.NodeID(from), View: 2})
		}
		if r.viewChanges != 1 {
			t.Fatalf("not joined at %d votes", m+1)
		}
		for _, out := range r.Drain() {
			if out.Kind != MsgViewChange || out.View != 2 {
				t.Fatalf("joining sent %v for view %d", out.Kind, out.View)
			}
		}
	})
}

func TestHybridFetchAdoptedAtIntersection(t *testing.T) {
	// The same weak certificate adopts a missed slot: m forgers cannot
	// inject one, m+1 matching peers include a correct replica.
	eachGridPoint(t, func(t *testing.T, m, c int) {
		r := NewReplica(0, Config{F: m, C: c})
		v := types.Value("missed")
		resp := Message{Kind: MsgFetchResp, Slots: []PreparedProof{{Seq: 1, Digest: chaincrypto.Hash(v), Req: v}}}
		for from := 1; from <= m+1; from++ {
			if r.ExecutedFrontier() != 0 {
				t.Fatalf("adopted at %d matching responses, intersection is %d", from-1, m+1)
			}
			resp.From = types.NodeID(from)
			r.Step(resp)
		}
		if r.ExecutedFrontier() != 1 {
			t.Fatalf("not adopted at %d matching responses", m+1)
		}
	})
}

// parentSequence is the sha256 of every message a Config{} cluster's
// replicas hand the network through a run that crosses two checkpoints,
// a crashed primary, its view change and its catch-up after restart —
// recorded at commit 4b4d06c (PR 21), where the thresholds were
// quorum.Byzantine's and cfg.F+1. The zero crash budget must stay that
// PBFT message for message.
var parentSequence = map[int]string{
	1: "1f149a389be55128f1368095c28c1e52cc53a0aa5fd95b72038bb877089d3ac7",
	2: "f3c0b58c7cb0008b3d1e1302c434e0015f0dda83d2aa5903c8945ce75c924ce7",
}

func TestZeroCrashBudgetIsParentPBFT(t *testing.T) {
	for _, f := range []int{1, 2} {
		cl := NewCluster(f, nil, Config{CheckpointEvery: 4, RequestTimeout: 25}, nil)
		h := sha256.New()
		for i := range cl.Nodes {
			cl.Intercept(types.NodeID(i), func(m Message) []Message {
				fmt.Fprintf(h, "%d %d>%d v%d s%d %x %x ls%d p%d nv%d fs%d|",
					m.Kind, m.From, m.To, m.View, m.Seq, m.Digest[:4], m.StateDigest[:4],
					m.LastStable, len(m.Prepared), len(m.NewViewPP), len(m.Slots))
				return []Message{m}
			})
		}
		n := len(cl.Nodes)
		for i := 0; i < 12; i++ {
			if i == 5 {
				cl.Crash(0)
			}
			if i == 10 {
				cl.Restart(0)
			}
			at := types.NodeID(i % n)
			if cl.Crashed(at) {
				at = 1
			}
			cl.Submit(at, types.Value{byte('a' + i)})
			cl.Run(40)
		}
		cl.Run(200)
		if !cl.ExecutedEverywhere(12) || cl.Nodes[1].view == 0 || cl.Nodes[1].lastStable < 8 {
			t.Fatalf("f=%d: the run no longer covers what it pins: executed everywhere %v, view %d, stable %d",
				f, cl.ExecutedEverywhere(12), cl.Nodes[1].view, cl.Nodes[1].lastStable)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != parentSequence[f] {
			t.Errorf("f=%d: message sequence %s (%d sent), parent's is %s", f, got, cl.Stats().Sent, parentSequence[f])
		}
	}
}
