package smr

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// The session-window client model: what live.Client puts into a group's
// log, reduced to the log. A client owns a few sessions; on each it
// issues operations in seqno order, the next only once the last was
// acknowledged or given up on ("unknown"). Every operation reaches the
// log one to three times — the first attempt and its retries — at
// arbitrary later positions, so a copy may commit after its successor,
// after its caller was answered, or after its caller gave up; a reply
// may be lost on the way back. TestSessionWindowExactlyOnce runs that
// traffic against a real Executor over a kvstore and checks what the
// client library promises on top of it.

const (
	modelSessions = 3
	modelOps      = 10 // per session
)

// modelOp is one operation: an Incr of its own key by its own delta, so
// the store counts its executions and its reply names it.
type modelOp struct {
	sess types.ClientID
	seq  uint64
}

func (o modelOp) key() string   { return fmt.Sprintf("s%d-%d", o.sess, o.seq) }
func (o modelOp) delta() int64  { return int64(o.sess)*1000 + int64(o.seq) }
func (o modelOp) reply() string { return strconv.FormatInt(o.delta(), 10) }
func (o modelOp) value() types.Value {
	return req(o.sess, o.seq, kvstore.Incr(o.key(), o.delta()))
}

// recordingSM is a kvstore that remembers the key of every command it
// executed, in order.
type recordingSM struct {
	*kvstore.Store
	executed []string
}

func (r *recordingSM) Apply(cmd types.Value) types.Value {
	if c, err := kvstore.Decode(cmd); err == nil {
		r.executed = append(r.executed, c.Key)
	}
	return r.Store.Apply(cmd)
}

// runSessionModel plays one seeded schedule and returns the first
// violation. With overlap set the client breaks the window: it issues a
// session's next operation while still waiting on the last one (two
// requests of one session outstanding — the PR 6 bug).
func runSessionModel(seed int64, overlap bool) error {
	rng := rand.New(rand.NewSource(seed))
	sm := &recordingSM{Store: kvstore.New()}
	e := NewExecutor(0, sm)

	// Per session: the highest seqno issued, and the seqnos issued and
	// neither acknowledged nor given up on (the honest client: at most one).
	var issued [modelSessions + 1]uint64
	var waiting [modelSessions + 1][]uint64
	isWaiting := func(op modelOp) bool { return slices.Contains(waiting[op.sess], op.seq) }
	settle := func(op modelOp) {
		waiting[op.sess] = slices.DeleteFunc(waiting[op.sess], func(k uint64) bool { return k == op.seq })
	}
	window := 1
	if overlap {
		window = 2
	}
	acked := make(map[modelOp]bool)
	var inflight []modelOp // copies on their way to the log
	slot := types.Seq(0)

	for {
		// The steps the schedule may take next.
		var canIssue, canAbandon []modelOp
		for s := types.ClientID(1); s <= modelSessions; s++ {
			if issued[s] < modelOps && len(waiting[s]) < window {
				canIssue = append(canIssue, modelOp{s, issued[s] + 1})
			}
			for _, k := range waiting[s] {
				canAbandon = append(canAbandon, modelOp{s, k})
			}
		}
		if len(canIssue)+len(canAbandon)+len(inflight) == 0 {
			break
		}
		switch pick := rng.Intn(10); {
		case pick < 3 && len(canIssue) > 0:
			op := canIssue[rng.Intn(len(canIssue))]
			issued[op.sess], waiting[op.sess] = op.seq, append(waiting[op.sess], op.seq)
			for copies := 1 + rng.Intn(3); copies > 0; copies-- {
				inflight = append(inflight, op)
			}
		case pick < 9 && len(inflight) > 0:
			i := rng.Intn(len(inflight))
			op := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			slot++
			replies := e.Commit(types.Decision{Slot: slot, Val: op.value()})
			for _, r := range replies {
				if label := (modelOp{r.Client, r.SeqNo}); string(r.Result) != label.reply() {
					return fmt.Errorf("slot %d: reply labelled %v carries %q, another operation's result", slot, label, r.Result)
				}
			}
			if isWaiting(op) {
				if len(replies) != 1 || replies[0].Client != op.sess || replies[0].SeqNo != op.seq {
					return fmt.Errorf("slot %d: %v is outstanding and its commit was not answered (replies %+v)", slot, op, replies)
				}
				if rng.Intn(4) > 0 { // else the reply is lost on its way back
					acked[op] = true
					settle(op)
				}
			}
		case len(canAbandon) > 0 && (pick == 9 || len(canIssue)+len(inflight) == 0):
			settle(canAbandon[rng.Intn(len(canAbandon))])
		}
		// The table rides the snapshot: now and then the replica is
		// replaced by one restored from it.
		if rng.Intn(40) == 0 {
			blob := e.SnapshotState()
			e = NewExecutor(0, sm)
			if err := e.RestoreState(blob); err != nil {
				return err
			}
		}
	}

	runs := make(map[string]int)
	last := make(map[types.ClientID]uint64)
	for _, key := range sm.executed {
		runs[key]++
		var s types.ClientID
		var k uint64
		fmt.Sscanf(key, "s%d-%d", &s, &k)
		if k <= last[s] {
			return fmt.Errorf("session %d executed seqno %d after %d", s, k, last[s])
		}
		last[s] = k
	}
	for s := types.ClientID(1); s <= modelSessions; s++ {
		for k := uint64(1); k <= issued[s]; k++ {
			op := modelOp{s, k}
			if n := runs[op.key()]; n > 1 || (acked[op] && n != 1) {
				return fmt.Errorf("%v executed %d times (acknowledged: %v)", op, n, acked[op])
			}
		}
	}
	return nil
}

// TestSessionWindowExactlyOnce: under the session-window client every
// operation executes at most once, an acknowledged one exactly once and
// with its own result, a session's operations execute in seqno order,
// and an operation somebody still waits on is always answered when a
// copy of it commits. The negative control breaks the window and must be
// caught, so the model is known to be able to fail.
func TestSessionWindowExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 1500; seed++ {
		if err := runSessionModel(seed, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	caught := 0
	const controls = 200
	var first error
	for seed := int64(1); seed <= controls; seed++ {
		if err := runSessionModel(seed, true); err != nil {
			caught++
			if first == nil {
				first = err
			}
		}
	}
	if caught == 0 {
		t.Fatalf("two outstanding requests on one session went unnoticed over %d seeds", controls)
	}
	t.Logf("negative control: %d of %d overlapping schedules caught, e.g. %v", caught, controls, first)
}
