// Package histcheck is a history-recording linearizability-style
// checker for single-key KV operations, used by shard tests to validate
// client-visible behaviour under nemesis schedules. It is test support
// code: the simulation records each operation's invocation and response
// ticks, and Check searches for a linearization — a total order of the
// operations that (a) respects real-time precedence (an operation that
// finished before another started must order first) and (b) makes every
// observed result match a sequential kvstore run (Wing & Gong's
// definition, explored with Lowe-style memoized DFS).
//
// Operations on different keys commute in the kvstore model, so the
// history is partitioned per key and each partition is checked
// independently. A partition is limited to 64 operations (the DFS mask
// is a uint64); recording more returns an error rather than silently
// truncating.
package histcheck

import (
	"fmt"
	"strconv"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// Pending marks an operation that never received a response. Pending
// operations may have taken effect (the request could have committed
// right as the client gave up) or not; the checker tries both.
const Pending = -1

// Op is one recorded client operation.
type Op struct {
	Cmd     kvstore.Command
	Result  types.Value // response payload; ignored when End == Pending
	Start   int         // invocation tick
	End     int         // response tick, or Pending
	Refused bool        // responded, but refused with no state change (e.g. a prepare-lock bounce)
}

// History accumulates operations as a simulation runs.
type History struct {
	ops []Op
}

// Begin records an invocation and returns the operation's id.
func (h *History) Begin(cmd kvstore.Command, now int) int {
	h.ops = append(h.ops, Op{Cmd: cmd, Start: now, End: Pending})
	return len(h.ops) - 1
}

// End records operation id's response.
func (h *History) End(id int, result types.Value, now int) {
	h.ops[id].Result = result.Clone()
	h.ops[id].End = now
}

// EndRefused records that operation id was answered with a
// no-state-change refusal (the shard layer's TX_LOCKED bounce off a
// prepare-locked key). The checker linearizes it as a no-op.
func (h *History) EndRefused(id int, now int) {
	h.ops[id].End = now
	h.ops[id].Refused = true
}

// Len returns the number of recorded operations.
func (h *History) Len() int { return len(h.ops) }

// Check reports nil if the history is linearizable against kvstore
// semantics, or an error naming the first unlinearizable key.
func (h *History) Check() error {
	byKey := map[string][]Op{}
	for _, op := range h.ops {
		byKey[op.Cmd.Key] = append(byKey[op.Cmd.Key], op)
	}
	for _, key := range det.SortedKeys(byKey) {
		ops := byKey[key]
		if len(ops) > 64 {
			return fmt.Errorf("histcheck: key %q has %d ops, max 64", key, len(ops))
		}
		if !linearizable(ops) {
			return fmt.Errorf("histcheck: operations on key %q are not linearizable", key)
		}
	}
	return nil
}

// keyState is the sequential model of one key.
type keyState struct {
	present bool
	value   string
}

// apply runs cmd against the model, returning the reply and next state.
// It must agree byte-for-byte with kvstore.Store.Apply on a one-key
// store; TestModelMatchesKVStore cross-checks that.
func (st keyState) apply(cmd kvstore.Command) (types.Value, keyState) {
	switch cmd.Op {
	case kvstore.OpGet:
		if st.present {
			return types.Value(st.value), st
		}
		return kvstore.ReplyNotFound, st
	case kvstore.OpPut:
		return kvstore.ReplyOK, keyState{present: true, value: string(cmd.Value)}
	case kvstore.OpDelete:
		if !st.present {
			return kvstore.ReplyNotFound, st
		}
		return kvstore.ReplyOK, keyState{}
	case kvstore.OpCAS:
		if !st.present && len(cmd.Expected) != 0 {
			return kvstore.ReplyCASFail, st
		}
		if st.present && st.value != string(cmd.Expected) {
			return kvstore.ReplyCASFail, st
		}
		return kvstore.ReplyOK, keyState{present: true, value: string(cmd.Value)}
	case kvstore.OpIncr:
		delta, err := strconv.ParseInt(string(cmd.Value), 10, 64)
		if err != nil {
			return kvstore.ReplyBadCmd, st
		}
		cur := int64(0)
		if st.present {
			cur, err = strconv.ParseInt(st.value, 10, 64)
			if err != nil {
				return kvstore.ReplyBadCmd, st
			}
		}
		cur += delta
		v := strconv.FormatInt(cur, 10)
		return types.Value(v), keyState{present: true, value: v}
	case kvstore.OpNoop:
		return kvstore.ReplyOK, st
	}
	return kvstore.ReplyBadCmd, st
}

// linearizable searches for a valid linearization of ops on one key.
func linearizable(ops []Op) bool {
	type frame struct {
		mask  uint64
		state keyState
	}
	memo := map[frame]bool{}
	var rec func(mask uint64, st keyState) bool
	rec = func(mask uint64, st keyState) bool {
		f := frame{mask, st}
		if done, ok := memo[f]; ok {
			return done
		}
		// Success when every completed op has been linearized; leftover
		// pending ops are treated as never-took-effect.
		allDone := true
		for i, op := range ops {
			if mask&(1<<uint(i)) == 0 && op.End != Pending {
				allDone = false
				break
			}
		}
		if allDone {
			memo[f] = true
			return true
		}
		// minEnd bounds which remaining ops may linearize next: an op
		// whose invocation is after some other remaining op's response
		// cannot precede it.
		minEnd := int(^uint(0) >> 1)
		for i, op := range ops {
			if mask&(1<<uint(i)) != 0 || op.End == Pending {
				continue
			}
			if op.End < minEnd {
				minEnd = op.End
			}
		}
		ok := false
		for i, op := range ops {
			if mask&(1<<uint(i)) != 0 || op.Start > minEnd {
				continue
			}
			res, next := st.apply(op.Cmd)
			if op.Refused {
				res, next = nil, st // refusals change nothing and match trivially
			}
			if op.End != Pending && !op.Refused && !res.Equal(op.Result) {
				continue
			}
			if rec(mask|1<<uint(i), next) {
				ok = true
				break
			}
		}
		memo[f] = ok
		return ok
	}
	return rec(0, keyState{})
}
