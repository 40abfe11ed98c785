package nemesis

import (
	"fmt"
	"strconv"
	"strings"

	"fortyconsensus/internal/det"
	"fortyconsensus/internal/types"
)

// Spec is a replayable reproducer: everything needed to re-run one
// campaign episode bit-identically — the protocol harness, cluster
// size, seed, horizon, and the exact fault schedule — plus the trace
// hash of the run it reproduces and, for shrunk violations, the
// violated invariant.
//
// The wire form is a line-oriented text file:
//
//	nemesis/v1
//	protocol raft
//	nodes 5
//	seed 42
//	horizon 600
//	hash 3fa9c1...            (optional)
//	violation <free text>     (optional)
//	events 4
//	crash 10 2
//	restart 60 2
//	partition 30 0,1|2,3,4
//	heal 90
//	end
type Spec struct {
	Protocol  string
	Nodes     int
	Seed      uint64
	Horizon   int
	Hash      string // trace hash of the recorded run ("" = unrecorded)
	Violation string // human-readable invariant violation ("" = none)
	Schedule  Schedule
}

const specHeader = "nemesis/v1"

// Encode renders the spec in canonical form: fixed field order, events
// normalized by tick. Encoding the same spec always yields the same
// bytes, so reproducers can be diffed and deduplicated.
func (sp *Spec) Encode() []byte {
	var b strings.Builder
	b.WriteString(specHeader + "\n")
	fmt.Fprintf(&b, "protocol %s\n", sp.Protocol)
	fmt.Fprintf(&b, "nodes %d\n", sp.Nodes)
	fmt.Fprintf(&b, "seed %d\n", sp.Seed)
	fmt.Fprintf(&b, "horizon %d\n", sp.Horizon)
	if sp.Hash != "" {
		fmt.Fprintf(&b, "hash %s\n", sp.Hash)
	}
	if sp.Violation != "" {
		fmt.Fprintf(&b, "violation %s\n", strings.ReplaceAll(sp.Violation, "\n", " "))
	}
	sched := Schedule{Events: append([]Event(nil), sp.Schedule.Events...)}
	sched.Normalize()
	fmt.Fprintf(&b, "events %d\n", len(sched.Events))
	for _, e := range sched.Events {
		b.WriteString(encodeEvent(e) + "\n")
	}
	b.WriteString("end\n")
	return []byte(b.String())
}

// encodeEvent writes an event as its keyword, its tick, the arguments
// its scope names, then delay's bounds or byz's mode.
func encodeEvent(e Event) string {
	if !e.Op.valid() {
		return fmt.Sprintf("# unknown op %d", uint8(e.Op))
	}
	words := []string{e.Op.String(), strconv.Itoa(e.At)}
	switch e.Op.scope() {
	case scopeNode:
		words = append(words, strconv.Itoa(int(e.Node)))
	case scopeLink:
		words = append(words, strconv.Itoa(int(e.From)), strconv.Itoa(int(e.To)))
	case scopePartition:
		groups := make([]string, len(e.Groups))
		for i, g := range e.Groups {
			ids := make([]string, len(g))
			for j, id := range g {
				ids[j] = strconv.Itoa(int(id))
			}
			groups[i] = strings.Join(ids, ",")
		}
		words = append(words, strings.Join(groups, "|"))
	case scopeRate:
		words = append(words, strconv.FormatFloat(e.Rate, 'g', -1, 64))
	}
	switch e.Op {
	case OpDelaySet:
		words = append(words, strconv.Itoa(e.Lo), strconv.Itoa(e.Hi))
	case OpByzantine:
		words = append(words, e.Mode)
	}
	return strings.Join(words, " ")
}

// opsByKeyword maps spec keywords back to ops.
var opsByKeyword = func() map[string]Op {
	m := map[string]Op{}
	for o := OpCrash; o <= OpAddNode; o++ {
		m[o.String()] = o
	}
	return m
}()

// Keywords returns the sorted spec keywords of all initiating ops, for
// CLI -classes parsing and usage text.
func Keywords() []string {
	var out []string
	for _, kw := range det.SortedKeys(opsByKeyword) {
		if !opsByKeyword[kw].IsRecovery() {
			out = append(out, kw)
		}
	}
	return out
}

// ClassByKeyword resolves an initiating op from its keyword ("crash",
// "partition", "cut", "delay", "drop", "dup", "byz", "rmnode").
func ClassByKeyword(kw string) (Op, bool) {
	op, ok := opsByKeyword[kw]
	if !ok || op.IsRecovery() {
		return 0, false
	}
	return op, true
}

// Decode parses a spec file produced by Encode (or written by hand).
func Decode(data []byte) (*Spec, error) {
	lines := strings.Split(string(data), "\n")
	sp := &Spec{}
	state := 0 // 0 = expect header, 1 = fields, 2 = events, 3 = done
	var wantEvents int
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		errf := func(format string, args ...any) error {
			return fmt.Errorf("nemesis: spec line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		switch state {
		case 0:
			if line != specHeader {
				return nil, errf("want header %q, got %q", specHeader, line)
			}
			state = 1
		case 1, 2:
			fields := strings.Fields(line)
			key := fields[0]
			if state == 1 {
				done, err := sp.parseField(key, fields[1:], line)
				if err != nil {
					return nil, errf("%v", err)
				}
				if done {
					wantEvents, err = strconv.Atoi(fields[1])
					if err != nil || wantEvents < 0 {
						return nil, errf("bad event count %q", fields[1])
					}
					state = 2
				}
				continue
			}
			if key == "end" {
				state = 3
				continue
			}
			e, err := decodeEvent(fields)
			if err != nil {
				return nil, errf("%v", err)
			}
			sp.Schedule.Events = append(sp.Schedule.Events, e)
		case 3:
			return nil, errf("trailing content after end")
		}
	}
	if state < 2 {
		return nil, fmt.Errorf("nemesis: spec truncated (no events section)")
	}
	if state != 3 {
		return nil, fmt.Errorf("nemesis: spec truncated (missing end)")
	}
	if wantEvents != len(sp.Schedule.Events) {
		return nil, fmt.Errorf("nemesis: spec declares %d events, has %d", wantEvents, len(sp.Schedule.Events))
	}
	if sp.Protocol == "" {
		return nil, fmt.Errorf("nemesis: spec missing protocol")
	}
	if sp.Nodes <= 0 {
		return nil, fmt.Errorf("nemesis: spec missing nodes")
	}
	if sp.Horizon <= 0 {
		return nil, fmt.Errorf("nemesis: spec missing horizon")
	}
	if err := sp.Schedule.Validate(); err != nil {
		return nil, err
	}
	sp.Schedule.Normalize()
	return sp, nil
}

// parseField handles one header field; returns done=true on "events".
func (sp *Spec) parseField(key string, args []string, line string) (bool, error) {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("%s needs %d argument(s)", key, n)
		}
		return nil
	}
	switch key {
	case "protocol":
		if err := need(1); err != nil {
			return false, err
		}
		sp.Protocol = args[0]
	case "nodes":
		if err := need(1); err != nil {
			return false, err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return false, fmt.Errorf("bad nodes %q", args[0])
		}
		sp.Nodes = n
	case "seed":
		if err := need(1); err != nil {
			return false, err
		}
		s, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return false, fmt.Errorf("bad seed %q", args[0])
		}
		sp.Seed = s
	case "horizon":
		if err := need(1); err != nil {
			return false, err
		}
		h, err := strconv.Atoi(args[0])
		if err != nil {
			return false, fmt.Errorf("bad horizon %q", args[0])
		}
		sp.Horizon = h
	case "hash":
		if err := need(1); err != nil {
			return false, err
		}
		sp.Hash = args[0]
	case "violation":
		sp.Violation = strings.TrimSpace(strings.TrimPrefix(line, "violation"))
	case "events":
		if err := need(1); err != nil {
			return false, err
		}
		return true, nil
	default:
		return false, fmt.Errorf("unknown field %q", key)
	}
	return false, nil
}

// decodeEvent reads what encodeEvent writes: the integers (tick, then
// the node or link, then delay's bounds) and at most one word after
// them (partition groups, a rate, or byz's mode).
func decodeEvent(fields []string) (Event, error) {
	op, ok := opsByKeyword[fields[0]]
	if !ok {
		return Event{}, fmt.Errorf("unknown op %q", fields[0])
	}
	e := Event{Op: op}
	var node, from, to int
	ints := []*int{&e.At}
	switch op.scope() {
	case scopeNode:
		ints = append(ints, &node)
	case scopeLink:
		ints = append(ints, &from, &to)
	}
	if op == OpDelaySet {
		ints = append(ints, &e.Lo, &e.Hi)
	}
	want := len(ints)
	if op.scope() == scopePartition || op.scope() == scopeRate || op == OpByzantine {
		want++
	}
	args := fields[1:]
	if len(args) < want {
		return e, fmt.Errorf("%s needs %d argument(s)", op, want)
	}
	for i, p := range ints {
		n, err := strconv.Atoi(args[i])
		if err != nil {
			return e, fmt.Errorf("%s: bad integer %q", op, args[i])
		}
		*p = n
	}
	e.Node, e.From, e.To = types.NodeID(node), types.NodeID(from), types.NodeID(to)
	if want == len(ints) {
		return e, nil
	}
	word := args[len(ints)]
	switch {
	case op == OpByzantine:
		e.Mode = word
	case op.scope() == scopeRate:
		rate, err := strconv.ParseFloat(word, 64)
		if err != nil {
			return e, fmt.Errorf("%s: bad rate %q", op, word)
		}
		e.Rate = rate
	default: // partition
		for _, part := range strings.Split(word, "|") {
			var g []types.NodeID
			for _, idStr := range strings.Split(part, ",") {
				if idStr == "" {
					continue
				}
				id, err := strconv.Atoi(idStr)
				if err != nil {
					return e, fmt.Errorf("%s: bad integer %q", op, idStr)
				}
				g = append(g, types.NodeID(id))
			}
			if len(g) > 0 {
				e.Groups = append(e.Groups, g)
			}
		}
	}
	return e, nil
}
