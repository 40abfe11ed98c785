package explore

import (
	"testing"

	"fortyconsensus/internal/nemesis"
)

// Shrunk reproducers of the log-prefix-agreement violations MinBFT and
// CheapBFT shared while each renumbered the next view from its own
// state, replayed at the full horizon. None needs a byzantine fault.
//
//   - minbft 266: node 2 executes slot 6 = cmd-185 in view 0 while node
//     1, which never saw it, becomes view 1's primary and numbers from
//     its own frontier 5, so node 0 commits cmd-125 at slot 6. A new view
//     now continues past the merged frontier its NewView carries.
//   - cheapbft 297: node 1 executes slot 1 = cmd-5 alone behind a
//     partition; the next switch's leader built its abort history from
//     its own empty slot table, and slot 1 went to cmd-95. The history is
//     now merged from f+1 PANIC reports, node 0's carrying cmd-5.
//   - cheapbft 37 (lossy): with the merge in place, node 0 installs a
//     history whose frontier (1) is past its own execution, drops its
//     uncommitted slot 1, and later reports "executed 0" — letting the
//     next merge hand slot 1 out again. A replica now reports the highest
//     frontier it installed. The run still stalls, as at the parent:
//     nodes 0 and 2 never learn slot 1's value without state transfer.
func TestTrustedCounterAgreementReproducers(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string
	}{{`nemesis/v1
protocol minbft
nodes 3
seed 266
horizon 400
events 2
partition 101 2,1|0
heal 134
end
`, OutcomeOK}, {`nemesis/v1
protocol cheapbft
nodes 3
seed 297
horizon 400
events 2
partition 8 1|0,2
heal 123
end
`, OutcomeOK}, {`nemesis/v1
protocol cheapbft
nodes 3
seed 37
horizon 400
events 4
partition 6 1,2|0
drop 32 0.3333252195070336
heal 49
cleardrop 141
end
`, OutcomeStall}} {
		sp, err := nemesis.Decode([]byte(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		p := mustLookup(t, sp.Protocol)
		if res, _ := Replay(p, sp); res.Outcome != tc.want {
			t.Errorf("%s seed %d: outcome %s, want %s (violation %v)", sp.Protocol, sp.Seed, res.Outcome, tc.want, res.Violation)
		}
	}
}
