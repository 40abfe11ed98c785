package explore

import (
	"fmt"
	"testing"

	"fortyconsensus/internal/nemesis"
)

// pinSeeds is the fixed seed window of TestRunOnceHashesPinned.
var pinSeeds = []uint64{1, 2, 3}

// pinnedHashes is RunOnce's trace hash for every registered protocol
// over pinSeeds with generated 4-fault schedules, recorded at commit
// e9fbf09 (PR 13). A trace hash folds every tick's committed-state
// fingerprint and the run's final message and fault counters, so any
// change to what a harness submits, when it steps, or what its nodes
// send moves it. Hosting refactors must leave the table alone; a change
// that means to alter protocol behaviour re-records it (run the test,
// paste the printed table) and says why.
var pinnedHashes = map[string][]string{
	"2pc":         {"740fba0d384e118e3b24f26828477d1a", "e335d2063b8e5d8eb67334dc1cd32ddc", "e96ca90542adab8f6ed3a6f97d3de76e"},
	"3pc":         {"c0fa677cb709cecfcaed40f012406996", "7c9c1a4cc081220cb5be90fa9361b49f", "0591384fdf30c4a20013216fcc36939d"},
	"flexpaxos":   {"878735dfebb5ec44328936b63de34334", "156195b7fcce12a45307da4643286085", "d38722e01b66363159e3b375bae6a1d5"},
	"hotstuff":    {"8301ea5661852642ea7cfbf6991c47ec", "7ab240df5ee3be994678c4b480a4574d", "77e24b503c95acde3f5a777369056b28"},
	"multipaxos":  {"30b1bf8136e5953cfda5441b0375f556", "7278b3d306551aa1d05c48ba530b429e", "7dd4dd55d63c1f36c182dd6fb9921100"},
	"paxos":       {"11bde38dc5dfa2370af1815e15500ca7", "6768eb3b4c7368ec4d579254dd15c3e8", "d8394ade356430df2a943ae19aa220e6"},
	"pbft":        {"464dae8fae68dec3098a6ddce5dd155b", "bc44e7a244089401ec15e606d478a9b2", "9a63c9851448337cebf8685db05a22f2"},
	"raft":        {"02df47134d99f7ba1eddf572af6f6514", "064283864a9878998bfb6a16a51812ea", "9d89271e1ce1496b49aed12bbd228194"},
	"raft-member": {"40dadfcfd78e8ea077b47bc3552319b8", "ce91a94e677ec9ddae07103d89304682", "36337f10ee1a113dc3f02bc37fc313ff"},
	"shard":       {"55a01f033d2f543822048ddd70237c73", "9ba31218a243cebc0b9a2e20305fa6cf", "91930d95c229f8d06926a4394a23ae5b"},
}

// pinClasses is the fault mix a protocol's pin runs under: the default
// crash-model mix, except raft-member, whose snapshot-install and
// config-safety paths only run under membership churn (make explore
// sweeps it the same way).
func pinClasses(name string) []nemesis.Op {
	if name == "raft-member" {
		return []nemesis.Op{nemesis.OpRemoveNode, nemesis.OpCrash, nemesis.OpPartition}
	}
	return nil
}

func TestRunOnceHashesPinned(t *testing.T) {
	got := map[string][]string{}
	for _, name := range Names() {
		p := mustLookup(t, name)
		for _, seed := range pinSeeds {
			sched := genSchedule(seed, p.Nodes, p.Horizon, 4, pinClasses(name))
			got[name] = append(got[name], RunOnce(p, seed, 0, 0, sched).Hash)
		}
	}
	bad := false
	for _, name := range Names() {
		if fmt.Sprint(got[name]) != fmt.Sprint(pinnedHashes[name]) {
			t.Errorf("%s: trace hashes %v, pinned %v", name, got[name], pinnedHashes[name])
			bad = true
		}
	}
	if len(pinnedHashes) != len(got) {
		t.Errorf("pinned table covers %d protocols, registry has %d", len(pinnedHashes), len(got))
		bad = true
	}
	if bad {
		for _, name := range Names() {
			t.Logf("\t%q: {%q, %q, %q},", name, got[name][0], got[name][1], got[name][2])
		}
	}
}
