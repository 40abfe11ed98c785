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
// e9fbf09 (PR 13); flexpaxos re-recorded in PR 16, and the five built on
// the raft and multipaxos modules (flexpaxos, multipaxos, raft,
// raft-member, shard) in PR 18, when decisions stopped being messages;
// shard again when its read-your-writes probes became reads a leader
// confirms with a probe round instead of log entries, and those five
// again when phase 2 began going to a quorum and the rest of the
// followers at the tick. minbft and
// cheapbft joined when they got campaigns: minbft's rows are its parent
// commit's, and so is cheapbft's seed-2 row; seeds 1 and 3 PANIC, and
// moved when CheapSwitch began merging f+1 PANIC reports.
// A trace hash folds every tick's committed-state
// fingerprint and the run's final message and fault counters, so any
// change to what a harness submits, when it steps, or what its nodes
// send moves it. Hosting refactors must leave the table alone; a change
// that means to alter protocol behaviour re-records it (run the test,
// paste the printed table) and says why.
var pinnedHashes = map[string][]string{
	"2pc":         {"740fba0d384e118e3b24f26828477d1a", "e335d2063b8e5d8eb67334dc1cd32ddc", "e96ca90542adab8f6ed3a6f97d3de76e"},
	"3pc":         {"c0fa677cb709cecfcaed40f012406996", "7c9c1a4cc081220cb5be90fa9361b49f", "0591384fdf30c4a20013216fcc36939d"},
	"cheapbft":    {"e99b53cc4f9153115ce3c02811c4a195", "faa8f32a0a574d47a415d9dd15b790b0", "f7b4c1fe0e238237aa566512b1c08a5d"},
	"flexpaxos":   {"51b157d82e0c5dd70754f59370db1078", "a7148a414966b4ed375f6fcc381188d1", "87a707faa27089be8f777d66316f1f89"},
	"hotstuff":    {"8301ea5661852642ea7cfbf6991c47ec", "7ab240df5ee3be994678c4b480a4574d", "77e24b503c95acde3f5a777369056b28"},
	"minbft":      {"a1637e6a8448ca1588c0be6ed3258c70", "94d0e65fb2dbaed09d9f0df503b58d21", "412ce36150ee75d54710af2b0a4b6ea4"},
	"multipaxos":  {"3e0c56a17ae7f8b6c989243eeaa2b0bd", "39c51ae1170c02ce7dbc4cdcc74c3ca1", "ad109a2d91966c53fb140c683e9e57f7"},
	"paxos":       {"11bde38dc5dfa2370af1815e15500ca7", "6768eb3b4c7368ec4d579254dd15c3e8", "d8394ade356430df2a943ae19aa220e6"},
	"pbft":        {"464dae8fae68dec3098a6ddce5dd155b", "bc44e7a244089401ec15e606d478a9b2", "9a63c9851448337cebf8685db05a22f2"},
	"raft":        {"93f791bf6ac7140a717ba3f5e80f4f01", "662bc3b408d2a204fbe0fbb46ba2df1a", "17c9b371e5054fd6acb58aa800d3b75e"},
	"raft-member": {"b0182bd056d970ea34e5ef21a8eb7853", "077e8ea82305abb44a6a67c3ad4945fc", "09ee0e2383620987ab69aae1e1cfc688"},
	"shard":       {"2fc6d0a496a4ae4b53a5d147cdc2fe49", "4249a7baf664a3daf64c283c5b6733b9", "4e4a1afc4c50fa1ad38005d4cc3f1878"},
	"upright":     {"75d2c0b713a9a4ef7757e6487fde346c", "8c76cd9d1b1a24b5685168b3ef40f015", "ee5348e9a1e5909d4d09589be5f2bf40"},
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

// shardAllClassesHashes is the shard episode's trace hash over pinSeeds
// with generated 6-fault schedules drawn from nemesis.AllClasses: the
// pin that sends drop, dup and byz through shard.Service's fault
// surface, which the shard row above (the default crash-model mix)
// never does.
var shardAllClassesHashes = []string{"f8dd02d72ce57e26302218d356afd1e2", "f62a62e83494599cea1bdb0757de1711", "6c177c7409b15ae42f375aff8e84a6b8"}

func TestShardAllClassesHashesPinned(t *testing.T) {
	p := mustLookup(t, "shard")
	var got []string
	for _, seed := range pinSeeds {
		sched := genSchedule(seed, p.Nodes, p.Horizon, 6, nemesis.AllClasses)
		got = append(got, RunOnce(p, seed, 0, 0, sched).Hash)
	}
	if fmt.Sprint(got) != fmt.Sprint(shardAllClassesHashes) {
		t.Errorf("trace hashes %q, pinned %q", got, shardAllClassesHashes)
	}
}
