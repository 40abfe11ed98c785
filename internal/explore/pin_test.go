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
// followers at the tick, and again when a node that has seen no term or
// ballot began skipping the election-timeout base (the first election
// comes sooner). minbft and
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
	"flexpaxos":   {"f89e4e52a4ae68051889b49b1a56bc67", "83bdf2ade4fe77717b58912427680ffc", "e201392d9a650d57508c8262b9c42474"},
	"hotstuff":    {"8301ea5661852642ea7cfbf6991c47ec", "7ab240df5ee3be994678c4b480a4574d", "77e24b503c95acde3f5a777369056b28"},
	"minbft":      {"a1637e6a8448ca1588c0be6ed3258c70", "94d0e65fb2dbaed09d9f0df503b58d21", "412ce36150ee75d54710af2b0a4b6ea4"},
	"multipaxos":  {"ea6b516e1c78a48f45a354e95555683a", "9e462f48f2ecd00c06843c37360fd6de", "b0b6af6e41705ae87670b3af7cf2ca77"},
	"paxos":       {"11bde38dc5dfa2370af1815e15500ca7", "6768eb3b4c7368ec4d579254dd15c3e8", "d8394ade356430df2a943ae19aa220e6"},
	"pbft":        {"464dae8fae68dec3098a6ddce5dd155b", "bc44e7a244089401ec15e606d478a9b2", "9a63c9851448337cebf8685db05a22f2"},
	"raft":        {"066bf5d54bb7fc8d90bfc2aea4efa32d", "af6d3a1c7d788b090a4315bebc2dad69", "41c22269b333f7c187540840454c41f0"},
	"raft-member": {"518a5c772ae9640941b52dcdf506a089", "1ce702e24f380a9bad7b903848c4ab3e", "43e7652eec7767662bdd5165fc60ac32"},
	"shard":       {"ea9cceb63ed83c6c5a91144c9a44c8fa", "525aa0d30d20c1e6cebf9bf3e6672ef4", "333e4555a7a800c38429564a2d7e497b"},
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
// never does. Re-recorded when a fresh group's first election stopped
// waiting the election-timeout base.
var shardAllClassesHashes = []string{"0f240d8596e957eb88181121bbb70e75", "7b70f0d208363b003be934f101b6dc03", "8cc14f3bc60a2d41a2ba21fe6e5926b1"}

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
