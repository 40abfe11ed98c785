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
// confirms with a probe round instead of log entries. minbft and
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
	"flexpaxos":   {"a352b4a8fcc1279dd1026e1e06dd072d", "c9d552f67cd73f995d65b84c85855668", "a3314b98a6669e09349344b9859642b6"},
	"hotstuff":    {"8301ea5661852642ea7cfbf6991c47ec", "7ab240df5ee3be994678c4b480a4574d", "77e24b503c95acde3f5a777369056b28"},
	"minbft":      {"a1637e6a8448ca1588c0be6ed3258c70", "94d0e65fb2dbaed09d9f0df503b58d21", "412ce36150ee75d54710af2b0a4b6ea4"},
	"multipaxos":  {"6eaa5464222cd9c1abd5ec49a208fdc5", "46cfd7eeaea4230baed003b539a84467", "9c34cd412e725137f506a31c79eba8f3"},
	"paxos":       {"11bde38dc5dfa2370af1815e15500ca7", "6768eb3b4c7368ec4d579254dd15c3e8", "d8394ade356430df2a943ae19aa220e6"},
	"pbft":        {"464dae8fae68dec3098a6ddce5dd155b", "bc44e7a244089401ec15e606d478a9b2", "9a63c9851448337cebf8685db05a22f2"},
	"raft":        {"cae9a32b6852eba2334e42733209cbb7", "c58688ce9542c10c44a40996084c343c", "51209c94287e70a82151ccbcd6113c8c"},
	"raft-member": {"98bf36a80f2f77e9171ec4db651046d5", "20da887edacac5e5f1b3d627277c8b1f", "c31f563cbd991e59928a07517d22f197"},
	"shard":       {"c720b21b1c6fcb4bc8f54f54233037b0", "ec45b23c8eb9f1e4511bdf775aa2d205", "66abb27541c91020419d18f5d04cd36e"},
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
var shardAllClassesHashes = []string{"9c62fb6ce46c437974f59190dbff59dc", "214328806e307377de76d8825a487ed4", "7686f5b62378d4c4f5e1756ebaa47a0e"}

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
