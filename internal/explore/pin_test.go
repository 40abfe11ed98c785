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
// comes sooner), and again when that node's jitter shrank to one
// heartbeat interval (with it, a Multi-Paxos candidate behind its
// quorum asks to catch up once, not on every later ack, and a raft
// follower's timer runs on past a higher term it does not vote for).
// multipaxos and flexpaxos again when a Multi-Paxos leader began
// resending the slot a still frontier waits on at the heartbeat, and a
// candidate that caught up to its quorum's frontier began leading at
// once (each row's runs send other messages; outcomes stay ok), and
// again when Multi-Paxos became a Paxos elector on raft's replication
// core (its frames, catch-up and heartbeat are raft's now; raft's rows
// did not move). multipaxos-member joined then, after every other name.
// shard again when the home-shard decision round left cross-shard
// commit: a transaction's outcome became the AND of the votes its
// participants' logs latched, one replicated round fewer per
// cross-shard transaction. raft, multipaxos, flexpaxos,
// multipaxos-member and shard again when a follower that heard its
// leader within an election timeout began ignoring another candidate's
// RequestVote or Prepare (the voting rule a read lease rests on), and a
// Multi-Paxos leader began filling the slots before a scheduled epoch
// with no-ops (EXPERIMENTS.md X3).
// minbft and
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
	"2pc":               {"740fba0d384e118e3b24f26828477d1a", "e335d2063b8e5d8eb67334dc1cd32ddc", "e96ca90542adab8f6ed3a6f97d3de76e"},
	"3pc":               {"c0fa677cb709cecfcaed40f012406996", "7c9c1a4cc081220cb5be90fa9361b49f", "0591384fdf30c4a20013216fcc36939d"},
	"cheapbft":          {"e99b53cc4f9153115ce3c02811c4a195", "faa8f32a0a574d47a415d9dd15b790b0", "f7b4c1fe0e238237aa566512b1c08a5d"},
	"flexpaxos":         {"41607f9eab56f8f9986530401f8201d6", "d22a3ea97d104a30e35de9646f279e91", "0befc2275521c924eab83ec2eae0f432"},
	"hotstuff":          {"8301ea5661852642ea7cfbf6991c47ec", "7ab240df5ee3be994678c4b480a4574d", "77e24b503c95acde3f5a777369056b28"},
	"minbft":            {"a1637e6a8448ca1588c0be6ed3258c70", "94d0e65fb2dbaed09d9f0df503b58d21", "412ce36150ee75d54710af2b0a4b6ea4"},
	"multipaxos":        {"319d5e999b8068179c2c0fcb0466cb93", "72b9e3eb8eed23e1096bc7bdba598fcd", "15c086c96c568c0724f2fd8aeb148a29"},
	"multipaxos-member": {"2e5ae1dae0803c9dd4d764ea9acd8b45", "0d15b2fdab03938d4d764e424253bded", "e07db570e51db8fa2973b7d7dd9b1b23"},
	"paxos":             {"11bde38dc5dfa2370af1815e15500ca7", "6768eb3b4c7368ec4d579254dd15c3e8", "d8394ade356430df2a943ae19aa220e6"},
	"pbft":              {"464dae8fae68dec3098a6ddce5dd155b", "bc44e7a244089401ec15e606d478a9b2", "9a63c9851448337cebf8685db05a22f2"},
	"raft":              {"5c32b5b0b92427303b88d4bb41590c65", "6d4b2923f5195c5b7c79deeb84fc0601", "bcf0a5afd0662f26491ab700c28d3390"},
	"raft-member":       {"b6c1bd7c64d0bd5860cd2f167caeab19", "5fb483fcb1b450dd394a2cf8bcd0fbbb", "08062a4939b2dd280c9d066c4ff6c67e"},
	"shard":             {"da24e96ee2d619023b7b3b20ef76dc30", "fa9603133d180952bf0be20656eae58a", "7758b6cfc8b80a71e7e93a6ef3242e70"},
	"upright":           {"75d2c0b713a9a4ef7757e6487fde346c", "8c76cd9d1b1a24b5685168b3ef40f015", "ee5348e9a1e5909d4d09589be5f2bf40"},
}

// pinClasses is the fault mix a protocol's pin runs under: the default
// crash-model mix, except the member episodes, whose snapshot-install
// and config-safety paths only run under membership churn (make explore
// sweeps them the same way).
func pinClasses(name string) []nemesis.Op {
	if name == "raft-member" || name == "multipaxos-member" {
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
// waiting the election-timeout base, and when its jitter shrank to one
// heartbeat interval, and when the home-shard decision round left
// cross-shard commit (one replicated round fewer per transaction), and
// when followers began ignoring other candidates within an election
// timeout of their leader (the voting rule).
var shardAllClassesHashes = []string{"0c186b287cbf13d60c028df7fb3d803c", "6c01b656eea77eaa77c70b32b45d14f6", "491c80116e0d9a4e4deb8237c137d7e4"}

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

// sweepMessages is what make explore's default sweep (48 seeds, 4
// faults, the crash-model mix) sends in all for each backend on the
// replication core: a change that costs or saves traffic moves a pin,
// and says why in EXPERIMENTS.md, instead of being found by reading the
// sweep's output. Recorded when Multi-Paxos became an elector on raft's
// replication (raft unchanged; multipaxos 38,456 and flexpaxos 36,153
// before); re-recorded with the voting rule and Multi-Paxos' epoch
// no-ops (raft 35,698, multipaxos 37,150, flexpaxos 35,432 before).
var sweepMessages = []struct {
	name string
	sent int
}{{"raft", 35931}, {"multipaxos", 36310}, {"flexpaxos", 34115}}

func TestSweepMessagesPinned(t *testing.T) {
	for _, pin := range sweepMessages {
		res := Campaign{Proto: mustLookup(t, pin.name), Seeds: 48, SeedBase: 1, Faults: 4}.Run()
		if got := res.Exposure.Sent; got != pin.sent {
			t.Errorf("%s: the default sweep sent %d messages, pinned %d", pin.name, got, pin.sent)
		}
	}
}
