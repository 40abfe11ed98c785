package minbft

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"fortyconsensus/internal/chaincrypto"
	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/types"
)

// traceSequence folds every message c's replicas hand the network into
// a sha256 and returns a function reading the digest so far.
func traceSequence(c *Cluster) func() string {
	h := sha256.New()
	for i := range c.Nodes {
		c.Intercept(types.NodeID(i), func(m Message) []Message {
			fmt.Fprintf(h, "%s %d>%d v%d s%d %x r%v x%d u%d p%d/%d e",
				m.Kind, m.From, m.To, m.View, m.Seq, m.Digest[:4], chaincrypto.Hash(m.Req),
				m.Executed, m.UI.Counter, m.PrimaryUI.Node, m.PrimaryUI.Counter)
			for _, e := range m.Entries {
				fmt.Fprintf(h, " %d:%v", e.Seq, chaincrypto.Hash(e.Req))
			}
			fmt.Fprint(h, "|")
			return []Message{m}
		})
	}
	return func() string { return fmt.Sprintf("%x", h.Sum(nil)) }
}

// traceScenarios are the runs whose message sequences are pinned: a
// fault-free stream of requests entering at every replica, and a crashed
// primary's view change with commits on both sides of it.
var traceScenarios = []struct {
	name string
	run  func(t *testing.T) string
}{
	{"commit", func(t *testing.T) string {
		c := NewCluster(1, nil, Config{}, kvSM)
		trace := traceSequence(c)
		for i := 1; i <= 12; i++ {
			c.Submit(types.NodeID(i%3), req(1, uint64(i), kvstore.Incr("n", 1)))
			c.Run(20)
		}
		c.Run(100)
		if !c.ExecutedEverywhere(12) {
			t.Fatalf("commit: stalled at %d", c.Nodes[0].ExecutedFrontier())
		}
		return trace()
	}},
	{"view-change", func(t *testing.T) string {
		c := NewCluster(1, nil, Config{RequestTimeout: 30}, kvSM)
		trace := traceSequence(c)
		for i := 1; i <= 3; i++ {
			c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
		}
		c.RunUntil(func() bool { return c.ExecutedEverywhere(3) }, 300)
		c.Crash(0)
		for i := 4; i <= 8; i++ {
			c.Submit(types.NodeID(1+i%2), req(1, uint64(i), kvstore.Incr("n", 1)))
			c.Run(10)
		}
		c.RunUntil(func() bool { return c.ExecutedEverywhere(8, 0) }, 4000)
		if !c.ExecutedEverywhere(8, 0) || c.Nodes[1].View() == 0 {
			t.Fatalf("view-change: executed %d in view %d", c.Nodes[1].ExecutedFrontier(), c.Nodes[1].View())
		}
		return trace()
	}},
}

// pinnedTraces are the scenarios' message-sequence digests, recorded at
// commit 227c2d5, before the ordering path became the shared core. Both
// survive the new-view fix unchanged: its view change has nothing
// uncommitted to carry over and every report names the same executed
// frontier, so renumbering from the merged frontier changes nothing.
var pinnedTraces = map[string]string{
	"commit":      "af888ff21c0213b4a2275ae0b15af52b4488e0e5b4e07b5e3d10bc38cd47b100",
	"view-change": "403535a90ee804284e8da259a1d5b2b6aae9e672cdf35dd0b9216cc5d35182c0",
}

func TestMessageSequencePinned(t *testing.T) {
	for _, sc := range traceScenarios {
		if got := sc.run(t); got != pinnedTraces[sc.name] {
			t.Errorf("%s: message sequence %s, pinned %s", sc.name, got, pinnedTraces[sc.name])
		}
	}
}
