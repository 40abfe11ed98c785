package cheapbft

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
			fmt.Fprintf(h, "%s %d>%d ep%d s%d %x r%v x%d c%d e",
				m.Kind, m.From, m.To, m.Epoch, m.Seq, m.Digest[:4], chaincrypto.Hash(m.Req),
				m.Executed, m.Cert.Counter)
			for _, e := range m.Entries {
				fmt.Fprintf(h, " %d:%v", e.Seq, chaincrypto.Hash(e.Req))
			}
			fmt.Fprint(h, "|")
			return []Message{m}
		})
	}
	return func() string { return fmt.Sprintf("%x", h.Sum(nil)) }
}

// traceScenarios are the runs whose message sequences are pinned:
// CheapTiny's fault-free commits, F12's crashed active backup (PANIC,
// CheapSwitch, then requests in MinBFT mode), and the return to
// CheapTiny after QuietTicks.
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
	{"panic", func(t *testing.T) string {
		c := NewCluster(1, nil, Config{RequestTimeout: 25}, kvSM)
		trace := traceSequence(c)
		c.Crash(1)
		c.Submit(0, req(1, 1, kvstore.Incr("n", 1)))
		c.RunUntil(func() bool {
			return c.Nodes[0].Mode() == ModeMinBFT && c.Nodes[0].ExecutedFrontier() >= 1
		}, 6000)
		for i := 2; i <= 11; i++ {
			c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
		}
		c.RunUntil(func() bool { return c.ExecutedEverywhere(11, 1) }, 3000)
		if !c.ExecutedEverywhere(11, 1) || c.Nodes[2].Mode() != ModeMinBFT {
			t.Fatalf("panic: executed %d in mode %v", c.Nodes[2].ExecutedFrontier(), c.Nodes[2].Mode())
		}
		return trace()
	}},
	{"switch-back", func(t *testing.T) string {
		c := NewCluster(1, nil, Config{RequestTimeout: 25, QuietTicks: 60}, kvSM)
		trace := traceSequence(c)
		c.Crash(1)
		c.Submit(0, req(1, 1, kvstore.Incr("n", 1)))
		c.RunUntil(func() bool { return c.ExecutedEverywhere(1, 1) }, 4000)
		c.Restart(1)
		back := c.RunUntil(func() bool {
			return c.Nodes[0].Mode() == ModeCheapTiny && c.Nodes[2].Mode() == ModeCheapTiny
		}, 4000)
		// Replica 1 restarted in epoch 0 and is active again: the new
		// CheapTiny instance stalls on it and PANICs once more.
		for i := 2; i <= 6; i++ {
			c.Submit(0, req(1, uint64(i), kvstore.Incr("n", 1)))
			c.Run(20)
		}
		c.RunUntil(func() bool { return c.ExecutedEverywhere(6, 1) }, 3000)
		if !back || !c.ExecutedEverywhere(6, 1) {
			t.Fatalf("switch-back: switched back %v, executed %d", back, c.Nodes[0].ExecutedFrontier())
		}
		return trace()
	}},
}

// pinnedTraces are the scenarios' message-sequence digests. All three
// were recorded at commit 227c2d5, before the ordering path became
// minbft's core, and the fold onto the core left them identical. "panic"
// and "switch-back" then moved once, when CheapSwitch began building its
// abort history from f+1 PANIC reports: a PANIC now carries its sender's
// CASH-certified report, and the next epoch's leader sends the history
// when a peer's report reaches it rather than at its own PANIC. Parent
// digests: panic c1478e89…d8097, switch-back cbbcd4bc…fa93. CheapTiny's
// fault-free "commit" never PANICs and is the parent's still.
var pinnedTraces = map[string]string{
	"commit":      "dc2c178e6be950a110a8af0e45f4eaacc83755b5151bd297d3a0ea7dccdd840b",
	"panic":       "bbec60dffc191d29b88a00189c9eac624c61db1152384d6fb1ccf6a25c1bdb6f",
	"switch-back": "47a11c822c50089f3b4495e15e323f1542cb2e9bbb9649c231d7630cd8cba8b6",
}

func TestMessageSequencePinned(t *testing.T) {
	for _, sc := range traceScenarios {
		if got := sc.run(t); got != pinnedTraces[sc.name] {
			t.Errorf("%s: message sequence %s, pinned %s", sc.name, got, pinnedTraces[sc.name])
		}
	}
}
