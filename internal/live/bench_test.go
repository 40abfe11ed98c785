package live

import (
	"testing"
	"time"

	"fortyconsensus/internal/types"
)

// idleModule does nothing, so the two benchmarks below time Node's own
// cost per event: the go-test twins of servebench's node.deliver_per_s
// and node.callwait_p50_us.
type idleModule struct{ steps int }

func (m *idleModule) Step(int)     { m.steps++ }
func (m *idleModule) Tick()        {}
func (m *idleModule) Drain() []int { return nil }

func newIdleNode(b *testing.B) (*Node[int], *idleModule) {
	mod := &idleModule{}
	n := NewNode[int](mod, 0, func(int) types.NodeID { return 1 }, func(int) {}, nil,
		NodeConfig{TickEvery: time.Millisecond})
	n.Start()
	b.Cleanup(n.Close)
	return n, mod
}

func BenchmarkNodeDeliver(b *testing.B) {
	n, mod := newIdleNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Deliver(i)
	}
	b.StopTimer()
	if mod.steps != b.N {
		b.Fatalf("module stepped %d of %d delivered messages", mod.steps, b.N)
	}
}

func BenchmarkNodeCallWait(b *testing.B) {
	n, _ := newIdleNode(b)
	ran := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.CallWait(func() { ran++ })
	}
	b.StopTimer()
	if ran != b.N {
		b.Fatalf("%d of %d calls ran", ran, b.N)
	}
}
