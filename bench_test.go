// Package fortyconsensus's top-level benchmarks regenerate every table
// and figure of the paper (see EXPERIMENTS.md): one benchmark per
// artifact, each printing the same rows as `consensus-bench <id>`.
//
//	go test -bench=. -benchmem
//
// The experiments are deterministic (seeded simulation), so b.N
// iterations re-measure the harness cost while the printed artifact is
// stable; each benchmark reports the artifact once.
package main

import (
	"testing"

	"fortyconsensus/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var artifact string
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		artifact = r.Artifact
	}
	if testing.Verbose() {
		b.Log("\n" + artifact)
	}
}

func BenchmarkT1_Characterization(b *testing.B)       { benchExperiment(b, "t1") }
func BenchmarkT2_PBFTComplexity(b *testing.B)         { benchExperiment(b, "t2") }
func BenchmarkT3_TrustedHW(b *testing.B)              { benchExperiment(b, "t3") }
func BenchmarkT4_HybridQuorums(b *testing.B)          { benchExperiment(b, "t4") }
func BenchmarkF1_DuelingProposers(b *testing.B)       { benchExperiment(b, "f1") }
func BenchmarkF2_FastPaxos(b *testing.B)              { benchExperiment(b, "f2") }
func BenchmarkF3_FlexibleQuorums(b *testing.B)        { benchExperiment(b, "f3") }
func BenchmarkF4_Zyzzyva(b *testing.B)                { benchExperiment(b, "f4") }
func BenchmarkF5_HotStuffPipeline(b *testing.B)       { benchExperiment(b, "f5") }
func BenchmarkF6_XFT(b *testing.B)                    { benchExperiment(b, "f6") }
func BenchmarkF7_PoWForks(b *testing.B)               { benchExperiment(b, "f7") }
func BenchmarkF8_PoSFairness(b *testing.B)            { benchExperiment(b, "f8") }
func BenchmarkF9_InteractiveConsistency(b *testing.B) { benchExperiment(b, "f9") }
func BenchmarkF10_CnCDecomposition(b *testing.B)      { benchExperiment(b, "f10") }
func BenchmarkF11_SpannerStyle2PC(b *testing.B)       { benchExperiment(b, "f11") }
func BenchmarkF12_CheapSwitch(b *testing.B)           { benchExperiment(b, "f12") }
func BenchmarkX1_SelfishMining(b *testing.B)          { benchExperiment(b, "x1") }
func BenchmarkX2_SMRThroughput(b *testing.B)          { benchExperiment(b, "x2") }
func BenchmarkX4_ShardedTxns(b *testing.B)            { benchExperiment(b, "x4") }

// TestExperimentsRegenerate smoke-runs every experiment so `go test`
// alone exercises the full reproduction path.
func TestExperimentsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take ~1 minute")
	}
	for _, id := range experiments.IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := experiments.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if r.Artifact == "" {
				t.Errorf("%s produced an empty artifact", r.ID)
			}
			t.Logf("%s — %s: ok (%d bytes)", r.ID, r.Caption, len(r.Artifact))
		})
	}
}
