package live

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"fortyconsensus/internal/metrics"
)

// Every sample lands in a bucket whose midpoint is within 1/64 of it,
// and bucket numbers follow sample order across the whole int64 range.
func TestLatencyBucketsAreLogSpaced(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000, 1023, 1024, 99_999, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		b := latBucket(v)
		if b < prev || b >= latBuckets {
			t.Fatalf("latBucket(%d) = %d after %d; buckets must not descend or leave [0, %d)", v, b, prev, latBuckets)
		}
		prev = b
		if mid := latBucketMid(b); math.Abs(float64(mid-v)) > float64(v)/64 {
			t.Fatalf("sample %d sits in bucket %d with midpoint %d: more than 1/64 off", v, b, mid)
		}
	}
}

// A million observations leave the histogram's footprint where it
// started — no allocation per sample, a fixed-size value — and its
// percentiles stay within the bucket error of the exact ones.
func TestLatencyHistConstantFootprintAndAccuracy(t *testing.T) {
	m := newServerMetrics(2)
	exact := metrics.NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		// Log-normal around 60 µs with a long tail, like submit→apply.
		v := int64(60 * math.Exp(rng.NormFloat64()))
		m.latency.add(v)
		exact.Add(int(v))
	}
	// AllocsPerRun calls the function once more than it counts.
	if allocs := testing.AllocsPerRun(1000, func() { m.observeCommit(1, 75*time.Microsecond) }); allocs != 0 {
		t.Fatalf("observeCommit allocates %.1f times per sample", allocs)
	}
	for i := 0; i < 1001; i++ {
		exact.Add(75)
	}
	if size := unsafe.Sizeof(m.latency); size > 16<<10 {
		t.Fatalf("latencyHist is %d bytes; it must stay a small fixed-size value", size)
	}
	got, want := m.LatencySummary(), exact.Snapshot()
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || math.Abs(got.Mean-want.Mean) > 1e-6 {
		t.Fatalf("count, mean, min and max are exact: got %+v, want %+v", got, want)
	}
	for _, p := range []struct {
		name      string
		got, want int
	}{{"p50", got.P50, want.P50}, {"p90", got.P90, want.P90}, {"p99", got.P99, want.P99}} {
		if off := math.Abs(float64(p.got-p.want)) / float64(p.want); off > 0.032 {
			t.Errorf("%s = %d, exact %d: %.1f%% off, bucket error is 3.1%%", p.name, p.got, p.want, 100*off)
		}
	}
	if (&latencyHist{}).summary() != (metrics.Summary{}) {
		t.Error("an empty histogram must summarize to zeros")
	}
}
