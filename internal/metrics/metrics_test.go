package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	if s := h.Snapshot(); s != (Summary{}) {
		t.Fatalf("empty snapshot = %+v, want zero", s)
	}
	for i := 1; i <= 100; i++ {
		h.Add(i)
	}
	s := h.Snapshot()
	want := Summary{Count: 100, Mean: 50.5, Min: 1, P50: 50, P90: 90, P99: 99, Max: 100}
	if s != want {
		t.Fatalf("snapshot = %+v, want %+v", s, want)
	}
	// The snapshot must agree with the individual accessors.
	if s.P50 != h.Percentile(50) || s.P99 != h.Percentile(99) || s.Mean != h.Mean() {
		t.Fatal("snapshot disagrees with accessors")
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for _, v := range []int{5, 1, 9, 3, 7} {
		h.Add(v)
	}
	if h.Count() != 5 || h.Sum() != 25 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	if h.Mean() != 5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 9 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if p := h.Percentile(50); p != 5 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(100); p != 9 {
		t.Fatalf("p100 = %d", p)
	}
	if p := h.Percentile(1); p != 1 {
		t.Fatalf("p1 = %d", p)
	}
	if !strings.Contains(h.Summary(), "n=5") {
		t.Fatalf("summary = %q", h.Summary())
	}
	// Adding after sorting keeps stats correct.
	h.Add(0)
	if h.Min() != 0 {
		t.Fatal("post-sort add ignored")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "protocol", "nodes", "phases")
	tb.AddRow("paxos", "2f+1", "2")
	tb.AddRowf("pbft", 4, 3.0)
	tb.AddRow("short") // missing cells render empty
	out := tb.String()
	if !strings.Contains(out, "T1: demo") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	// All rows align: same rendered width.
	for i := 2; i < len(lines); i++ {
		if len(lines[i]) != len(lines[1]) {
			t.Fatalf("ragged row %d:\n%s", i, out)
		}
	}
	if !strings.Contains(out, "3.00") {
		t.Fatalf("float cell not formatted: %s", out)
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("F7: fork rate", "delay")
	f.Series("pow").Add(1, 0.01)
	f.Series("pow").Add(10, 0.2)
	f.Series("baseline").Add(1, 0.5)
	out := f.String()
	if !strings.Contains(out, "F7: fork rate") || !strings.Contains(out, "pow") {
		t.Fatalf("figure missing parts:\n%s", out)
	}
	// Row for x=10 exists with empty baseline cell.
	if !strings.Contains(out, "10") {
		t.Fatalf("missing x=10 row:\n%s", out)
	}
	// Series accessor reuses existing series.
	if len(f.series) != 2 {
		t.Fatalf("series count = %d", len(f.series))
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(3) != "3" {
		t.Fatalf("trimFloat(3) = %q", trimFloat(3))
	}
	if trimFloat(3.14159) != "3.142" {
		t.Fatalf("trimFloat pi = %q", trimFloat(3.14159))
	}
}

// Bucket numbers follow sample order across the whole int64 range,
// samples below 128 have a bucket to themselves, and every other sample
// lands in a bucket whose midpoint is within 1/128 of it.
func TestLatencyBucketsAreLogSpaced(t *testing.T) {
	prev := -1
	for _, v := range []int{0, 1, 31, 32, 63, 64, 65, 87, 127, 128, 129, 255, 256, 1000, 1023, 1024, 99_999, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d; buckets must not descend or leave [0, %d)", v, b, prev, histBuckets)
		}
		prev = b
		mid := bucketMid(b)
		if v < 2*histSub && mid != v {
			t.Fatalf("sample %d is in the exact range but its bucket %d reports %d", v, b, mid)
		}
		if math.Abs(float64(mid-v)) > float64(v)/128 {
			t.Fatalf("sample %d sits in bucket %d with midpoint %d: more than 1/128 off", v, b, mid)
		}
	}
	for v := 1; v < 1<<16; v++ {
		if bucketOf(v) < bucketOf(v-1) || bucketOf(bucketMid(bucketOf(v))) != bucketOf(v) {
			t.Fatalf("bucketOf descends at %d, or bucket %d's midpoint lies outside it", v, bucketOf(v))
		}
	}
}

// exactSnapshot is what the sample-keeping histogram this type replaced
// reported: order statistics of the sorted samples, rank ⌈p/100·n⌉.
func exactSnapshot(samples []int) Summary {
	s := append([]int(nil), samples...)
	sort.Ints(s)
	sum := 0
	for _, v := range s {
		sum += v
	}
	at := func(p float64) int { return s[int(math.Ceil(p/100*float64(len(s))))-1] }
	return Summary{Count: len(s), Mean: float64(sum) / float64(len(s)), Min: s[0], P50: at(50), P90: at(90), P99: at(99), Max: s[len(s)-1]}
}

// A million observations leave the histogram's footprint where it
// started — no allocation per sample, a fixed-size value — and its
// percentiles stay within the bucket error of the exact ones; two
// histograms merged report what one fed both streams reports.
func TestLatencyHistConstantFootprintAndAccuracy(t *testing.T) {
	var whole, even, odd Histogram
	samples := make([]int, 1_000_000)
	rng := rand.New(rand.NewSource(1))
	for i := range samples {
		// Log-normal around 60 µs with a long tail, like submit→apply.
		samples[i] = int(60 * math.Exp(rng.NormFloat64()))
		whole.Add(samples[i])
		if i%2 == 0 {
			even.Add(samples[i])
		} else {
			odd.Add(samples[i])
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { odd.Add(75) }); allocs != 0 {
		t.Fatalf("Add allocates %.1f times per sample", allocs)
	}
	for i := 0; i < 1001; i++ { // AllocsPerRun calls the function once more than it counts
		samples = append(samples, 75)
		whole.Add(75)
	}
	if size := unsafe.Sizeof(whole); size > 32<<10 {
		t.Fatalf("Histogram is %d bytes; it must stay a small fixed-size value", size)
	}
	got, want := whole.Snapshot(), exactSnapshot(samples)
	if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max || math.Abs(got.Mean-want.Mean) > 1e-6 {
		t.Fatalf("count, mean, min and max are exact: got %+v, want %+v", got, want)
	}
	for _, p := range []struct {
		name      string
		got, want int
	}{{"p50", got.P50, want.P50}, {"p90", got.P90, want.P90}, {"p99", got.P99, want.P99}} {
		if p.want < 2*histSub && p.got != p.want {
			t.Errorf("%s = %d, exact %d: percentiles below %d are exact", p.name, p.got, p.want, 2*histSub)
		}
		if off := math.Abs(float64(p.got-p.want)) / float64(p.want); off > 1.0/128 {
			t.Errorf("%s = %d, exact %d: %.2f%% off, bucket error is 0.8%%", p.name, p.got, p.want, 100*off)
		}
	}
	even.Merge(&odd)
	if even != whole {
		t.Errorf("Merge(even, odd) = %+v, one histogram fed both streams = %+v", even.Snapshot(), got)
	}
	var empty Histogram
	empty.Merge(&Histogram{})
	if empty.Snapshot() != (Summary{}) {
		t.Error("an empty histogram must summarize to zeros")
	}
	empty.Merge(&whole)
	if empty != whole {
		t.Error("merging into an empty histogram must copy the other")
	}
}
