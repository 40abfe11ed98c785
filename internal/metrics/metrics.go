// Package metrics collects and renders the measurements the experiment
// harness reports: latency histograms, message-complexity counters, and
// the aligned text tables/series that cmd/consensus-bench prints in the
// shape of the paper's artifacts.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"fortyconsensus/internal/det"
)

// Histogram accumulates integer samples (latencies in ticks or
// microseconds, message counts per operation) in fixed log-spaced
// buckets: Add allocates nothing and the value's footprint never
// grows, so the simulator, a server that runs for days and the load
// generator all keep the same type. Count, Sum, Mean, Min and Max are
// exact. Percentiles are exact for samples below 2·histSub = 128, which
// have a bucket each; above that each power of two splits into
// histSub = 64 buckets, a percentile is reported as its bucket's
// midpoint (clamped to [Min, Max]) and is within 1/128 ≈ 0.8 % of the
// sample a sorted slice would have picked. Negative samples count as 0.
// The zero value is an empty histogram.
type Histogram struct {
	counts   [histBuckets]uint64
	n, sum   uint64
	min, max int
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) << histSubBits // the last covers up to 2^63-1
)

// bucketOf maps a sample to its bucket, bucketMid a bucket to its
// middle value.
func bucketOf(v int) int {
	exp := bits.Len64(uint64(v)) - 1 - histSubBits // the octave's shift; not positive in the exact range
	if exp <= 0 {
		return v
	}
	return exp<<histSubBits + v>>exp
}

func bucketMid(b int) int {
	exp := b>>histSubBits - 1
	if exp <= 0 {
		return b
	}
	lo := (b&(histSub-1) | histSub) << exp
	return lo + (1<<exp-1)/2
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += uint64(v)
}

// Merge adds every sample o holds, as if each had been Added to h.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	h.max = max(h.max, o.max)
	for b := range o.counts {
		h.counts[b] += o.counts[b]
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.n) }

// Sum returns the total of all samples.
func (h *Histogram) Sum() int { return int(h.sum) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Percentile returns the p-th percentile (0 < p <= 100) — the sample of
// rank ⌈p/100·n⌉, to the bucket precision the type's comment states —
// or 0 with no samples.
func (h *Histogram) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	rank := max(1, uint64(math.Ceil(p/100*float64(h.n))))
	seen := uint64(0)
	for b := range h.counts {
		if seen += h.counts[b]; seen >= rank {
			return min(max(bucketMid(b), h.min), h.max)
		}
	}
	return h.max
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() int { return h.min }

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() int { return h.max }

// Summary renders "mean/p50/p99 (n)" for table cells.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("%.1f/%d/%d (n=%d)", h.Mean(), h.Percentile(50), h.Percentile(99), h.Count())
}

// Summary is a one-shot snapshot of a histogram's order statistics —
// the machine-readable sibling of the Summary string, shared by the
// live runtime's metrics endpoint and the load generator's report.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   int     `json:"min"`
	P50   int     `json:"p50"`
	P90   int     `json:"p90"`
	P99   int     `json:"p99"`
	Max   int     `json:"max"`
}

// Snapshot computes the histogram's summary statistics.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// Table renders aligned experiment tables. Columns are fixed at
// construction; rows are appended as formatted cells.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends one row. Cells beyond the header count are dropped;
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of fmt.Sprint-rendered values.
func (t *Table) AddRowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.2f", v)
		default:
			s[i] = fmt.Sprint(c)
		}
	}
	t.AddRow(s...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, hd := range t.headers {
		widths[i] = len(hd)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a labelled (x, y) sequence — the text analogue of one figure
// line.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure groups series under a caption and renders them as a table of
// x versus each series' y.
type Figure struct {
	Caption string
	XLabel  string
	series  []*Series
}

// NewFigure creates a figure.
func NewFigure(caption, xlabel string) *Figure { return &Figure{Caption: caption, XLabel: xlabel} }

// Series returns (creating if needed) the named series.
func (f *Figure) Series(name string) *Series {
	for _, s := range f.series {
		if s.Name == name {
			return s
		}
	}
	s := &Series{Name: name}
	f.series = append(f.series, s)
	return s
}

// String renders the figure as an aligned x/series table. Series may have
// different x supports; rows are the sorted union of x values.
func (f *Figure) String() string {
	xset := map[float64]bool{}
	for _, s := range f.series {
		for _, x := range s.X {
			xset[x] = true
		}
	}
	xs := det.SortedKeys(xset)
	headers := append([]string{f.XLabel}, make([]string, len(f.series))...)
	for i, s := range f.series {
		headers[i+1] = s.Name
	}
	t := NewTable(f.Caption, headers...)
	for _, x := range xs {
		row := make([]string, len(headers))
		row[0] = trimFloat(x)
		for i, s := range f.series {
			row[i+1] = ""
			for j, sx := range s.X {
				if sx == x {
					row[i+1] = trimFloat(s.Y[j])
					break
				}
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
