package live

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/metrics"
)

// ServerMetrics aggregates one server's counters: per-shard committed
// client operations, a submit→apply latency histogram (microseconds),
// and request accounting. The CounterSet and the histogram sit behind
// a mutex: shard groups' turns and the HTTP endpoint race.
type ServerMetrics struct {
	mu         sync.Mutex
	commits    *metrics.CounterSet // per-shard ops committed and answered here
	latency    latencyHist         // submit→apply, µs
	shardNames []string            // commits' counter name per shard, built once

	requests  atomic.Uint64 // client requests received
	applied   atomic.Uint64 // log entries applied across shards
	notLeader atomic.Uint64 // submissions redirected
	badReq    atomic.Uint64 // undecodable requests
	// restoreFailed counts groups whose replica could not restore an
	// installed snapshot and has stopped applying and answering.
	restoreFailed atomic.Uint64

	started time.Time
}

func newServerMetrics(shards int) *ServerMetrics {
	m := &ServerMetrics{
		commits:    metrics.NewCounterSet(),
		shardNames: make([]string, shards),
		started:    time.Now(),
	}
	for i := range m.shardNames {
		m.shardNames[i] = fmt.Sprintf("shard%d", i)
	}
	return m
}

func (m *ServerMetrics) observeCommit(shard int, lat time.Duration) {
	m.mu.Lock()
	m.commits.Add(m.shardNames[shard], 1)
	m.latency.add(lat.Microseconds())
	m.mu.Unlock()
}

// Committed returns the total client operations committed and answered
// by this server.
func (m *ServerMetrics) Committed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits.Total()
}

// Applied returns the total log entries applied across shards.
func (m *ServerMetrics) Applied() uint64 { return m.applied.Load() }

// LatencySummary snapshots the submit→apply latency distribution.
func (m *ServerMetrics) LatencySummary() metrics.Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latency.summary()
}

// latencyHist counts samples in log-spaced buckets, so a server that
// runs for days keeps a constant footprint and a scrape costs
// O(buckets) under the mutex every commit takes. Values below 64 have
// a bucket each; above, each power of two splits into 2^latSubBits = 32
// buckets, so a bucket is at most 1/32 ≈ 3.1 % of its lower bound wide
// and its midpoint is within 1.6 % of any sample in it.
type latencyHist struct {
	counts   [latBuckets]uint64
	n, sum   uint64
	min, max int64
}

const (
	latSubBits = 5
	latBuckets = (64 - latSubBits) << latSubBits // the last covers up to 2^63-1
)

// latBucket maps a sample to its bucket, latBucketMid a bucket to its
// middle value.
func latBucket(v int64) int {
	exp := bits.Len64(uint64(v)) - 1 - latSubBits // the octave's shift; negative in the exact range
	if exp <= 0 {
		return int(v)
	}
	return exp<<latSubBits + int(v>>exp)
}

func latBucketMid(b int) int64 {
	exp := b>>latSubBits - 1
	if exp <= 0 {
		return int64(b)
	}
	lo := int64(b&(1<<latSubBits-1)|1<<latSubBits) << exp
	return lo + (1<<exp-1)/2
}

func (h *latencyHist) add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[latBucket(v)]++
	h.n++
	h.sum += uint64(v)
}

// summary reports the distribution in metrics.Summary's shape: count,
// mean, min and max are exact, percentiles come from the buckets.
func (h *latencyHist) summary() metrics.Summary {
	if h.n == 0 {
		return metrics.Summary{}
	}
	return metrics.Summary{
		Count: int(h.n), Mean: float64(h.sum) / float64(h.n),
		Min: int(h.min), P50: h.percentile(50), P90: h.percentile(90), P99: h.percentile(99), Max: int(h.max),
	}
}

// percentile returns the midpoint of the bucket holding the sample
// metrics.Histogram.Percentile would pick, clamped to [min, max].
func (h *latencyHist) percentile(p float64) int {
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	seen := uint64(0)
	for b := range h.counts {
		if seen += h.counts[b]; seen >= rank {
			return int(min(max(latBucketMid(b), h.min), h.max))
		}
	}
	return int(h.max)
}

// snapshot is the JSON shape /metrics serves.
type metricsSnapshot struct {
	UptimeSec float64           `json:"uptime_sec"`
	Requests  uint64            `json:"requests"`
	Applied   uint64            `json:"applied"`
	NotLeader uint64            `json:"not_leader"`
	BadReq    uint64            `json:"bad_requests"`
	Commits   map[string]uint64 `json:"commits_per_shard"`
	Latency   metrics.Summary   `json:"latency_us"`
	Transport TransportStats    `json:"transport"`

	RestoreFailed uint64 `json:"restore_failed"`
}

func (m *ServerMetrics) snapshot(tr *Transport) metricsSnapshot {
	m.mu.Lock()
	commits := make(map[string]uint64)
	for _, name := range m.commits.Names() {
		commits[name] = m.commits.Get(name)
	}
	lat := m.latency.summary()
	m.mu.Unlock()
	return metricsSnapshot{
		UptimeSec: time.Since(m.started).Seconds(),
		Requests:  m.requests.Load(),
		Applied:   m.applied.Load(),
		NotLeader: m.notLeader.Load(),
		BadReq:    m.badReq.Load(),
		Commits:   commits,
		Latency:   lat,
		Transport: tr.Stats(),

		RestoreFailed: m.restoreFailed.Load(),
	}
}

// MetricsHandler serves the server's counters as JSON on GET /metrics
// (and a trivial liveness check on /healthz).
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.met.snapshot(s.tr))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ServeMetrics starts an HTTP metrics endpoint on addr (host:port;
// port 0 picks one) and returns the bound address. The endpoint stops
// when the server closes.
func (s *Server) ServeMetrics(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.MetricsHandler()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("live: server closed")
	}
	s.http = append(s.http, srv)
	s.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
