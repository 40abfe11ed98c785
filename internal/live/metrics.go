package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/metrics"
)

// ServerMetrics aggregates one server's counters: per-shard committed
// client operations, a submit→answer latency histogram (microseconds),
// read and request accounting, and drops by reason. The CounterSet and
// the histogram sit behind a mutex: shard groups' turns and the HTTP
// endpoint race.
type ServerMetrics struct {
	mu         sync.Mutex
	commits    *metrics.CounterSet // per-shard ops committed and answered here
	latency    metrics.Histogram   // submit→answer, µs: writes to their applied reply, reads to theirs
	shardNames []string            // commits' counter name per shard, built once

	requests atomic.Uint64 // client requests received
	// Client writes applied across shards (each request the executors took
	// from the log, smr.Executor.OpsApplied), and the log entries that
	// carried them as this node proposed them leading: on a leader, ops
	// per entry.
	applied, proposed atomic.Uint64
	notLeader         atomic.Uint64 // submissions redirected
	badReq            atomic.Uint64 // undecodable requests
	// restoreFailed counts groups whose replica could not restore an
	// installed snapshot and has stopped applying and answering.
	restoreFailed atomic.Uint64

	replyDropped     atomic.Uint64 // refused by a client connection: queue full or closed
	peerDecodeErrors atomic.Uint64 // peer frames that did not decode

	// Reads, served beside the log: answered, dropped as the module
	// stopped leading, probes sent, answered only after a tick re-asked.
	readsServed, readsDropped, readProbes, readsReasked atomic.Uint64

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
	m.latency.Add(int(lat.Microseconds()))
	m.mu.Unlock()
}

// observeRead records a read answered, in the writes' histogram.
func (m *ServerMetrics) observeRead(lat time.Duration) {
	m.readsServed.Add(1)
	m.mu.Lock()
	m.latency.Add(int(lat.Microseconds()))
	m.mu.Unlock()
}

// Committed returns the total client operations committed and answered
// by this server.
func (m *ServerMetrics) Committed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits.Total()
}

// Applied returns the total client writes applied across shards.
func (m *ServerMetrics) Applied() uint64 { return m.applied.Load() }

// LatencySummary snapshots the submit→answer latency distribution.
func (m *ServerMetrics) LatencySummary() metrics.Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latency.Snapshot()
}

// snapshot is the JSON shape /metrics serves.
type metricsSnapshot struct {
	UptimeSec float64           `json:"uptime_sec"`
	Requests  uint64            `json:"requests"`
	Applied   uint64            `json:"applied"`          // client writes
	Proposed  uint64            `json:"proposed_entries"` // log entries carrying them, as leader
	NotLeader uint64            `json:"not_leader"`
	BadReq    uint64            `json:"bad_requests"`
	Commits   map[string]uint64 `json:"commits_per_shard"`
	Latency   metrics.Summary   `json:"latency_us"` // submit→answer, reads included
	Reads     map[string]uint64 `json:"reads"`
	Transport TransportStats    `json:"transport"`

	RestoreFailed    uint64 `json:"restore_failed"`
	ReplyDropped     uint64 `json:"reply_dropped"`
	PeerDecodeErrors uint64 `json:"peer_decode_errors"`

	// Per shard, admin status' election gauges (GroupStatus), read at
	// the scrape.
	LeaderChanges map[string]int     `json:"leader_changes"`
	LeaderlessMs  map[string]float64 `json:"leaderless_ms"`
}

func (m *ServerMetrics) snapshot(tr *Transport) metricsSnapshot {
	m.mu.Lock()
	commits := make(map[string]uint64)
	for _, name := range m.commits.Names() {
		commits[name] = m.commits.Get(name)
	}
	lat := m.latency.Snapshot()
	m.mu.Unlock()
	return metricsSnapshot{
		UptimeSec: time.Since(m.started).Seconds(),
		Requests:  m.requests.Load(),
		Applied:   m.applied.Load(),
		Proposed:  m.proposed.Load(),
		NotLeader: m.notLeader.Load(),
		BadReq:    m.badReq.Load(),
		Commits:   commits,
		Latency:   lat,
		Reads: map[string]uint64{"served": m.readsServed.Load(), "dropped_not_leader": m.readsDropped.Load(),
			"probes_sent": m.readProbes.Load(), "answered_after_reask": m.readsReasked.Load()},
		Transport: tr.Stats(),

		RestoreFailed:    m.restoreFailed.Load(),
		ReplyDropped:     m.replyDropped.Load(),
		PeerDecodeErrors: m.peerDecodeErrors.Load(),
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
		snap := s.met.snapshot(s.tr)
		snap.LeaderChanges, snap.LeaderlessMs = map[string]int{}, map[string]float64{}
		for i, g := range s.grs {
			if changes, ms, ok := g.elections(); ok {
				snap.LeaderChanges[s.met.shardNames[i]], snap.LeaderlessMs[s.met.shardNames[i]] = changes, ms
			}
		}
		enc.Encode(snap)
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
