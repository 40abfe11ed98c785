package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fortyconsensus/internal/kvstore"
	"fortyconsensus/internal/live"
	"fortyconsensus/internal/types"
)

const (
	numKeys   = 64
	numShards = 2
	// opLimit is the caller-side failure line: an operation that takes
	// longer counts as failed and is left out of the percentiles. The
	// client gives up at the same point, so no caller hangs past it.
	opLimit = 2 * time.Second
)

// target is what the load points at: a full cluster, or a bare
// transport for the echo baseline (no servers, results not checked).
type target struct {
	addrs   []string
	servers []*live.Server
	close   func()
}

// startCluster listens on loopback ports, starts nodes servers of w's
// backend and returns once every shard has a leader. No message delay
// is injected anywhere: what the callers see is processor, kernel
// loopback and scheduler time.
func startCluster(w workload, nodes int, seed uint64) (*target, error) {
	lns := make([]net.Listener, nodes)
	addrs := make(map[types.NodeID]string, nodes)
	t := &target{}
	for i := range lns {
		ln, addr, err := live.Listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[types.NodeID(i)] = ln, addr
		t.addrs = append(t.addrs, addr)
	}
	t.close = func() {
		for _, s := range t.servers {
			s.Close()
		}
	}
	for i, ln := range lns {
		srv, err := live.NewServerOn(ln, live.ServerConfig{
			Self: types.NodeID(i), Addrs: addrs, Shards: numShards, Backend: w.backend,
			TickEvery: time.Millisecond, Seed: seed, SnapshotEvery: w.snapshotEvery,
			// Nodes 1 and 2 start passive, so node 0 wins every election
			// and leads both shards. Left to the seed, the two leaders land
			// on one node in a third of the runs and on two otherwise, and
			// raft-pipelined commits 1.5x as much in the first case as in
			// the second: a benchmark has to pin that down to be repeatable.
			Join: i != 0,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, srv)
		srv.Start()
	}
	deadline := time.Now().Add(20 * time.Second)
	for sh := 0; sh < numShards; {
		if t.hasLeader(sh) {
			sh++
			continue
		}
		if time.Now().After(deadline) {
			t.close()
			return nil, fmt.Errorf("shard %d elected no leader", sh)
		}
		time.Sleep(time.Millisecond)
	}
	return t, nil
}

func (t *target) hasLeader(sh int) bool {
	for _, s := range t.servers {
		if lead, _, ok := s.Leader(sh); ok && lead {
			return true
		}
	}
	return false
}

// sample is one successful operation: when it returned (ns since the
// load's epoch) and how long the caller waited for it.
type sample struct{ end, lat int64 }

// caller is one closed-loop user: it issues its next Client.Do when the
// previous one returns. Everything here is touched by its goroutine
// only, until the load has stopped.
type caller struct {
	rng      *rand.Rand
	samples  []sample
	failed   []int64 // return times of failed operations
	spans    *spanLog
	wrong    int              // results that contradict what this caller saw before
	lastSeen [numKeys]int64   // highest counter value observed per key
	acked    [numKeys][]int64 // every acknowledged Incr's returned value
	lostIncr [numKeys]int     // Incrs that failed: applied or not, unknown
}

// load drives callers against a target from generated commands only.
type load struct {
	w      workload
	tgt    *target
	cl     *live.Client
	check  bool // validate results (off for the echo baseline)
	epoch  time.Time
	cs     []*caller
	wg     sync.WaitGroup
	stop   atomic.Bool
	trace  atomic.Bool
	done   atomic.Int64
	warmAt int64
	warmed chan struct{}
}

// The working set: keys load-0..63 and the two commands on each, built
// once so the generator's own cost per operation is a table look-up.
var keyNames, incrCmds, getCmds = func() (ks [numKeys]string, incr, get [numKeys]kvstore.Command) {
	for i := range ks {
		ks[i] = "load-" + strconv.Itoa(i)
		incr[i], get[i] = kvstore.Incr(ks[i], 1), kvstore.Get(ks[i])
	}
	return
}()

// startLoad opens the client and starts w.callers callers. The op
// sequence is a function of seed and the caller index alone. warmed
// closes once warmOps operations have completed in total.
func startLoad(w workload, tgt *target, seed uint64, warmOps int, check bool) (*load, error) {
	cl, err := live.NewClient(live.ClientConfig{
		Addrs: tgt.addrs, Shards: numShards, SessionBase: 1 << 32,
		AttemptTimeout: opLimit / 2, Deadline: opLimit,
	})
	if err != nil {
		return nil, err
	}
	l := &load{w: w, tgt: tgt, cl: cl, check: check, epoch: time.Now(),
		warmAt: int64(warmOps), warmed: make(chan struct{})}
	for i := 0; i < w.callers; i++ {
		c := &caller{
			rng:     rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(i)))),
			samples: make([]sample, 0, 1<<16),
			spans:   newSpanLog(fmt.Sprintf("caller-%d", i), l.epoch),
		}
		l.cs = append(l.cs, c)
		l.wg.Add(1)
		go l.run(i, c)
	}
	return l, nil
}

func (l *load) run(idx int, c *caller) {
	defer l.wg.Done()
	for seq := int64(0); !l.stop.Load(); seq++ {
		k := c.rng.Intn(numKeys)
		get := c.rng.Intn(100) < l.w.getPct
		cmd := incrCmds[k]
		if get {
			cmd = getCmds[k]
		}
		t0 := time.Now()
		res, err := l.cl.Do(cmd)
		t1 := time.Now()
		ok := err == nil
		if ok && l.check {
			ok = c.observe(k, get, res) // a late reply is still an acknowledgement
		}
		if ok && t1.Sub(t0) <= opLimit {
			c.samples = append(c.samples, sample{end: int64(t1.Sub(l.epoch)), lat: int64(t1.Sub(t0))})
		} else {
			c.failed = append(c.failed, int64(t1.Sub(l.epoch)))
			if !get && err != nil {
				c.lostIncr[k]++
			}
		}
		if l.trace.Load() {
			c.spans.add(spanClientDo, int64(idx)<<32|seq, t0, t1)
		}
		if l.done.Add(1) == l.warmAt {
			close(l.warmed)
		}
	}
}

// observe checks one result against what this caller has already seen
// of the key. A caller is sequential, so under linearizability the
// counter it observes never goes back, and an Incr always moves it on.
func (c *caller) observe(k int, get bool, res types.Value) bool {
	v := int64(0)
	if !(get && bytes.Equal(res, kvstore.ReplyNotFound)) {
		var err error
		if v, err = strconv.ParseInt(string(res), 10, 64); err != nil {
			c.wrong++
			return false
		}
	}
	if v < c.lastSeen[k] || (!get && v == c.lastSeen[k]) {
		c.wrong++
		return false
	}
	c.lastSeen[k] = v
	if !get {
		c.acked[k] = append(c.acked[k], v)
	}
	return true
}

// finish stops the callers, runs the output checks on the quiesced
// cluster and tears everything down. It returns every violation found.
func (l *load) finish() []string {
	l.stop.Store(true)
	l.wg.Wait()
	var bad []string
	if l.check {
		bad = l.verify()
	}
	l.cl.Close()
	l.tgt.close()
	return bad
}

// verify: per key, the values acknowledged Incrs returned are distinct
// and the final Get equals their number (plus at most the Incrs whose
// fate is unknown); and every shard's KV snapshot is byte-identical on
// all nodes.
func (l *load) verify() []string {
	var bad []string
	for _, c := range l.cs {
		if c.wrong > 0 {
			bad = append(bad, fmt.Sprintf("%d results contradicted the caller's own earlier observations", c.wrong))
		}
	}
	for k := 0; k < numKeys; k++ {
		var vals []int64
		lost := 0
		for _, c := range l.cs {
			vals = append(vals, c.acked[k]...)
			lost += c.lostIncr[k]
		}
		slices.Sort(vals)
		for i := 1; i < len(vals); i++ {
			if vals[i] == vals[i-1] {
				bad = append(bad, fmt.Sprintf("%s: two acknowledged Incrs both returned %d", keyNames[k], vals[i]))
				break
			}
		}
		res, err := l.cl.Do(getCmds[k])
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: final Get: %v", keyNames[k], err))
			continue
		}
		final, _ := strconv.ParseInt(string(res), 10, 64) // NOT_FOUND reads as 0
		if n := int64(len(vals)); final < n || final > n+int64(lost) {
			bad = append(bad, fmt.Sprintf("%s: final Get = %d, %d Incrs acknowledged, %d of unknown fate", keyNames[k], final, n, lost))
		}
	}
	// Followers learn the last commit index from the next heartbeat, so
	// replicas converge a few ticks after the last reply; poll for that.
	deadline := time.Now().Add(5 * time.Second)
	for sh := 0; sh < numShards; sh++ {
		for !l.snapshotsAgree(sh) {
			if time.Now().After(deadline) {
				bad = append(bad, fmt.Sprintf("shard %d: KV snapshots differ across nodes after quiescing", sh))
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return bad
}

func (l *load) snapshotsAgree(sh int) bool {
	var first []byte
	for i, s := range l.tgt.servers {
		snap, ok := s.SnapshotKV(sh)
		if !ok {
			return false
		}
		if i == 0 {
			first = snap
		} else if !bytes.Equal(first, snap) {
			return false
		}
	}
	return true
}

// slice is one measured stretch of a running load or simulation.
type slice struct {
	start, end int64   // ns since the epoch of whoever produced the samples
	cpu        float64 // process CPU seconds spent in between
}

// measure sleeps through n slices of the running load, total/n each,
// cut at the instants it actually woke (so the CPU reading and the
// operation counts of a slice cover the same interval). With traced
// set, slices record spans in the order off-on-on-off, so that a
// cluster that slows as its log grows slows both halves alike.
func (l *load) measure(total time.Duration, n int, traced bool) []slice {
	w := make([]slice, n)
	t0 := time.Now()
	at, cpu := int64(t0.Sub(l.epoch)), cpuSeconds()
	for i := range w {
		l.trace.Store(traced && tracedSlice(i))
		time.Sleep(time.Until(t0.Add(total * time.Duration(i+1) / time.Duration(n))))
		now, used := int64(time.Since(l.epoch)), cpuSeconds()
		w[i] = slice{start: at, end: now, cpu: used - cpu}
		at, cpu = now, used
	}
	l.trace.Store(false)
	return w
}

// tracedSlice reports whether slice i of a traced window records spans.
func tracedSlice(i int) bool { return i%4 == 1 || i%4 == 2 }

// sliceStats is what one slice measured.
type sliceStats struct {
	ops, failed int
	opsPerS     float64
	p50, p99    float64 // µs
	beyondP99   int
	cpuPerOp    float64   // µs
	lats        []float64 // µs, sorted
}

// cut buckets every caller's samples into the slices. Call it after the
// load has stopped.
func (l *load) cut(w []slice) []sliceStats {
	samples, failed := make([][]sample, len(l.cs)), make([][]int64, len(l.cs))
	for i, c := range l.cs {
		samples[i], failed[i] = c.samples, c.failed
	}
	return cutSamples(w, samples, failed)
}

// cutSamples buckets samples (and the return times of failed
// operations) into the slices by when they returned.
func cutSamples(w []slice, samples [][]sample, failed [][]int64) []sliceStats {
	out := make([]sliceStats, len(w))
	at := func(t int64) int {
		i := sort.Search(len(w), func(i int) bool { return w[i].end > t })
		if i < len(w) && w[i].start <= t {
			return i
		}
		return -1
	}
	for _, ss := range samples {
		for _, s := range ss {
			if i := at(s.end); i >= 0 {
				out[i].lats = append(out[i].lats, float64(s.lat)/1e3)
			}
		}
	}
	for _, ts := range failed {
		for _, t := range ts {
			if i := at(t); i >= 0 {
				out[i].failed++
			}
		}
	}
	for i := range out {
		s, sl := &out[i], w[i]
		slices.Sort(s.lats)
		s.ops = len(s.lats)
		s.opsPerS = float64(s.ops) / (float64(sl.end-sl.start) / 1e9)
		s.p50, _ = percentile(s.lats, 50)
		s.p99, s.beyondP99 = percentile(s.lats, 99)
		if s.ops > 0 {
			s.cpuPerOp = sl.cpu * 1e6 / float64(s.ops)
		}
	}
	return out
}

// counters is a reading of everything the program counts about itself,
// taken from outside through its public accessors.
type counters struct {
	sent, dropped, notLeader uint64
	mem                      runtime.MemStats
}

func (t *target) counters() counters {
	var c counters
	for _, s := range t.servers {
		ts := s.TransportStats()
		c.sent += ts.Sent
		c.dropped += ts.Dropped
		c.notLeader += notLeaderCount(s)
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// notLeaderCount reads the redirect counter the only way the server
// offers it: the JSON its metrics handler serves.
func notLeaderCount(s *live.Server) uint64 {
	var body bodyWriter
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0
	}
	s.MetricsHandler().ServeHTTP(&body, req)
	var v struct {
		NotLeader uint64 `json:"not_leader"`
	}
	if json.Unmarshal(body.Bytes(), &v) != nil {
		return 0
	}
	return v.NotLeader
}

type bodyWriter struct {
	bytes.Buffer
	h http.Header
}

func (b *bodyWriter) Header() http.Header {
	if b.h == nil {
		b.h = http.Header{}
	}
	return b.h
}
func (b *bodyWriter) WriteHeader(int) {}

// submitApplyP50 is the submit→apply median (µs) from the histogram of
// the server that answered the most operations — the leader of both
// shards when one node leads both, of one otherwise.
func (t *target) submitApplyP50() float64 {
	best, p50 := -1, 0
	for _, s := range t.servers {
		if sum := s.Metrics().LatencySummary(); sum.Count > best {
			best, p50 = sum.Count, sum.P50
		}
	}
	return float64(p50)
}

var errNoOps = errors.New("no operation completed in a slice")
