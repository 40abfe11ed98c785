package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded here, in the benchmark's own files, around each
// call into a layer of the program; stage stamps inside the program are
// a later change. A span log belongs to one goroutine, so recording is
// an append and nothing else.

type spanName uint8

const (
	spanClientDo spanName = iota // live.Client.Do, one per operation
	spanRound                    // pipeline: one submit-to-quiescent round
	spanCoreSubmit
	spanCoreDrain
	spanCoreStep
	spanCoreDecisions
	spanCodecAppend
	spanCodecDecode
	spanFrameWrite
	spanFrameRead
	spanSMRCommit
	spanShardApply
	spanEpisode // sim: one explore episode
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.do", "pipeline.round", "core.submit", "core.drain", "core.step",
	"core.take_decisions", "codec.append", "codec.decode", "frame.write",
	"frame.read", "smr.commit", "shard.apply", "sim.episode",
}

// spanLayer maps a span to the layer whose self time it feeds.
var spanLayer = [numSpanNames]string{
	"client", "driver", "core", "core", "core", "core", "codec", "codec",
	"frame", "frame", "smr", "shard", "sim",
}

type span struct {
	name       spanName
	parent     int32 // index+1 of the causing span in the same log; 0 = none
	op         int64 // spans of one request (or round, or episode) share it
	start, end int64 // ns since the log's epoch
}

// spanLog is one goroutine's spans, kept in memory until the run ends.
type spanLog struct {
	label string
	epoch time.Time
	spans []span
}

func newSpanLog(label string, epoch time.Time) *spanLog {
	return &spanLog{label: label, epoch: epoch}
}

// maxSpans bounds one log, and with it the span file (about 10 MB per
// full log); past it spans are dropped.
const maxSpans = 1 << 16

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a span and returns its handle for end and for children.
func (l *spanLog) begin(name spanName, parent int32, op int64) int32 {
	if len(l.spans) >= maxSpans {
		return 0
	}
	l.spans = append(l.spans, span{name: name, parent: parent, op: op, start: l.now()})
	return int32(len(l.spans))
}

func (l *spanLog) end(h int32) {
	if h > 0 {
		l.spans[h-1].end = l.now()
	}
}

// add records a span whose clock reads the caller already has.
func (l *spanLog) add(name spanName, op int64, start, end time.Time) {
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{name: name, op: op,
			start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch))})
	}
}

// selfTimes sums, per layer, each span's duration minus the part its
// children cover, over the spans from index lo on. Children never
// overlap one another here (one goroutine, properly nested calls), so
// the covered part is the sum of the children's durations.
func (l *spanLog) selfTimes(lo int) map[string]int64 {
	child := make([]int64, len(l.spans)-lo)
	for _, s := range l.spans[lo:] {
		if p := int(s.parent) - 1; p >= lo {
			child[p-lo] += s.end - s.start
		}
	}
	self := make(map[string]int64)
	for i, s := range l.spans[lo:] {
		self[spanLayer[s.name]] += s.end - s.start - child[i]
	}
	return self
}

// writeSpans writes every log as JSON lines: name, layer, log, op, id,
// parent (ids are global across logs; 0 = none), start_ns and end_ns
// since that log's epoch.
func writeSpans(path string, logs []*spanLog) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	base := 0
	for _, l := range logs {
		for i, s := range l.spans {
			parent := 0
			if s.parent > 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, `{"name":%q,"layer":%q,"log":%q,"op":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				spanNames[s.name], spanLayer[s.name], l.label, s.op, base+i+1, parent, s.start, s.end)
		}
		base += len(l.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return base, err
	}
	return base, f.Close()
}
