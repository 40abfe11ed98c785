package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// The machine this benchmark runs on changes speed. On the shared
// 2-vCPU hosts it was built and checked on, memory- and kernel-heavy
// code runs 25–50% slower for minutes at a time and then recovers, while
// an arithmetic loop runs the same throughout; thirty raft-serial runs
// in a row read a p50 of 107–138 µs for the first eighteen and 90–95 µs
// for the last twelve. No statistic inside a run removes that, and no run
// length the contract allows averages it out. What removes it is a
// yardstick: a fixed piece of work of the same kind, timed next to every
// measured window, that says how fast the machine was just then.
//
// The yardstick is this file's kernel: refTrips round trips of
// refFrame bytes over a loopback TCP connection between two goroutines
// (system calls, the network stack, goroutine wake-ups across the two
// processors: what a replicated operation mostly costs) followed by
// refSpins steps of arithmetic (what the phases leave alone). The mix
// was chosen on the sweep above so that the kernel slows by the share the
// serving workloads slow by: the round trips alone swing 1.5x between
// phases where raft-serial swings 1.36x. It uses the standard library
// only and none of the repository's code, so no change to the program
// moves it. Editing it re-bases every number the benchmark has reported.
//
// One repetition takes about a third of a millisecond, a few
// operations' worth, and a probe reads two things off its repetitions.
// Their median says how long an undisturbed operation takes now;
// p50_us and cpu_us_per_op are restated by it. The median over groups
// of refGroup consecutive repetitions, a few milliseconds each, also
// feels what disturbs only some operations: in its worst minutes the
// host takes the processor away for milliseconds a hundred times a
// second, which halves throughput, leaves the median operation alone
// and is not charged as processor time. ops_per_s and setup_s, which
// are wall-clock means over such stretches, are restated by that one.
const (
	refTrips = 30
	refFrame = 64
	refSpins = 60_000
	refGroup = 10
	// refNominalUs is a repetition's time on the machine in its fast
	// phase; metrics are stated at that speed, so they read close to what
	// a run on a quiet machine measures raw.
	refNominalUs = 300.0
)

// reference is the yardstick's loopback connection and its echo side.
type reference struct {
	ln   net.Listener
	c    net.Conn
	buf  [refFrame]byte
	sink uint64
}

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [refFrame]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &reference{ln: ln, c: c}, nil
}

func (r *reference) close() {
	r.c.Close()
	r.ln.Close()
}

// kernel runs the fixed work once.
func (r *reference) kernel() error {
	for i := 0; i < refTrips; i++ {
		if _, err := r.c.Write(r.buf[:]); err != nil {
			return err
		}
		if _, err := io.ReadFull(r.c, r.buf[:]); err != nil {
			return err
		}
	}
	x := uint64(88172645463325252) + r.sink
	for i := 0; i < refSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	r.sink = x
	return nil
}

// slowness is how long the machine takes over the reference kernel, as a
// share of the nominal time: 1.2 is a machine running this kind of work
// 20% slow. op is read off single repetitions, run off groups of them.
type slowness struct{ op, run float64 }

// probe times the kernel reps times on an otherwise idle process.
func (r *reference) probe(reps int) (slowness, error) {
	time.Sleep(20 * time.Millisecond) // let a torn-down cluster's goroutines finish
	took := make([]float64, reps)
	for i := range took {
		t0 := time.Now()
		if err := r.kernel(); err != nil {
			return slowness{}, fmt.Errorf("reference kernel: %w", err)
		}
		took[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	groups := make([]float64, 0, reps/refGroup+1)
	for i := 0; i < len(took); i += refGroup {
		g := took[i:min(i+refGroup, len(took))]
		sum := 0.0
		for _, t := range g {
			sum += t
		}
		groups = append(groups, sum/float64(len(g)))
	}
	return slowness{op: median(took) / refNominalUs, run: median(groups) / refNominalUs}, nil
}

// around is the slowness of a window between two probes.
func around(before, after slowness) slowness {
	return slowness{op: (before.op + after.op) / 2, run: (before.run + after.run) / 2}
}

// atReferenceSpeed restates what a window measured at reference speed:
// on a machine 20% slow, throughput is scaled up and the time per
// operation down by that 20%. The p99 is left as measured: up to the
// 90th percentile latency moves with the machine as the median does,
// beyond the 95th it doubles in the machine's bad minutes and barely
// moves in the others, which no one factor describes.
func (s *sliceStats) atReferenceSpeed(slow slowness) {
	s.opsPerS *= slow.run
	s.p50 /= slow.op
	s.cpuPerOp /= slow.op
}
