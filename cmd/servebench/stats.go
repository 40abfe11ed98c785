package main

import (
	"slices"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule, and how many samples lie strictly beyond that
// rank. A percentile with fewer than ten samples beyond it is a guess;
// callers print the count next to the value.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(float64(len(sorted))*p/100+0.9999999) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return sorted[rank], len(sorted) - 1 - rank
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a
// share of the median — the same statistic the benchmark contract
// applies across runs, here applied across the slices of one run.
// Quartiles follow Python's statistics.quantiles(n=4) (exclusive
// method) so the two numbers are comparable.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	d := (q(3) - q(1)) / m
	if d < 0 {
		d = -d
	}
	return d
}

// cpuSeconds is the process's user+system CPU time so far: cluster,
// client and generator together, which is what one deployment pays.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timeLoop times fn in five loops of at least loopDur each and returns
// the median nanoseconds per call. fn runs n calls and returns; n grows
// until one loop is long enough for the clock reads not to matter.
func timeLoop(loopDur time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= loopDur/4 || n >= 1<<28 {
			break
		}
		n *= 4
	}
	per := make([]float64, 0, 5)
	for len(per) < 5 {
		calls, t0 := 0, time.Now()
		for time.Since(t0) < loopDur {
			fn(n)
			calls += n
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(per)
}
