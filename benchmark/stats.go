package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number: its value, unit, how many raw samples
// stand behind it, and for a windowed metric each window's value, so a
// result file shows how disturbed the run was.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// bestMetric is the metric reported from per-window values.
func bestMetric(perWindow []float64, unit string, samples int, lowerIsBetter bool) metric {
	return metric{best(perWindow, lowerIsBetter), unit, samples, perWindow}
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank; 0 for
// an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one timed observation: when it completed and how long it took,
// both in nanoseconds on the run's monotonic clock.
type sample struct {
	at  int64
	dur int64
}

// Windows. A measured phase is cut into windows of one cycle each: one
// pass over the event templates, so every window of a phase carries exactly
// the same events and expects exactly the same deliveries, whatever order
// the seed put them in. A statistic is taken per window, and the phase
// reports the best window's: the lowest latency, the highest rate.
//
// Why the best and not the median: this box is a few cores of a shared
// host, and what the host does to a window is one-sided. It only ever makes
// it slower, by up to a half, for seconds or for minutes, and the guest's
// steal counter shows none of it (memory latency measured beside a run
// moves with it; the speed of a register-only loop does not). The median
// over windows moves with how much of the run was disturbed; the best of
// identical windows is the cycle the program had the machine most to
// itself, and ten runs of the same code agree on it about a third more
// closely. A change to the program moves every window, the best with the
// rest. What the best window cannot show is a stall that skips a cycle:
// the traced run's p99 and max, taken over all samples, are there for those.

// cycleEdges cuts [start, end) into windows of width: the edges of every
// whole window, or the phase itself when it is shorter than one.
func cycleEdges(start, end, width int64) []int64 {
	edges := []int64{start}
	for at := start + width; width > 0 && at <= end; at += width {
		edges = append(edges, at)
	}
	if len(edges) == 1 {
		edges = append(edges, end)
	}
	return edges
}

// best reduces a phase's per-window values to the one reported. Windows
// that read 0 had no samples and are skipped.
func best(perWindow []float64, lowerIsBetter bool) float64 {
	out := 0.0
	for _, v := range perWindow {
		if v != 0 && (out == 0 || (v < out) == lowerIsBetter) {
			out = v
		}
	}
	return out
}

// windowed applies fn to the sorted durations (in ms) of the samples
// completing in each window [edges[w], edges[w+1]) and returns the
// per-window results, in window order, plus the total sample count. A
// window with no samples reads 0, which no statistic of a non-empty window
// does.
func windowed(samples []sample, edges []int64, fn func(sortedMs []float64) float64) ([]float64, int) {
	k := len(edges) - 1
	if k < 1 {
		return nil, 0
	}
	buckets := make([][]float64, k)
	n := 0
	for _, s := range samples {
		w := sort.Search(len(edges), func(i int) bool { return edges[i] > s.at }) - 1
		if w < 0 || w >= k {
			continue
		}
		buckets[w] = append(buckets[w], float64(s.dur)/float64(time.Millisecond))
		n++
	}
	per := make([]float64, k)
	for w, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			per[w] = fn(b)
		}
	}
	return per, n
}

func quantileFn(p float64) func([]float64) float64 {
	return func(s []float64) float64 { return percentile(s, p) }
}

// busyRateFn is the samples completed per second of their own duration:
// the rate a closed loop of these operations would sustain, which for a
// paced loop is what the pace leaves unmeasured.
func busyRateFn(ms []float64) float64 {
	busy := 0.0
	for _, d := range ms {
		busy += d
	}
	return float64(len(ms)) / (busy / 1000)
}

// overall applies fn to all sample durations (ms) regardless of window.
func overall(samples []sample, fn func(sortedMs []float64) float64) float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = float64(s.dur) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return fn(ms)
}
