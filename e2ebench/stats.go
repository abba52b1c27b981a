package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// epoch anchors every benchmark timestamp: now() is monotonic nanoseconds
// since process start, so due, call, return and visible times compare
// directly.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// lost marks a sample that never became visible; it sorts after every
// measured latency, so a loss counts as beyond every percentile.
const lost = math.MaxInt64

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latencies collects durations in nanoseconds.
type latencies []int64

func (l latencies) sorted() latencies {
	out := append(latencies(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ms renders the q-quantile in milliseconds; a lost sample reads as +Inf.
func (l latencies) ms(q float64) float64 { return toMS(quantile(l, q)) }

func (l latencies) us(q float64) float64 { return toUS(quantile(l, q)) }

func toMS(ns int64) float64 {
	if ns == lost {
		return math.Inf(1)
	}
	return float64(ns) / 1e6
}

func toUS(ns int64) float64 {
	if ns == lost {
		return math.Inf(1)
	}
	return float64(ns) / 1e3
}

// windowSamples is how many operations one window holds, when the run has
// enough for minWindows of them: enough that its 90th percentile has fifty
// operations beyond it.
const (
	windowSamples = 500
	minWindows    = 8
)

// timings reports one latency distribution, split into consecutive
// windows in due order: windowSamples operations each, or minWindows
// windows when that is fewer. The virtual machine's host steals CPU, for a
// few percent of a run in quiet periods and for over a third in busy ones;
// steal only ever adds latency, and lands on some windows more than
// others. So the gated p50 is the lower quartile, across windows, of each
// window's median: it tracks the program's own latency and moved less than
// the median window between runs. The p90 is the median window's p90; the
// p99 is run-wide, every stall included. Both are printed, not gated:
// heavy steal moves them by half and by several times.
func (r *report) timings(prefix string, ts []timed) {
	r.add(prefix+"_p50_ms", windowed(ts, 0.5, 0.25), "ms", len(ts))
	r.add(prefix+"_p90_ms", windowed(ts, 0.9, 0.5), "ms", len(ts))
	r.add(prefix+"_p99_ms", latenciesOf(ts).sorted().ms(0.99), "ms", len(ts))
}

// windowed returns the at-quantile, across the windows timings describes,
// of each window's q-quantile (the plain q-quantile when there are fewer
// operations than minWindows).
func windowed(byDue []timed, q, at float64) float64 {
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	windows := max(len(byDue)/windowSamples, minWindows)
	if len(byDue) < minWindows {
		windows = 1
	}
	var per []float64
	for w := 0; w < windows; w++ {
		part := byDue[w*len(byDue)/windows : (w+1)*len(byDue)/windows]
		ls := make(latencies, len(part))
		for i, t := range part {
			ls[i] = t.lat
		}
		per = append(per, ls.sorted().ms(q))
	}
	sort.Float64s(per)
	return per[int(math.Round(at*float64(len(per)-1)))]
}

// timed is one latency observation keyed by the due time of its operation.
type timed struct {
	due, lat int64
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// goStats is a point-in-time reading of the runtime counters the go.* rows
// are built from.
type goStats struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	pauses     *metrics.Float64Histogram
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	g := goStats{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		g.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return g
}

// goDelta derives the go.* per-layer rows between two readings: bytes
// allocated per operation, the share of runtime CPU spent in GC, and the
// 99th-percentile stop-the-world GC pause in milliseconds.
func goDelta(a, b goStats, ops int) (allocPerOp, gcFraction, pauseP99ms float64) {
	if ops > 0 {
		allocPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		gcFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	if a.pauses != nil && b.pauses != nil && len(a.pauses.Counts) == len(b.pauses.Counts) {
		counts := make([]uint64, len(b.pauses.Counts))
		var total uint64
		for i := range counts {
			counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
			total += counts[i]
		}
		if total > 0 {
			need := uint64(math.Ceil(0.99 * float64(total)))
			var cum uint64
			for i, c := range counts {
				cum += c
				if cum >= need {
					ub := b.pauses.Buckets[i+1]
					if math.IsInf(ub, 1) {
						ub = b.pauses.Buckets[i]
					}
					pauseP99ms = ub * 1e3
					break
				}
			}
		}
	}
	return allocPerOp, gcFraction, pauseP99ms
}

// liveHeapMB forces a collection and reports the live heap in megabytes,
// less the query oracles' references, which are the benchmark's own.
func liveHeapMB(r *runState) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int(ms.HeapAlloc)-refBytes(r.srcs)) / 1e6
}

// sumCounters adds every counter whose name starts with prefix (a base name
// matches all of its labelled series).
func sumCounters(s obs.Snapshot, prefix string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// histQuantile estimates the q-quantile of every histogram whose name
// starts with prefix, merged, between two snapshots, by linear
// interpolation inside the bucket that holds it.
func histQuantile(before, after obs.Snapshot, prefix string, q float64) float64 {
	var bounds []float64
	var counts []uint64
	for name, h := range after.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		prev := before.Histograms[name]
		if bounds == nil {
			for _, b := range h.Buckets {
				bounds = append(bounds, b.UpperBound)
			}
			counts = make([]uint64, len(bounds))
		}
		if len(h.Buckets) != len(counts) {
			continue
		}
		for i, b := range h.Buckets {
			c := b.Count
			if i < len(prev.Buckets) {
				c -= prev.Buckets[i].Count
			}
			counts[i] += c
		}
	}
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	// Buckets are cumulative.
	total := counts[len(counts)-1]
	rank := q * float64(total)
	lower, below := 0.0, uint64(0)
	for i, c := range counts {
		if float64(c) >= rank {
			upper := bounds[i]
			if math.IsInf(upper, 1) {
				return lower
			}
			in := c - below
			if in == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-float64(below))/float64(in)
		}
		lower, below = bounds[i], c
	}
	return lower
}

// window keeps the operations due in [from, to).
func window(ts []timed, from, to int64) []timed {
	var out []timed
	for _, t := range ts {
		if t.due >= from && t.due < to {
			out = append(out, t)
		}
	}
	return out
}

func latenciesOf(ts []timed) latencies {
	out := make(latencies, len(ts))
	for i, t := range ts {
		out[i] = t.lat
	}
	return out
}
