package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// snapshot is every counter a measurement window is bounded by.
type snapshot struct {
	at       int64
	cpu      float64
	obs      obs.Snapshot
	fact     score.StatsSnapshot
	insight  score.StatsSnapshot
	polled   int64
	goStats  goStats
	hits     uint64
	misses   uint64
	archRead uint64
	frames   uint64
}

// takeSnap reads the counters of svc, the node that owns the vertices.
func takeSnap(r *runState, svc *core.Service) snapshot {
	s := snapshot{at: now(), cpu: cpuSeconds(), obs: svc.Metrics(), goStats: readGoStats()}
	for _, src := range r.srcs {
		addStats(&s.fact, src.v.Stats())
		s.polled += src.expected.Load()
	}
	for _, in := range r.ins {
		addStats(&s.insight, in.v.Stats())
	}
	s.hits, s.misses, _ = svc.Engine().PlanCacheStats()
	s.archRead = sumCounters(s.obs, "archive_read_bytes_total")
	s.frames = sumCounters(s.obs, "gateway_frames_sent_total")
	return s
}

func addStats(dst *score.StatsSnapshot, s score.StatsSnapshot) {
	dst.Hook += s.Hook
	dst.Build += s.Build
	dst.Publish += s.Publish
	dst.Other += s.Other
	dst.Polls += s.Polls
	dst.Published += s.Published
	dst.Predicted += s.Predicted
}

func diffStats(a, b score.StatsSnapshot) score.StatsSnapshot {
	return score.StatsSnapshot{
		Hook: a.Hook - b.Hook, Build: a.Build - b.Build, Publish: a.Publish - b.Publish, Other: a.Other - b.Other,
		Polls: a.Polls - b.Polls, Published: a.Published - b.Published, Predicted: a.Predicted - b.Predicted,
	}
}

// layerTimes are the in-process timings a traced query takes of the
// layers under it.
type layerTimes struct {
	prepare, exec, scan, archiveRange, http, inproc latencies
	archiveReads                                    int // calls that read the archive
	straddleMisses                                  int // straddling ranges the observer contradicts
}

// layerInputs is what a workload measured itself for the per-layer rows.
type layerInputs struct {
	freshUntraced, freshTraced latencies
	deliver, fanout            latencies // PollOnce return → observed; broker → gateway subscriber
	times                      *layerTimes
	queries                    int // traced-half queries, for bytes allocated per operation
	health                     map[telemetry.MetricID]score.HealthSnapshot
	replicaLagMax              uint64
	failovers                  uint64
}

// layers fills the per-layer rows from the traced half of the fixed-rate
// phase, bounded by snapshots b and c; a..b is the untraced half. A layer a
// workload bypasses reads 0.
func layers(r *runState, rep *report, a, b, c snapshot, in layerInputs) {
	secs := float64(c.at-b.at) / 1e9
	spans := tracedSamples(r)
	var late, poll, lag latencies
	for _, s := range spans {
		late = append(late, s.late)
		poll = append(poll, s.poll)
		if s.derive != 0 {
			lag = append(lag, s.derive)
		}
	}
	late, poll, lag = late.sorted(), poll.sorted(), lag.sorted()
	deliver, fan := in.deliver.sorted(), in.fanout.sorted()
	traced := in.freshTraced.sorted().ms(0.5)
	rep.layer("bench.late_p50_ms", late.ms(0.5), "ms")
	rep.layer("bench.late_p99_ms", late.ms(0.99), "ms")
	rep.layer("bench.trace_overhead_pct", 100*(traced/in.freshUntraced.sorted().ms(0.5)-1), "%")
	rep.ladder = ladder(spans)
	sum := 0.0
	for _, m := range rep.ladder[1:4] {
		sum += m.value
	}
	rep.layer("bench.ladder_residual_pct", 100*(sum/traced-1), "%")

	f := diffStats(c.fact, b.fact)
	polls := float64(f.Polls)
	rep.layer("score.poll_us_p50", poll.us(0.5), "us")
	rep.layer("score.poll_us_p99", poll.us(0.99), "us")
	rep.layer("score.hook_ns_per_poll", float64(f.Hook)/polls, "ns")
	rep.layer("score.build_ns_per_poll", float64(f.Build)/polls, "ns")
	rep.layer("score.publish_ns_per_poll", float64(f.Publish)/polls, "ns")
	rep.layer("score.fill_ns_per_poll", float64(f.Other)/polls, "ns")
	rep.layer("score.published_per_poll", float64(f.Published)/polls, "ratio")
	backlog := 0
	for _, h := range in.health {
		backlog = max(backlog, h.Buffered)
	}
	rep.layer("score.backlog_max", float64(backlog), "count")

	ins := diffStats(c.insight, b.insight)
	counter := func(name string) float64 { return float64(sumCounters(c.obs, name) - sumCounters(b.obs, name)) }
	rep.layer("insights.lag_ms_p50", lag.ms(0.5), "ms")
	rep.layer("insights.lag_ms_p99", lag.ms(0.99), "ms")
	rep.layer("insights.published_per_input", float64(ins.Published)/counter(`score_tuples_in_total{metric="ins`), "ratio")

	rep.layer("stream.deliver_ms_p50", deliver.ms(0.5), "ms")
	rep.layer("stream.deliver_ms_p99", deliver.ms(0.99), "ms")
	rep.layer("stream.publish_per_s", counter("stream_broker_publish_total")/secs, "1/s")
	rep.layer("stream.evicted_per_s", counter("stream_broker_evicted_total")/secs, "1/s")
	tuples := float64(f.Published + f.Predicted + ins.Published)
	rep.layer("stream.replicate_entries_per_tuple", counter("fabric_replicate_entries_total")/tuples, "ratio")
	rep.layer("stream.replica_lag_max", float64(in.replicaLagMax), "entries")
	rep.layer("stream.failovers", float64(in.failovers), "count")

	t := in.times
	rep.layer("queue.evictions_per_s", counter("queue_history_evictions_total")/secs, "1/s")
	rep.layer("queue.scan_us_p50", t.scan.sorted().us(0.5), "us")
	rep.layer("archive.appends_per_s", counter("archive_appends_total")/secs, "1/s")
	ar := t.archiveRange.sorted()
	rep.layer("archive.range_us_p50", ar.us(0.5), "us")
	rep.layer("archive.range_us_p99", ar.us(0.99), "us")
	rep.layer("archive.read_bytes_per_query", float64(c.archRead-b.archRead)/float64(t.archiveReads), "B")
	rep.layer("archive.straddle_misses", float64(t.straddleMisses), "count")
	rep.layer("delphi.predicted_share", float64(f.Predicted)/float64(f.Predicted+f.Published), "ratio")
	rep.layer("delphi.predict_us_p50", 1e6*histQuantile(b.obs, c.obs, "delphi_predict_seconds", 0.5), "us")

	rep.layer("aqe.prepare_us_p50", t.prepare.sorted().us(0.5), "us")
	ex := t.exec.sorted()
	rep.layer("aqe.exec_us_p50", ex.us(0.5), "us")
	rep.layer("aqe.exec_us_p99", ex.us(0.99), "us")
	// Traced queries are prepared twice, so the plan cache is judged on the
	// untraced half.
	hits, misses := b.hits-a.hits, b.misses-a.misses
	rep.layer("aqe.plan_cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")

	rep.layer("gateway.http_overhead_us_p50", t.http.sorted().us(0.5)-t.inproc.sorted().us(0.5), "us")
	rep.layer("gateway.fanout_ms_p99", fan.ms(0.99), "ms")
	rep.layer("gateway.frames_per_s", float64(c.frames-b.frames)/secs, "1/s")
	rep.layer("gateway.evictions", float64(sumCounters(c.obs, "gateway_evictions_total")), "count")

	alloc, gcFrac, pause := goDelta(b.goStats, c.goStats, int(c.polled-b.polled)+in.queries)
	rep.layer("go.alloc_bytes_per_op", alloc, "B")
	rep.layer("go.gc_cpu_fraction", gcFrac, "ratio")
	rep.layer("go.gc_pause_p99_ms", pause, "ms")
}

// sampleSpans is one traced sample: its root span (due → visible) and the
// child spans along its blocking path, in nanoseconds.
type sampleSpans struct {
	src                                *source
	k                                  int
	due, call, ret, vis, ins           int64
	total, late, poll, deliver, derive int64
}

// tracedSamples lists the spans of every sample traced and seen.
func tracedSamples(r *runState) []sampleSpans {
	var out []sampleSpans
	for _, s := range r.srcs {
		for i := range s.call {
			k := r.warm + i
			due := r.due(s, k)
			if due >= r.fixedEnd || k >= s.k {
				break
			}
			if due < r.traceFrom || s.call[i] == 0 || !s.visible(k) || s.vis[i] == 0 {
				continue
			}
			sp := sampleSpans{src: s, k: k, due: due, call: s.call[i], ret: s.ret[i], vis: s.vis[i], ins: s.ins[i]}
			sp.total, sp.late, sp.poll, sp.deliver = sp.vis-due, sp.call-due, sp.ret-sp.call, sp.vis-sp.ret
			if sp.ins != 0 {
				sp.derive = sp.ins - sp.vis
			}
			out = append(out, sp)
		}
	}
	return out
}

// ladder breaks the median sample down by layer: the child spans of every
// traced sample whose root span lies in the middle tenth of the
// distribution are averaged, so bench.late + score.poll + stream.deliver
// add up to the median root span.
func ladder(spans []sampleSpans) []metric {
	sorted := append([]sampleSpans(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].total < sorted[j].total })
	band := sorted[len(sorted)*45/100 : min(len(sorted), len(sorted)*55/100+1)]
	var tot, late, poll, deliver, derive float64
	derived := 0
	for _, s := range band {
		tot += float64(s.total)
		late += float64(s.late)
		poll += float64(s.poll)
		deliver += float64(s.deliver)
		if s.derive != 0 {
			derive += float64(s.derive)
			derived++
		}
	}
	n := float64(max(len(band), 1))
	return []metric{
		{name: "sample", value: tot / n / 1e6, unit: "ms", n: len(spans)},
		{name: "bench.late", value: late / n / 1e6, unit: "ms", n: len(band)},
		{name: "score.poll", value: poll / n / 1e6, unit: "ms", n: len(band)},
		{name: "stream.deliver", value: deliver / n / 1e6, unit: "ms", n: len(band)},
		{name: "insights.derive", value: derive / float64(max(derived, 1)) / 1e6, unit: "ms", n: derived},
	}
}

// writeTrace writes the traced samples' spans, one JSON line per sample,
// to trace.jsonl in the run directory: start and end of each span in
// nanoseconds on the run's monotonic clock.
func writeTrace(r *runState) error {
	f, err := os.Create(filepath.Join(r.cfg.dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range tracedSamples(r) {
		fmt.Fprintf(w, `{"trace":%d,"metric":%q,"k":%d,"spans":{"sample":[%d,%d],"bench.late":[%d,%d],"score.poll":[%d,%d],"stream.deliver":[%d,%d]`,
			i, s.src.id, s.k, s.due, s.vis, s.due, s.call, s.call, s.ret, s.ret, s.vis)
		if s.ins != 0 {
			fmt.Fprintf(w, `,"insights.derive":[%d,%d]`, s.vis, s.ins)
		}
		fmt.Fprintln(w, "}}")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
