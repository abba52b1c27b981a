package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/aqe"
	"repro/internal/core"
	"repro/internal/delphi"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Sizes both ingest workloads share.
const (
	ingestRetention = 2048  // broker topic retention
	insightWidth    = 16    // consecutive metrics per insight vertex
	probeMetrics    = 16    // metrics the AQE probe cycles over
	probeRate       = 500.0 // probe queries per second
	// A Delphi vertex polled every ticksPerPoll base ticks fills the ticks
	// between with predicted tuples.
	ticksPerPoll = 4
)

// ingestSpec sizes an ingest workload.
type ingestSpec struct {
	metrics  int
	rate     float64 // offered samples per second, all metrics together
	delphi   bool    // Delphi on every even-numbered metric
	history  int     // per-vertex in-memory ring (0: program default)
	archive  bool    // evictions go to an on-disk archive
	insights int     // insight vertices
	nodes    int     // 1: standalone; 3: loopback TCP fabric with replicas=3
	warm     int     // set-up polls per metric
}

var (
	inprocSpec = ingestSpec{
		metrics: 1024, rate: 20000, delphi: true, history: 256, archive: true,
		insights: 16, nodes: 1, warm: 80,
	}
	fabricSpec = ingestSpec{metrics: 64, rate: 2000, insights: 4, nodes: 3, warm: 16}
)

// ingest runs Fact vertices on one node (standalone or the leader of a
// three-node fabric) and observes them on an in-process broker: the
// leader's own on ingest-inproc, a follower's on ingest-fabric3.
type ingest struct {
	spec  ingestSpec
	nodes []*core.Service
	obs   *observer
	probe *probeLane
}

func (w *ingest) owner() *core.Service { return w.nodes[0] }

// observed is the broker whose deliveries count as visible.
func (w *ingest) observed() stream.Bus { return w.nodes[len(w.nodes)-1].Broker() }

func (w *ingest) setup(r *runState) error {
	sp := w.spec
	r.warm = sp.warm
	r.period = int64(float64(sp.metrics) / sp.rate * 1e9)
	fixed, _ := phases(r.cfg.seconds)
	r.fixedDur = fixed
	cfg := core.Config{
		Mode:        core.IntervalFixed,
		Adaptive:    adaptive.Config{Initial: time.Duration(r.period)},
		BaseTick:    time.Duration(r.period / ticksPerPoll),
		HistorySize: sp.history,
		Retention:   ingestRetention,
	}
	if sp.delphi {
		m, err := delphi.Train(delphi.TrainOptions{Seed: 1})
		if err != nil {
			return err
		}
		cfg.Delphi = m
	}
	if sp.archive {
		cfg.ArchiveDir = archiveDir(r.cfg)
	}
	var lns []net.Listener
	var addrs []string
	ids := []string{"a", "b", "c"}
	if sp.nodes > 1 {
		var err error
		if lns, addrs, err = reserveAddrs(sp.nodes); err != nil {
			return err
		}
		defer func() {
			for _, l := range lns {
				l.Close()
			}
		}()
		cfg.Replicas = sp.nodes
	}
	w.nodes = nil
	for n := 0; n < sp.nodes; n++ {
		c := cfg
		if sp.nodes > 1 {
			c.NodeID = ids[n]
			c.Peers = map[string]string{}
			for j := 0; j < sp.nodes; j++ {
				if j != n {
					c.Peers[ids[j]] = addrs[j]
				}
			}
		}
		w.nodes = append(w.nodes, core.New(c))
	}
	if err := w.register(r); err != nil {
		return err
	}
	for n, svc := range w.nodes {
		if sp.nodes > 1 {
			lns[n].Close()
			if _, err := svc.Serve(addrs[n]); err != nil {
				return err
			}
		}
	}
	for _, in := range r.ins {
		if err := in.v.Start(); err != nil {
			return err
		}
	}
	warmUp(r.srcs, r.warm)
	if err := waitInsights(r, w.owner(), w.observed(), 10*time.Second); err != nil {
		return err
	}
	w.obs = newObserver(r)
	bus := w.observed()
	for _, s := range r.srcs {
		if err := w.obs.follow(bus, s); err != nil {
			return err
		}
	}
	for _, in := range r.ins {
		if err := w.obs.followInsight(bus, in); err != nil {
			return err
		}
	}
	w.obs.drain(r.srcs, 10*time.Second)
	if !w.obs.caughtUp(r.srcs) {
		return fmt.Errorf("observer did not see the warm-up samples")
	}
	w.probe = &probeLane{r: r, svc: w.owner(), period: int64(1e9 / probeRate), archive: sp.archive}
	for _, s := range r.srcs {
		if s.refCap > 0 {
			w.probe.srcs = append(w.probe.srcs, s)
		}
	}
	return w.probe.prime()
}

// register creates the sources and insights on the owner node.
func (w *ingest) register(r *runState) error {
	sp := w.spec
	n := r.fixedSamples()
	for i := 0; i < sp.metrics; i++ {
		s := &source{
			idx:  i,
			id:   telemetry.MetricID(fmt.Sprintf("dev%04d", i)),
			vals: deviceValues(r.cfg.seed, i, valuesPerSource),
			vis:  make([]int64, n),
			ins:  make([]int64, n),
		}
		if r.cfg.trace {
			s.call, s.ret = make([]int64, n), make([]int64, n)
		}
		var opts []core.MetricOption
		if sp.delphi && i%2 == 0 {
			s.tick = r.period / ticksPerPoll
		} else {
			opts = append(opts, core.WithoutDelphi())
		}
		v, err := w.owner().RegisterMetric(s, opts...)
		if err != nil {
			return err
		}
		s.v = v
		r.srcs = append(r.srcs, s)
	}
	// The probe alternates between metrics with and without Delphi.
	for i := 0; i < probeMetrics; i++ {
		r.srcs[i*sp.metrics/probeMetrics+i%2].keepRef(ticksPerPoll * (sp.warm + n + 64))
	}
	for j := 0; j < sp.insights; j++ {
		in := newInsight(telemetry.MetricID(fmt.Sprintf("ins%03d", j)), r.srcs[j*insightWidth:(j+1)*insightWidth])
		inputs := make([]telemetry.MetricID, len(in.srcs))
		for k, s := range in.srcs {
			inputs[k] = s.id
		}
		v, err := w.owner().RegisterInsight(in.id, inputs, in.build)
		if err != nil {
			return err
		}
		in.v = v
		r.ins = append(r.ins, in)
	}
	return nil
}

// waitInsights waits until every insight vertex has consumed every input
// entry published so far and every insight it derived is on the observed
// broker.
func waitInsights(r *runState, owner *core.Service, observed stream.Bus, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		settled := true
		snap := owner.Metrics()
		for _, in := range r.ins {
			want := uint64(0)
			for _, s := range in.srcs {
				p, _ := owner.Broker().Published(string(s.id))
				want += p
			}
			got := snap.Counter(obs.Name("score_tuples_in_total", "metric", string(in.id)))
			tail, err := observed.Latest(context.Background(), string(in.id))
			in.mu.Lock()
			derived := in.derived
			in.mu.Unlock()
			if err != nil || got < want || tail.ID != derived {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("insight vertices did not settle")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// warmUp polls every source n times, spread over the generator
// goroutines, before timing starts: topics, rings, Delphi windows and the
// archive all reach steady state.
func warmUp(srcs []*source, n int) {
	g := generators()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < n; round++ {
				for j := i; j < len(srcs); j += g {
					waitUntil(srcs[j].horizon)
					srcs[j].poll()
				}
			}
		}(i)
	}
	wg.Wait()
}

// generators is how many load-generating goroutines a run uses.
func generators() int {
	n := runtime.GOMAXPROCS(0)
	if n > 2 {
		n = 2
	}
	return n
}

// reserveAddrs binds n loopback ports: the fabric's peer map must be known
// before any node serves. Each listener is held until its node is about to
// bind the address, so no connection the earlier nodes open can take the
// port meanwhile.
func reserveAddrs(n int) ([]net.Listener, []string, error) {
	var lns []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs, nil
}

func (w *ingest) teardown() {
	if w.obs != nil {
		w.obs.close()
		w.obs = nil
	}
	for _, svc := range w.nodes {
		svc.Stop()
	}
	w.nodes = nil
}

func (w *ingest) measure(r *runState, rep *report) error {
	fixed, peak := phases(r.cfg.seconds)
	r.t0 = now() + int64(2*time.Millisecond)
	r.fixedEnd = r.t0 + fixed
	if r.cfg.trace {
		r.traceFrom = r.t0 + fixed/2
	}
	g := generators()
	lanes := make([][]lane, g)
	for i := 0; i < g; i++ {
		l := &sampleLane{run: r, period: r.period, t0: r.t0}
		for j := i; j < len(r.srcs); j += g {
			l.srcs = append(l.srcs, r.srcs[j])
		}
		lanes[i] = append(lanes[i], l)
	}
	w.probe.t0 = r.t0
	lanes[0] = append(lanes[0], w.probe)

	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(ls []lane) {
			defer wg.Done()
			runLanes(ls, r.fixedEnd)
		}(lanes[i])
	}
	waitUntil(r.t0)
	a := takeSnap(r, w.owner())
	b := a
	if r.cfg.trace {
		waitUntil(r.traceFrom)
		b = takeSnap(r, w.owner())
	}
	wg.Wait()
	c := takeSnap(r, w.owner())
	heap := liveHeapMB(r)
	health := w.owner().Health()

	// Closed-loop peak phase: one goroutine polls back to back, leaving
	// the other cores to the broker, observers and GC, so the figure is the
	// single-loop ceiling rather than a contest for every core.
	r.peakEnd = now() + peak
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		runClosed(r.srcs, r.peakEnd)
	}()
	seen := func() int64 {
		var n int64
		for _, s := range r.srcs {
			n += s.seen.Load()
		}
		return n
	}
	before := seen()
	rate := peakRate(seen, r.peakEnd)
	pwg.Wait()
	w.obs.drain(r.srcs, 20*time.Second)
	peakOps := seen() - before

	// Let insights catch up, then stop observing and run the oracle.
	if err := waitInsights(r, w.owner(), w.observed(), 10*time.Second); err != nil {
		r.fail.add("%v", err)
	}
	w.obs.drain(r.srcs, time.Second)
	waitRecords(r, 5*time.Second)
	w.obs.close()
	w.obs = nil
	rep.attempted += w.check(r, health)

	// End-to-end figures over the untraced part of the fixed-rate phase.
	e2eEnd := r.fixedEnd
	if r.cfg.trace {
		e2eEnd = r.traceFrom
	}
	rep.timings("fresh", timedOf(r, r.t0, e2eEnd, false))
	rep.timings("insight_fresh", timedOf(r, r.t0, e2eEnd, true))
	rep.timings("query", window(w.probe.lat, r.t0, e2eEnd))
	rep.add("peak_ops_per_s", rate, "1/s", int(peakOps))
	rep.add("cpu_cores", (c.cpu-a.cpu)/(float64(c.at-a.at)/1e9), "cores", 1)
	rep.add("heap_mb", heap, "MB", 1)
	if !r.cfg.trace {
		return nil
	}
	var lagMax, failovers uint64
	for _, st := range w.owner().Replication() {
		lagMax = max(lagMax, st.Lag)
	}
	for _, svc := range w.nodes {
		failovers += sumCounters(svc.Metrics(), "fabric_failovers_total")
	}
	var deliver latencies
	for _, s := range tracedSamples(r) {
		deliver = append(deliver, s.deliver)
	}
	layers(r, rep, a, b, c, layerInputs{
		freshUntraced: latenciesOf(timedOf(r, r.t0, r.traceFrom, false)),
		freshTraced:   latenciesOf(timedOf(r, r.traceFrom, r.fixedEnd, false)),
		deliver:       deliver,
		times:         &w.probe.layerTimes,
		queries:       len(window(w.probe.lat, b.at, c.at)),
		health:        health,
		replicaLagMax: lagMax,
		failovers:     failovers,
	})
	return writeTrace(r)
}

// waitRecords waits until the insight observers have matched every
// published insight to its derivation.
func waitRecords(r *runState, timeout time.Duration) {
	waitFor(timeout, func() bool {
		for _, in := range r.ins {
			in.mu.Lock()
			pending := in.head < len(in.records)
			in.mu.Unlock()
			if pending {
				return false
			}
		}
		return true
	})
}

// check runs the end-of-run oracle and returns how many operations it
// covered.
func (w *ingest) check(r *runState, health map[telemetry.MetricID]score.HealthSnapshot) int {
	attempted := checkOutputs(r)
	for id, h := range health {
		if h.Buffered > 0 || h.State != score.HealthOK {
			r.fail.add("%s: health %v with backlog %d", id, h.State, h.Buffered)
		}
	}
	attempted += w.probe.check()
	if len(w.nodes) > 1 {
		attempted += w.checkReplicas(r)
	}
	return attempted
}

// checkReplicas compares every follower's log with the leader's.
func (w *ingest) checkReplicas(r *runState) int {
	ctx := context.Background()
	leader := w.owner().Broker()
	n := 0
	topics := leader.Topics()
	for _, topic := range topics {
		_, tail, err := leader.TopicTail(ctx, topic)
		if err != nil {
			r.fail.add("%s: leader tail: %v", topic, err)
			continue
		}
		// Compare the window every replica still retains.
		from := uint64(1)
		if keep := uint64(ingestRetention); tail > keep {
			from = tail - keep + 1
		}
		want, err := leader.Range(ctx, topic, from, tail, 0)
		if err != nil {
			r.fail.add("%s: leader range: %v", topic, err)
			continue
		}
		for _, f := range w.nodes[1:] {
			n++
			_, ftail, err := f.Broker().TopicTail(ctx, topic)
			if err != nil || ftail != tail {
				r.fail.add("%s: follower tail %d, leader %d (%v)", topic, ftail, tail, err)
				continue
			}
			got, err := f.Broker().Range(ctx, topic, from, tail, 0)
			if err != nil || len(got) != len(want) {
				r.fail.add("%s: follower range %d entries, leader %d (%v)", topic, len(got), len(want), err)
				continue
			}
			for i := range got {
				if got[i].ID != want[i].ID || !bytes.Equal(got[i].Payload, want[i].Payload) {
					r.fail.add("%s: follower entry %d differs from leader", topic, want[i].ID)
					break
				}
			}
		}
	}
	return n
}

// timedOf lists (due, latency) of the samples due in [from, to), to the
// fact observer or (insight) to the first insight reflecting them.
func timedOf(r *runState, from, to int64, insight bool) []timed {
	var out []timed
	for _, s := range r.srcs {
		for i := range s.vis {
			k := r.warm + i
			due := r.due(s, k)
			if due >= to || k >= s.k {
				break
			}
			if due < from || !s.visible(k) || (insight && !s.feeds) {
				continue
			}
			at := s.vis[i]
			if insight {
				at = s.ins[i]
			}
			lat := int64(lost)
			if at != 0 {
				lat = at - due
			}
			out = append(out, timed{due, lat})
		}
	}
	return out
}

// phases splits a run of seconds into its fixed-rate and peak phases.
func phases(seconds float64) (fixed, peak int64) {
	total := int64(seconds * 1e9)
	peak = total / 5
	return total - peak, peak
}

// probeLane is the light in-process AQE probe of the ingest workloads:
// COUNT over a closed half-second window of one metric, checked against
// the tuples the observer received.
type probeLane struct {
	r       *runState
	svc     *core.Service
	srcs    []*source
	period  int64
	t0      int64
	archive bool
	q       int

	lat     []timed
	results []probeResult

	layerTimes
}

type probeResult struct {
	src  *source
	a, b int64
	got  int64
	err  error
}

// prime runs each probe shape once so the engine's lazy paths are warm.
func (l *probeLane) prime() error {
	for _, s := range l.srcs {
		wall := time.Now().UnixNano()
		if _, err := l.svc.Query(countQuery(s.id, wall-int64(time.Second), wall)); err != nil {
			return err
		}
	}
	return nil
}

func countQuery(id telemetry.MetricID, a, b int64) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE Timestamp BETWEEN %d AND %d", id, a, b)
}

func (l *probeLane) due() int64 { return l.t0 + int64(l.q)*l.period + l.period/2 }

func (l *probeLane) fire() {
	due := l.due()
	s := l.srcs[l.q%len(l.srcs)]
	l.q++
	wall := time.Now().UnixNano()
	b := wall - int64(100*time.Millisecond)
	a := b - int64(500*time.Millisecond)
	text := countQuery(s.id, a, b)
	if l.r.tracing(due) {
		l.direct(s, text, a, b)
	}
	res, err := l.svc.Query(text)
	l.lat = append(l.lat, timed{due, now() - due})
	pr := probeResult{src: s, a: a, b: b, err: err}
	if err == nil {
		pr.got = countOf(res)
	}
	l.results = append(l.results, pr)
}

// direct times the layers under one probe query by calling them in
// process: Prepare (a plan-cache miss, as the probe text is new),
// ExecutePlan, a ring scan of the same window, and a range over an older
// window that only the archive holds.
func (l *probeLane) direct(s *source, text string, a, b int64) {
	eng := l.svc.Engine()
	t := now()
	plan, err := eng.Prepare(text)
	l.prepare = append(l.prepare, now()-t)
	if err == nil {
		t = now()
		_, _ = eng.ExecutePlan(plan)
		l.exec = append(l.exec, now()-t)
	}
	t = now()
	_ = s.v.History().Range(a, b)
	l.scan = append(l.scan, now()-t)
	if l.archive {
		// A metric without Delphi still holds everything in its ring; the
		// Delphi metric of its pair, four tuples per poll, has evicted into
		// the archive all that predates its ring.
		v := l.r.srcs[s.idx&^1].v
		if oldest, _, ok := v.History().Bounds(); ok {
			t = now()
			_ = v.Range(0, oldest-1)
			l.archiveRange = append(l.archiveRange, now()-t)
			l.archiveReads++
		}
	}
}

func countOf(res *aqe.Result) int64 {
	if len(res.Rows) == 0 {
		return 0
	}
	if len(res.Rows[0]) == 0 || res.Rows[0][0].Kind != aqe.CellInt {
		return -1
	}
	return res.Rows[0][0].Int
}

// check compares every probe answer with the observer's reference.
func (l *probeLane) check() int {
	for _, pr := range l.results {
		if pr.err != nil {
			l.r.fail.add("probe %s: %v", pr.src.id, pr.err)
			continue
		}
		if want := refCount(pr.src.ref, pr.a, pr.b); pr.got != want {
			l.r.fail.add("probe %s [%d,%d]: COUNT %d, observer saw %d", pr.src.id, pr.a, pr.b, pr.got, want)
		}
	}
	return len(l.results)
}

func refCount(ref []refPoint, a, b int64) int64 {
	var n int64
	for _, p := range ref {
		if p.ts >= a && p.ts <= b {
			n++
		}
	}
	return n
}
