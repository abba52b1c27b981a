package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/telemetry"
)

// query-fanout sizes.
const (
	fanMetrics       = 64
	fanRate          = 2000.0 // live samples per second
	fanHistory       = 1024   // in-memory ring per metric
	fanPreload       = 8192   // samples per metric polled during set-up
	fanSubsPerMetric = 8      // in-process gateway subscribers per metric
	fanQueryRate     = 200.0  // HTTP queries per second
	fanInsights      = 4
)

// fanout preloads a single node so long windows live in the archive, then
// serves HTTP queries and gateway fan-out while light ingest continues.
type fanout struct {
	svc     *core.Service
	addr    string
	obs     *observer
	subs    []*subState
	sse     *subState
	sseStop context.CancelFunc
	sseDone chan struct{}
	queries *queryLane

	// Long windows fall in [preFrom, archived[m]]: from the start of the
	// preload to the newest tuple of metric m that had left the ring when
	// the subscribers attached, so they are served by the archive alone.
	preFrom  int64
	archived []int64
}

// subState follows one gateway subscription: an in-process Attach or the
// SSE connection. Only its drainer touches it until the drainer stops.
type subState struct {
	sub    *gateway.Subscriber
	src    *source
	lastID uint64
	k      int
	got    atomic.Int64
	base   int64 // visible samples of the metric before the attach point
	frames []frameRec
}

// frameRec is one tuple frame: which sample, and when it was drained.
type frameRec struct {
	k  int32
	at int64
}

func (w *fanout) setup(r *runState) error {
	r.warm = fanPreload
	r.period = int64(fanMetrics / fanRate * 1e9)
	fixed, _ := phases(r.cfg.seconds)
	r.fixedDur = fixed
	w.svc = core.New(core.Config{
		Mode:        core.IntervalFixed,
		Adaptive:    adaptive.Config{Initial: time.Duration(r.period)},
		HistorySize: fanHistory,
		ArchiveDir:  archiveDir(r.cfg),
		Gateway:     gateway.Config{Rate: -1},
	})
	n := r.fixedSamples()
	for i := 0; i < fanMetrics; i++ {
		s := &source{
			idx:  i,
			id:   telemetry.MetricID(fmt.Sprintf("dev%04d", i)),
			vals: deviceValues(r.cfg.seed, i, valuesPerSource),
			vis:  make([]int64, n),
			ins:  make([]int64, n),
		}
		s.keepRef(fanPreload + n + 64)
		if r.cfg.trace {
			s.call, s.ret = make([]int64, n), make([]int64, n)
		}
		v, err := w.svc.RegisterMetric(s)
		if err != nil {
			return err
		}
		s.v = v
		r.srcs = append(r.srcs, s)
	}
	width := fanMetrics / fanInsights
	for j := 0; j < fanInsights; j++ {
		in := newInsight(telemetry.MetricID(fmt.Sprintf("ins%03d", j)), r.srcs[j*width:(j+1)*width])
		var inputs []telemetry.MetricID
		for _, s := range in.srcs {
			inputs = append(inputs, s.id)
		}
		v, err := w.svc.RegisterInsight(in.id, inputs, in.build)
		if err != nil {
			return err
		}
		in.v = v
		r.ins = append(r.ins, in)
	}
	addr, err := w.svc.ServeGateway("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = addr
	for _, in := range r.ins {
		if err := in.v.Start(); err != nil {
			return err
		}
	}
	w.preFrom = time.Now().UnixNano()
	warmUp(r.srcs, r.warm)
	if err := waitInsights(r, w.svc, w.svc.Broker(), 20*time.Second); err != nil {
		return err
	}
	w.obs = newObserver(r)
	for _, s := range r.srcs {
		if err := w.obs.follow(w.svc.Broker(), s); err != nil {
			return err
		}
	}
	for _, in := range r.ins {
		if err := w.obs.followInsight(w.svc.Broker(), in); err != nil {
			return err
		}
	}
	w.obs.drain(r.srcs, 20*time.Second)
	if !w.obs.caughtUp(r.srcs) {
		return fmt.Errorf("observer did not see the preload")
	}
	if err := w.attach(r); err != nil {
		return err
	}
	w.queries = newQueryLane(r, w)
	return w.queries.prime()
}

// attach subscribes the gateway consumers at the current tail of every
// topic: fanSubsPerMetric in-process subscribers per metric and one SSE
// connection on the first metric.
func (w *fanout) attach(r *runState) error {
	ctx := context.Background()
	w.subs = nil
	w.archived = w.archived[:0]
	for _, s := range r.srcs {
		oldest, _, ok := s.v.History().Bounds()
		if !ok {
			return fmt.Errorf("%s: empty ring after preload", s.id)
		}
		w.archived = append(w.archived, oldest-1)
		tail, err := w.svc.Broker().Published(string(s.id))
		if err != nil {
			return err
		}
		for i := 0; i < fanSubsPerMetric; i++ {
			sub, err := w.svc.Gateway().Attach(ctx, "bench", string(s.id), tail)
			if err != nil {
				return err
			}
			w.subs = append(w.subs, &subState{sub: sub, src: s, lastID: tail, k: s.k, base: s.expected.Load()})
		}
	}
	probe := r.srcs[0]
	tail, err := w.svc.Broker().Published(string(probe.id))
	if err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		fmt.Sprintf("http://%s/api/v1/subscribe/%s?after=%d", w.addr, probe.id, tail), nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("sse: status %s", resp.Status)
	}
	w.sse = &subState{src: probe, lastID: tail, k: probe.k, base: probe.expected.Load()}
	w.sseStop = cancel
	w.sseDone = make(chan struct{})
	go func() {
		defer close(w.sseDone)
		defer resp.Body.Close()
		w.readSSE(r, resp.Body)
	}()
	return nil
}

// readSSE parses the event stream until the connection is closed.
func (w *fanout) readSSE(r *runState, body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		t := now()
		var f apiv1.Frame
		if err := json.Unmarshal(data, &f); err != nil {
			r.fail.add("sse: bad frame %q", data)
			continue
		}
		if f.Type != apiv1.FrameTuple {
			if f.Type == apiv1.FrameError {
				r.fail.add("sse: error frame %v", f.Error)
			}
			continue
		}
		w.frame(r, w.sse, f, t)
	}
}

// frame checks one tuple frame of a gateway subscription: stream IDs are
// contiguous and the samples arrive once, in order, with their values.
func (w *fanout) frame(r *runState, s *subState, f apiv1.Frame, t int64) {
	tup := f.Tuple
	if f.Type != apiv1.FrameTuple || tup == nil {
		r.fail.add("%s: subscriber got %s frame", s.src.id, f.Type)
		return
	}
	if tup.StreamID != s.lastID+1 {
		r.fail.add("%s: stream id %d after %d", s.src.id, tup.StreamID, s.lastID)
	}
	s.lastID = tup.StreamID
	s.k = s.src.nextVisible(s.k)
	if tup.Value != s.src.val(s.k) {
		r.fail.add("%s: subscriber sample %d: got %v, want %v", s.src.id, s.k, tup.Value, s.src.val(s.k))
	}
	s.frames = append(s.frames, frameRec{int32(s.k), t})
	s.k++
	s.got.Add(1)
}

// drainLoop empties its subscribers' queues every tick until stop: a
// bounded pool stands in for many clients without a goroutine each.
func (w *fanout) drainLoop(r *runState, subs []*subState, stop <-chan struct{}) {
	for {
		busy := false
		for _, s := range subs {
			for more := true; more; {
				select {
				case f := <-s.sub.Frames():
					w.frame(r, s, f, now())
					busy = true
				default:
					more = false
				}
			}
			select {
			case f := <-s.sub.Final():
				r.fail.add("%s: subscriber ended: %v", s.src.id, f.Error)
			default:
			}
		}
		if busy {
			continue
		}
		select {
		case <-stop:
			return
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// closeSSE hangs up the SSE connection and waits for its reader.
func (w *fanout) closeSSE() {
	if w.sseStop != nil {
		w.sseStop()
		<-w.sseDone
		w.sseStop = nil
	}
}

func (w *fanout) teardown() {
	w.closeSSE()
	for _, s := range w.subs {
		s.sub.Close()
	}
	w.subs = nil
	if w.obs != nil {
		w.obs.close()
		w.obs = nil
	}
	if w.queries != nil {
		w.queries.client.CloseIdleConnections()
	}
	if w.svc != nil {
		w.svc.Stop()
		w.svc = nil
	}
}

func (w *fanout) measure(r *runState, rep *report) error {
	fixed, peak := phases(r.cfg.seconds)
	r.t0 = now() + int64(2*time.Millisecond)
	r.fixedEnd = r.t0 + fixed
	r.peakEnd = r.fixedEnd + peak
	if r.cfg.trace {
		r.traceFrom = r.t0 + fixed/2
	}
	stop := make(chan struct{})
	var dwg sync.WaitGroup
	g := generators()
	for i := 0; i < g; i++ {
		var mine []*subState
		for j := i; j < len(w.subs); j += g {
			mine = append(mine, w.subs[j])
		}
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			w.drainLoop(r, mine, stop)
		}()
	}
	ingestLane := &sampleLane{run: r, srcs: r.srcs, period: r.period, t0: r.t0}
	q := w.queries
	q.t0 = r.t0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Ingest keeps its rate through the peak phase.
		runLanes([]lane{ingestLane}, r.peakEnd)
	}()
	fixedDone := make(chan struct{})
	go func() {
		defer wg.Done()
		runLanes([]lane{q}, r.fixedEnd)
		<-fixedDone
		q.closedLoop(r.peakEnd)
	}()
	waitUntil(r.t0)
	a := takeSnap(r, w.svc)
	b := a
	if r.cfg.trace {
		waitUntil(r.traceFrom)
		b = takeSnap(r, w.svc)
	}
	waitUntil(r.fixedEnd)
	c := takeSnap(r, w.svc)
	heap := liveHeapMB(r)
	close(fixedDone)
	rate := peakRate(func() int64 { return q.answered.Load() }, r.peakEnd)
	wg.Wait()

	// Wait for every subscriber to drain what was published, then stop.
	w.obs.drain(r.srcs, 10*time.Second)
	w.waitFrames(10 * time.Second)
	close(stop)
	dwg.Wait()
	if err := waitInsights(r, w.svc, w.svc.Broker(), 10*time.Second); err != nil {
		r.fail.add("%v", err)
	}
	waitRecords(r, 5*time.Second)
	w.closeSSE()
	w.obs.close()
	w.obs = nil
	rep.attempted += w.check(r)

	e2eEnd := r.fixedEnd
	if r.cfg.trace {
		e2eEnd = r.traceFrom
	}
	rep.timings("fresh", w.frameTimes(r, r.t0, e2eEnd))
	rep.timings("insight_fresh", timedOf(r, r.t0, e2eEnd, true))
	rep.timings("query", window(q.lat, r.t0, e2eEnd))
	rep.add("peak_ops_per_s", rate, "1/s", int(q.answered.Load()))
	rep.add("cpu_cores", (c.cpu-a.cpu)/(float64(c.at-a.at)/1e9), "cores", 1)
	rep.add("heap_mb", heap, "MB", 1)
	if !r.cfg.trace {
		return nil
	}
	var deliver, fan latencies
	for _, s := range w.subs {
		for _, f := range s.frames {
			i := int(f.k) - r.warm
			if i < 0 || i >= len(s.src.call) || s.src.call[i] == 0 || s.src.vis[i] == 0 {
				continue
			}
			deliver = append(deliver, f.at-s.src.ret[i])
			fan = append(fan, f.at-s.src.vis[i])
		}
	}
	layers(r, rep, a, b, c, layerInputs{
		freshUntraced: latenciesOf(w.frameTimes(r, r.t0, r.traceFrom)),
		freshTraced:   latenciesOf(w.frameTimes(r, r.traceFrom, r.fixedEnd)),
		deliver:       deliver,
		fanout:        fan,
		times:         &q.layerTimes,
		queries:       len(window(q.lat, b.at, c.at)),
		health:        w.svc.Health(),
	})
	return writeTrace(r)
}

// waitFrames waits until every subscription has every sample published on
// its metric since it attached.
func (w *fanout) waitFrames(timeout time.Duration) {
	waitFor(timeout, func() bool { return w.framesMissing() == 0 })
}

func (w *fanout) framesMissing() int64 {
	var missing int64
	for _, s := range append([]*subState{w.sse}, w.subs...) {
		missing += s.src.expected.Load() - s.got.Load() - s.base
	}
	return missing
}

// frameTimes lists the freshness of every frame of a sample due in
// [from, to), with a lost entry for every frame that never came.
func (w *fanout) frameTimes(r *runState, from, to int64) []timed {
	var out []timed
	for _, s := range append([]*subState{w.sse}, w.subs...) {
		seen := make(map[int32]bool, len(s.frames))
		for _, f := range s.frames {
			seen[f.k] = true
			due := r.due(s.src, int(f.k))
			if due >= from && due < to {
				out = append(out, timed{due, f.at - due})
			}
		}
		for k := r.warm; k < s.src.k; k++ {
			due := r.due(s.src, k)
			if due >= to {
				break
			}
			if due >= from && s.src.visible(k) && !seen[int32(k)] {
				out = append(out, timed{due, lost})
			}
		}
	}
	return out
}

func (w *fanout) check(r *runState) int {
	attempted := checkOutputs(r)
	for _, s := range append([]*subState{w.sse}, w.subs...) {
		want := s.src.expected.Load() - s.base
		attempted += int(want)
		if got := s.got.Load(); got != want {
			r.fail.addN(int(max(want-got, 1)), "%s: subscriber got %d frames, want %d", s.src.id, got, want)
		}
	}
	if ev := sumCounters(w.svc.Metrics(), "gateway_evictions_total"); ev > 0 {
		r.fail.add("gateway evicted %d subscribers", ev)
	}
	attempted += w.queries.check()
	return attempted
}

// Query kinds of the query-fanout mix.
const (
	qLatest = iota // latest value of one metric; fixed text, plan-cache hit
	qAvg           // AVG over the last closed second; literal bounds, miss
	qLong          // aggregates over a preload window held by the archive
	qUnion         // 8-way UNION of latest values; fixed text
)

// queryPick is one drawn query.
type queryPick struct {
	kind   int
	metric int
	lo, hi float64 // qLong: window as fractions of the archived span
}

// mix draws the seeded query sequence: 40% latest, 30% AVG, 15% long,
// 15% UNION.
type mix struct{ rng *rand.Rand }

func newMix(seed int64) *mix { return &mix{rng: rand.New(rand.NewSource(seed ^ 0x5eed))} }

func (m *mix) next() queryPick {
	p := queryPick{metric: m.rng.Intn(fanMetrics)}
	switch x := m.rng.Float64(); {
	case x < 0.40:
		p.kind = qLatest
	case x < 0.70:
		p.kind = qAvg
	case x < 0.85:
		p.kind = qLong
	default:
		p.kind = qUnion
	}
	p.lo = 0.5 * m.rng.Float64()
	p.hi = p.lo + 0.5
	return p
}

// queryMix returns the first n query kinds for a seed (for the digest).
func queryMix(seed int64, n int) []int {
	m := newMix(seed)
	out := make([]int, n)
	for i := range out {
		p := m.next()
		out[i] = p.kind<<8 | p.metric
	}
	return out
}

// queryLane issues the query-fanout mix over one keep-alive HTTP
// connection, open loop at fanQueryRate.
type queryLane struct {
	r      *runState
	w      *fanout
	mix    *mix
	client *http.Client
	url    string
	period int64
	t0     int64
	q      int

	lat       []timed
	results   []queryResult
	straddles []straddle
	answered  atomic.Int64 // closed-loop queries answered

	layerTimes
}

type queryResult struct {
	pick queryPick
	a, b int64
	rows [][]apiv1.Value
	err  error
}

func newQueryLane(r *runState, w *fanout) *queryLane {
	return &queryLane{
		r: r, w: w, mix: newMix(r.cfg.seed),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
		url:    "http://" + w.addr + apiv1.PathQuery,
		period: int64(1e9 / fanQueryRate),
	}
}

// prime runs every fixed text once and one of each literal shape, so the
// plan cache and the HTTP connection are warm.
func (l *queryLane) prime() error {
	for m := 0; m < fanMetrics; m++ {
		for _, kind := range []int{qLatest, qAvg, qLong, qUnion} {
			text, _, _ := l.text(queryPick{kind: kind, metric: m, lo: 0.1, hi: 0.5})
			if _, err := l.post(text); err != nil {
				return err
			}
		}
	}
	return nil
}

// text renders a pick; a and b are the window's literal bounds.
func (l *queryLane) text(p queryPick) (text string, a, b int64) {
	id := l.r.srcs[p.metric].id
	switch p.kind {
	case qLatest:
		return fmt.Sprintf("SELECT MAX(Timestamp), metric FROM %s", id), 0, 0
	case qAvg:
		b = time.Now().UnixNano() - int64(200*time.Millisecond)
		a = b - int64(time.Second)
		return fmt.Sprintf("SELECT COUNT(*), AVG(metric) FROM %s WHERE Timestamp BETWEEN %d AND %d", id, a, b), a, b
	case qLong:
		span := float64(l.w.archived[p.metric] - l.w.preFrom)
		a = l.w.preFrom + int64(p.lo*span)
		b = l.w.preFrom + int64(p.hi*span)
		return fmt.Sprintf("SELECT COUNT(*), MIN(metric), MAX(metric) FROM %s WHERE Timestamp BETWEEN %d AND %d", id, a, b), a, b
	default:
		g := p.metric / 8 * 8
		parts := make([]string, 8)
		for i := range parts {
			parts[i] = fmt.Sprintf("SELECT MAX(Timestamp), metric FROM %s", l.r.srcs[g+i].id)
		}
		return strings.Join(parts, " UNION "), 0, 0
	}
}

// post sends one query over the keep-alive connection.
func (l *queryLane) post(text string) ([][]apiv1.Value, error) {
	body, err := json.Marshal(apiv1.QueryRequest{Query: text})
	if err != nil {
		return nil, err
	}
	resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s: %s", resp.Status, raw)
	}
	var qr apiv1.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return nil, err
	}
	return qr.Rows, nil
}

func (l *queryLane) due() int64 { return l.t0 + int64(l.q)*l.period }

func (l *queryLane) fire() {
	due := l.due()
	l.q++
	l.issue(due, l.r.tracing(due))
}

// issue runs the next query of the mix; traced queries also time the
// layers under it with direct in-process calls.
func (l *queryLane) issue(due int64, traced bool) {
	p := l.mix.next()
	text, a, b := l.text(p)
	if traced {
		l.direct(p, text, a, b)
	}
	sent := now()
	rows, err := l.post(text)
	done := now()
	l.lat = append(l.lat, timed{due, done - due})
	l.results = append(l.results, queryResult{pick: p, a: a, b: b, rows: rows, err: err})
	if traced {
		l.http = append(l.http, done-sent)
		t := now()
		_, _ = l.w.svc.Query(text)
		l.inproc = append(l.inproc, now()-t)
	}
}

func (l *queryLane) direct(p queryPick, text string, a, b int64) {
	eng := l.w.svc.Engine()
	t := now()
	plan, err := eng.Prepare(text)
	l.prepare = append(l.prepare, now()-t)
	if err == nil {
		t = now()
		_, _ = eng.ExecutePlan(plan)
		l.exec = append(l.exec, now()-t)
	}
	v := l.r.srcs[p.metric].v
	switch p.kind {
	case qAvg:
		t = now()
		_ = v.History().Range(a, b)
		l.scan = append(l.scan, now()-t)
	case qLong:
		t = now()
		_ = v.Range(a, b)
		l.archiveRange = append(l.archiveRange, now()-t)
		// From the same start to the last closed second, a window straddles
		// the ring/archive boundary; check counts what it missed.
		hi := time.Now().UnixNano() - int64(200*time.Millisecond)
		l.straddles = append(l.straddles, straddle{p.metric, a, hi, len(v.Range(a, hi))})
		// The HTTP query and the ExecutePlan above read the archive too.
		l.archiveReads += 4
	}
}

// straddle is one traced range over a window that straddles the
// ring/archive boundary: got tuples of metric in [a, b].
type straddle struct {
	metric int
	a, b   int64
	got    int
}

// closedLoop issues queries back to back until end.
func (l *queryLane) closedLoop(end int64) {
	for now() < end {
		l.issue(now(), false)
		l.answered.Add(1)
	}
}

// check compares every answer with the tuples the broker observer
// received.
func (l *queryLane) check() int {
	for _, res := range l.results {
		if res.err != nil {
			l.r.fail.add("query %d/%d: %v", res.pick.kind, res.pick.metric, res.err)
			continue
		}
		if msg := l.verify(res); msg != "" {
			l.r.fail.add("query %d on %s: %s", res.pick.kind, l.r.srcs[res.pick.metric].id, msg)
		}
	}
	// Known program defect: a tuple evicted from the ring while the
	// archive part of a straddling scan runs is in neither part. It is
	// counted, not failed, until the program fix lands.
	for _, st := range l.straddles {
		if len(refWindow(l.r.srcs[st.metric].ref, st.a, st.b)) != st.got {
			l.straddleMisses++
		}
	}
	return len(l.results)
}

func (l *queryLane) verify(res queryResult) string {
	src := l.r.srcs[res.pick.metric]
	switch res.pick.kind {
	case qLatest:
		return verifyLatest(src, res.rows)
	case qUnion:
		if len(res.rows) != 8 {
			return fmt.Sprintf("%d rows, want 8", len(res.rows))
		}
		g := res.pick.metric / 8 * 8
		for i, row := range res.rows {
			if msg := verifyLatest(l.r.srcs[g+i], [][]apiv1.Value{row}); msg != "" {
				return msg
			}
		}
		return ""
	}
	win := refWindow(src.ref, res.a, res.b)
	if len(win) == 0 {
		if len(res.rows) != 0 {
			return fmt.Sprintf("rows %v over an empty window", res.rows)
		}
		return ""
	}
	if len(res.rows) != 1 {
		return fmt.Sprintf("%d rows, want 1", len(res.rows))
	}
	row := res.rows[0]
	sum, mn, mx := 0.0, math.Inf(1), math.Inf(-1)
	for _, p := range win {
		sum += p.v
		mn = math.Min(mn, p.v)
		mx = math.Max(mx, p.v)
	}
	want := []float64{float64(len(win)), sum / float64(len(win))}
	if res.pick.kind == qLong {
		want = []float64{float64(len(win)), mn, mx}
	}
	if len(row) != len(want) {
		return fmt.Sprintf("%d columns, want %d", len(row), len(want))
	}
	for i, wv := range want {
		if got := num(row[i]); math.Abs(got-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
			return fmt.Sprintf("column %d = %v, observer gives %v", i, got, wv)
		}
	}
	return ""
}

// verifyLatest checks a latest-value row names a tuple the observer saw.
func verifyLatest(src *source, rows [][]apiv1.Value) string {
	if len(rows) != 1 || len(rows[0]) != 2 {
		return fmt.Sprintf("latest rows %v", rows)
	}
	ts, v := rows[0][0].Int, num(rows[0][1])
	i := sort.Search(len(src.ref), func(i int) bool { return src.ref[i].ts >= ts })
	if i == len(src.ref) || src.ref[i].ts != ts || src.ref[i].v != v {
		return fmt.Sprintf("latest (%d, %v) is no tuple of %s", ts, v, src.id)
	}
	return ""
}

// refWindow is the part of a time-ordered reference stamped in [a, b].
func refWindow(ref []refPoint, a, b int64) []refPoint {
	lo := sort.Search(len(ref), func(i int) bool { return ref[i].ts >= a })
	hi := sort.Search(len(ref), func(i int) bool { return ref[i].ts > b })
	return ref[lo:hi]
}

func num(v apiv1.Value) float64 {
	if v.Kind == apiv1.ValueInt {
		return float64(v.Int)
	}
	return v.Float
}
