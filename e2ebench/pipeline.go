package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/score"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// failures counts oracle violations: every one also counts in fail_ratio
// and makes the run exit non-zero. The first few are kept for the report.
type failures struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failures) add(format string, args ...any) { f.addN(1, format, args...) }

// addN counts n failures under one message.
func (f *failures) addN(n int, format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n += n
	if len(f.first) < 10 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *failures) report() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.first {
		fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", m)
	}
	if f.n > len(f.first) {
		fmt.Fprintf(os.Stderr, "e2ebench: ... and %d more failures\n", f.n-len(f.first))
	}
}

// source is one simulated device metric: the generator's hook, its Fact
// vertex, and the observer's record of what became visible.
type source struct {
	idx  int
	id   telemetry.MetricID
	vals []float64 // seeded device-model values, used cyclically
	v    *score.FactVertex

	// k is the next sample's index. Only the goroutine that polls this
	// source touches it (Poll runs inside PollOnce on that goroutine).
	k        int
	expected atomic.Int64 // samples polled that must become visible

	// Per-sample timestamps of the fixed-rate phase, indexed by k-warm:
	// call and ret are written by the generator (traced runs only), vis by
	// the fact observer and ins by the insight observer. They are read only
	// after every writer has stopped.
	call, ret, vis, ins []int64

	// tick is the base tick a Delphi vertex fills with predicted tuples (0
	// without Delphi). horizon is the benchmark time after which the next
	// poll is stamped later than every tuple the vertex has predicted: the
	// vertex's own timer waits the interval PollOnce returns, and a poll
	// before the horizon would be stamped among the predictions already
	// published. Only the polling goroutine touches it.
	tick    int64
	horizon int64

	// Observer state: only the observer goroutine touches these until it
	// has stopped.
	obsK      int
	lastID    uint64
	seen      atomic.Int64 // measured samples seen
	predicted uint64
	last      telemetry.Info
	ref       []refPoint // every tuple seen, kept for query oracles
	refCap    int        // ref's preallocated capacity
	feeds     bool       // an insight vertex consumes this metric
}

// refPoint is one tuple of a query oracle's reference.
type refPoint struct {
	ts int64
	v  float64
}

// keepRef makes the observer keep every tuple of s, in a slice sized for
// n tuples so that it does not grow before the live heap is read.
func (s *source) keepRef(n int) {
	s.ref = make([]refPoint, 0, n)
	s.refCap = n
}

// refBytes is the memory the query oracles' references hold.
func refBytes(srcs []*source) int {
	n := 0
	for _, s := range srcs {
		n += s.refCap * int(unsafe.Sizeof(refPoint{}))
	}
	return n
}

// Metric implements score.Hook.
func (s *source) Metric() telemetry.MetricID { return s.id }

// Poll implements score.Hook: the program receives exactly the generated
// value for the sample being polled.
func (s *source) Poll() (float64, error) { return s.val(s.k), nil }

func (s *source) val(k int) float64 { return s.vals[k%len(s.vals)] }

// visible reports whether sample k survives the vertex's only-on-change
// filter.
func (s *source) visible(k int) bool { return k == 0 || s.val(k) != s.val(k-1) }

// nextVisible is the first sample at or after k that becomes visible.
func (s *source) nextVisible(k int) int {
	for k > 0 && !s.visible(k) {
		k++
	}
	return k
}

// poll runs one sample through the vertex.
func (s *source) poll() {
	if s.visible(s.k) {
		s.expected.Add(1)
	}
	next := int64(s.v.PollOnce())
	s.k++
	if s.tick > 0 {
		// Predictions are stamped at most next/tick - 1 ticks after this
		// poll's own stamp, which precedes the return.
		s.horizon = now() + (next/s.tick-1)*s.tick + horizonMargin
	}
}

// horizonMargin covers the drift between the benchmark's monotonic clock
// and the wall clock the vertex stamps tuples with.
const horizonMargin = int64(50 * time.Microsecond)

// observer follows fact and insight topics on one broker and checks each
// delivery against what the generator produced.
type observer struct {
	run  *runState
	wg   sync.WaitGroup
	stop context.CancelFunc
	ctx  context.Context
}

func newObserver(r *runState) *observer {
	ctx, cancel := context.WithCancel(context.Background())
	return &observer{run: r, ctx: ctx, stop: cancel}
}

// follow subscribes to a fact topic from its first entry.
func (o *observer) follow(bus stream.Bus, s *source) error {
	ch, err := bus.Subscribe(o.ctx, string(s.id), 0)
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", s.id, err)
	}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for e := range ch {
			o.fact(s, e, now())
		}
	}()
	return nil
}

// fact checks one delivery of a fact topic: entry IDs are contiguous,
// measured tuples arrive once and in order with their generated value, and
// anything else is a predicted tuple flagged as such.
func (o *observer) fact(s *source, e stream.Entry, t int64) {
	r := o.run
	if e.ID != s.lastID+1 {
		r.fail.add("%s: entry id %d after %d", s.id, e.ID, s.lastID)
	}
	s.lastID = e.ID
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		r.fail.add("%s: undecodable entry %d: %v", s.id, e.ID, err)
		return
	}
	if in.Metric != s.id || in.Kind != telemetry.KindFact {
		r.fail.add("%s: foreign tuple %v", s.id, in)
		return
	}
	if s.refCap > 0 {
		s.ref = append(s.ref, refPoint{in.Timestamp, in.Value})
	}
	if in.Timestamp < s.last.Timestamp {
		// The vertex's ring is scanned as if time-ordered.
		r.fail.add("%s: entry %d stamped %d after one stamped %d", s.id, e.ID, in.Timestamp, s.last.Timestamp)
	}
	s.last = in
	if in.Source == telemetry.Predicted {
		s.predicted++
		return
	}
	if in.Source != telemetry.Measured {
		r.fail.add("%s: tuple neither measured nor predicted: %v", s.id, in)
		return
	}
	k := s.nextVisible(s.obsK)
	if k >= r.warm && r.dropOne.CompareAndSwap(true, false) {
		// Fault injection for the self-test: swallow one delivery, as a
		// lossy observer path would.
		s.obsK = k + 1
		return
	}
	if in.Value != s.val(k) {
		// Lost, reordered or wrong: resynchronize on the next match so one
		// fault is reported once.
		found := -1
		for j := k + 1; j < k+64; j++ {
			if s.visible(j) && s.val(j) == in.Value {
				found = j
				break
			}
		}
		if found < 0 {
			r.fail.add("%s: sample %d: got %v, want %v", s.id, k, in.Value, s.val(k))
			return
		}
		r.fail.add("%s: samples %d..%d lost before %d", s.id, k, found-1, found)
		k = found
	}
	s.obsK = k + 1
	if i := k - r.warm; i >= 0 && i < len(s.vis) {
		s.vis[i] = t
	}
	s.seen.Add(1)
}

// checkOutputs is the end-of-run oracle both kinds of workload share: every
// polled sample became visible at the observer, the observer saw every
// predicted tuple each vertex published, no publish failed, and each
// insight vertex's final insight is its builder over the last inputs the
// observer saw. It returns how many operations it covered.
func checkOutputs(r *runState) int {
	attempted := 0
	for _, s := range r.srcs {
		exp, seen := s.expected.Load(), s.seen.Load()
		attempted += int(exp)
		if seen < exp {
			r.fail.addN(int(exp-seen), "%s: %d samples never became visible", s.id, exp-seen)
		}
		st := s.v.Stats()
		attempted += int(st.Predicted)
		if s.predicted != st.Predicted {
			r.fail.add("%s: observer saw %d predicted tuples, vertex published %d", s.id, s.predicted, st.Predicted)
		}
		if st.Errors > 0 {
			r.fail.add("%s: %d publish errors", s.id, st.Errors)
		}
	}
	for _, in := range r.ins {
		attempted++
		if want := in.expect(); in.last.Value != want {
			r.fail.add("%s: final insight %v, builder over last inputs gives %v", in.id, in.last.Value, want)
		}
	}
	return attempted
}

// caughtUp reports whether every sample polled so far has been seen.
func (o *observer) caughtUp(srcs []*source) bool {
	for _, s := range srcs {
		if s.seen.Load() < s.expected.Load() {
			return false
		}
	}
	return true
}

// drain waits up to timeout for the observer to see every polled sample;
// what is still missing after that is backlog and counts as lost.
func (o *observer) drain(srcs []*source, timeout time.Duration) {
	waitFor(timeout, func() bool { return o.caughtUp(srcs) })
}

// close stops every subscription and waits for the observer goroutines.
func (o *observer) close() {
	o.stop()
	o.wg.Wait()
}

// insight is one Insight vertex under test: the builder it runs (a sum in
// declared input order, so the oracle can recompute it exactly) and the
// bookkeeping that ties each published insight to the samples it was the
// first to reflect.
type insight struct {
	id   telemetry.MetricID
	srcs []*source
	v    *score.InsightVertex

	// Builder state, touched only on the vertex goroutine.
	lastTs  []int64
	cursor  []int
	pending record
	lastOut float64
	hasOut  bool

	mu      sync.Mutex
	records []record // one per published insight not yet observed, oldest first
	derived uint64   // records ever appended: insights published so far
	head    int

	// Observer state.
	lastID uint64
	last   telemetry.Info
}

// record names the measured samples a published insight first reflects.
type record struct {
	n    uint8
	refs [4]sampleRef
}

type sampleRef struct{ src, k int32 }

func newInsight(id telemetry.MetricID, srcs []*source) *insight {
	for _, s := range srcs {
		s.feeds = true
	}
	return &insight{id: id, srcs: srcs, lastTs: make([]int64, len(srcs)), cursor: make([]int, len(srcs))}
}

// build is the vertex's Builder. It is called once per consumed input
// entry; the one input whose timestamp moved is that entry.
func (in *insight) build(m map[telemetry.MetricID]telemetry.Info) float64 {
	sum := 0.0
	for i, s := range in.srcs {
		t := m[s.id]
		sum += t.Value
		if t.Timestamp == in.lastTs[i] {
			continue
		}
		in.lastTs[i] = t.Timestamp
		if t.Source != telemetry.Measured {
			continue
		}
		// Entries consumed before every input had a value reached no
		// builder call, so the cursor may trail by many samples; values
		// are distinct within a cycle, so the first match is the sample.
		for k := in.cursor[i]; k < in.cursor[i]+len(s.vals); k++ {
			if s.val(k) == t.Value {
				in.cursor[i] = k + 1
				if int(in.pending.n) < len(in.pending.refs) {
					in.pending.refs[in.pending.n] = sampleRef{int32(s.idx), int32(k)}
					in.pending.n++
				}
				break
			}
		}
	}
	if !in.hasOut || sum != in.lastOut {
		in.mu.Lock()
		in.records = append(in.records, in.pending)
		in.derived++
		in.mu.Unlock()
		in.pending = record{}
	}
	in.lastOut, in.hasOut = sum, true
	return sum
}

// expect recomputes the builder over the last tuples the observer saw.
func (in *insight) expect() float64 {
	sum := 0.0
	for _, s := range in.srcs {
		sum += s.last.Value
	}
	return sum
}

// followInsight subscribes to the insight topic after its current tail and
// stamps, for each insight published from then on, the samples it is the
// first to reflect. The vertex must be idle: every record so far belongs
// to an entry at or before the tail.
func (o *observer) followInsight(bus stream.Bus, in *insight) error {
	tail, err := bus.Latest(o.ctx, string(in.id))
	if err != nil {
		return fmt.Errorf("insight %s tail: %w", in.id, err)
	}
	in.mu.Lock()
	if tail.ID != in.derived || len(in.records) != int(in.derived) {
		in.mu.Unlock()
		return fmt.Errorf("insight %s: %d entries for %d derivations", in.id, tail.ID, len(in.records))
	}
	in.records, in.head = in.records[:0], 0
	in.mu.Unlock()
	in.lastID = tail.ID
	ch, err := bus.Subscribe(o.ctx, string(in.id), tail.ID)
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", in.id, err)
	}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for e := range ch {
			o.insight(in, e, now())
		}
	}()
	return nil
}

func (o *observer) insight(in *insight, e stream.Entry, t int64) {
	r := o.run
	if e.ID != in.lastID+1 {
		r.fail.add("%s: insight entry id %d after %d", in.id, e.ID, in.lastID)
	}
	in.lastID = e.ID
	var info telemetry.Info
	if err := info.UnmarshalBinary(e.Payload); err != nil || info.Kind != telemetry.KindInsight {
		r.fail.add("%s: bad insight entry %d", in.id, e.ID)
		return
	}
	in.last = info
	in.mu.Lock()
	if in.head >= len(in.records) {
		in.mu.Unlock()
		r.fail.add("%s: insight %d has no derivation", in.id, e.ID)
		return
	}
	rec := in.records[in.head]
	in.head++
	if in.head > 1024 && in.head*2 > len(in.records) {
		n := copy(in.records, in.records[in.head:])
		in.records = in.records[:n]
		in.head = 0
	}
	in.mu.Unlock()
	for _, ref := range rec.refs[:rec.n] {
		s := r.srcs[ref.src]
		if i := int(ref.k) - r.warm; i >= 0 && i < len(s.ins) && s.ins[i] == 0 {
			s.ins[i] = t
		}
	}
}

// lane is one open-loop schedule a generator goroutine serves.
type lane interface {
	due() int64
	fire()
}

// sampleLane polls a set of sources on a fixed period; sources are ordered
// by phase so due times never decrease.
type sampleLane struct {
	run    *runState
	srcs   []*source
	period int64
	t0     int64
	s      int
}

// scheduled is the next sample's due time.
func (l *sampleLane) scheduled() int64 {
	n := len(l.srcs)
	return l.t0 + int64(l.s/n)*l.period + l.run.phase(l.srcs[l.s%n])
}

// due is when the next sample may be polled: its due time, or its
// source's horizon when a late poll before it pushed that past.
func (l *sampleLane) due() int64 {
	return max(l.scheduled(), l.srcs[l.s%len(l.srcs)].horizon)
}

func (l *sampleLane) fire() {
	src := l.srcs[l.s%len(l.srcs)]
	i := src.k - l.run.warm
	traced := l.run.tracing(l.scheduled())
	if traced && i >= 0 && i < len(src.call) {
		src.call[i] = now()
		src.poll()
		src.ret[i] = now()
	} else {
		src.poll()
	}
	l.s++
}

// runLanes serves lanes until the next due time reaches end. Every
// operation due so far is issued at each wake-up, earliest first, and the
// goroutine sleeps until the next one is due: timers wake about a
// millisecond late, so this batches by tick without spinning.
func runLanes(lanes []lane, end int64) {
	for {
		var best lane
		bestDue := int64(math.MaxInt64)
		for _, l := range lanes {
			if d := l.due(); d < bestDue {
				best, bestDue = l, d
			}
		}
		if best == nil || bestDue >= end {
			return
		}
		if n := now(); bestDue > n {
			time.Sleep(time.Duration(bestDue - n))
			continue
		}
		best.fire()
	}
}

// runClosed polls srcs round-robin as fast as the program returns, until
// end: the closed-loop peak phase. A source before its horizon is passed
// over until the next round.
func runClosed(srcs []*source, end int64) {
	for i := 0; ; i++ {
		t := now()
		if t >= end {
			return
		}
		if s := srcs[i%len(srcs)]; s.horizon <= t {
			s.poll()
		}
	}
}

// peakRate samples count every 100 ms until end and returns the upper
// quartile of the per-second rates over the intervals after the first,
// which ramps up: a stall, a GC cycle or host steal only ever lowers an
// interval's rate.
func peakRate(count func() int64, end int64) float64 {
	var rates []float64
	prev, at := count(), now()
	for now() < end {
		time.Sleep(100 * time.Millisecond)
		c, t := count(), now()
		rates = append(rates, float64(c-prev)/(float64(t-at)/1e9))
		prev, at = c, t
	}
	if len(rates) < 2 {
		return 0
	}
	rates = rates[1:]
	sort.Float64s(rates)
	return rates[len(rates)*3/4]
}
