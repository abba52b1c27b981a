package gateway

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// hub owns every live subscription, grouped into one feed per metric. The
// first attach on a metric opens a single upstream bus subscription; the
// feed's goroutine decodes each entry once into a read-only frame and
// enqueues it, without ever blocking, into every attached subscriber's
// bounded send queue. A full queue means that client fell behind its
// budget: it alone is evicted with a slow_consumer error frame instead of
// exerting unbounded memory pressure or backpressure on the fan-out, and
// the other subscribers of the metric never notice. The last detach cancels
// the upstream, so a metric nobody watches costs the bus nothing. That is
// the backpressure contract of the public edge: well-behaved clients see
// every tuple in order; slow ones are cut loose at a known queue depth.
//
// Lock order: hub.mu before feed.mu.
type hub struct {
	backend   Backend
	queueSize int

	mu    sync.Mutex
	feeds map[string]*feed // open feeds by metric

	subs    atomic.Int64 // attached subscribers across all feeds
	running atomic.Int64 // feed goroutines that have not exited yet

	obsSubscribers *obs.Gauge
	obsAttached    *obs.Counter
	obsEvicted     *obs.Counter
	obsFrames      *obs.Counter
}

func newHub(backend Backend, queueSize int, r *obs.Registry) *hub {
	return &hub{
		backend:        backend,
		queueSize:      queueSize,
		feeds:          make(map[string]*feed),
		obsSubscribers: r.Gauge("gateway_subscribers"),
		obsAttached:    r.Counter("gateway_subscriptions_total"),
		obsEvicted:     r.Counter("gateway_evictions_total"),
		obsFrames:      r.Counter("gateway_frames_sent_total"),
	}
}

// feed is one metric's shared upstream subscription and the subscribers it
// serves.
type feed struct {
	hub    *hub
	metric string

	mu     sync.Mutex
	subs   []*Subscriber
	cancel context.CancelFunc // ends the current upstream
	gen    uint64             // current upstream; an older one's goroutine delivers nothing
	cursor uint64             // ID of the last entry delivered, or the upstream's start
	seen   bool               // the current upstream has delivered an entry
	closed bool               // no subscribers left; a later attach opens a fresh feed
}

// Subscriber is one attached live-stream consumer, transport-agnostic: the
// WS and SSE handlers drain it onto their connections, and the load
// scenario drains it directly.
type Subscriber struct {
	principal string
	metric    string
	feed      *feed

	frames chan apiv1.Frame // bounded send queue
	final  chan apiv1.Frame // capacity 1: eviction or goaway notice

	// Guarded by feed.mu.
	skip uint64      // entries up to this ID are not delivered
	idx  int         // position in feed.subs, -1 once detached
	stop func() bool // unregisters the attach-context hook

	sent    atomic.Uint64
	evicted atomic.Bool
	once    sync.Once
}

// attach joins a new subscriber to its metric's feed, opening the feed on
// the first attach. Cancelling ctx detaches the subscriber with a goaway
// frame.
func (h *hub) attach(ctx context.Context, principal, metric string, afterID uint64) (*Subscriber, error) {
	s := &Subscriber{
		principal: principal,
		metric:    metric,
		frames:    make(chan apiv1.Frame, h.queueSize),
		final:     make(chan apiv1.Frame, 1),
		skip:      afterID,
		idx:       -1,
	}
	f := h.feedFor(metric)
	s.feed = f
	err := f.joinLocked(ctx, s)
	closed := false
	if len(f.subs) == 0 {
		f.closeLocked()
		closed = true
	}
	f.mu.Unlock()
	if closed {
		h.forget(f)
	}
	if err != nil {
		return nil, err
	}
	h.obsAttached.Inc()
	return s, nil
}

// feedFor returns metric's open feed, creating it if needed, with its lock
// held.
func (h *hub) feedFor(metric string) *feed {
	h.mu.Lock()
	defer h.mu.Unlock()
	if f := h.feeds[metric]; f != nil {
		f.mu.Lock()
		if !f.closed {
			return f
		}
		f.mu.Unlock()
	}
	f := &feed{hub: h, metric: metric}
	f.mu.Lock()
	h.feeds[metric] = f
	return f
}

// forget drops a closed feed from the index unless a fresh one replaced it.
func (h *hub) forget(f *feed) {
	h.mu.Lock()
	if h.feeds[f.metric] == f {
		delete(h.feeds, f.metric)
	}
	h.mu.Unlock()
}

func (h *hub) size() int { return int(h.subs.Load()) }

// drain ends every live subscription with a goaway frame and cancels the
// upstreams, then waits (bounded by ctx) for the feed goroutines to unwind
// so the caller can close the backend without racing in-flight deliveries.
func (h *hub) drain(ctx context.Context) {
	for {
		h.mu.Lock()
		feeds := make([]*feed, 0, len(h.feeds))
		for _, f := range h.feeds {
			feeds = append(feeds, f)
		}
		h.mu.Unlock()
		for _, f := range feeds {
			f.mu.Lock()
			f.endLocked()
			f.mu.Unlock()
			h.forget(f)
		}
		if len(feeds) == 0 && h.running.Load() == 0 {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// joinLocked adds s to the feed. The first subscriber opens the upstream at
// its resume point; so does one resuming behind a start the upstream has
// not delivered from yet. A resume point behind entries already delivered
// is backfilled from the backend, at most a queue's worth: a subscriber
// further behind is evicted as soon as the backfill fills its queue.
func (f *feed) joinLocked(ctx context.Context, s *Subscriber) error {
	switch {
	case f.cancel == nil, !f.seen && s.skip < f.cursor:
		if err := f.openLocked(s.skip); err != nil {
			return err
		}
	case s.skip < f.cursor:
		fits, err := f.backfillLocked(ctx, s)
		if err != nil {
			return err
		}
		if !fits {
			s.evict()
			return nil
		}
	}
	s.idx = len(f.subs)
	f.subs = append(f.subs, s)
	f.hub.obsSubscribers.Set(float64(f.hub.subs.Add(1)))
	s.stop = context.AfterFunc(ctx, func() { s.detach() })
	return nil
}

// openLocked (re)starts the upstream after afterID. An upstream it replaces
// has delivered nothing, so every subscriber's skip cursor already excludes
// what the new one repeats.
func (f *feed) openLocked(afterID uint64) error {
	uctx, cancel := context.WithCancel(context.Background())
	ch, err := f.hub.backend.Subscribe(uctx, f.metric, afterID)
	if err != nil {
		cancel()
		return err
	}
	if f.cancel != nil {
		f.cancel()
	}
	f.cancel, f.cursor, f.seen = cancel, afterID, false
	f.gen++
	f.hub.running.Add(1)
	go f.run(ch, f.gen)
	return nil
}

// backfillLocked queues the entries between s's resume point and the
// feed's cursor and moves s.skip to the cursor. It reports false when they
// do not all fit in the queue.
func (f *feed) backfillLocked(ctx context.Context, s *Subscriber) (bool, error) {
	es, err := f.hub.backend.ConsumeBatch(ctx, f.metric, s.skip, cap(s.frames))
	if err != nil {
		return false, err
	}
	for _, e := range es {
		if e.ID > f.cursor {
			break // the upstream delivers the rest
		}
		if fr, ok := decodeFrame(e); ok {
			s.frames <- fr
			s.sent.Add(1)
			f.hub.obsFrames.Inc()
		}
	}
	s.skip = f.cursor
	return len(es) < cap(s.frames) || es[len(es)-1].ID >= f.cursor, nil
}

// run delivers one upstream's entries until it ends or is replaced.
func (f *feed) run(ch <-chan stream.Entry, gen uint64) {
	defer f.hub.running.Add(-1)
	for e := range ch {
		fr, ok := decodeFrame(e)
		f.mu.Lock()
		if f.gen != gen {
			f.mu.Unlock()
			return
		}
		f.cursor, f.seen = e.ID, true
		if ok {
			f.fanoutLocked(e.ID, fr)
		}
		closed := f.closed
		f.mu.Unlock()
		if closed {
			f.hub.forget(f)
			return
		}
	}
	// The upstream ended by itself (e.g. the broker closed).
	f.mu.Lock()
	current := f.gen == gen
	if current {
		f.endLocked()
	}
	f.mu.Unlock()
	if current {
		f.hub.forget(f)
	}
}

// fanoutLocked enqueues one frame into every subscriber past its skip
// cursor, evicting any whose queue is full; evicting the last one closes
// the feed.
func (f *feed) fanoutLocked(id uint64, fr apiv1.Frame) {
	n := 0
	// Backwards, so dropLocked's swap-remove only moves visited entries.
	for i := len(f.subs) - 1; i >= 0; i-- {
		s := f.subs[i]
		if id <= s.skip {
			continue
		}
		select {
		case s.frames <- fr:
			s.sent.Add(1)
			n++
		default:
			f.dropLocked(s)
			s.evict()
		}
	}
	f.hub.obsFrames.Add(uint64(n))
}

// dropLocked detaches s, closing the feed when s was its last subscriber.
func (f *feed) dropLocked(s *Subscriber) {
	last := len(f.subs) - 1
	moved := f.subs[last]
	f.subs[s.idx], moved.idx = moved, s.idx
	f.subs[last] = nil
	f.subs = f.subs[:last]
	s.idx = -1
	s.stop()
	f.hub.obsSubscribers.Set(float64(f.hub.subs.Add(-1)))
	if len(f.subs) == 0 {
		f.closeLocked()
	}
}

// endLocked detaches every subscriber with a goaway frame, which closes the
// feed (an open feed always has a subscriber).
func (f *feed) endLocked() {
	for len(f.subs) > 0 {
		s := f.subs[len(f.subs)-1]
		f.dropLocked(s)
		s.goaway()
	}
}

// closeLocked cancels the upstream and retires the feed; the caller then
// forgets it.
func (f *feed) closeLocked() {
	if f.cancel != nil {
		f.cancel()
	}
	f.gen++
	f.closed = true
}

// decodeFrame renders one bus entry as a tuple frame, reporting false for a
// foreign payload on the topic (not part of the contract).
func decodeFrame(e stream.Entry) (apiv1.Frame, bool) {
	var in telemetry.Info
	if err := in.UnmarshalBinary(e.Payload); err != nil {
		return apiv1.Frame{}, false
	}
	return apiv1.Frame{Type: apiv1.FrameTuple, Tuple: tupleFromInfo(in, e.ID)}, true
}

// detach removes the subscriber from its feed and queues a goaway frame,
// unless it already ended.
func (s *Subscriber) detach() {
	f := s.feed
	f.mu.Lock()
	attached := s.idx >= 0
	if attached {
		f.dropLocked(s)
	}
	closed := f.closed
	f.mu.Unlock()
	if attached && closed {
		f.hub.forget(f)
	}
	s.goaway()
}

// evict marks the subscriber slow and queues its terminal error frame.
func (s *Subscriber) evict() {
	s.once.Do(func() {
		s.evicted.Store(true)
		s.feed.hub.obsEvicted.Inc()
		s.final <- apiv1.Frame{Type: apiv1.FrameError, Error: apiv1.Errorf(
			apiv1.CodeSlowConsumer, true,
			"subscriber for %q overflowed its %d-frame send queue", s.metric, cap(s.frames))}
	})
}

// goaway queues the graceful-shutdown terminal frame.
func (s *Subscriber) goaway() {
	s.once.Do(func() {
		s.final <- apiv1.Frame{Type: apiv1.FrameGoaway, Error: apiv1.Errorf(
			apiv1.CodeDraining, true, "subscription closed by server")}
	})
}

// Next returns the next frame to deliver, preferring queued tuples so a
// terminal frame never jumps ahead of data already accepted into the queue.
// The second result is false when the subscription is over: the caller
// writes the returned terminal frame (if any) and closes its transport. A
// false result with an empty frame means ctx ended first.
//
// Every subscriber of a metric receives the same *apiv1.Tuple for a given
// entry: tuple frames are read-only.
func (s *Subscriber) Next(ctx context.Context) (apiv1.Frame, bool) {
	select {
	case f := <-s.frames:
		return f, true
	default:
	}
	select {
	case f := <-s.frames:
		return f, true
	case f := <-s.final:
		return f, false
	case <-ctx.Done():
		return apiv1.Frame{}, false
	}
}

// Frames exposes the bounded send queue (load-scenario fast path). Its
// tuple frames share one read-only *apiv1.Tuple per entry with every other
// subscriber of the metric.
func (s *Subscriber) Frames() <-chan apiv1.Frame { return s.frames }

// Final exposes the terminal-frame channel (load-scenario fast path).
func (s *Subscriber) Final() <-chan apiv1.Frame { return s.final }

// Evicted reports whether the subscriber was cut loose as a slow consumer.
func (s *Subscriber) Evicted() bool { return s.evicted.Load() }

// Sent reports how many tuple frames were accepted into the send queue.
func (s *Subscriber) Sent() uint64 { return s.sent.Load() }

// Principal returns the authenticated principal that attached this
// subscriber.
func (s *Subscriber) Principal() string { return s.principal }

// Close detaches the subscriber (client went away).
func (s *Subscriber) Close() { s.detach() }
