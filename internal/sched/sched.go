// Package sched provides the adaptive timer scheduler Apollo uses to drive
// monitor hooks. It replaces libuv from the original implementation: a single
// event-loop goroutine multiplexes many timers on a min-heap, and each
// timer's interval can be re-programmed on every fire — the mechanism the
// adaptive/dynamic monitoring interval (§3.4.1) relies on.
package sched

import (
	"container/heap"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Callback runs when a timer fires. It receives the scheduled fire time and
// returns the next interval; returning 0 or less stops the timer. Callbacks
// run on the scheduler goroutine, so they must be short (hooks hand work to
// their vertex goroutine).
type Callback func(now time.Time) (next time.Duration)

// Clock abstracts time so benchmarks and the simulation harness can run the
// loop on virtual time. It is the minimal subset of sim.Clock the loop
// needs, so any sim.Clock (sim.Wall, *sim.Virtual) drives it.
type Clock interface {
	Now() time.Time
	// After returns a channel that delivers one tick after d.
	After(d time.Duration) <-chan time.Time
}

// timer is one scheduled callback.
type timer struct {
	id    uint64
	when  time.Time
	cb    Callback
	index int // heap index, -1 when removed
}

type timerHeap []*timer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].when.Before(h[j].when) }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *timerHeap) Push(x interface{}) { t := x.(*timer); t.index = len(*h); *h = append(*h, t) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// Loop is a timer event loop. Create with NewLoop, add timers, then Run (or
// RunAsync). Stop terminates the loop.
type Loop struct {
	clock Clock

	mu      sync.Mutex
	heap    timerHeap
	byID    map[uint64]*timer
	nextID  uint64
	wake    chan struct{}
	stopped chan struct{}
	done    chan struct{}
	running bool
	fired   uint64
	overdue uint64 // fires whose next deadline had already passed

	// Optional obs instruments (nil-safe no-ops when not instrumented).
	obsFires   *obs.Counter
	obsOverdue *obs.Counter
	obsRuntime *obs.Histogram
}

// NewLoop returns a loop driven by clock (nil means the real clock).
func NewLoop(clock Clock) *Loop {
	if clock == nil {
		clock = sim.Wall{}
	}
	return &Loop{
		clock:   clock,
		byID:    make(map[uint64]*timer),
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// ErrStopped is returned by Add after Stop.
var ErrStopped = errors.New("sched: loop stopped")

// Add schedules cb to first fire after d. It returns the timer id, usable
// with Cancel.
func (l *Loop) Add(d time.Duration, cb Callback) (uint64, error) {
	l.mu.Lock()
	select {
	case <-l.stopped:
		l.mu.Unlock()
		return 0, ErrStopped
	default:
	}
	l.nextID++
	id := l.nextID
	t := &timer{id: id, when: l.clock.Now().Add(d), cb: cb}
	heap.Push(&l.heap, t)
	l.byID[id] = t
	l.mu.Unlock()
	l.kick()
	return id, nil
}

// Cancel removes a timer. It reports whether the timer was still scheduled.
func (l *Loop) Cancel(id uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.byID[id]
	if !ok {
		return false
	}
	delete(l.byID, id)
	if t.index >= 0 {
		heap.Remove(&l.heap, t.index)
	}
	return true
}

// Fired returns the total number of callback invocations so far.
func (l *Loop) Fired() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fired
}

// Overdue returns how many reprogrammed deadlines had already passed when
// their callback returned (slow callbacks clamped by the fire-storm guard).
func (l *Loop) Overdue() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.overdue
}

// Instrument registers the loop's instruments on r: sched_fires_total,
// sched_overdue_fires_total, and the sched_callback_seconds runtime
// histogram. Call before Run.
func (l *Loop) Instrument(r *obs.Registry) {
	l.mu.Lock()
	l.obsFires = r.Counter("sched_fires_total")
	l.obsOverdue = r.Counter("sched_overdue_fires_total")
	l.obsRuntime = r.Histogram("sched_callback_seconds")
	l.mu.Unlock()
}

// Pending returns the number of scheduled timers.
func (l *Loop) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byID)
}

func (l *Loop) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// RunAsync starts Run on a new goroutine.
func (l *Loop) RunAsync() { go l.Run() }

// Run executes the event loop until Stop is called. It may be called once.
func (l *Loop) Run() {
	l.mu.Lock()
	if l.running {
		l.mu.Unlock()
		panic("sched: Run called twice")
	}
	l.running = true
	l.mu.Unlock()
	defer close(l.done)
	for {
		l.mu.Lock()
		now := l.clock.Now()
		// Fire everything due.
		for len(l.heap) > 0 && !l.heap[0].when.After(now) {
			t := heap.Pop(&l.heap).(*timer)
			if _, live := l.byID[t.id]; !live {
				continue // cancelled while queued
			}
			l.fired++
			l.obsFires.Inc()
			l.mu.Unlock()
			cbStart := l.clock.Now()
			next := t.cb(t.when)
			l.mu.Lock()
			// Refresh now AFTER the callback: comparing the reprogrammed
			// deadline against a stale pre-callback now let a slow callback
			// schedule into the past and spuriously re-fire immediately.
			now = l.clock.Now()
			l.obsRuntime.ObserveDuration(now.Sub(cbStart))
			if _, live := l.byID[t.id]; live {
				if next > 0 {
					t.when = t.when.Add(next)
					if t.when.Before(now) {
						// Never let a slow callback cause a fire storm.
						l.overdue++
						l.obsOverdue.Inc()
						t.when = now.Add(next)
					}
					heap.Push(&l.heap, t)
				} else {
					delete(l.byID, t.id)
				}
			}
		}
		var wait <-chan time.Time
		if len(l.heap) > 0 {
			d := l.heap[0].when.Sub(now)
			if d < 0 {
				d = 0
			}
			wait = l.clock.After(d)
		}
		l.mu.Unlock()

		select {
		case <-l.stopped:
			return
		case <-l.wake:
		case <-wait:
		}
	}
}

// Stop terminates the loop and waits for Run to return (when running).
func (l *Loop) Stop() {
	l.mu.Lock()
	select {
	case <-l.stopped:
		l.mu.Unlock()
		return
	default:
		close(l.stopped)
	}
	running := l.running
	l.mu.Unlock()
	if running {
		<-l.done
	}
}
