package gateway

import (
	"context"
	"runtime"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// publishN appends n tuples to metric on b.
func publishN(t *testing.T, b *stream.Broker, metric string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := telemetry.NewFact(telemetry.MetricID(metric), int64(i+1), float64(i)).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Publish(context.Background(), metric, p); err != nil {
			t.Fatal(err)
		}
	}
}

// expectStream reads tuple frames from sub until stream ID to, requiring
// exactly from, from+1, ..., to.
func expectStream(t *testing.T, sub *Subscriber, from, to uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for want := from; want <= to; want++ {
		fr, more := sub.Next(ctx)
		if !more || fr.Type != apiv1.FrameTuple {
			t.Fatalf("%s: want stream ID %d, got %+v more=%v", sub.Principal(), want, fr, more)
		}
		if fr.Tuple.StreamID != want {
			t.Fatalf("%s: stream ID %d, want %d", sub.Principal(), fr.Tuple.StreamID, want)
		}
	}
}

// expectFinal requires sub's next frame to be the given terminal frame.
func expectFinal(t *testing.T, sub *Subscriber, want apiv1.FrameType, code apiv1.Code) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fr, more := sub.Next(ctx)
	if more || fr.Type != want || fr.Error == nil || fr.Error.Code != code {
		t.Fatalf("%s: want terminal %s/%s, got %+v more=%v", sub.Principal(), want, code, fr, more)
	}
}

func attachT(t *testing.T, g *Gateway, ctx context.Context, principal, metric string, after uint64) *Subscriber {
	t.Helper()
	sub, err := g.Attach(ctx, principal, metric, after)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// feedOf returns the hub's open feed for metric, or nil.
func feedOf(g *Gateway, metric string) *feed {
	g.hub.mu.Lock()
	defer g.hub.mu.Unlock()
	return g.hub.feeds[metric]
}

// TestFeedResumePoints attaches subscribers behind, at and ahead of the
// feed's cursor and before the bus's retention, over both transports; each
// must see exactly the contiguous stream from its resume point.
func TestFeedResumePoints(t *testing.T) {
	for _, transport := range []string{"broker", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			b := stream.NewBroker(32)
			t.Cleanup(func() { b.Close() })
			var bus stream.Bus = b
			if transport == "tcp" {
				srv, err := stream.Serve(b, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				c, err := stream.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				bus = c
			}
			g := New(NewBusBackend(bus, 0), Config{QueueSize: 64})
			t.Cleanup(g.Close)
			ctx := context.Background()

			publishN(t, b, "m", 40) // IDs 1..40, 9..40 retained
			first := attachT(t, g, ctx, "first", "m", 40)
			publishN(t, b, "m", 10) // 41..50, 19..50 retained
			expectStream(t, first, 41, 50)
			f := feedOf(g, "m")
			f.mu.Lock()
			cursor := f.cursor
			f.mu.Unlock()
			if cursor != 50 {
				t.Fatalf("feed cursor %d, want 50", cursor)
			}

			behind := attachT(t, g, ctx, "behind", "m", 45)
			at := attachT(t, g, ctx, "at", "m", 50)
			ahead := attachT(t, g, ctx, "ahead", "m", 53)
			early := attachT(t, g, ctx, "before-retention", "m", 2)
			publishN(t, b, "m", 10) // 51..60

			expectStream(t, first, 51, 60)
			expectStream(t, behind, 46, 60)
			expectStream(t, at, 51, 60)
			expectStream(t, ahead, 54, 60)
			expectStream(t, early, 19, 60)
			if feedOf(g, "m") != f {
				t.Fatal("resuming subscribers opened a second feed")
			}
		})
	}
}

// TestFeedRestartsUndeliveredUpstream covers a resume point behind an
// upstream that has delivered nothing yet: the first subscriber resumed
// past the bus's head, so the entries the second one needs may not exist
// and cannot be backfilled; the feed reopens its upstream further back.
func TestFeedRestartsUndeliveredUpstream(t *testing.T) {
	f := newFixture(t, Config{QueueSize: 64})
	publishN(t, f.broker, "m", 5)
	ctx := context.Background()
	far := attachT(t, f.gw, ctx, "far", "m", 8)
	near := attachT(t, f.gw, ctx, "near", "m", 5)
	publishN(t, f.broker, "m", 6) // 6..11
	expectStream(t, near, 6, 11)
	expectStream(t, far, 9, 11)
}

// TestFeedBackfillOverflowEvicts resumes a subscriber further behind the
// cursor than its queue holds: it gets a queue's worth and then
// slow_consumer, and the feed's other subscriber is untouched.
func TestFeedBackfillOverflowEvicts(t *testing.T) {
	f := newFixture(t, Config{QueueSize: 4})
	ctx := context.Background()
	live := attachT(t, f.gw, ctx, "live", "m", 0)
	publishN(t, f.broker, "m", 4)
	expectStream(t, live, 1, 4)
	publishN(t, f.broker, "m", 4)
	expectStream(t, live, 5, 8)
	late := attachT(t, f.gw, ctx, "late", "m", 0)
	expectStream(t, late, 1, 4)
	expectFinal(t, late, apiv1.FrameError, apiv1.CodeSlowConsumer)
	publishN(t, f.broker, "m", 2)
	expectStream(t, live, 9, 10)
	if f.gw.Subscribers() != 1 {
		t.Fatalf("subscribers %d, want 1", f.gw.Subscribers())
	}
}

// TestFeedEvictionIsolated evicts one slow subscriber; the others on the
// same metric keep receiving everything.
func TestFeedEvictionIsolated(t *testing.T) {
	const queue = 4
	f := newFixture(t, Config{QueueSize: queue})
	ctx := context.Background()
	slow := attachT(t, f.gw, ctx, "slow", "m", 0)
	good := []*Subscriber{
		attachT(t, f.gw, ctx, "good-0", "m", 0),
		attachT(t, f.gw, ctx, "good-1", "m", 0),
	}
	for batch := uint64(0); batch < 4; batch++ {
		publishN(t, f.broker, "m", queue)
		for _, s := range good {
			expectStream(t, s, batch*queue+1, (batch+1)*queue)
		}
	}
	select {
	case fr := <-slow.Final():
		if fr.Type != apiv1.FrameError || fr.Error.Code != apiv1.CodeSlowConsumer {
			t.Fatalf("slow terminal frame %+v", fr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow subscriber not evicted")
	}
	for _, s := range good {
		if s.Evicted() {
			t.Fatalf("%s evicted", s.Principal())
		}
	}
	if n := f.gw.Subscribers(); n != len(good) {
		t.Fatalf("subscribers %d, want %d", n, len(good))
	}
}

// TestFeedLastDetachCancelsUpstream closes every subscriber of a metric:
// the feed and its upstream go away and the goroutine count returns to
// where it was; a later attach opens a fresh feed.
func TestFeedLastDetachCancelsUpstream(t *testing.T) {
	f := newFixture(t, Config{})
	publishN(t, f.broker, "m", 3)
	base := runtime.NumGoroutine()
	ctx := context.Background()
	subs := []*Subscriber{
		attachT(t, f.gw, ctx, "a", "m", 0),
		attachT(t, f.gw, ctx, "b", "m", 0),
	}
	old := feedOf(f.gw, "m")
	if old == nil {
		t.Fatal("no feed after attach")
	}
	for _, s := range subs {
		expectStream(t, s, 1, 3)
	}
	subs[0].Close()
	if feedOf(f.gw, "m") != old {
		t.Fatal("feed closed while a subscriber remained")
	}
	subs[1].Close()
	expectFinal(t, subs[1], apiv1.FrameGoaway, apiv1.CodeDraining)
	if feedOf(f.gw, "m") != nil {
		t.Fatal("feed still open after the last detach")
	}
	waitFor(t, "feed goroutines to exit", func() bool { return f.gw.hub.running.Load() == 0 })
	waitFor(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })

	again := attachT(t, f.gw, ctx, "again", "m", 1)
	if fresh := feedOf(f.gw, "m"); fresh == nil || fresh == old {
		t.Fatalf("later attach did not open a fresh feed")
	}
	expectStream(t, again, 2, 3)
	publishN(t, f.broker, "m", 1)
	expectStream(t, again, 4, 4)
}

// TestFeedContextCancelDetaches cancels the attach context: the subscriber
// ends with a goaway frame and leaves the hub.
func TestFeedContextCancelDetaches(t *testing.T) {
	f := newFixture(t, Config{})
	publishN(t, f.broker, "m", 1)
	ctx, cancel := context.WithCancel(context.Background())
	sub := attachT(t, f.gw, ctx, "p", "m", 0)
	stay := attachT(t, f.gw, context.Background(), "stay", "m", 0)
	expectStream(t, sub, 1, 1)
	cancel()
	select {
	case fr := <-sub.Final():
		if fr.Type != apiv1.FrameGoaway {
			t.Fatalf("terminal frame %+v, want goaway", fr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no goaway after the attach context ended")
	}
	waitFor(t, "detach", func() bool { return f.gw.Subscribers() == 1 })
	publishN(t, f.broker, "m", 1)
	expectStream(t, stay, 1, 2)
}

// TestFeedGoroutinesConstantInSubscribers attaches 100 subscribers to one
// metric: the fan-out adds the feed's goroutines, not any per subscriber.
func TestFeedGoroutinesConstantInSubscribers(t *testing.T) {
	f := newFixture(t, Config{})
	base := runtime.NumGoroutine()
	var subs []*Subscriber
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		subs = append(subs, attachT(t, f.gw, ctx, "p", "m", 0))
	}
	// The feed goroutine and the broker's forwarder; a little slack for
	// the runtime's own.
	if extra := runtime.NumGoroutine() - base; extra > 4 {
		t.Fatalf("100 subscribers added %d goroutines", extra)
	}
	publishN(t, f.broker, "m", 2)
	for _, s := range subs {
		expectStream(t, s, 1, 2)
	}
}
