package score

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// TestArchiveStraddleUnderEviction runs Range and ScanRange over windows
// that straddle the ring/archive boundary while another goroutine keeps
// appending and evicting. Timestamps are 1, 2, 3, ... so the reference
// answer for [a, b] is every timestamp in it, once and in order, whichever
// side of the boundary each entry was on when the scan began.
func TestArchiveStraddleUnderEviction(t *testing.T) {
	log, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	const ring = 64
	h := queue.NewHistory(ring, func(i telemetry.Info) { _ = log.Append(i) })
	var newest atomic.Int64
	add := func(ts int64) {
		h.Append(telemetry.NewFact("m", ts, float64(ts)))
		newest.Store(ts)
	}
	for ts := int64(1); ts <= 4*ring; ts++ {
		add(ts)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ts := int64(4*ring + 1); ; ts++ {
			select {
			case <-stop:
				return
			default:
			}
			add(ts)
			if ts%ring == 0 {
				runtime.Gosched()
			}
		}
	}()

	misses := 0
	for i := 0; i < 300; i++ {
		oldest, _, _ := h.Bounds()
		a, b := oldest-ring/2, newest.Load()
		next := a
		check := func(in telemetry.Info) bool {
			if in.Timestamp != next {
				return false
			}
			next++
			return true
		}
		if i%2 == 0 {
			for _, in := range rangeWithArchive(h, log, a, b) {
				if !check(in) {
					break
				}
			}
		} else {
			scanWithArchive(h, log, a, b, check)
		}
		if next != b+1 {
			misses++
			if misses <= 3 {
				t.Errorf("window [%d, %d]: contiguous up to %d", a, b, next-1)
			}
		}
	}
	close(stop)
	<-done
	if misses > 0 {
		t.Fatalf("%d of 300 straddling scans disagree with the reference", misses)
	}
}
