package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/workloads"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median and
	// the last one is measured.
	setups int
	// dir holds the run's archives and trace output.
	dir string
	// dropOne makes the observer swallow one delivery (self-test only).
	dropOne bool
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the figure
}

// report is what a run prints.
type report struct {
	e2e       []metric
	layers    []metric
	ladder    []metric
	attempted int
	failed    int
	digest    string
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, metric{name, v, unit, n})
}

func (r *report) layer(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layers = append(r.layers, metric{name, v, unit, 0})
}

// runState is shared by a workload's generator, observer and oracle.
type runState struct {
	cfg     config
	fail    failures
	dropOne atomic.Bool
	srcs    []*source
	ins     []*insight

	warm      int   // warm-up samples per source, polled during set-up
	period    int64 // per-source sampling period, ns
	fixedDur  int64 // length of the fixed-rate phase, ns
	t0        int64 // due time of sample warm (the first timed one)
	fixedEnd  int64
	peakEnd   int64
	traceFrom int64 // due time from which samples are traced
}

func (r *runState) phase(s *source) int64 { return int64(s.idx) * r.period / int64(len(r.srcs)) }

func (r *runState) tracing(due int64) bool { return due >= r.traceFrom }

// due is the due time of sample k of s in the fixed-rate phase.
func (r *runState) due(s *source, k int) int64 {
	return r.t0 + int64(k-r.warm)*r.period + r.phase(s)
}

// fixedSamples is how many samples per source the fixed-rate phase holds.
func (r *runState) fixedSamples() int {
	return int(r.fixedDur/r.period) + 2
}

// workload is one benchmark scenario.
type workload interface {
	// setup builds the system under test, warms it and returns once timing
	// may start; teardown undoes it.
	setup(r *runState) error
	teardown()
	// measure runs the fixed-rate and peak phases and the oracle, filling
	// the report.
	measure(r *runState, rep *report) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest-inproc":
		return &ingest{spec: inprocSpec}, nil
	case "ingest-fabric3":
		return &ingest{spec: fabricSpec}, nil
	case "query-fanout":
		return &fanout{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest-inproc, ingest-fabric3 or query-fanout)", name)
}

// deviceValues is metric i's seeded input: a SAR-style utilisation series
// from the workloads package's FIO-like device model, one of six metrics
// on one of three device classes.
func deviceValues(seed int64, i, n int) []float64 {
	m := workloads.SARMetrics()[i%len(workloads.SARMetrics())]
	class := []string{"nvme", "ssd", "hdd"}[(i/6)%3]
	return workloads.SARSeries(m, class, n, seed*1_000_003+int64(i))
}

// valuesPerSource is the length of each source's cyclic value table.
const valuesPerSource = 4096

// inputDigest hashes everything the program will receive for a seed.
func inputDigest(seed int64, sources int) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < sources; i++ {
		for _, v := range deviceValues(seed, i, valuesPerSource) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, k := range queryMix(seed, 1024) {
		h.Write([]byte{byte(k)})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// run executes one benchmark invocation and returns its report.
func run(cfg config) (*report, error) {
	baseGoroutines := runtime.NumGoroutine()
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{}
	var setupTimes []float64
	var r *runState
	for i := 0; i < cfg.setups; i++ {
		r = &runState{cfg: cfg, traceFrom: math.MaxInt64}
		r.dropOne.Store(cfg.dropOne)
		if err := os.RemoveAll(archiveDir(cfg)); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(r); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			w.teardown()
			if n := r.fail.count(); n > 0 {
				r.fail.report()
				return nil, fmt.Errorf("setup %d: %d oracle failures", i, n)
			}
		}
	}
	sort.Float64s(setupTimes)
	rep.add("setup_s", setupTimes[len(setupTimes)/2], "s", len(setupTimes))
	rep.digest = inputDigest(cfg.seed, len(r.srcs))
	merr := w.measure(r, rep)
	w.teardown()
	if err := os.RemoveAll(archiveDir(cfg)); err != nil && merr == nil {
		merr = err
	}
	// Every goroutine the run started must be gone once it is torn down.
	var extra int
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		extra = runtime.NumGoroutine() - baseGoroutines
		if extra <= 0 || time.Now().After(deadline) {
			break
		}
	}
	rep.layer("go.goroutines_after_stop", float64(extra), "count")
	if merr != nil {
		return nil, merr
	}
	rep.failed += r.fail.count()
	r.fail.report()
	if rep.attempted < 1 {
		rep.attempted = 1
	}
	rep.add("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	return rep, nil
}

// archiveDir holds the archive of one set-up; run empties it before each
// set-up, outside the timed part, and after the run.
func archiveDir(cfg config) string { return filepath.Join(cfg.dir, "archive") }

// waitUntil sleeps until the benchmark clock reaches t.
func waitUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
