package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/delphi"
	"repro/internal/telemetry"
)

func trainedModel(t *testing.T) *delphi.Model {
	t.Helper()
	m, err := delphi.Train(delphi.TrainOptions{Seed: 1, Epochs: 5, SeriesPerFeature: 2, SeriesLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestServicePredictAllBatched wires metrics into the default class's batch
// predictor and checks the sweep covers exactly the Delphi-enabled ones, by
// name.
func TestServicePredictAllBatched(t *testing.T) {
	s := New(Config{Delphi: trainedModel(t), DelphiBatch: 2})
	defer s.Stop()
	for _, id := range []telemetry.MetricID{"cap", "iops"} {
		if _, err := s.RegisterMetric(constHook(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.RegisterMetric(constHook("opaque", 1), WithoutDelphi()); err != nil {
		t.Fatal(err)
	}
	res := s.PredictAll()
	if len(res) != 2 {
		t.Fatalf("%d results, want 2 (WithoutDelphi metric must be excluded)", len(res))
	}
	want := map[telemetry.MetricID]bool{"cap": true, "iops": true}
	for _, r := range res {
		if !want[r.Metric] {
			t.Fatalf("unexpected metric %q in sweep", r.Metric)
		}
		delete(want, r.Metric)
		if r.OK {
			t.Fatalf("metric %q OK before any observations", r.Metric)
		}
	}
}

// TestServicePredictAllEndToEnd runs a polling service and waits for the
// batched sweep to produce a real forecast fed by vertex observations.
func TestServicePredictAllEndToEnd(t *testing.T) {
	cfg := fastAIMD()
	s := New(Config{
		Mode:        IntervalSimpleAIMD,
		Adaptive:    cfg,
		Delphi:      trainedModel(t),
		DelphiBatch: 2,
		BaseTick:    2 * time.Millisecond,
	})
	defer s.Stop()
	n := 0.0
	hook := hookFunc("trend", func() (float64, error) { n++; return 100 + n, nil })
	if _, err := s.RegisterMetric(hook); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range s.PredictAll() {
			if r.Metric == "trend" && r.OK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("batched sweep never produced a forecast")
}

func TestServicePredictAllDisabled(t *testing.T) {
	s := New(Config{})
	defer s.Stop()
	if s.PredictAll() != nil {
		t.Fatal("batching must be off without DelphiBatch")
	}
	// Untrained model: the batch lane stays off, the service still works.
	s2 := New(Config{Delphi: &delphi.Model{}, DelphiBatch: 4})
	defer s2.Stop()
	if _, err := s2.RegisterMetric(constHook("cap", 1)); err != nil {
		t.Fatal(err)
	}
	if s2.PredictAll() != nil {
		t.Fatal("no batch sweep may run for an untrained model")
	}
}

// TestServiceUnregisterLeavesSweep re-registers an unregistered metric and
// checks it is swept once, in its new registration position, and that the
// retrainer's dataset no longer reads the stopped vertex — with and without a
// registry.
func TestServiceUnregisterLeavesSweep(t *testing.T) {
	model := trainedModel(t)
	for _, tc := range []struct {
		name, registry, class string
	}{
		{"default", "", "default"},
		{"registry", t.TempDir(), "cap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Delphi: model, DelphiBatch: 2, DelphiRegistry: tc.registry})
			defer s.Stop()
			for _, id := range []telemetry.MetricID{"a.cap", "b.cap"} {
				v, err := s.RegisterMetric(constHook(id, 3))
				if err != nil {
					t.Fatal(err)
				}
				v.PollOnce()
			}
			if !s.Unregister("a.cap") {
				t.Fatal("a.cap not registered")
			}
			if _, err := s.RegisterMetric(constHook("a.cap", 3)); err != nil {
				t.Fatal(err)
			}
			var got []telemetry.MetricID
			for _, r := range s.PredictAll() {
				got = append(got, r.Metric)
			}
			if want := []telemetry.MetricID{"b.cap", "a.cap"}; !slices.Equal(got, want) {
				t.Fatalf("sweep %v, want %v", got, want)
			}
			// Only b.cap's vertex has measured history: the stopped a.cap
			// vertex is gone and its replacement has not polled yet.
			if segs := s.fleet.classes[tc.class].measuredSegments(); len(segs) != 1 {
				t.Fatalf("%d measured segments, want 1", len(segs))
			}
		})
	}
}
