package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

var workloadNames = []string{"ingest-inproc", "ingest-fabric3", "query-fanout"}

// TestInputDigest: one seed gives one input digest, another seed another.
func TestInputDigest(t *testing.T) {
	a, b := inputDigest(1, 64), inputDigest(1, 64)
	if a != b {
		t.Fatalf("seed 1 digests differ: %s vs %s", a, b)
	}
	if c := inputDigest(2, 64); c == a {
		t.Fatalf("seeds 1 and 2 share digest %s", a)
	}
}

// TestShortRuns runs every workload for about a second and checks that the
// oracle passes and that every end-to-end metric is printed by name with a
// unit and a sample count, then as a JSON line.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 7, seconds: 1, setups: 1, dir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			var out bytes.Buffer
			if err := print(&out, cfg, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, want := range append(endToEnd, "fail_ratio") {
				found := false
				for _, m := range rep.e2e {
					if m.name == want {
						found = true
						if m.unit == "" || m.n < 1 {
							t.Errorf("%s: unit %q, n=%d", want, m.unit, m.n)
						}
					}
				}
				if !found || !strings.Contains(out.String(), want) {
					t.Errorf("%s not reported", want)
				}
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("result %+v", res)
			}
		})
	}
}

// TestTracedRun checks the per-layer rows and the ladder of a traced run.
func TestTracedRun(t *testing.T) {
	cfg := config{workload: "ingest-fabric3", seed: 3, seconds: 2, setups: 1, dir: t.TempDir(), trace: true}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	spec := readSpec(t)
	names := map[string]bool{}
	for _, m := range rep.layers {
		names[m.name] = true
	}
	for _, m := range spec.PerLayer {
		if !names[m.Name] {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	if len(names) != len(spec.PerLayer) {
		t.Errorf("%d per-layer metrics reported, BENCHMARK.json lists %d", len(names), len(spec.PerLayer))
	}
	if len(rep.ladder) < 4 || rep.ladder[0].value <= 0 {
		t.Fatalf("ladder %+v", rep.ladder)
	}
}

type benchSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEndToEndListMatchesSpec keeps the JSON line and BENCHMARK.json in step.
func TestEndToEndListMatchesSpec(t *testing.T) {
	spec := readSpec(t)
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the JSON line %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s, JSON line %s", i, m.Name, endToEnd[i])
		}
	}
}

// TestOracleCatchesDroppedDelivery swallows one delivery in the observer:
// the run must count it as failed.
func TestOracleCatchesDroppedDelivery(t *testing.T) {
	cfg := config{workload: "ingest-fabric3", seed: 5, seconds: 1, setups: 1, dir: t.TempDir(), dropOne: true}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatal("a dropped delivery went unnoticed")
	}
	for _, m := range rep.e2e {
		if m.name == "fail_ratio" && m.value <= 0 {
			t.Fatalf("fail_ratio %v with %d failures", m.value, rep.failed)
		}
	}
}
