// Command e2ebench is Apollo's end-to-end benchmark. It drives the observer
// only through its public Go API and its api/v1 HTTP edge, on one of three
// workloads, and checks every output against an oracle:
//
//	ingest-inproc   1024 device metrics on one node, in-process broker
//	ingest-fabric3  64 metrics on a three-node loopback fabric, replicas=3
//	query-fanout    HTTP queries and gateway fan-out over a preloaded node
//
// Each run prints the end-to-end metrics (untraced) or the per-layer
// metrics (--trace 1) by name, unit and sample count, and as its last line
// one JSON object {correct, attempted, failed, metrics}. A run whose oracle
// finds a lost, duplicated, reordered or wrong output exits non-zero.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload ingest-inproc --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// endToEnd lists the end-to-end metrics the JSON line carries, as in
// BENCHMARK.json. The tail figures, peak_ops_per_s and fail_ratio are
// printed with them; fail_ratio rides in the JSON as attempted and failed.
var endToEnd = []string{
	"setup_s", "fresh_p50_ms", "insight_fresh_p50_ms", "query_p50_ms", "cpu_cores", "heap_mb",
}

func main() {
	var (
		workloadName = flag.String("workload", "ingest-inproc", "ingest-inproc, ingest-fabric3 or query-fanout")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 10, "measured seconds: four fifths fixed-rate, one fifth peak")
		trace        = flag.Int("trace", 0, "1: trace the second half of the fixed-rate phase and print per-layer metrics")
		dir          = flag.String("dir", ".bench_run", "scratch directory for archives and trace output")
	)
	flag.Parse()
	setups := 3
	if *seconds < 3 {
		setups = 1
	}
	cfg := config{
		workload: *workloadName,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		setups:   setups,
		dir:      filepath.Join(*dir, *workloadName),
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := print(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// result is the JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table, then the JSON line.
func print(w io.Writer, cfg config, rep *report) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v inputs %s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.digest)
	for _, m := range rep.e2e {
		fmt.Fprintf(w, "%-24s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	if cfg.trace {
		fmt.Fprintln(w, "ladder (median sample, ms):")
		for _, m := range rep.ladder {
			fmt.Fprintf(w, "  %-22s %10.4f n=%d\n", m.name, m.value, m.n)
		}
		for _, m := range rep.layers {
			fmt.Fprintf(w, "%-36s %14.4f %s\n", m.name, m.value, m.unit)
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	} else {
		for _, name := range endToEnd {
			for _, m := range rep.e2e {
				if m.name == name {
					v := m.value
					if math.IsInf(v, 0) || math.IsNaN(v) {
						// A lost sample already failed the run; JSON has
						// no infinity.
						v = math.MaxFloat64
					}
					res.Metrics[name] = jsonMetric{v, m.unit}
				}
			}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
