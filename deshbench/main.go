// Command deshbench is Desh's end-to-end benchmark. One invocation runs
// one workload against the program's public packages in this process
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, alert
// latency, set-up time, live heap, detection quality); with -trace 1 the
// same workload runs with spans recorded around every public call it
// makes, followed by stage-by-stage replays of its own inputs through
// each layer, and the metrics are the per-layer ones. See README.md for
// the workloads, the metric definitions and the reference figures.
//
// Usage (from the repository root):
//
//	bash deshbench/run.sh -workload replay-durable -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// procs is the benchmark's CPU budget: one producer goroutine and at
// most two shards, peers or connections, on GOMAXPROCS 2.
const procs = 2

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: its seed and time budget, the
// tracer (off unless -trace 1), a scratch directory inside the
// checkout, and the sink for per-run diagnostics.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer
	dir     string
	diag    map[string]any
}

// workload runs one benchmark workload and returns its end-to-end
// metrics, its per-layer metrics (filled only when tracing), the
// operations attempted and failed, and every correctness violation.
type workload func(e *env) (*outcome, error)

// outcome is a workload's raw result before it is rendered.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]metric
	layers            map[string]metric
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]workload{
	"replay-durable": runReplayDurable,
	"early-warn":     runEarlyWarn,
	"router-fanout":  runRouterFanout,
}

func main() {
	name := flag.String("workload", "", "workload to run: replay-durable, early-warn or router-fanout")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed phases of one run last in total")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "deshbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "deshbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "deshbench: scratch dir: %v\n", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, seconds: *seconds, tr: newTracer(*trace == 1), dir: dir, diag: map[string]any{}}
	out, err := run(e)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deshbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "deshbench: CHECK FAILED: %s\n", p)
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if e.tr.on {
		// The traced run's own end-to-end figures: their gap to an
		// untraced run of the same seed is the tracing overhead.
		traced := map[string]float64{}
		for k, m := range out.e2e {
			traced[k] = round4(m.Value)
		}
		e.diag["end_to_end_traced"] = traced
		res.Metrics = out.layers
		if err := e.tr.write(filepath.Join(".bench_build", "traces"), *name, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "deshbench: writing spans: %v\n", err)
		}
		e.tr.printSelfTimes(os.Stderr)
	}
	diag, _ := json.Marshal(e.diag)
	fmt.Printf("diag %s\n", diag)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// median returns the middle value (mean of the middle two), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, 0 if empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

// round4 keeps diagnostics readable.
func round4(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 4, 64), 64)
	return v
}
