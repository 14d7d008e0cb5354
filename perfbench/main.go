// Command perfbench is FHDnn's benchmark: one command that runs a named
// workload from a seed, checks the program's outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end list, with --trace 1 the
// per-layer list (see metrics.go and BENCHMARK.json).
//
// Workloads (all in one process, at most GOMAXPROCS connections or
// workers):
//
//	ingest-paper  closed loop, 2 connections, paper-size envelope uploads
//	fleet-toy     open loop at a fixed session rate, toy model
//	fedtrain      in-process FHDnn training, no HTTP
//
// A traced run (--trace 1) first repeats the untraced measurement, then
// measures again with spans recorded at each module boundary, replays
// the workload's own updates through the codec and aggregation layers,
// writes the spans and per-layer self times under .bench_build/traces,
// and reports the per-layer metrics plus the tracing overhead.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload ingest-paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"fhdnn/internal/tensor"
)

// A run builds its workload from scratch at least minSetups times and
// until setups have taken minSetupTime, at most maxSetups times; setup_s
// is the median build, and the last build is the one measured.
const (
	minSetups    = 5
	minSetupTime = time.Second
	maxSetups    = 200
)

// pass is what one timed pass over a workload measured.
type pass struct {
	e2e      map[string]float64 // end-to-end metrics except setup_s
	layers   map[string]float64 // per-layer and workload-only figures
	ops      tally
	problems []string // failed correctness checks
	cost     float64  // the workload's cost per operation, for trace overhead
}

func newPass() *pass {
	return &pass{e2e: make(map[string]float64), layers: make(map[string]float64)}
}

// problemf records a failed check once, however often it fails.
func (p *pass) problemf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, m := range p.problems {
		if m == msg {
			return
		}
	}
	p.problems = append(p.problems, msg)
}

// workload is one benchmark scenario, built from a seed by its
// constructor.
type workload interface {
	// run measures the workload for about d; tr is nil when untraced.
	run(d time.Duration, tr *tracer) *pass
	// replay times the workload's layers call by call on its own inputs
	// (traced runs only).
	replay(tr *tracer, into map[string]float64) error
	// finish runs the checks that need every pass, and reports failures.
	finish() []string
	close()
}

var workloads = map[string]func(seed int64) (workload, error){
	"ingest-paper": newIngest,
	"fleet-toy":    newFleet,
	"fedtrain":     newFedtrain,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ingest-paper, fleet-toy or fedtrain")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "how long one pass measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Fprintf(stdout, "env go=%s goarch=%s num_cpu=%d gomaxprocs=%d tensor_workers=%d fast_kernels=%v\n",
		runtime.Version(), runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		tensor.Workers(), tensor.FastKernels())

	var w workload
	var setups []float64
	for began := time.Now(); len(setups) < maxSetups &&
		(len(setups) < minSetups || time.Since(began) < minSetupTime); {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		w, err = build(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set up %s: %v\n", *name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	d := time.Duration(*seconds) * time.Second
	var metrics map[string]float64
	var list []metricDef
	var ops tally
	var problems []string
	if *trace == 0 {
		p := w.run(d, nil)
		p.e2e["setup_s"] = median(setups)
		printFigures(stdout, "end-to-end", p.e2e, endToEnd)
		printFigures(stdout, "workload-only", p.layers, workloadOnly)
		metrics, list, ops, problems = p.e2e, endToEnd, p.ops, p.problems
	} else {
		base := w.run(d, nil)
		tr := newTracer()
		traced := w.run(d, tr)
		layers := traced.layers
		for k, v := range base.layers {
			layers[k] = v // counters come from the untraced pass
		}
		if err := w.replay(tr, layers); err != nil {
			traced.problemf("%v", err)
		}
		if base.cost > 0 {
			layers["trace.overhead_frac"] = traced.cost/base.cost - 1
		}
		path, err := tr.write(*traceDir, *name, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", path)
		fmt.Fprintln(stdout, "layer self time (ms), traced pass:")
		for _, lt := range selfTimes(tr.snapshot()) {
			fmt.Fprintf(stdout, "  %-32s spans=%-7d total=%.3f self=%.3f\n", lt.Name, lt.Spans, lt.TotalMs, lt.SelfMs)
		}
		printFigures(stdout, "per-layer", layers, perLayer)
		printFigures(stdout, "workload-only", layers, workloadOnly)
		metrics, list = layers, perLayer
		ops = base.ops
		ops.merge(traced.ops)
		problems = append(base.problems, traced.problems...)
	}
	problems = append(problems, w.finish()...)
	fmt.Fprintf(stdout, "operations attempted=%d failed=%d failed_frac=%.6f frac\n",
		ops.attempted, ops.failed, ops.failedFrac())
	for _, r := range ops.reasons {
		fmt.Fprintf(stdout, "  failure: %s\n", r)
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	if err := printResult(stdout, len(problems) == 0, ops, metrics, list); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// printFigures prints the figures of defs that vals holds, one per line.
func printFigures(w io.Writer, title string, vals map[string]float64, defs []metricDef) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// printResult writes the result line: every metric of list, which the
// workload must have measured.
func printResult(w io.Writer, correct bool, ops tally, vals map[string]float64, list []metricDef) error {
	res := result{Correct: correct, Attempted: ops.attempted, Failed: ops.failed,
		Metrics: make(map[string]resultMetric, len(list))}
	for _, d := range list {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("workload did not measure %s", d.Name)
		}
		res.Metrics[d.Name] = resultMetric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	buf, err := json.Marshal(&res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}
