// Command benchmark is the repository's one benchmark: it drives every
// layer (optlock, core, relation, datalog, serve, cluster, replica)
// through its public functions from one process and prints every metric
// by name with its unit. README.md in this directory is the manual.
//
//	go run ./benchmark --workload serve-mixed --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -compare a.json b.json
//
// Standard output ends with two JSON lines: the full result document
// (everything measured, plus the host envelope and sizes), then the
// driver's summary object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultDoc is the full result document of one run.
type resultDoc struct {
	Schema       string                 `json:"schema"`
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Trace        int                    `json:"trace"`
	Seconds      float64                `json:"seconds"`
	CPUs         int                    `json:"cpus"`
	GoMaxProcs   int                    `json:"gomaxprocs"`
	GoVersion    string                 `json:"go_version"`
	Params       params                 `json:"params"`
	WallS        float64                `json:"wall_s"`
	OpsAttempted int64                  `json:"ops_attempted"`
	OpsFailed    int64                  `json:"ops_failed"`
	Correct      bool                   `json:"correct"`
	Errors       []string               `json:"errors,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	// Extra holds measured values that are not declared metrics
	// (per-stage set-up parts, sample counts, achieved rates).
	Extra map[string]float64 `json:"extra,omitempty"`
}

const schema = "specbtree.benchmark.v1"

// bench is the state of one run, shared by the stages.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration // the focus stage's measuring window
	procs    int
	p        params
	tr       *tracer // nil when untraced
	tmp      string  // scratch directory for logs, inside the working directory

	values    map[string]float64 // every measured value by name
	setup     []float64          // set-up parts, summed into setup_s
	attempted atomic.Int64
	failed    atomic.Int64
	errs      []string // failed correctness checks
}

func (b *bench) traced() bool { return b.tr != nil }

// set records a measured value under a metric (or extra) name.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// fail records a failed correctness check; the run then exits non-zero.
func (b *bench) fail(format string, a ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, a...))
}

// size picks the focus or the probe value of a stage parameter.
func (b *bench) size(pair [2]int, focus bool) int {
	if focus {
		return pair[1]
	}
	return pair[0]
}

func main() { os.Exit(realMain()) }

// realMain is main with an exit status, so that its deferred clean-up
// (the scratch directory with every log in it) runs on every path.
func realMain() int {
	workload := flag.String("workload", wServe, "workload to run (see README.md)")
	seed := flag.Int64("seed", 1, "workload generator seed")
	seconds := flag.Float64("seconds", 10, "measuring window of the workload's own stage")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, the ladder and the tracing overhead")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace_event JSON to this file")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()

	if *compare {
		return runCompare(flag.Args(), os.Stdout)
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == *workload
	}
	if !known || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q, bad -seconds or stray arguments\n", *workload)
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// Pinned numbers used to say cpus: 1 because nothing set this.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	// Logs live under the working directory: the benchmark writes nowhere
	// else, and two runs never share a directory or a port.
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return fatal(err)
	}
	tmp, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		workload: *workload, seed: *seed, procs: procs, p: defaultParams, tmp: tmp,
		budget: time.Duration(*seconds * float64(time.Second)),
		values: make(map[string]float64),
	}
	if *trace != 0 {
		b.tr = newTracer()
	}
	start := time.Now()
	b.run()
	doc := b.document(*trace, *seconds, time.Since(start))
	if *traceOut != "" && b.tr != nil {
		if err := writeTraceFile(b.tr, *traceOut); err != nil {
			return fatal(err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(doc); err != nil {
		return fatal(err)
	}
	if !doc.Correct {
		for _, e := range doc.Errors {
			fmt.Fprintln(os.Stderr, "benchmark: check failed:", e)
		}
		return 1
	}
	// The driver's line: end-to-end metrics untraced, per-layer traced.
	declared := endToEnd
	if *trace != 0 {
		declared = perLayer
	}
	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{true, doc.OpsAttempted, doc.OpsFailed, make(map[string]metricValue)}
	for _, d := range declared {
		summary.Metrics[d.Name] = doc.Metrics[d.Name]
	}
	if err := enc.Encode(summary); err != nil {
		return fatal(err)
	}
	return 0
}

// scratchRoot holds every file a run creates; .gitignore names it.
const scratchRoot = ".bench_build"

func writeTraceFile(t *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// document assembles the result document. A declared metric the run did
// not produce is a bug in the benchmark and fails the run.
func (b *bench) document(trace int, seconds float64, wall time.Duration) resultDoc {
	doc := resultDoc{
		Schema: schema, Workload: b.workload, Seed: b.seed, Trace: trace, Seconds: seconds,
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Params: b.p, WallS: wall.Seconds(),
		OpsAttempted: b.attempted.Load(), OpsFailed: b.failed.Load(),
		Metrics: make(map[string]metricValue), Extra: make(map[string]float64),
	}
	declared := append([]metricDef(nil), endToEnd...)
	if trace != 0 {
		declared = append(declared, perLayer...)
	}
	isMetric := make(map[string]bool)
	for _, d := range declared {
		isMetric[d.Name] = true
		v, ok := b.values[d.Name]
		if !ok {
			b.fail("metric %s was not measured", d.Name)
		}
		doc.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name, v := range b.values {
		if !isMetric[name] {
			doc.Extra[name] = v
		}
	}
	if doc.OpsAttempted < 1 {
		b.fail("no operation attempted")
	}
	doc.Errors = b.errs
	doc.Correct = len(b.errs) == 0
	return doc
}
