// Command datalog is a stand-alone Datalog engine in the mould of Soufflé
// (paper §2): it parses a program, loads tab-separated fact files for the
// `.input` relations, evaluates the rules bottom-up in parallel, and
// writes the `.output` relations as tab-separated files.
//
// Usage:
//
//	datalog [-jobs N] [-facts DIR] [-out DIR] [-structure btree] [-stats]
//	        [-explain] [-analyze] [-trace FILE]
//	        [-metrics] [-serve ADDR] program.dl
//
// -explain prints the compiled evaluation plan — index assignment per
// atom, pushed-down comparisons, plan-cache status — and exits without
// evaluating. -analyze evaluates and then prints the plan annotated
// with per-node actual row counts (EXPLAIN ANALYZE, DESIGN.md §13).
// -trace forces a trace of the run and dumps it as Chrome trace_event
// JSON to FILE, so two runs' traces can be compared span by span.
//
// Fact files are DIR/<relation>.facts with one tuple per line, columns
// separated by tabs. Unsigned integer columns are used verbatim; any other
// token is interned as a symbol. Output relations are written to
// OUT/<relation>.csv (or stdout with -out "-").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"specbtree/internal/bench"
	"specbtree/internal/cmdutil"
	"specbtree/internal/core"
	"specbtree/internal/datalog"
	"specbtree/internal/obs"
	"specbtree/internal/relation"
	"specbtree/internal/tuple"
)

// liveEngine points at the engine currently evaluating, feeding the
// debug server's /debug/treeshape endpoint.
var liveEngine atomic.Pointer[datalog.Engine]

// liveShapes reports the live engine's relation tree shapes.
func liveShapes() map[string]core.Shape {
	if e := liveEngine.Load(); e != nil {
		return e.TreeShapes()
	}
	return nil
}

func main() {
	jobs := flag.Int("jobs", 0, "number of evaluation threads (0 = GOMAXPROCS)")
	factsDir := flag.String("facts", ".", "directory containing <relation>.facts input files")
	outDir := flag.String("out", "-", `output directory, or "-" for stdout`)
	structure := flag.String("structure", "btree", "relation data structure ("+strings.Join(relation.Names(), "|")+")")
	explain := flag.Bool("explain", false, "print the compiled evaluation plan and exit without evaluating")
	analyze := flag.Bool("analyze", false, "after evaluation, print the plan annotated with actual per-node row counts (EXPLAIN ANALYZE)")
	traceFile := flag.String("trace", "", "force-trace the evaluation and write Chrome trace_event JSON to FILE after the run")
	stats := flag.Bool("stats", false, "print evaluation statistics")
	metrics := flag.Bool("metrics", false, "emit a JSON metrics document to stderr after evaluation")
	profile := flag.Bool("profile", false, "print per-rule evaluation timings")
	emitGo := flag.String("emit-go", "", "synthesise a specialised Go program to FILE instead of evaluating (Soufflé-style compilation)")
	serve := flag.String("serve", "", "serve /metrics and the debug endpoints on this address (e.g. localhost:6060) for the duration of the run")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: datalog [flags] program.dl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *emitGo != "" {
		if err := synthesize(flag.Arg(0), *emitGo); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *explain {
		if err := explainProgram(flag.Arg(0), *structure); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	stopDebug, err := cmdutil.StartDebug(*serve, liveShapes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopDebug()
	if err := run(flag.Arg(0), *jobs, *factsDir, *outDir, *structure, *stats, *metrics, *profile, *analyze, *traceFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// explainProgram compiles the program (through the plan cache, so the
// printed cache status is real) and prints the plan without evaluating.
func explainProgram(progPath, structure string) error {
	src, err := os.ReadFile(progPath)
	if err != nil {
		return err
	}
	prog, err := datalog.Parse(string(src))
	if err != nil {
		return err
	}
	provider, err := relation.Lookup(structure)
	if err != nil {
		return err
	}
	eng, err := datalog.New(prog, datalog.Options{Provider: provider})
	if err != nil {
		return err
	}
	fmt.Print(eng.Explain())
	return nil
}

// synthesize compiles the program to a specialised Go source file, the
// analogue of Soufflé's C++ synthesis. The output must be built inside
// this module (it imports specbtree/internal/core).
func synthesize(progPath, outPath string) error {
	src, err := os.ReadFile(progPath)
	if err != nil {
		return err
	}
	prog, err := datalog.Parse(string(src))
	if err != nil {
		return err
	}
	eng, err := datalog.New(prog, datalog.Options{})
	if err != nil {
		return err
	}
	gen, err := eng.SynthesizeGo()
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, gen, 0o644)
}

func run(progPath string, jobs int, factsDir, outDir, structure string, stats, metrics, profile, analyze bool, traceFile string) error {
	src, err := os.ReadFile(progPath)
	if err != nil {
		return err
	}
	prog, err := datalog.Parse(string(src))
	if err != nil {
		return err
	}
	provider, err := relation.Lookup(structure)
	if err != nil {
		return err
	}
	var trace obs.TraceID
	if traceFile != "" {
		if trace = obs.ForceTrace(); trace == 0 {
			fmt.Fprintln(os.Stderr, "warning: -trace writes an empty trace: observability is compiled out (obsoff)")
		}
	}
	eng, err := datalog.New(prog, datalog.Options{Provider: provider, Workers: jobs, TraceID: trace})
	if err != nil {
		return err
	}
	liveEngine.Store(eng)

	for _, in := range prog.Inputs {
		decl, _ := prog.Decl(in)
		path := filepath.Join(factsDir, in+".facts")
		if err := loadFacts(eng, in, decl.Arity, path); err != nil {
			return err
		}
	}

	d := bench.Measure(func() { err = eng.Run() })
	if err != nil {
		return err
	}

	for _, out := range prog.Outputs {
		if err := writeRelation(eng, out, outDir); err != nil {
			return err
		}
	}
	if stats {
		s := eng.Stats()
		fmt.Fprintf(os.Stderr, "evaluation time:   %v (%d threads)\n", d, eng.Workers())
		fmt.Fprintf(os.Stderr, "relations/rules:   %d/%d\n", s.Relations, s.Rules)
		fmt.Fprintf(os.Stderr, "inserts:           %d\n", s.Inserts)
		fmt.Fprintf(os.Stderr, "membership tests:  %d\n", s.MembershipTests)
		fmt.Fprintf(os.Stderr, "lower/upper bound: %d/%d\n", s.LowerBoundCalls, s.UpperBoundCalls)
		fmt.Fprintf(os.Stderr, "input tuples:      %d\n", s.InputTuples)
		fmt.Fprintf(os.Stderr, "produced tuples:   %d\n", s.ProducedTuples)
		fmt.Fprintf(os.Stderr, "hint hit rate:     %.1f%%\n", 100*s.HintRate())
		fmt.Fprintf(os.Stderr, "iterator scans:    %d (%d pushdown-tightened)\n", s.StreamScans, s.PushdownScans)
		fmt.Fprintf(os.Stderr, "iterator rows:     %d (%d residual-rejected)\n", s.StreamRows, s.ResidualRows)
		fmt.Fprintf(os.Stderr, "plan cache:        %d hit / %d miss\n", s.PlanCacheHits, s.PlanCacheMiss)
	}
	if profile {
		fmt.Fprintln(os.Stderr, "rule profile (most expensive first):")
		for _, rt := range eng.Profile() {
			fmt.Fprintf(os.Stderr, "  %10v  %6d evals  %s\n", rt.Total, rt.Evaluations, rt.Rule)
		}
	}
	if analyze {
		fmt.Fprint(os.Stderr, eng.ExplainAnalyze())
	}
	if traceFile != "" {
		if err := writeTrace(traceFile); err != nil {
			return err
		}
	}
	if metrics {
		// Relations go to stdout; the metrics document goes to stderr so
		// the two streams stay separable.
		if err := bench.EmitMetrics(os.Stderr, bench.MetricsDoc{
			Workload:  filepath.Base(progPath),
			Structure: structure,
			Threads:   eng.Workers(),
			Engines:   []datalog.Metrics{eng.Metrics()},
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace dumps the retained spans as Chrome trace_event JSON.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadFacts(eng *datalog.Engine, rel string, arity int, path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "warning: no facts file for %s (%s)\n", rel, path)
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	t := make(tuple.Tuple, arity)
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r\n")
		if line == "" {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) != arity {
			return fmt.Errorf("%s:%d: %d columns, relation %s has arity %d",
				path, lineNo, len(cols), rel, arity)
		}
		for i, c := range cols {
			if v, err := strconv.ParseUint(c, 10, 64); err == nil {
				t[i] = v
			} else {
				t[i] = eng.Symbols().Intern(c)
			}
		}
		if err := eng.AddFact(rel, t); err != nil {
			return fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
	}
	return sc.Err()
}

func writeRelation(eng *datalog.Engine, rel, outDir string) error {
	var w *bufio.Writer
	if outDir == "-" {
		fmt.Printf("--- %s (%d tuples) ---\n", rel, eng.Count(rel))
		w = bufio.NewWriter(os.Stdout)
	} else {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, rel+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	err := eng.Scan(rel, func(t tuple.Tuple) bool {
		for i, v := range t {
			if i > 0 {
				w.WriteByte('\t')
			}
			fmt.Fprintf(w, "%d", v)
		}
		w.WriteByte('\n')
		return true
	})
	if err != nil {
		return err
	}
	return w.Flush()
}
