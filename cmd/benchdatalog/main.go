// Command benchdatalog regenerates Figure 5 and Table 2 of the paper: it
// runs the two real-world-shaped Datalog workloads — a Doop-style
// var-points-to analysis (insertion heavy) and an EC2-style security
// vulnerability analysis (read heavy) — on the engine instantiated with
// each investigated relation data structure, sweeping the thread count.
//
// With -stats it additionally prints the Table 2 block (program
// properties, evaluation statistics) and the hint hit rates reported in
// §4.3 of the paper, for every structure under test. With -metrics it
// emits one JSON metrics document (DESIGN.md §9) per (threads, structure)
// cell, carrying the global observability counters and the per-engine
// evaluation metrics.
//
// -rounds repeats each cell's evaluation with fresh engines sharing a
// plan cache, exercising the compilation cache the way a long-lived
// service does.
//
// Usage:
//
//	benchdatalog [-workload both|pointsto|security|selective] [-size 256]
//	             [-threads 1,2,4,8] [-structs btree,btree-nh,...]
//	             [-rounds N] [-stats] [-metrics] [-csv] [-serve ADDR]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"specbtree/internal/bench"
	"specbtree/internal/cmdutil"
	"specbtree/internal/core"
	"specbtree/internal/datalog"
	"specbtree/internal/obs"
	"specbtree/internal/relation"
	"specbtree/internal/workload"
)

// liveEngine points at the engine of the cell currently evaluating,
// feeding the debug server's /debug/treeshape endpoint.
var liveEngine atomic.Pointer[datalog.Engine]

// liveShapes reports the live engine's relation tree shapes.
func liveShapes() map[string]core.Shape {
	if e := liveEngine.Load(); e != nil {
		return e.TreeShapes()
	}
	return nil
}

// figure5Structs is the paper's Figure 5 line-up.
var figure5Structs = []string{
	"btree", "btree-nh", "rbtset", "hashset", "gbtree", "tbbhash",
}

func main() {
	workloadFlag := flag.String("workload", "both", "workload: both|pointsto|security|selective")
	sizeFlag := flag.Int("size", 256, "workload scale parameter")
	threadsFlag := flag.String("threads", "1,2,4,8", "comma-separated thread counts (paper: 1..32)")
	structsFlag := flag.String("structs", strings.Join(figure5Structs, ","), "comma-separated relation providers")
	roundsFlag := flag.Int("rounds", 1, "evaluations per cell with fresh engines sharing a plan cache (rounds > 1 exercise cache hits)")
	statsFlag := flag.Bool("stats", false, "print Table 2 statistics and hint hit rates")
	metricsFlag := flag.Bool("metrics", false, "emit a JSON metrics document per (threads, structure) cell")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of tables")
	seedFlag := flag.Int64("seed", 1, "workload generator seed")
	suiteFlag := flag.Int("suite", 1, "number of seeded points-to instances summed per cell (the paper totals 11 DaCapo benchmarks)")
	serveFlag := flag.String("serve", "", "serve /metrics and the debug endpoints on this address (e.g. localhost:6060) for the duration of the run")
	flag.Parse()

	stopDebug, err := cmdutil.StartDebug(*serveFlag, liveShapes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopDebug()

	threads, err := bench.ParseIntList(*threadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var structs []string
	for _, s := range strings.Split(*structsFlag, ",") {
		structs = append(structs, strings.TrimSpace(s))
	}
	if *roundsFlag < 1 {
		fmt.Fprintln(os.Stderr, "-rounds must be at least 1")
		os.Exit(2)
	}

	// Each experiment row is a suite of workload instances whose runtimes
	// are summed — the paper's Figure 5a totals 11 DaCapo benchmarks.
	var suites [][]workload.DatalogWorkload
	if *workloadFlag == "both" || *workloadFlag == "pointsto" {
		var suite []workload.DatalogWorkload
		for k := 0; k < *suiteFlag; k++ {
			suite = append(suite, workload.PointsTo(*sizeFlag, *seedFlag+int64(k)))
		}
		suites = append(suites, suite)
	}
	if *workloadFlag == "both" || *workloadFlag == "security" {
		suites = append(suites, []workload.DatalogWorkload{workload.Security(*sizeFlag*4, *seedFlag)})
	}
	if *workloadFlag == "selective" {
		suites = append(suites, []workload.DatalogWorkload{workload.Selective(*sizeFlag*4, *seedFlag)})
	}
	if len(suites) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadFlag)
		os.Exit(2)
	}

	for _, suite := range suites {
		w := suite[0]
		var title string
		switch w.Name {
		case "security":
			title = "Figure 5b (EC2-style security analysis, read heavy)"
		case "selective":
			title = "Selective join (comparison pushdown, DESIGN.md §12)"
		default:
			title = "Figure 5a (Doop-style var-points-to, insertion heavy)"
		}
		if len(suite) > 1 {
			title += fmt.Sprintf(", total over %d instances", len(suite))
		}
		tbl := bench.NewTable(title, "threads", "runtime [ms]")
		// Last engine per series, so -stats can report every provider
		// (not only the specialised B-tree).
		statEngines := map[string]*datalog.Engine{}
		var statSeries []string
		for _, nt := range threads {
			for _, sname := range structs {
				provider, err := relation.Lookup(sname)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				if *metricsFlag {
					obs.Reset() // one counter window per table cell
				}
				// Fresh engines per round share this cache, so rounds
				// beyond the first hit the cached compilation.
				cache := datalog.NewPlanCache(len(suite) + 1)
				total := 0.0
				var engMetrics []datalog.Metrics
				for round := 0; round < *roundsFlag; round++ {
					engMetrics = engMetrics[:0]
					for _, inst := range suite {
						eng, ms := runOnce(inst, provider, nt, cache)
						total += ms
						if _, seen := statEngines[sname]; !seen {
							statSeries = append(statSeries, sname)
						}
						statEngines[sname] = eng
						if *metricsFlag {
							engMetrics = append(engMetrics, eng.Metrics())
						}
					}
				}
				tbl.SeriesNamed(sname).Add(float64(nt), total)
				if *metricsFlag {
					bench.EmitMetrics(os.Stdout, bench.MetricsDoc{
						Workload:  w.Name,
						Structure: sname,
						Threads:   nt,
						Engines:   engMetrics,
					})
				}
			}
		}
		if *csvFlag {
			fmt.Printf("# %s\n", title)
			tbl.RenderCSV(os.Stdout)
			fmt.Println()
		} else {
			tbl.Render(os.Stdout)
		}
		if *statsFlag {
			for _, series := range statSeries {
				printStats(w, series, statEngines[series])
			}
		}
	}
}

func runOnce(w workload.DatalogWorkload, p relation.Provider, threads int, cache *datalog.PlanCache) (*datalog.Engine, float64) {
	prog, err := datalog.Parse(w.Source)
	if err != nil {
		panic(err)
	}
	eng, err := datalog.New(prog, datalog.Options{Provider: p, Workers: threads, PlanCache: cache})
	if err != nil {
		panic(err)
	}
	liveEngine.Store(eng)
	for rel, facts := range w.Facts {
		if err := eng.AddFacts(rel, facts); err != nil {
			panic(err)
		}
	}
	d := bench.Measure(func() {
		if err := eng.Run(); err != nil {
			panic(err)
		}
	})
	// Sanity: outputs must be non-empty, or the workload degenerated.
	for _, out := range w.Outputs {
		if eng.Count(out) == 0 {
			fmt.Fprintf(os.Stderr, "warning: %s: output %s is empty\n", w.Name, out)
		}
	}
	return eng, float64(d.Milliseconds()) + float64(d.Microseconds()%1000)/1000
}

// printStats renders the Table 2 block for one (workload, structure)
// pair, using the statistics of the last engine run with that structure.
func printStats(w workload.DatalogWorkload, structure string, eng *datalog.Engine) {
	s := eng.Stats()
	fmt.Printf("### Table 2: properties and evaluation statistics (%s, %s)\n", w.Name, structure)
	fmt.Printf("%-24s %12d\n", "relations", s.Relations)
	fmt.Printf("%-24s %12d\n", "rules", s.Rules)
	fmt.Printf("%-24s %12d\n", "inserts", s.Inserts)
	fmt.Printf("%-24s %12d\n", "membership tests", s.MembershipTests)
	fmt.Printf("%-24s %12d\n", "lower_bound calls", s.LowerBoundCalls)
	fmt.Printf("%-24s %12d\n", "upper_bound calls", s.UpperBoundCalls)
	fmt.Printf("%-24s %12d\n", "input tuples", s.InputTuples)
	fmt.Printf("%-24s %12d\n", "produced tuples", s.ProducedTuples)
	fmt.Printf("%-24s %12d\n", "fixpoint iterations", s.Iterations)
	fmt.Printf("%-24s %11.1f%%\n", "hint hit rate", 100*s.HintRate())
	fmt.Printf("%-24s %12d\n", "iterator scans", s.StreamScans)
	fmt.Printf("%-24s %12d\n", "pushdown scans", s.PushdownScans)
	fmt.Printf("%-24s %12d\n", "iterator rows", s.StreamRows)
	fmt.Printf("%-24s %12d\n", "residual rows", s.ResidualRows)
	fmt.Printf("%-24s %6d/%d\n", "plan cache hit/miss", s.PlanCacheHits, s.PlanCacheMiss)
	var outs []string
	outs = append(outs, w.Outputs...)
	sort.Strings(outs)
	for _, o := range outs {
		fmt.Printf("%-24s %12d\n", "|"+o+"|", eng.Count(o))
	}
	fmt.Println()
}
