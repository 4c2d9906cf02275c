package main

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyParams shrinks every size so that a whole traced run, every stage
// and the ladder included, takes a few seconds.
func tinyParams() params {
	p := defaultParams
	p.TreeN = [2]int{4_000, 8_000}
	p.TreeMinRep = 1
	p.PointsTo, p.Security, p.Selective = [2]int{256, 256}, [2]int{32, 32}, [2]int{256, 256}
	p.DatalogRep = [2]int{2, 2}
	p.ServePreload, p.DurablePreload, p.LeaderPreload = 5_000, 5_000, 5_000
	p.ProbeBudget = map[string]time.Duration{}
	for _, w := range workloads {
		p.ProbeBudget[w.Name] = 300 * time.Millisecond
	}
	p.SetupReps, p.MeasureReps = 1, 1
	p.IdleCalls, p.LadderCalls = 40, 40
	return p
}

// TestRunEmitsEveryDeclaredMetric runs the whole benchmark once, traced,
// at toy sizes: every stage must pass its own checks with no failed
// operation, and every name BENCHMARK.json declares must come out with a
// value.
func TestRunEmitsEveryDeclaredMetric(t *testing.T) {
	b := &bench{
		workload: wDurable, seed: 3, budget: 500 * time.Millisecond,
		procs: min(runtime.NumCPU(), 4), p: tinyParams(),
		tr: newTracer(), tmp: t.TempDir(), values: make(map[string]float64),
	}
	b.run()
	doc := b.document(1, b.budget.Seconds(), 0)
	for _, e := range doc.Errors {
		// Forty idle calls cannot hold the ladder's 15% agreement; at
		// real sizes the run enforces it.
		if !strings.HasPrefix(e, "ladder: top rung") {
			t.Errorf("check failed: %s", e)
		}
	}
	if doc.OpsFailed != 0 || doc.OpsAttempted < 1 {
		t.Errorf("%d of %d operations failed", doc.OpsFailed, doc.OpsAttempted)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := b.values[d.Name]; !ok {
			t.Errorf("metric %s was not measured", d.Name)
		}
	}
	for _, d := range endToEnd {
		if b.values[d.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, b.values[d.Name])
		}
	}
	if len(b.tr.spans) == 0 {
		t.Error("a traced run recorded no span")
	}
}
