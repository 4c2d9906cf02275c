package datalog

import (
	"strings"
	"sync/atomic"
	"testing"

	"specbtree/internal/obs"
)

// analyzeTestSrc is a deterministic program exercising every scan-node
// flavour EXPLAIN ANALYZE annotates: a recursive rule (delta scans over
// several rounds), a comparison pushed into scan bounds, and a residual
// check that rejects rows after the pull.
const analyzeTestSrc = `
.decl edge(x: number, y: number)
.decl path(x: number, y: number)
.decl far(y: number)
.output path
.output far
edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(5, 6).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
far(Y) :- path(1, Y), Y > 3.
`

// actualTotals sums the per-node EXPLAIN ANALYZE accumulators of every
// compiled scan node.
func actualTotals(e *Engine) (scans, rows, emitted uint64) {
	for _, plans := range e.plans {
		for _, p := range plans {
			for i := range p.body {
				l := &p.body[i]
				if l.kind != LitAtom {
					continue
				}
				scans += atomic.LoadUint64(&l.actScans)
				rows += atomic.LoadUint64(&l.actRows)
				emitted += atomic.LoadUint64(&l.actEmitted)
			}
		}
	}
	return scans, rows, emitted
}

// TestExplainAnalyzeMatchesStats pins the exactness contract: the
// per-node actuals summed across the plan agree exactly with the
// engine's aggregate streaming Stats, for single- and multi-worker runs.
func TestExplainAnalyzeMatchesStats(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng, err := New(mustParse(t, analyzeTestSrc), Options{Workers: workers, NoPlanCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		scans, rows, emitted := actualTotals(eng)
		if scans != st.StreamScans || rows != st.StreamRows {
			t.Errorf("workers=%d: actuals scans=%d rows=%d, stats scans=%d rows=%d",
				workers, scans, rows, st.StreamScans, st.StreamRows)
		}
		// Every pulled row either passed the residual actions or was
		// counted residual (the splitter partitioning keeps all pulls on
		// the chain path, where the identity is exact).
		if rows != emitted+st.ResidualRows {
			t.Errorf("workers=%d: rows=%d != emitted=%d + residual=%d",
				workers, rows, emitted, st.ResidualRows)
		}
		out := eng.ExplainAnalyze()
		if !strings.Contains(out, "actual scans=") {
			t.Fatalf("ExplainAnalyze lacks actuals:\n%s", out)
		}
		if !strings.Contains(out, "evals=") {
			t.Fatalf("ExplainAnalyze lacks per-rule timing:\n%s", out)
		}
	}
}

// TestExplainAnalyzeFreshAfterPlanCacheHit pins that binding a cached
// compilation starts from zero actuals: the second engine's totals
// reflect only its own run.
func TestExplainAnalyzeFreshAfterPlanCacheHit(t *testing.T) {
	cache := NewPlanCache(4)
	var want [2]uint64
	for i := 0; i < 2; i++ {
		eng, err := New(mustParse(t, analyzeTestSrc), Options{Workers: 2, PlanCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		_, rows, _ := actualTotals(eng)
		if rows != eng.Stats().StreamRows {
			t.Fatalf("run %d: actual rows=%d, stats rows=%d", i, rows, eng.Stats().StreamRows)
		}
		want[i] = rows
	}
	if want[1] != want[0] {
		t.Fatalf("cache-hit run pulled %d rows, first run %d (stale actuals carried across?)", want[1], want[0])
	}
}

// TestEngineRunSpans pins the engine's span emission: a forced trace
// threaded through Options yields engine.round, engine.rule and
// iter.scan spans sharing that trace, with scans parented to rule spans
// and rule spans of fixpoint rounds parented to their round span.
func TestEngineRunSpans(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability compiled out")
	}
	obs.ResetTrace()
	trace := obs.ForceTrace()
	eng, err := New(mustParse(t, analyzeTestSrc), Options{Workers: 2, TraceID: trace, NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	spans := obs.Spans()
	bySite := map[string][]obs.Span{}
	ids := map[obs.SpanID]obs.Span{}
	for _, s := range spans {
		if s.Trace != trace {
			t.Fatalf("span %+v carries trace %d, want %d", s, s.Trace, trace)
		}
		bySite[s.Site] = append(bySite[s.Site], s)
		ids[s.Span] = s
	}
	for _, site := range []string{"engine.round", "engine.rule", "iter.scan", "iter.scan.push"} {
		if len(bySite[site]) == 0 {
			t.Errorf("no %s spans recorded", site)
		}
	}
	// The recursive program iterates at least twice (last round converges).
	if len(bySite["engine.round"]) < 2 {
		t.Errorf("engine.round spans = %d, want >= 2", len(bySite["engine.round"]))
	}
	for _, s := range bySite["iter.scan"] {
		p, ok := ids[s.Parent]
		if !ok || p.Site != "engine.rule" {
			t.Fatalf("iter.scan span parent %d is not a retained engine.rule span", s.Parent)
		}
	}
	sawRoundChild := false
	for _, s := range bySite["engine.rule"] {
		if s.Parent == 0 {
			continue // non-recursive rule: root-parented
		}
		p, ok := ids[s.Parent]
		if !ok || p.Site != "engine.round" {
			t.Fatalf("engine.rule span parent %d is not a retained engine.round span", s.Parent)
		}
		sawRoundChild = true
	}
	if !sawRoundChild {
		t.Error("no engine.rule span parented to an engine.round span")
	}
}
