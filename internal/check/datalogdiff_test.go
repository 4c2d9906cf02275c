package check

import (
	"sort"
	"strings"
	"testing"

	"specbtree/internal/datalog"
	"specbtree/internal/workload"
)

// TestDatalogDifferential is the engine's end-to-end gate: every
// provider and worker-count arm must derive exactly the relations of the
// naive reference evaluator.
func TestDatalogDifferential(t *testing.T) {
	rep := RunDatalogDiff(DatalogConfig{Seed: 0x5eed1, Short: testing.Short()})
	if rep.Failed() {
		t.Errorf("datalog differential failed:\n%s", rep.Summary())
	}
	if rep.Programs < 8 || rep.Arms == 0 {
		t.Errorf("suspicious run: %d programs, %d arms", rep.Programs, rep.Arms)
	}
}

// TestDatalogDifferentialSummary pins the replay line: a report must
// name the seed it can be replayed with.
func TestDatalogDifferentialSummary(t *testing.T) {
	rep := RunDatalogDiff(DatalogConfig{Seed: 7, Size: 16, Workers: []int{1}, Short: true})
	if !strings.Contains(rep.Summary(), "replay: seed=7") {
		t.Errorf("summary lacks replay line:\n%s", rep.Summary())
	}
}

// TestDatalogDiffCatchesDivergence feeds the comparator a fabricated
// divergence to prove the harness reports, not merely runs.
func TestDatalogDiffCatchesDivergence(t *testing.T) {
	if d := diffRelation([]string{"[1 2]"}, []string{"[1 2]", "[3 4]"}); d == "" {
		t.Fatal("missing tuple not reported")
	}
	if d := diffRelation([]string{"[1 2]", "[9 9]"}, []string{"[1 2]", "[3 4]"}); !strings.Contains(d, "[9 9]") {
		t.Fatalf("extra tuple not named: %q", d)
	}
	if d := diffRelation([]string{"[1 2]"}, []string{"[1 2]"}); d != "" {
		t.Fatalf("spurious divergence: %q", d)
	}
}

// TestDatalogDiffExercisesPushdown asserts the engine actually takes the
// pushdown path on the selective workload, so the differential covers it.
func TestDatalogDiffExercisesPushdown(t *testing.T) {
	w := workload.Selective(64, 1)
	prog, err := datalog.Parse(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := datalog.New(prog, datalog.Options{Workers: 1, NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for rel, facts := range w.Facts {
		if err := eng.AddFacts(rel, facts); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.PushdownScans == 0 {
		t.Errorf("selective workload opened no pushdown-tightened scans: %+v", s)
	}
	if s.StreamScans == 0 || s.StreamRows == 0 {
		t.Errorf("streaming arm pulled nothing through iterators: %+v", s)
	}
	if eng.Count("out") == 0 {
		t.Error("selective probe produced no output")
	}
}

// edgeWant pins, by hand, every output relation of every edge program:
// the naive reference must reproduce them, so a bug in the reference
// cannot make the differential agree with a wrong engine.
var edgeWant = map[string]map[string][]string{
	"edge-negation": {"p": {
		"[1 2]", "[1 5]", "[1 6]", "[2 2]", "[2 5]", "[2 6]", "[3 4]",
		"[5 2]", "[5 5]", "[5 6]", "[6 2]", "[6 5]", "[6 6]",
	}},
	"edge-cmp-chain": {"q": {"[1 4]", "[2 2]", "[2 7]", "[3 3]", "[3 6]"}},
	"edge-cmp-varvar": {
		"q": {"[1 2]", "[1 3]", "[2 4]", "[3 5]"},
		"w": {"[1 1]", "[2 2]"},
	},
	"edge-empty-window": {"z": nil},
	"edge-repeat-wildcard": {
		"d":   {"[1]", "[2]", "[4]"},
		"any": {"[1]", "[2]", "[3]", "[4]"},
	},
	"edge-empty-relation": {"q": nil},
	"edge-cross-product": {"c": {
		"[1 1]", "[1 2]", "[1 3]", "[2 1]", "[2 2]", "[2 3]", "[3 1]", "[3 2]", "[3 3]",
	}},
	"edge-no-positive-atom": {
		"flag": {"[1]"},
		"ok":   {"[1]"},
	},
	"edge-const-bounds": {
		"lo": {"[4 40]", "[5 50]"},
		"hi": {"[1 10]", "[2 20]"},
		"eq": {"[4 40]"},
	},
}

// TestNaiveReferencePinned checks the reference itself against the
// hand-written dumps of every edge program's outputs.
func TestNaiveReferencePinned(t *testing.T) {
	for _, w := range edgePrograms() {
		want, ok := edgeWant[w.Name]
		if !ok {
			t.Errorf("%s: no pinned outputs", w.Name)
			continue
		}
		got, err := naiveEval(w.Source, w.Facts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		prog, err := datalog.Parse(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Outputs) != len(want) {
			t.Errorf("%s: %d outputs, %d pinned", w.Name, len(prog.Outputs), len(want))
		}
		for _, rel := range prog.Outputs {
			rows := append([]string(nil), want[rel]...)
			sort.Strings(rows)
			if d := diffRelation(got[rel], rows); d != "" {
				t.Errorf("%s: relation %s: %s", w.Name, rel, d)
			}
		}
	}
}

// TestNaiveReferenceRejectsSymbols: symbol ids are the engine's to
// assign, so the reference refuses symbol constants instead of guessing.
func TestNaiveReferenceRejectsSymbols(t *testing.T) {
	src := `
.decl r(x: number)
.decl q(x: number)
r(1).
q(X) :- r(X), X != "main".
`
	if _, err := naiveEval(src, nil); err == nil || !strings.Contains(err.Error(), "symbol") {
		t.Fatalf("symbol constant accepted: %v", err)
	}
}
