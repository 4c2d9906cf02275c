package check

import (
	"strings"
	"testing"

	"specbtree/internal/tuple"
)

// oracleConfig sizes a test run: seed-sized in -short mode (the 1-CPU CI
// budget), full-sized otherwise.
func oracleConfig(seed int64) Config {
	return Config{Seed: seed, Short: testing.Short()}
}

// TestOracleAllProviders is the main differential check: every target,
// arity 1 and arity 2, against the sequential model.
func TestOracleAllProviders(t *testing.T) {
	for _, arity := range []int{1, 2} {
		for _, f := range Targets() {
			if f.Arity1Only && arity != 1 {
				continue
			}
			f := f
			t.Run(f.Name+"/arity"+string(rune('0'+arity)), func(t *testing.T) {
				t.Parallel()
				rep := Run(f, arity, oracleConfig(0x5eed0+int64(arity)))
				if rep.Failed() {
					t.Errorf("oracle failed:\n%s", rep.Summary())
				}
				if rep.FinalLen == 0 {
					t.Errorf("suspicious run: final length 0")
				}
			})
		}
	}
}

// TestOracleDeterministic re-runs one target with one seed and expects
// byte-identical outcomes — the property that makes printed seeds
// replayable.
func TestOracleDeterministic(t *testing.T) {
	cfg := oracleConfig(42)
	a := Run(mustTarget(t, "btree"), 2, cfg)
	b := Run(mustTarget(t, "btree"), 2, cfg)
	if a.FinalLen != b.FinalLen || len(a.Violations) != len(b.Violations) {
		t.Fatalf("same seed, different outcome: %+v vs %+v", a, b)
	}
}

func mustTarget(t *testing.T, name string) Factory {
	t.Helper()
	f, ok := Target(name)
	if !ok {
		t.Fatalf("unknown target %q", name)
	}
	return f
}

// lyingFactory wraps the locked baseline with a Contains that lies about
// one specific tuple — a deterministic sequential logic bug the oracle
// must catch and the minimizer must shrink to a tiny trace.
func lyingFactory() (Factory, tuple.Tuple) {
	inner, _ := Target("locked-gbtree")
	poison := tuple.Tuple{7, 7}
	f := Factory{
		Name: "lying",
		New: func(arity int) Instance {
			return &lyingInstance{Instance: inner.New(arity), poison: poison}
		},
	}
	return f, poison
}

type lyingInstance struct {
	Instance
	poison tuple.Tuple
}

func (i *lyingInstance) NewReader() Reader {
	return &lyingReader{Reader: i.Instance.NewReader(), poison: i.poison}
}

type lyingReader struct {
	Reader
	poison tuple.Tuple
}

func (r *lyingReader) Contains(t tuple.Tuple) bool {
	if tuple.Compare(t, r.poison) == 0 {
		return !r.Reader.Contains(t) // lie about exactly this tuple
	}
	return r.Reader.Contains(t)
}

// TestOracleCatchesLogicBug seeds a provider with a deterministic
// membership bug and asserts the harness (a) reports it, (b) reproduces
// it sequentially, and (c) minimizes the insert trace aggressively.
func TestOracleCatchesLogicBug(t *testing.T) {
	f, poison := lyingFactory()
	// Tiny key space so the poison tuple is hit by probes quickly.
	cfg := Config{Seed: 7, Workers: 2, Rounds: 1, Inserts: 64, Reads: 200, KeySpace: 16}
	rep := Run(f, 2, cfg)
	if !rep.Failed() {
		t.Fatalf("oracle missed the lying Contains")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Op == "contains" && tuple.Compare(v.Arg, poison) == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no contains violation for the poison tuple:\n%s", rep.Summary())
	}
	if !strings.Contains(rep.Trace, "sequentially reproducible") {
		t.Fatalf("logic bug not reproduced sequentially:\n%s", rep.Summary())
	}
	// The divergence needs either zero inserts (probe of an absent poison
	// tuple) or exactly one (the poison tuple itself); ddmin must get
	// there from 128.
	if !strings.Contains(rep.Trace, "reproducible with 0 inserts") &&
		!strings.Contains(rep.Trace, "reproducible with 1 inserts") {
		t.Errorf("trace not minimal:\n%s", rep.Trace)
	}
}

// TestModelBound pins the reference model's own bound semantics so the
// oracle is anchored to a verified baseline.
func TestModelBound(t *testing.T) {
	m := newModel(1)
	for _, k := range []uint64{10, 20, 30} {
		m.insert(tuple.Tuple{k})
	}
	m.rebuild()
	cases := []struct {
		v      uint64
		strict bool
		want   uint64
		ok     bool
	}{
		{5, false, 10, true},
		{10, false, 10, true},
		{10, true, 20, true},
		{25, false, 30, true},
		{30, true, 0, false},
		{31, false, 0, false},
	}
	for _, c := range cases {
		got, ok := m.bound(tuple.Tuple{c.v}, c.strict)
		if ok != c.ok || (ok && got[0] != c.want) {
			t.Errorf("bound(%d, strict=%v) = %v,%v want %d,%v", c.v, c.strict, got, ok, c.want, c.ok)
		}
	}
	if !m.contains(tuple.Tuple{20}) || m.contains(tuple.Tuple{21}) {
		t.Errorf("contains misbehaves")
	}
	if m.len() != 3 {
		t.Errorf("len = %d, want 3", m.len())
	}
}

// TestOracleLeapfrogRuns drives the concurrent tree with the engine's
// partitioned ascending-run insert pattern (WorkloadLeapfrog) over many
// small fresh trees. It is the oracle-level regression test for the
// inner-split sibling race (a moved leaf's writer inserting into a
// fresh, unlocked inner sibling concurrently with the splitter), which
// loses a separator and its subtree — a len/scan/freshness violation.
// The window is one inner split wide, hence many three-level trees
// rather than one large one.
func TestOracleLeapfrogRuns(t *testing.T) {
	runs := 600
	if testing.Short() {
		runs = 150
	}
	for _, name := range []string{"btree", "btree-cursor"} {
		f := mustTarget(t, name)
		t.Run(name, func(t *testing.T) {
			for i := 0; i < runs; i++ {
				workers := 2 + i%3
				cfg := Config{Workload: WorkloadLeapfrog, Seed: int64(i), Workers: workers,
					Rounds: 2, Inserts: 300 / workers, Reads: 8, KeySpace: 600}
				if rep := Run(f, 1, cfg); rep.Failed() {
					t.Fatalf("run %d: oracle failed:\n%s", i, rep.Summary())
				}
			}
		})
	}
}
