package check

// The Datalog differential: the third pillar of the harness. The engine
// must derive exactly the relations of the naive reference evaluator
// (naive.go), which shares none of the engine's planner, index choice,
// pushdown or semi-naïve driver, across worker counts and providers —
// the B-tree with and without hints, and the cursor-less hash set that
// exercises the fallback iterator and the chunked outer partitioning.
// Programs come from the seeded workload generators plus a fixed battery
// of edge programs (negation, repeated variables, wildcards, comparison
// chains, empty and contradictory ranges, cross products, bodies without
// a positive atom). A failure report carries the seed line to replay it.

import (
	"fmt"
	"sort"
	"strings"

	"specbtree/internal/datalog"
	"specbtree/internal/relation"
	"specbtree/internal/tuple"
	"specbtree/internal/workload"
)

// DatalogConfig sizes one differential run. Zero fields select the
// defaults below; Short selects the seed-sized variant for the 1-CPU CI
// host.
type DatalogConfig struct {
	// Seed drives the workload generators; a failure replays with the
	// printed seed.
	Seed int64
	// Size scales the generated workloads.
	Size int
	// Workers lists the worker counts every provider runs under.
	Workers []int
	// Short selects the seed-sized configuration.
	Short bool
}

func (c DatalogConfig) withDefaults() DatalogConfig {
	if c.Size == 0 {
		if c.Short {
			c.Size = 48
		} else {
			c.Size = 96
		}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 4}
	}
	return c
}

// DatalogViolation is one observed divergence of an evaluation arm from
// the naive reference.
type DatalogViolation struct {
	Program  string
	Provider string
	Workers  int
	Relation string
	Detail   string
}

func (v DatalogViolation) String() string {
	return fmt.Sprintf("%s [%s/%dw] relation %s: %s",
		v.Program, v.Provider, v.Workers, v.Relation, v.Detail)
}

// DatalogReport is the outcome of one differential run.
type DatalogReport struct {
	Config     DatalogConfig
	Programs   int
	Arms       int // evaluation arms compared against the reference
	Violations []DatalogViolation
}

// Failed reports whether any arm diverged.
func (r *DatalogReport) Failed() bool { return len(r.Violations) > 0 }

// Summary renders the report with the replay line.
func (r *DatalogReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "datalog differential: %d programs, %d arms, %d violations (replay: seed=%d size=%d workers=%v)\n",
		r.Programs, r.Arms, len(r.Violations), r.Config.Seed, r.Config.Size,
		r.Config.Workers)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// diffArm is one engine configuration compared against the reference.
type diffArm struct {
	provider string
	workers  int
}

// diffProviders are the relation providers every worker count runs on.
var diffProviders = []string{"btree", "btree-nh", "hashset"}

// RunDatalogDiff evaluates every program under every (provider, workers)
// arm and cross-checks all declared relations against the naive
// reference.
func RunDatalogDiff(cfg DatalogConfig) DatalogReport {
	cfg = cfg.withDefaults()
	rep := DatalogReport{Config: cfg}

	programs := []workload.DatalogWorkload{
		workload.PointsTo(cfg.Size, cfg.Seed),
		workload.Security(cfg.Size+cfg.Size/2, cfg.Seed+1),
		workload.Selective(cfg.Size*4, cfg.Seed+2),
	}
	programs = append(programs, edgePrograms()...)
	rep.Programs = len(programs)

	var arms []diffArm
	for _, w := range cfg.Workers {
		for _, p := range diffProviders {
			arms = append(arms, diffArm{provider: p, workers: w})
		}
	}

	for _, prog := range programs {
		ref, err := naiveEval(prog.Source, prog.Facts)
		if err != nil {
			rep.Violations = append(rep.Violations, DatalogViolation{
				Program: prog.Name, Provider: "naive", Relation: "-",
				Detail: fmt.Sprintf("reference evaluation failed: %v", err),
			})
			continue
		}
		for _, arm := range arms {
			rep.Arms++
			got, err := evalDiffArm(prog, arm)
			if err != nil {
				rep.Violations = append(rep.Violations, DatalogViolation{
					Program: prog.Name, Provider: arm.provider,
					Workers: arm.workers, Relation: "-", Detail: err.Error(),
				})
				continue
			}
			for rel, want := range ref {
				if detail := diffRelation(got[rel], want); detail != "" {
					rep.Violations = append(rep.Violations, DatalogViolation{
						Program: prog.Name, Provider: arm.provider,
						Workers: arm.workers, Relation: rel, Detail: detail,
					})
				}
			}
		}
	}
	return rep
}

// evalDiffArm runs one program under one arm and dumps every declared
// relation as a sorted tuple list.
func evalDiffArm(w workload.DatalogWorkload, arm diffArm) (map[string][]string, error) {
	prog, err := datalog.Parse(w.Source)
	if err != nil {
		return nil, err
	}
	provider, err := relation.Lookup(arm.provider)
	if err != nil {
		return nil, err
	}
	eng, err := datalog.New(prog, datalog.Options{
		Provider: provider,
		Workers:  arm.workers,
	})
	if err != nil {
		return nil, err
	}
	for rel, facts := range w.Facts {
		if err := eng.AddFacts(rel, facts); err != nil {
			return nil, err
		}
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for _, d := range prog.Decls {
		var rows []string
		if err := eng.Scan(d.Name, func(t tuple.Tuple) bool {
			rows = append(rows, fmt.Sprint([]uint64(t)))
			return true
		}); err != nil {
			return nil, err
		}
		sort.Strings(rows) // hash providers scan in arbitrary order
		out[d.Name] = rows
	}
	return out, nil
}

// diffRelation compares two sorted dumps, returning "" when identical
// and a bounded description of the divergence otherwise.
func diffRelation(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tuples, want %d; %s", len(got), len(want), firstDiff(got, want))
	}
	for i := range got {
		if got[i] != want[i] {
			return firstDiff(got, want)
		}
	}
	return ""
}

// firstDiff reports a few sample tuples present in exactly one side.
func firstDiff(got, want []string) string {
	gs := map[string]bool{}
	for _, t := range got {
		gs[t] = true
	}
	ws := map[string]bool{}
	for _, t := range want {
		ws[t] = true
	}
	var extra, missing []string
	for _, t := range got {
		if !ws[t] && len(extra) < 3 {
			extra = append(extra, t)
		}
	}
	for _, t := range want {
		if !gs[t] && len(missing) < 3 {
			missing = append(missing, t)
		}
	}
	return fmt.Sprintf("extra=%v missing=%v", extra, missing)
}

// edgePrograms is the fixed battery of self-contained programs covering
// the evaluator's corner cases: each carries its facts inline.
func edgePrograms() []workload.DatalogWorkload {
	mk := func(name, src string) workload.DatalogWorkload {
		return workload.DatalogWorkload{Name: name, Source: src, Facts: map[string][]tuple.Tuple{}}
	}
	return []workload.DatalogWorkload{
		mk("edge-negation", `
.decl e(x: number, y: number)
.decl blocked(x: number)
.decl p(x: number, y: number)
.output p
e(1, 2). e(2, 3). e(3, 4). e(2, 5). e(5, 6). e(6, 2).
blocked(3).
p(X, Y) :- e(X, Y), !blocked(Y).
p(X, Z) :- p(X, Y), e(Y, Z), !blocked(Z).
`),
		mk("edge-cmp-chain", `
.decl s(x: number)
.decl r(x: number, y: number)
.decl q(x: number, y: number)
.output q
s(1). s(2). s(3).
r(1, 1). r(1, 4). r(1, 5). r(1, 9). r(2, 2). r(2, 5). r(2, 7).
r(3, 3). r(3, 6). r(3, 8). r(4, 4).
q(X, Y) :- s(X), r(X, Y), Y >= 2, Y < 8, Y != 5.
`),
		mk("edge-cmp-varvar", `
.decl s(x: number)
.decl r(x: number, y: number)
.decl q(x: number, y: number)
.decl w(x: number, y: number)
.output q
.output w
s(1). s(2). s(3).
r(1, 1). r(1, 2). r(1, 3). r(2, 1). r(2, 2). r(2, 4). r(3, 5).
q(X, Y) :- s(X), r(X, Y), Y > X.
w(X, Y) :- s(X), r(X, Y), Y = X.
`),
		mk("edge-empty-window", `
.decl s(x: number)
.decl r(x: number, y: number)
.decl z(x: number, y: number)
.output z
s(1). s(2).
r(1, 1). r(1, 4). r(2, 2).
z(X, Y) :- s(X), r(X, Y), Y > 5, Y < 3.
`),
		mk("edge-repeat-wildcard", `
.decl r(x: number, y: number)
.decl d(x: number)
.decl any(x: number)
.output d
.output any
r(1, 1). r(1, 2). r(2, 2). r(3, 4). r(4, 4).
d(X) :- r(X, X).
any(X) :- r(X, _).
`),
		mk("edge-empty-relation", `
.decl none(x: number)
.decl r(x: number, y: number)
.decl q(x: number, y: number)
.output q
r(1, 2). r(2, 3).
q(X, Y) :- none(X), r(X, Y).
`),
		mk("edge-cross-product", `
.decl s(x: number)
.decl c(x: number, y: number)
.output c
s(1). s(2). s(3).
c(X, Y) :- s(X), s(Y).
`),
		mk("edge-no-positive-atom", `
.decl blocked(x: number)
.decl flag(x: number)
.decl ok(x: number)
.output flag
.output ok
blocked(3).
flag(1) :- !blocked(7).
ok(1) :- 2 < 3.
ok(2) :- 3 < 2.
`),
		mk("edge-const-bounds", `
.decl r(x: number, y: number)
.decl lo(x: number, y: number)
.decl hi(x: number, y: number)
.decl eq(x: number, y: number)
.output lo
.output hi
.output eq
r(1, 10). r(2, 20). r(3, 30). r(4, 40). r(5, 50).
lo(X, Y) :- r(X, Y), X > 3.
hi(X, Y) :- r(X, Y), X <= 2.
eq(X, Y) :- r(X, Y), X = 4.
`),
	}
}
