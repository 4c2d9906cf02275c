// Command checkdocs enforces the documentation contract of the public
// surface and the observability layer (run via scripts/check_docs.sh or
// `make check-docs`):
//
//  1. every exported top-level identifier in the root package, in
//     internal/obs and in internal/obshttp must carry a doc comment,
//  2. every counter, histogram and contention-site name of the metrics
//     contract must appear in DESIGN.md, so the §9 tables cannot drift
//     from the code,
//  3. the frozen counter and histogram names are still registered — the
//     contract is append-only, so renaming or deleting a published name
//     is an error — and
//  4. DESIGN.md names the current schema version and the
//     flight-recorder JSON field names, and has its §12.
//
// It exits non-zero listing each violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"specbtree/internal/obs"
)

// frozenCounters is every counter name a published metrics schema has
// carried, in the order the schemas froze them (the v1 list, then the
// serving, streaming-query, epoch-snapshot, cluster and replication
// subsystems as each shipped). The contract is append-only: every name
// below must stay registered in obs.Names() forever. Extend this list
// only when freezing a new schema version.
var frozenCounters = []string{
	// specbtree.metrics.v1
	"core.descents",
	"core.restarts",
	"core.split.inner",
	"core.split.leaf",
	"core.split.root",
	"datalog.delta_tuples",
	"datalog.rounds",
	"datalog.rule_evals",
	"hint.find.hits",
	"hint.find.misses",
	"hint.insert.hits",
	"hint.insert.misses",
	"hint.lower.hits",
	"hint.lower.misses",
	"hint.upper.hits",
	"hint.upper.misses",
	"optlock.read.validation_failures",
	"optlock.read.validations",
	"optlock.upgrade.failures",
	"optlock.upgrade.successes",
	"optlock.write.spins",
	// the serving subsystem (DESIGN.md §11)
	"serve.read.ops",
	"serve.write.ops",
	"serve.write.batches",
	"serve.epochs",
	"serve.retries",
	"serve.conns.accepted",
	"serve.conns.dropped",
	"serve.phase.violations",
	// streaming query execution (specbtree.metrics.v3, DESIGN.md §12)
	"datalog.plan.cache_hits",
	"datalog.plan.cache_misses",
	"datalog.plan.cache_invalidations",
	"datalog.iter.scans",
	"datalog.iter.rows",
	"datalog.iter.pushdown_scans",
	"datalog.iter.residual_rows",
	// epoch snapshots (specbtree.metrics.v4, DESIGN.md §14)
	"core.cow.clones",
	"serve.snapshot.reads",
	// the sharded cluster (specbtree.metrics.v5, DESIGN.md §15)
	"cluster.log.records",
	"cluster.log.bytes",
	"cluster.log.replay.tuples",
	"cluster.log.torn_tails",
	"cluster.rebalance.moves",
	"cluster.rebalance.tuples",
	"cluster.rebalance.aborts",
	"cluster.rebalance.fence_failures",
	"cluster.scan.fanouts",
	"cluster.scan.dupes",
	"cluster.scan.restarts",
	// follower replication (specbtree.metrics.v6, DESIGN.md §16)
	"replica.stream.epochs",
	"replica.apply.epochs",
	"replica.apply.tuples",
	"replica.bootstrap.tuples",
	"replica.fences.applied",
	"replica.reads.follower",
	"replica.reads.fallback",
	"replica.promotions",
}

// frozenHistograms is the histogram counterpart of frozenCounters, under
// the same append-only contract against obs.HistogramNames().
var frozenHistograms = []string{
	"hist.serve.read.ns",
	"hist.serve.write_batch.ns",
	"hist.serve.epoch.ns",
	"hist.serve.queue.depth",
	"hist.datalog.pushdown.selectivity",
	"hist.serve.gate.bypass.ns",
	"hist.cluster.log.flush.ns",
	"hist.replica.lag.epochs",
}

// frozenSpanSites freezes the trace span site names at the moment the
// tracing subsystem shipped (DESIGN.md §13), in registry order. Span
// names travel in persisted trace_event dumps, so the contract is
// append-only: every name must stay registered, in this order, forever.
var frozenSpanSites = []string{
	"client.request",
	"serve.frame.read",
	"serve.frame.insert",
	"serve.phase.wait",
	"serve.epoch",
	"engine.round",
	"engine.rule",
	"iter.scan",
	"iter.scan.push",
}

// spanFields are the JSON field names carried by each span in the
// Spans() dump and the trace_event args; DESIGN.md must document each,
// backticked, in its §13 span-schema section.
var spanFields = []string{
	"trace", "span", "parent", "site", "start_ns", "dur_ns", "arg0", "arg1",
}

// flightRecorderFields are the JSON field names of the flight-recorder
// dump (obs.FlightEvent plus the envelope's sample_rate); DESIGN.md must
// document each, backticked, in its §9 flight-recorder section.
var flightRecorderFields = []string{
	"seq", "site", "level", "spins", "wait_ns", "sample_rate",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string

	for _, dir := range []string{
		root,
		filepath.Join(root, "internal", "obs"),
		filepath.Join(root, "internal", "obshttp"),
	} {
		missing, err := undocumentedExports(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkdocs:", err)
			os.Exit(1)
		}
		problems = append(problems, missing...)
	}

	problems = append(problems, unregistered("counter", frozenCounters, obs.Names())...)
	problems = append(problems, unregistered("histogram", frozenHistograms, obs.HistogramNames())...)

	raw, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdocs:", err)
		os.Exit(1)
	}
	design := string(raw)
	for _, name := range obs.Names() {
		if !strings.Contains(design, name) {
			problems = append(problems,
				fmt.Sprintf("DESIGN.md: counter %q missing from the §9 table", name))
		}
	}
	for _, name := range obs.HistogramNames() {
		if !strings.Contains(design, name) {
			problems = append(problems,
				fmt.Sprintf("DESIGN.md: histogram %q missing from the §9 table", name))
		}
	}
	for _, name := range obs.ContentionSiteNames() {
		if !strings.Contains(design, name) {
			problems = append(problems,
				fmt.Sprintf("DESIGN.md: contention site %q missing from §9", name))
		}
	}
	for _, field := range flightRecorderFields {
		if !strings.Contains(design, "`"+field+"`") {
			problems = append(problems,
				fmt.Sprintf("DESIGN.md: flight-recorder JSON field `%s` not documented in §9", field))
		}
	}
	if !strings.Contains(design, obs.SchemaVersion) {
		problems = append(problems,
			fmt.Sprintf("DESIGN.md: schema version %q not documented in §9", obs.SchemaVersion))
	}
	if !strings.Contains(design, "## 12.") {
		problems = append(problems,
			"DESIGN.md: §12 (streaming query execution) is missing")
	}

	// Span-site freeze: the registry must carry exactly the frozen names
	// as a prefix, in order — appended sites are fine, renames and
	// removals are not.
	sites := obs.SpanSiteNames()
	if len(sites) < len(frozenSpanSites) {
		problems = append(problems, fmt.Sprintf(
			"obs: span-site registry has %d sites, frozen contract has %d (span names are append-only)",
			len(sites), len(frozenSpanSites)))
	}
	for i, want := range frozenSpanSites {
		if i >= len(sites) {
			break
		}
		if sites[i] != want {
			problems = append(problems, fmt.Sprintf(
				"obs: span site %d is %q, frozen contract says %q (span names are append-only, in registry order)",
				i, sites[i], want))
		}
	}
	for _, name := range sites {
		if !strings.Contains(design, name) {
			problems = append(problems,
				fmt.Sprintf("DESIGN.md: span site %q missing from the §13 table", name))
		}
	}
	for _, field := range spanFields {
		if !strings.Contains(design, "`"+field+"`") {
			problems = append(problems,
				fmt.Sprintf("DESIGN.md: span JSON field `%s` not documented in §13", field))
		}
	}
	if !strings.Contains(design, "## 13.") {
		problems = append(problems,
			"DESIGN.md: §13 (evaluation tracing) is missing")
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "checkdocs:", p)
		}
		os.Exit(1)
	}
}

// unregistered returns one message per frozen name that is no longer in
// the registry's name list.
func unregistered(kind string, frozen, names []string) []string {
	registered := map[string]bool{}
	for _, name := range names {
		registered[name] = true
	}
	var out []string
	for _, name := range frozen {
		if !registered[name] {
			out = append(out,
				fmt.Sprintf("obs: %s %q no longer registered (the metrics contract is append-only)", kind, name))
		}
	}
	return out
}

// undocumentedExports parses the non-test Go files of dir and returns one
// message per exported top-level identifier lacking a doc comment.
func undocumentedExports(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							// Only methods on exported receivers form the
							// public surface.
							if !exportedRecv(d.Recv) {
								continue
							}
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), "const/var", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// exportedRecv reports whether a method receiver names an exported type.
func exportedRecv(fl *ast.FieldList) bool {
	if fl == nil || len(fl.List) == 0 {
		return false
	}
	t := fl.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return false
}
