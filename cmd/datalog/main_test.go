package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specbtree/internal/obs"
)

// TestRunEndToEnd drives the CLI pipeline: program file + facts directory
// in, output CSVs out.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "tc.dl")
	if err := os.WriteFile(prog, []byte(`
.decl edge(x: number, y: number)
.decl path(x: number, y: number)
.input edge
.output path
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "edge.facts"),
		[]byte("1\t2\n2\t3\n3\t4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if err := run(prog, 2, dir, out, "btree", false, false, false, false, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "path.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 {
		t.Fatalf("path.csv has %d rows, want 6:\n%s", len(lines), data)
	}
	if lines[0] != "1\t2" || lines[5] != "3\t4" {
		t.Errorf("unexpected rows: %v", lines)
	}
}

// TestRunSymbolFacts interns non-numeric fact columns.
func TestRunSymbolFacts(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "call.dl")
	if err := os.WriteFile(prog, []byte(`
.decl call(f: symbol, g: symbol)
.decl reach(f: symbol, g: symbol)
.input call
.output reach
reach(F, G) :- call(F, G).
reach(F, H) :- reach(F, G), call(G, H).
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "call.facts"),
		[]byte("main\thelper\nhelper\tutil\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if err := run(prog, 1, dir, out, "btree", true, true, true, false, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "reach.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(data)), "\n")); got != 3 {
		t.Fatalf("reach has %d rows, want 3", got)
	}
}

// TestRunAnalyzeAndTrace drives the -analyze and -trace paths: the run
// must succeed and the trace file must be valid Chrome trace_event JSON
// (an object with a traceEvents array — possibly empty under obsoff).
func TestRunAnalyzeAndTrace(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "tc.dl")
	if err := os.WriteFile(prog, []byte(`
.decl edge(x: number, y: number)
.decl path(x: number, y: number)
.input edge
.output path
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "edge.facts"),
		[]byte("1\t2\n2\t3\n3\t4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(dir, "trace.json")
	if err := run(prog, 2, dir, filepath.Join(dir, "out"), "btree", false, false, false, true, traceFile); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v\n%s", err, data)
	}
	if obs.Enabled && len(doc.TraceEvents) == 0 {
		t.Error("trace file has no events despite a forced trace")
	}
	if !obs.Enabled && len(doc.TraceEvents) != 0 {
		t.Errorf("obsoff build recorded %d trace events", len(doc.TraceEvents))
	}
}

// TestRunErrors covers the failure paths.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(filepath.Join(dir, "missing.dl"), 1, dir, "-", "btree", false, false, false, false, ""); err == nil {
		t.Error("missing program accepted")
	}
	bad := filepath.Join(dir, "bad.dl")
	os.WriteFile(bad, []byte("p(1)."), 0o644)
	if err := run(bad, 1, dir, "-", "btree", false, false, false, false, ""); err == nil {
		t.Error("undeclared relation accepted")
	}
	okProg := filepath.Join(dir, "ok.dl")
	os.WriteFile(okProg, []byte(".decl p(x: number)\n.output p\np(1).\n"), 0o644)
	if err := run(okProg, 1, dir, "-", "nonesuch", false, false, false, false, ""); err == nil {
		t.Error("unknown structure accepted")
	}
	// Malformed facts: wrong column count.
	tcProg := filepath.Join(dir, "tc.dl")
	os.WriteFile(tcProg, []byte(".decl e(x: number, y: number)\n.input e\n.output e\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "e.facts"), []byte("1\t2\t3\n"), 0o644)
	if err := run(tcProg, 1, dir, "-", "btree", false, false, false, false, ""); err == nil {
		t.Error("malformed facts accepted")
	}
}

// TestSynthesize covers the -emit-go pipeline up to the written file.
func TestSynthesize(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "tc.dl")
	os.WriteFile(prog, []byte(`
.decl edge(x: number, y: number)
.decl path(x: number, y: number)
.input edge
.output path
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`), 0o644)
	out := filepath.Join(dir, "gen.go")
	if err := synthesize(prog, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package main", "core.New(2)", "parallelFor"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("generated file lacks %q", want)
		}
	}
	if err := synthesize(filepath.Join(dir, "missing.dl"), out); err == nil {
		t.Error("missing program accepted")
	}
}

// TestRunMissingFactsWarnsOnly: a missing facts file is a warning, not an
// error (mirrors Soufflé).
func TestRunMissingFactsWarnsOnly(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "p.dl")
	os.WriteFile(prog, []byte(".decl e(x: number)\n.input e\n.output e\n"), 0o644)
	if err := run(prog, 1, dir, filepath.Join(dir, "out"), "btree", false, false, false, false, ""); err != nil {
		t.Fatalf("missing facts file should not fail: %v", err)
	}
}
