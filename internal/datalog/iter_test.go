package datalog

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"specbtree/internal/relation"
	"specbtree/internal/tuple"
)

func TestPrefixUpperInto(t *testing.T) {
	max := ^uint64(0)
	cases := []struct {
		prefix tuple.Tuple
		arity  int
		want   tuple.Tuple // nil = no upper bound
	}{
		{tuple.Tuple{}, 2, nil},
		{tuple.Tuple{5}, 2, tuple.Tuple{6, 0}},
		{tuple.Tuple{5, 7}, 2, tuple.Tuple{5, 8}},
		{tuple.Tuple{5, max}, 2, tuple.Tuple{6, 0}},
		{tuple.Tuple{max, max}, 2, nil},
		{tuple.Tuple{max, 1}, 3, tuple.Tuple{max, 2, 0}},
	}
	for _, c := range cases {
		got := prefixUpperInto(nil, c.prefix, c.arity)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("prefixUpperInto(%v, %d) = %v, want %v", c.prefix, c.arity, got, c.want)
		}
		// Must agree with the allocating original.
		if ref := tuple.PrefixUpperBound(c.prefix, c.arity); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("prefixUpperInto(%v) = %v diverges from PrefixUpperBound = %v", c.prefix, got, ref)
		}
	}
}

// newFallback builds a fallbackIter over a cursor-less hashset relation.
func newFallback(t *testing.T, rows []tuple.Tuple, nPrefix int) *fallbackIter {
	t.Helper()
	r := relation.MustLookup("hashset").New(2)
	ops := r.NewOps()
	if _, ok := ops.(relation.CursorOps); ok {
		t.Fatal("hashset grew a cursor; pick another cursor-less provider")
	}
	for _, row := range rows {
		ops.Insert(row)
	}
	return &fallbackIter{ops: ops, nPrefix: nPrefix, arity: 2}
}

// TestFallbackIter: the materialising adapter honours the same
// Seek/Next contract as the native cursors — bounds, rewind,
// exhaustion.
func TestFallbackIter(t *testing.T) {
	rows := []tuple.Tuple{{1, 10}, {1, 20}, {1, 30}, {2, 5}}
	it := newFallback(t, rows, 1)

	it.Seek(tuple.Tuple{1, 15}, tuple.Tuple{1, 30})
	var got []uint64
	for it.Next() {
		got = append(got, it.Tuple()[1])
	}
	if len(got) != 1 || got[0] != 20 {
		t.Fatalf("bounded scan: %v", got)
	}
	if it.Next() {
		t.Fatal("Next after exhaustion")
	}

	// Rewind with nil hi: the whole prefix group.
	it.Seek(tuple.Tuple{1, 0}, nil)
	n := 0
	for it.Next() {
		n++
	}
	if n != 3 {
		t.Fatalf("prefix scan saw %d rows", n)
	}

	// Empty and inverted ranges.
	it.Seek(tuple.Tuple{1, 30}, tuple.Tuple{1, 30})
	if it.Next() {
		t.Fatal("lo==hi yielded")
	}
	it.Seek(tuple.Tuple{1, 30}, tuple.Tuple{1, 10})
	if it.Next() {
		t.Fatal("inverted range yielded")
	}
}

// checkOutputs evaluates src on the given provider/worker configuration
// and asserts each output relation's sorted dump equals want.
func checkOutputs(t *testing.T, src string, want map[string][]string, provider string, workers int) {
	t.Helper()
	p, err := relation.Lookup(provider)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(mustParse(t, src), Options{Provider: p, Workers: workers, NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for o, rows := range want {
		got := dumpRel(t, eng, o)
		sort.Strings(got) // hash providers scan in arbitrary order
		sort.Strings(rows)
		if fmt.Sprint(got) != fmt.Sprint(rows) {
			t.Errorf("%s/%dw: %s diverged:\n got %v\nwant %v", provider, workers, o, got, rows)
		}
	}
}

// TestStreamBoundaryConstants drives the pushdown bounds math at the
// edges of the key space: > max (provably empty), >= max, <= 0, < 0
// (empty), = max — against hand-derived results.
func TestStreamBoundaryConstants(t *testing.T) {
	max := ^uint64(0)
	src := fmt.Sprintf(`
.decl s(x: number)
.decl r(x: number, y: number)
.decl gtmax(x: number, y: number)
.decl gemax(x: number, y: number)
.decl lezero(x: number, y: number)
.decl ltzero(x: number, y: number)
.decl eqmax(x: number, y: number)
.output gtmax
.output gemax
.output lezero
.output ltzero
.output eqmax
s(1). s(2).
r(1, 0). r(1, 7). r(1, %d). r(2, 0). r(2, %d).
gtmax(X, Y) :- s(X), r(X, Y), Y > %d.
gemax(X, Y) :- s(X), r(X, Y), Y >= %d.
lezero(X, Y) :- s(X), r(X, Y), Y <= 0.
ltzero(X, Y) :- s(X), r(X, Y), Y < 0.
eqmax(X, Y) :- s(X), r(X, Y), Y = %d.
`, max, max-1, max, max, max)
	want := map[string][]string{
		"gtmax":  nil,
		"gemax":  {fmt.Sprintf("[1 %d]", max)},
		"lezero": {"[1 0]", "[2 0]"},
		"ltzero": nil,
		"eqmax":  {fmt.Sprintf("[1 %d]", max)},
	}
	for _, workers := range []int{1, 3} {
		checkOutputs(t, src, want, "btree", workers)
	}
}

// TestStreamChunkedOuterPath covers the non-splittable multi-worker
// path (materialised outer scan, chunked across workers) and the
// fallback iterator inside the chain, via the hash provider.
func TestStreamChunkedOuterPath(t *testing.T) {
	src := `
.decl e(x: number, y: number)
.decl p(x: number, y: number)
.output p
e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6). e(2, 6).
p(X, Y) :- e(X, Y).
p(X, Z) :- p(X, Y), e(Y, Z), Z > X.
`
	// Every edge points upward, so Z > X always holds: p is the
	// transitive closure of the chain 1..6.
	var p []string
	for x := 1; x <= 5; x++ {
		for z := x + 1; z <= 6; z++ {
			p = append(p, fmt.Sprintf("[%d %d]", x, z))
		}
	}
	for _, provider := range []string{"btree", "hashset", "tbbhash"} {
		for _, workers := range []int{1, 4} {
			checkOutputs(t, src, map[string][]string{"p": p}, provider, workers)
		}
	}
}

// TestStreamStatsAccounting: the streaming counters must add up — every
// pulled row either bound its variables or was counted residual, and
// pushed scans are a subset of opened scans.
func TestStreamStatsAccounting(t *testing.T) {
	src := `
.decl s(x: number)
.decl r(x: number, y: number)
.decl q(x: number, y: number)
.output q
s(1). s(2). s(3).
r(1, 1). r(1, 5). r(1, 9). r(2, 4). r(2, 8). r(3, 2).
q(X, Y) :- s(X), r(X, Y), Y >= 4, Y < 9.
`
	eng, err := New(mustParse(t, src), Options{Workers: 1, NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.StreamScans == 0 {
		t.Fatalf("no streaming scans: %+v", s)
	}
	if s.PushdownScans == 0 || s.PushdownScans > s.StreamScans {
		t.Fatalf("pushdown scans out of range: %+v", s)
	}
	if s.ResidualRows > s.StreamRows {
		t.Fatalf("residual rows exceed pulled rows: %+v", s)
	}
	if got, want := eng.Count("q"), 3; got != want {
		t.Fatalf("q has %d tuples, want %d", got, want)
	}
	// With the window pushed into the bounds, the streaming evaluator
	// must pull exactly the matching rows from r — no residual rejects
	// on the pushed column.
	if s.ResidualRows != 0 {
		t.Errorf("pushed scan rejected %d rows residually; bounds not applied", s.ResidualRows)
	}
}

// TestExplain pins the plan rendering the README walks through: index
// assignment, pushdown annotation, cache status.
func TestExplain(t *testing.T) {
	cache := NewPlanCache(4)
	src := `
.decl s(x: number)
.decl r(x: number, y: number)
.decl q(x: number, y: number)
.output q
q(X, Y) :- s(X), r(X, Y), Y >= 10, Y < 20.
`
	eng, err := New(mustParse(t, src), Options{PlanCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	out := eng.Explain()
	for _, want := range []string{
		"pushdown[col1 >= 10]",
		"pushdown[col1 < 20]",
		"[pushed into scan bounds]",
		"plan cache: miss (compiled and stored)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output lacks %q:\n%s", want, out)
		}
	}
	eng2, err := New(mustParse(t, src), Options{PlanCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eng2.Explain(), "plan cache: hit (compilation reused)") {
		t.Errorf("second Explain lacks hit marker:\n%s", eng2.Explain())
	}
}
