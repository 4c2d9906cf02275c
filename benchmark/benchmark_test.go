package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"specbtree/internal/relation"
	"specbtree/internal/tuple"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode: the contract file and the tables the
// program emits from must name the same workloads and metrics, with the
// same units, directions and bounds, inside the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(f.Workloads, workloads) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", f.Workloads, workloads)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", f.PerLayer, perLayer)
	}
	if len(f.EndToEnd) != 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 || len(f.Workloads) != 5 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads", len(f.EndToEnd), len(f.PerLayer), len(f.Workloads))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", f.RunSeconds, f.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, w := range f.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range f.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// serialTarget is a fake relation that serves one request at a time and
// stalls on its first.
type serialTarget struct {
	mu    sync.Mutex
	stall time.Duration
	calls int
}

func (s *serialTarget) serve() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls == 1 {
		time.Sleep(s.stall)
	}
}

func (s *serialTarget) Insert(b []tuple.Tuple) (int, error) { s.serve(); return len(b), nil }
func (s *serialTarget) Contains(tuple.Tuple) (bool, error)  { s.serve(); return false, nil }
func (s *serialTarget) LowerBound(tuple.Tuple) (tuple.Tuple, bool, error) {
	s.serve()
	return nil, false, nil
}
func (s *serialTarget) UpperBound(tuple.Tuple) (tuple.Tuple, bool, error) {
	s.serve()
	return nil, false, nil
}
func (s *serialTarget) Scan(lo, hi tuple.Tuple, limit int) ([]tuple.Tuple, bool, error) {
	s.serve()
	return nil, false, nil
}
func (s *serialTarget) ScanAll(lo, hi tuple.Tuple, yield func(tuple.Tuple) bool) error { return nil }
func (s *serialTarget) Close() error                                                   { return nil }

// TestOpenLoopTimesFromIntendedSend: a stall in the target must show in
// the latency of the requests that were due while it lasted, because
// they are timed from when they should have been sent, and the
// generator's own lateness is reported per request.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const stall = 100 * time.Millisecond
	target := &serialTarget{stall: stall}
	lt := &loadTarget{layer: "fake", clients: []relClient{target}, scanLimit: 64}
	arrivals := make([]time.Duration, 20)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 2 * time.Millisecond // all due within the stall
	}
	p := defaultParams
	p.WritePct = 0
	s := lt.openLoop(genOps(rand.New(rand.NewSource(1)), len(arrivals), p), arrivals, 1024)
	if s.failed() != 0 || len(s.readUs) != len(arrivals) {
		t.Fatalf("%d failed, %d read samples", s.failed(), len(s.readUs))
	}
	// Request i was due at 2i ms and could not finish before the stall
	// ended: at least stall-2i ms of latency, for every one of them.
	floor := float64((stall - arrivals[len(arrivals)-1]).Microseconds())
	if s.readUs[0] < floor {
		t.Errorf("fastest request took %.0fus; every request was due during the %v stall and must show at least %.0fus", s.readUs[0], stall, floor)
	}
	if len(s.lateUs) != len(arrivals) || s.lateUs[0] < 0 {
		t.Errorf("generator lateness: %d samples, min %.1fus", len(s.lateUs), s.lateUs[0])
	}
	// The cap on outstanding requests refuses, and counts, the overflow.
	target = &serialTarget{stall: stall}
	lt.clients = []relClient{target}
	s = lt.openLoop(genOps(rand.New(rand.NewSource(1)), len(arrivals), p), arrivals, 4)
	if s.outcomes[failOverflow] == 0 || s.failed() != s.outcomes[failOverflow] {
		t.Errorf("with 4 in flight allowed: outcomes %v", s.outcomes)
	}
}

// TestPercentileNeedsSamplesBeyond: a percentile is reported only with
// at least ten samples beyond it.
func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i)
	}
	if _, ok := percentile(s, 0.99); ok {
		t.Error("p99 of 100 samples rests on one sample and must not be supported")
	}
	if v, ok := percentile(s, 0.9); !ok || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v", v, ok)
	}
	if got, want := supported(s, 0.99), quantileSorted(s, 0.9); got != want {
		t.Errorf("supported(p99) fell back to %v, want the p90 %v", got, want)
	}
	if supported(s[:5], 0.99) != 2 {
		t.Errorf("five samples support only the median, got %v", supported(s[:5], 0.99))
	}
	if q := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(q-5.5/5.5) > 1e-9 {
		// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
		t.Errorf("iqrShare = %v, want 1", q)
	}
}

// TestTracedProviderForwardsOptionalInterfaces: whatever optional
// interface the engine can assert on the plain provider's relation and
// handles, it must also find on the wrapped ones, or the traced
// evaluation would run a different plan.
func TestTracedProviderForwardsOptionalInterfaces(t *testing.T) {
	plain := relation.MustLookup("btree")
	wrapped, err := traceProvider(plain, &relRecorder{})
	if err != nil {
		t.Fatal(err)
	}
	pr, wr := plain.New(2), wrapped.New(2)
	po, wo := pr.NewOps(), wr.NewOps()
	for _, c := range []struct {
		name        string
		plain, wrap bool
	}{
		{"ParallelMerger", is[relation.ParallelMerger](pr), is[relation.ParallelMerger](wr)},
		{"Splitter", is[relation.Splitter](pr), is[relation.Splitter](wr)},
		{"Snapshotter", is[relation.Snapshotter](pr), is[relation.Snapshotter](wr)},
		{"Shaper", is[relation.Shaper](pr), is[relation.Shaper](wr)},
		{"RangeScanner", is[relation.RangeScanner](po), is[relation.RangeScanner](wo)},
		{"CursorOps", is[relation.CursorOps](po), is[relation.CursorOps](wo)},
		{"HintReporter", is[relation.HintReporter](po), is[relation.HintReporter](wo)},
		{"StatsFlusher", is[relation.StatsFlusher](po), is[relation.StatsFlusher](wo)},
	} {
		if !c.plain || !c.wrap {
			t.Errorf("%s: plain %v, wrapped %v", c.name, c.plain, c.wrap)
		}
	}
	if _, err := traceProvider(relation.MustLookup("hashset"), &relRecorder{}); err == nil {
		t.Error("a provider without the optional interfaces must be refused, not half-wrapped")
	}

	// The wrapper counts, and merges still reach the backend's fast path.
	rec := &relRecorder{}
	wrapped, _ = traceProvider(plain, rec)
	dst, src := wrapped.New(2), wrapped.New(2)
	ops := src.NewOps()
	for i := uint64(0); i < 1000; i++ {
		ops.Insert(tuple.Tuple{i, i})
	}
	ops.(relation.StatsFlusher).FlushStats()
	relation.MergeInto(dst, src, 2)
	if rec.calls[relInsert].Load() != 1000 || rec.calls[relMerge].Load() != 1 || dst.Len() != 1000 {
		t.Errorf("inserts %d, merges %d, merged length %d", rec.calls[relInsert].Load(), rec.calls[relMerge].Load(), dst.Len())
	}
}

func is[T any](v any) bool { _, ok := v.(T); return ok }

// TestLadderStepsTelescope: the per-layer steps are consecutive
// differences and sum back to the top rung.
func TestLadderStepsTelescope(t *testing.T) {
	rungs := []float64{0.3, 0.5, 24, 69, 21, 35, 20.5}
	steps := ladderSteps(rungs)
	sum := 0.0
	for _, s := range steps {
		sum += s
	}
	if len(steps) != len(rungs) || math.Abs(sum-rungs[len(rungs)-1]) > 1e-9 || steps[0] != rungs[0] {
		t.Errorf("steps %v sum to %v, top rung is %v", steps, sum, rungs[len(rungs)-1])
	}
}

// TestGate: the determinism gate accepts preload + acknowledged, allows
// tuples of unknown fate, and counts missing and foreign tuples.
func TestGate(t *testing.T) {
	base := []pair{{1, 1}, {2, 2}, {5, 5}}
	acked := []pair{{3, 3}, {2, 2}}
	scan := func(ps ...pair) func(func(tuple.Tuple) bool) error {
		return func(y func(tuple.Tuple) bool) error {
			for _, p := range ps {
				y(tuple.Tuple{p[0], p[1]})
			}
			return nil
		}
	}
	for _, c := range []struct {
		name    string
		got     []pair
		unknown []pair
		wrong   int64
	}{
		{"exact", []pair{{1, 1}, {2, 2}, {3, 3}, {5, 5}}, nil, 0},
		{"unknown fate landed", []pair{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}, []pair{{4, 4}}, 0},
		{"unknown fate lost", []pair{{1, 1}, {2, 2}, {3, 3}, {5, 5}}, []pair{{4, 4}}, 0},
		{"acked tuple missing", []pair{{1, 1}, {2, 2}, {5, 5}}, nil, 1},
		{"foreign tuple", []pair{{1, 1}, {2, 2}, {3, 3}, {5, 5}, {9, 9}}, nil, 1},
		{"tail missing", []pair{{1, 1}, {2, 2}}, nil, 2},
		{"duplicate", []pair{{1, 1}, {1, 1}, {2, 2}, {3, 3}, {5, 5}}, nil, 2},
	} {
		_, wrong, err := gate(scan(c.got...), base, acked, c.unknown)
		if err != nil || wrong != c.wrong {
			t.Errorf("%s: %d wrong (want %d), err %v", c.name, wrong, c.wrong, err)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus what its
// children cover, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "stage", Start: 0, End: 100, ID: 1},
		{Name: "call", Start: 10, End: 40, ID: 2, Parent: 1},
		{Name: "call", Start: 30, End: 60, ID: 3, Parent: 1},
		{Name: "log", Start: 35, End: 38, ID: 4, Parent: 3},
	}
	self := selfTimes(spans)
	if self["stage"] != 50 || self["call"] != 30+27 || self["log"] != 3 {
		t.Errorf("self times %v", self)
	}
	tr := newTracer()
	sp := tr.begin("a.b", 0, 7)
	sp.end()
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Errorf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
	var none *tracer
	none.begin("x", 0, 0).end() // the untraced run's handle does nothing
}

// TestCompareVerdicts: ok inside the bound, regressed beyond it in the
// worse direction only, unresolved when the spread is wider than the
// bound.
func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{Name: "read_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "saturation_rps", Unit: "req/s", Better: higher, Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lat, steady(100), steady(105), "ok"},
		{lat, steady(100), steady(120), "regressed"},
		{lat, steady(100), steady(50), "ok"},
		{rate, steady(1000), steady(800), "regressed"},
		{rate, steady(1000), steady(1500), "ok"},
		{lat, steady(100), []float64{80, 100, 150, 170, 120}, "unresolved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}

	// End to end over files: a set against itself is all ok, against a
	// slower one it regresses and exits 1.
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		for i := 0; i < 3; i++ {
			doc := resultDoc{Schema: schema, Workload: wServe, Correct: true, Metrics: map[string]metricValue{
				"read_p50_us": {Value: p50, Unit: "us"}, "setup_s": {Value: 1, Unit: "s"},
			}}
			if err := json.NewEncoder(&buf).Encode(doc); err != nil {
				t.Fatal(err)
			}
			buf.WriteString("{\"correct\":true}\nnot json\n")
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 100), write("b.json", 130)
	var out bytes.Buffer
	if code := runCompare([]string{a, a}, &out); code != 0 {
		t.Errorf("a against a exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare([]string{a, b}, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a against b exits %d:\n%s", code, out.String())
	}
}
