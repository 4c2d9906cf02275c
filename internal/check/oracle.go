package check

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"specbtree/internal/tuple"
)

// Run drives the differential oracle against one provider: cfg.Rounds
// cycles of a concurrent insert phase, a barrier, and a concurrent read
// phase, mirroring the phase discipline of semi-naïve Datalog
// evaluation. Every operation result is checked exactly against the
// sequential reference model. All randomness derives from cfg.Seed, so a
// reported failure is replayed by re-running with the seed printed in
// Report.Summary.
func Run(f Factory, arity int, cfg Config) Report {
	cfg = cfg.withDefaults()
	if f.Arity1Only {
		arity = 1
	}
	inst := f.New(arity)
	m := newModel(arity)
	rec := &recorder{target: f.Name}

	for round := 0; round < cfg.Rounds && !rec.stop(); round++ {
		runInsertPhase(inst, f, m, cfg, arity, round, rec)
		if rec.stop() {
			break
		}
		checkLen(inst, m, round, rec)
		checkScan(inst, m, f.Unordered, round, rec)
		runReadPhase(inst, f, m, cfg, arity, round, rec)
	}

	rep := Report{
		Target:     f.Name,
		Arity:      arity,
		Config:     cfg,
		FinalLen:   inst.Len(),
		Violations: rec.take(),
	}
	// Release held resources (the serve target's listener and sockets)
	// before the minimizer starts building replay instances.
	closeInstance(inst)
	if rep.Failed() {
		rep.Trace = minimize(f, arity, cfg, rep.Violations[0])
	}
	return rep
}

// RunAll runs the oracle against every target at the given arity and
// returns one report per applicable target (arity-restricted targets are
// skipped for wider tuples).
func RunAll(arity int, cfg Config) []Report {
	var reps []Report
	for _, f := range Targets() {
		if f.Arity1Only && arity != 1 {
			continue
		}
		reps = append(reps, Run(f, arity, cfg))
	}
	return reps
}

// splitmix64 is the standard SplitMix64 finalizer; it decorrelates the
// structured (seed, salt, round, worker) inputs into stream seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

const (
	saltInsert = 0x1
	saltRead   = 0x2
)

// streamSeed derives the deterministic per-worker, per-round, per-phase
// RNG seed from the master seed.
func streamSeed(seed int64, salt uint64, round, worker int) int64 {
	x := splitmix64(uint64(seed) ^ splitmix64(salt))
	x = splitmix64(x ^ uint64(round))
	x = splitmix64(x ^ uint64(worker))
	return int64(x)
}

// randTuple draws an arity-width tuple with every word in [0, space).
func randTuple(rng *rand.Rand, arity int, space uint64) tuple.Tuple {
	t := make(tuple.Tuple, arity)
	for i := range t {
		t[i] = rng.Uint64() % space
	}
	return t
}

// insertStream replays worker w's round-r insert stream, calling emit for
// each tuple in order. Both the concurrent phase and the model update run
// exactly this generator, which is what makes the oracle differential.
func insertStream(cfg Config, arity, round, worker int, emit func(tuple.Tuple)) {
	if cfg.Workload == WorkloadLeapfrog {
		leapfrogStream(cfg, arity, round, worker, emit)
		return
	}
	rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, saltInsert, round, worker)))
	for i := 0; i < cfg.Inserts; i++ {
		emit(randTuple(rng, arity, cfg.KeySpace))
	}
}

// leapfrogStream is worker w's round-r stream under WorkloadLeapfrog:
// the round owns the fresh key block starting at round*Workers*Inserts,
// cut into Workers*4 partitions of Inserts/4 keys; the worker emits its
// partitions (w, w+Workers, …) as ascending runs. Every word of a tuple
// carries the key, so all tuples are distinct and ordered by key.
func leapfrogStream(cfg Config, arity, round, worker int, emit func(tuple.Tuple)) {
	per := cfg.Inserts / 4
	base := round * cfg.Workers * cfg.Inserts
	for p := worker; p < cfg.Workers*4; p += cfg.Workers {
		for k := base + p*per; k < base+(p+1)*per; k++ {
			t := make(tuple.Tuple, arity)
			for i := range t {
				t[i] = uint64(k)
			}
			emit(t)
		}
	}
}

// runInsertPhase drives the concurrent insert phase, the barrier, the
// model update and the freshness check for one round.
func runInsertPhase(inst Instance, f Factory, m *model, cfg Config, arity, round int, rec *recorder) {
	fresh := make([]int, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := inst.NewWriter()
			n := 0
			insertStream(cfg, arity, round, w, func(t tuple.Tuple) {
				if wr.Insert(t) {
					n++
				}
			})
			wr.Flush()
			fresh[w] = n
		}(w)
	}
	wg.Wait()
	inst.Barrier()

	// Identical streams into the model, single-threaded.
	before := m.len()
	for w := 0; w < cfg.Workers; w++ {
		insertStream(cfg, arity, round, w, func(t tuple.Tuple) { m.insert(t) })
	}
	m.rebuild()
	growth := m.len() - before

	sum := 0
	for _, n := range fresh {
		sum += n
	}
	// Exactly-once backends: each distinct new tuple reports fresh exactly
	// once across all workers. Approximate backends (per-worker private
	// trees) over-report cross-worker duplicates, but can never
	// under-report: every distinct new tuple is fresh to the first worker
	// that sees it.
	if f.ApproxFreshness {
		if sum < growth {
			rec.add(Violation{Round: round, Worker: -1, Op: "freshness",
				Got: fmt.Sprintf("%d fresh", sum), Want: fmt.Sprintf(">= %d new tuples", growth)})
		}
	} else if sum != growth {
		rec.add(Violation{Round: round, Worker: -1, Op: "freshness",
			Got: fmt.Sprintf("%d fresh", sum), Want: fmt.Sprintf("%d new tuples", growth)})
	}
}

// checkLen compares the provider's element count against the model.
func checkLen(inst Instance, m *model, round int, rec *recorder) {
	if got, want := inst.Len(), m.len(); got != want {
		rec.add(Violation{Round: round, Worker: -1, Op: "len",
			Got: fmt.Sprint(got), Want: fmt.Sprint(want)})
	}
}

// checkScan compares a full traversal against the model: exact sequence
// equality for ordered backends, set equality for unordered ones.
func checkScan(inst Instance, m *model, unordered bool, round int, rec *recorder) {
	if unordered {
		n, bad := 0, tuple.Tuple(nil)
		inst.Scan(func(t tuple.Tuple) bool {
			n++
			if !m.contains(t) {
				bad = cloneBound(t)
				return false
			}
			return true
		})
		if bad != nil {
			rec.add(Violation{Round: round, Worker: -1, Op: "scan", Arg: bad,
				Got: "yielded", Want: "not in model"})
		} else if n != m.len() {
			rec.add(Violation{Round: round, Worker: -1, Op: "scan",
				Got: fmt.Sprintf("%d tuples", n), Want: fmt.Sprintf("%d tuples", m.len())})
		}
		return
	}
	want := m.all()
	i := 0
	ok := true
	inst.Scan(func(t tuple.Tuple) bool {
		if i >= len(want) || tuple.Compare(t, want[i]) != 0 {
			exp := "end"
			if i < len(want) {
				exp = fmt.Sprint([]uint64(want[i]))
			}
			rec.add(Violation{Round: round, Worker: -1, Op: "scan", Arg: cloneBound(t),
				Got: fmt.Sprintf("position %d: %v", i, []uint64(t)), Want: exp})
			ok = false
			return false
		}
		i++
		return true
	})
	if ok && i != len(want) {
		rec.add(Violation{Round: round, Worker: -1, Op: "scan",
			Got: fmt.Sprintf("%d tuples", i), Want: fmt.Sprintf("%d tuples", len(want))})
	}
}

// formatBound renders a bound result for violation reports.
func formatBound(t tuple.Tuple, ok bool) string {
	if !ok {
		return "(none)"
	}
	return fmt.Sprint([]uint64(t))
}

// probe evaluates one read operation against both the provider reader and
// the immutable model, recording any divergence.
func probe(rd Reader, m *model, op string, arg tuple.Tuple, round, worker int, rec *recorder) {
	switch op {
	case "contains":
		got, want := rd.Contains(arg), m.contains(arg)
		if got != want {
			rec.add(Violation{Round: round, Worker: worker, Op: op, Arg: arg,
				Got: fmt.Sprint(got), Want: fmt.Sprint(want)})
		}
	case "lower_bound", "upper_bound":
		strict := op == "upper_bound"
		gt, gok := rd.Bound(arg, strict)
		wt, wok := m.bound(arg, strict)
		if gok != wok || (gok && tuple.Compare(gt, wt) != 0) {
			rec.add(Violation{Round: round, Worker: worker, Op: op, Arg: arg,
				Got: formatBound(gt, gok), Want: formatBound(wt, wok)})
		}
	}
}

// probeArg draws a probe argument: mostly uniform over the key space
// (duplicate-heavy, so both hits and misses occur), occasionally past its
// upper edge to exercise end-of-structure handling.
func probeArg(rng *rand.Rand, arity int, space uint64) tuple.Tuple {
	t := randTuple(rng, arity, space)
	if rng.Intn(8) == 0 {
		t[rng.Intn(arity)] += space // beyond every inserted word
	}
	return t
}

// maxTuple is the all-ones tuple, the lower-bound probe past the end of
// any possible content. This is the exact probe shape of the PR 3
// load-after-validate race: a racy count load turns "no such element"
// into a bogus valid cursor.
func maxTuple(arity int) tuple.Tuple {
	t := make(tuple.Tuple, arity)
	for i := range t {
		t[i] = math.MaxUint64
	}
	return t
}

// runReadPhase drives the concurrent read phase for one round: every
// worker issues an independent deterministic mix of contains, lower-bound
// and upper-bound probes through its own Reader handle. Worker 0 leads
// with the all-MaxUint64 lower bound.
func runReadPhase(inst Instance, f Factory, m *model, cfg Config, arity, round int, rec *recorder) {
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd := inst.NewReader()
			rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, saltRead, round, w)))
			if w == 0 && !f.NoBounds {
				probe(rd, m, "lower_bound", maxTuple(arity), round, w, rec)
			}
			for i := 0; i < cfg.Reads; i++ {
				if i%16 == 0 && rec.stop() {
					return
				}
				arg := probeArg(rng, arity, cfg.KeySpace)
				switch op := rng.Intn(3); {
				case op == 0 || f.NoBounds:
					probe(rd, m, "contains", arg, round, w, rec)
				case op == 1:
					probe(rd, m, "lower_bound", arg, round, w, rec)
				default:
					probe(rd, m, "upper_bound", arg, round, w, rec)
				}
			}
		}(w)
	}
	wg.Wait()
}
