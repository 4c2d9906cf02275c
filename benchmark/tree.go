package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// keys is a pointer-free tuple sequence: tuple i is words[2i:2i+2]. The
// stage holds millions of them next to the trees it times; as tuple
// slices they would be the garbage collector's main work.
type keys []uint64

func (k keys) len() int { return len(k) / 2 }

func (k keys) at(i int) tuple.Tuple { return tuple.Tuple(k[2*i : 2*i+2 : 2*i+2]) }

// permuted returns k's tuples in the order of perm.
func (k keys) permuted(perm []int) keys {
	out := make(keys, 0, len(k))
	for _, i := range perm {
		out = append(out, k[2*i], k[2*i+1])
	}
	return out
}

// treeInput is the generated input of the tree stage.
type treeInput struct {
	ordered  keys  // the side x side grid of workload.Points2D, in lexicographic order
	shuffled keys  // the same points in seeded random order
	present  keys  // lookup keys that are in the tree, in another random order
	absent   keys  // n/4 lookup keys that are not
	sum      fnv64 // checksum of ordered
}

func makeTreeInput(n int, seed int64) treeInput {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	var in treeInput
	in.sum = fnvOffset
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			in.ordered = append(in.ordered, uint64(x), uint64(y))
			in.sum = in.sum.word(uint64(x)).word(uint64(y))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	in.shuffled = in.ordered.permuted(rng.Perm(side * side))
	in.present = in.ordered.permuted(rng.Perm(side * side))
	// Absent keys sit one grid width to the right of present ones.
	for i := 0; i < side*side/4; i++ {
		p := in.present.at(i)
		in.absent = append(in.absent, p[0]+uint64(side), p[1])
	}
	return in
}

// phaseRounds is how many barrier-separated rounds a timed phase is cut
// into. A phase over a million keys takes a third of a second, and on a
// shared host no third of a second passes undisturbed; a round of ten
// milliseconds often does. Round k does the same work in every
// repetition, so the phase's own cost is the sum over k of the fastest
// round k seen (bestSum).
const phaseRounds = 32

// rounds runs fn over [0, n) on `workers` goroutines, each owning a
// contiguous chunk and working through it in phaseRounds blocks with a
// barrier after each; it returns every round's wall time. It collects
// garbage first, so that every timed phase starts from the same heap
// and the tree's own collections fall in the same rounds each time.
func rounds(n, workers int, fn func(w, lo, hi int)) []time.Duration {
	runtime.GC()
	out := make([]time.Duration, phaseRounds)
	for k := range out {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			first, end := n*w/workers, n*(w+1)/workers
			lo, hi := first+(end-first)*k/phaseRounds, first+(end-first)*(k+1)/phaseRounds
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn(w, lo, hi)
			}(w)
		}
		wg.Wait()
		out[k] = time.Since(start)
	}
	return out
}

// bestSum is the phase time free of interference: for every round, the
// fastest of its repetitions, summed.
func bestSum(reps [][]time.Duration) time.Duration {
	var sum time.Duration
	for k := range reps[0] {
		best := reps[0][k]
		for _, r := range reps[1:] {
			best = min(best, r[k])
		}
		sum += best
	}
	return sum
}

func total(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// insertAll inserts ks into a fresh tree from `workers` goroutines, each
// with its own hints and a contiguous chunk, as in the paper's parallel
// insertion experiment.
func insertAll(ks keys, workers int) (*core.Tree, []time.Duration) {
	t := core.New(2)
	hints := make([]*core.Hints, workers)
	for w := range hints {
		hints[w] = core.NewHints()
	}
	ds := rounds(ks.len(), workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.InsertHint(ks.at(i), hints[w])
		}
	})
	for _, h := range hints {
		h.FlushObs()
	}
	return t, ds
}

// scanPasses is how often a repetition scans the tree; each pass is one
// timed unit.
const scanPasses = 4

// treeRep is one repetition: the round times of its three chunked
// phases, the times of its scan passes, and the shuffled tree's heap
// footprint.
type treeRep struct {
	ordered, random, lookup, scan []time.Duration
	bytesPerTuple                 float64
}

// heapAlloc returns the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// treePhases runs the paper's phase-concurrent experiment once: ordered
// insert, shuffled insert into a fresh tree, lookups and partitioned
// scans on the shuffled tree, and its heap footprint. wrong counts
// answers that disagree with the generated input. marks, when not nil,
// receives obs counter readings before and after the shuffled insert and
// after the lookups.
func (b *bench) treePhases(in treeInput, workers int, parent uint64, marks *[3]counters) (rep treeRep, shuffledTree *core.Tree, wrong int64) {
	mark := func(i int) {
		if marks != nil {
			marks[i] = takeCounters()
		}
	}
	n := in.ordered.len()

	sp := b.tr.begin("core.insert_ordered", parent, 0)
	ot, ds := insertAll(in.ordered, workers)
	sp.end()
	rep.ordered = ds
	if ot.Len() != n {
		wrong++
	}
	ot = nil
	before := heapAlloc()

	mark(0)
	sp = b.tr.begin("core.insert_random", parent, 0)
	st, ds := insertAll(in.shuffled, workers)
	sp.end()
	mark(1)
	rep.random = ds
	if st.Len() != n {
		wrong++
	}
	if after := heapAlloc(); after > before {
		rep.bytesPerTuple = float64(after-before) / float64(n)
	}

	sp = b.tr.begin("core.lookup", parent, 0)
	miss := make([]int64, workers)
	hints := make([]*core.Hints, workers)
	for w := range hints {
		hints[w] = core.NewHints()
	}
	rep.lookup = rounds(n, workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if !st.ContainsHint(in.present.at(i), hints[w]) {
				miss[w]++
			}
		}
		for i := lo / 4; i < hi/4; i++ {
			if st.ContainsHint(in.absent.at(i), hints[w]) {
				miss[w]++
			}
		}
	})
	for w, h := range hints {
		h.FlushObs()
		wrong += miss[w]
	}
	sp.end()
	mark(2)

	// Scans: the tree cut at its own split points, the partitions shared
	// out over the workers, one timed pass after another.
	sp = b.tr.begin("core.scan", parent, 0)
	bounds := st.SplitPoints(workers * 8)
	runtime.GC()
	for pass := 0; pass < scanPasses; pass++ {
		counts := make([]int, workers)
		unsorted := make([]int64, workers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				prev := make(tuple.Tuple, 2)
				for part := w; part <= len(bounds); part += workers {
					from, to := tuple.Tuple{0, 0}, tuple.Tuple(nil)
					if part > 0 {
						from = bounds[part-1]
					}
					if part < len(bounds) {
						to = bounds[part]
					}
					first := true
					st.Range(from, to, func(t tuple.Tuple) bool {
						if !first && !tuple.Less(prev, t) {
							unsorted[w]++
						}
						first = false
						copy(prev, t)
						counts[w]++
						return true
					})
				}
			}(w)
		}
		wg.Wait()
		rep.scan = append(rep.scan, time.Since(start))
		scanned := 0
		for w := range counts {
			scanned += counts[w]
			wrong += unsorted[w]
		}
		if scanned != n {
			wrong++
		}
	}
	sp.end()
	return rep, st, wrong
}

// stageTree is the tree-phases stage: paper Fig. 3/4 on optlock+core
// alone. It repeats treePhases until the budget is spent (at least
// TreeMinRep times) and reports each phase's rate from its best rounds.
func (b *bench) stageTree(focus bool, budget time.Duration) {
	stage := b.tr.begin("stage.tree", 0, 0)
	defer stage.end()
	in := makeTreeInput(b.size(b.p.TreeN, focus), b.seed)
	n := in.ordered.len()

	var reps []treeRep
	var last *core.Tree
	var marks *[3]counters // obs readings of the first repetition
	deadline := time.Now().Add(budget)
	for len(reps) < b.p.TreeMinRep || time.Now().Before(deadline) {
		last = nil
		var m *[3]counters
		if b.traced() && marks == nil {
			m = new([3]counters)
			marks = m
		}
		rep, st, wrong := b.treePhases(in, b.procs, stage.id(), m)
		reps = append(reps, rep)
		last = st
		b.attempted.Add(int64(3*n + in.absent.len() + n*scanPasses))
		b.failed.Add(wrong)
		if wrong > 0 {
			b.fail("tree stage: %d wrong answers (length, membership, scan order or count)", wrong)
		}
	}
	// Contents check, once: a full scan must reproduce the generated
	// input's checksum.
	sum, count := fnvOffset, 0
	last.All(func(t tuple.Tuple) bool {
		sum = sum.word(t[0]).word(t[1])
		count++
		return true
	})
	if count != n || sum != in.sum {
		b.fail("tree stage: scan gave %d tuples, checksum %x; generated %d, %x", count, sum, n, in.sum)
	}
	if err := last.Check(); err != nil {
		b.fail("tree stage: %v", err)
	}

	mops := func(ops int, phase func(treeRep) []time.Duration) float64 {
		all := make([][]time.Duration, len(reps))
		for i, r := range reps {
			all[i] = phase(r)
		}
		return float64(ops) / bestSum(all).Seconds() / 1e6
	}
	b.set("insert_ordered_mops", mops(n, func(r treeRep) []time.Duration { return r.ordered }))
	b.set("insert_random_mops", mops(n, func(r treeRep) []time.Duration { return r.random }))
	b.set("lookup_mops", mops(n+in.absent.len(), func(r treeRep) []time.Duration { return r.lookup }))
	var scans, mem []float64
	for _, r := range reps {
		for _, d := range r.scan {
			scans = append(scans, d.Seconds())
		}
		mem = append(mem, r.bytesPerTuple)
	}
	b.set("scan_mtps", float64(n)/lowest(scans)/1e6)
	b.set("mem_bytes_per_tuple", median(mem))
	b.set("tree.reps", float64(len(reps)))

	if b.traced() {
		b.treeLayerMetrics(in, last, marks)
		if focus {
			// Tracing this stage is a span per phase: one more repetition
			// without them prices it (and shows the run-to-run noise).
			tr := b.tr
			b.tr = nil
			rep, _, _ := b.treePhases(in, b.procs, 0, nil)
			b.tr = tr
			b.set("trace.overhead_ratio", ratio(float64(n)/total(rep.random).Seconds()/1e6, b.values["insert_random_mops"]))
		}
	}
}

// treeLayerMetrics derives the optlock and core counters of the first
// repetition and the single-goroutine rates behind core.scaling_eff.
func (b *bench) treeLayerMetrics(in treeInput, shuffled *core.Tree, marks *[3]counters) {
	from := 0 // delta reads marks[from] -> marks[from+1]
	delta := func(c obs.Counter) float64 { return float64(marks[from+1][c] - marks[from][c]) }
	hit := func(h, m obs.Counter) float64 { return ratio(delta(h), delta(h)+delta(m)) }
	inserts := float64(in.ordered.len())
	b.set("optlock.validate_fail_ratio", ratio(delta(obs.LockReadValidationFailures), delta(obs.LockReadValidations)))
	b.set("optlock.upgrade_fail_ratio", ratio(delta(obs.LockUpgradeFailures), delta(obs.LockUpgradeFailures)+delta(obs.LockUpgradeSuccesses)))
	b.set("optlock.write_spins_per_insert", ratio(delta(obs.LockWriteSpins), inserts))
	b.set("core.hint_hit_ratio.insert", hit(obs.HintInsertHits, obs.HintInsertMisses))
	b.set("core.restart_ratio", ratio(delta(obs.TreeRestarts), delta(obs.TreeDescents)))
	b.set("core.splits_per_kinsert", ratio(delta(obs.TreeLeafSplits)+delta(obs.TreeInnerSplits)+delta(obs.TreeRootSplits), inserts/1000))
	from = 1 // the lookup phase
	b.set("core.hint_hit_ratio.find", hit(obs.HintFindHits, obs.HintFindMisses))
	shape := shuffled.Shape()
	b.set("core.depth", float64(shape.Depth))
	b.set("core.leaf_fill_ratio", shape.Fill)
	if len(shape.Levels) > 0 {
		b.set("core.leaf_fill_ratio", shape.Levels[len(shape.Levels)-1].Fill)
	}

	// Scaling efficiency: the T-goroutine rate over T times the
	// one-goroutine rate, on the same input, best of two each.
	eff := func(ks keys) float64 {
		var one, all [][]time.Duration
		for i := 0; i < 2; i++ {
			_, d1 := insertAll(ks, 1)
			_, dT := insertAll(ks, b.procs)
			one, all = append(one, d1), append(all, dT)
		}
		return bestSum(one).Seconds() / bestSum(all).Seconds() / float64(b.procs)
	}
	b.set("core.scaling_eff", eff(in.ordered))
	b.set("core.scaling_eff_random", eff(in.shuffled))
}

// counters is a reading of every obs counter.
type counters [obs.NumCounters]uint64

func takeCounters() counters {
	var c counters
	for i := range c {
		c[i] = obs.Value(obs.Counter(i))
	}
	return c
}
