package main

import (
	"os"
	"path/filepath"
	"time"

	"specbtree/internal/cluster"
	"specbtree/internal/core"
	"specbtree/internal/optlock"
	"specbtree/internal/relation"
	"specbtree/internal/tuple"
	"specbtree/internal/workload"
)

// microN is the tree size of the single-goroutine layer measurements:
// cache-resident, so they price instructions, not memory.
const microN = 160_000

// perOpNs times fn over n operations from one goroutine and returns the
// mean nanoseconds per operation. Per-call timestamps would cost more
// than the operations these loops measure.
func perOpNs(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / float64(n)
}

// sink keeps measured results alive so the compiler cannot drop the
// calls that produce them.
var sink uint64

// stageMicro takes each layer's own uncontended costs (traced runs
// only): optlock's three lock pairs, core's and relation's per-operation
// means, snapshot and bulk paths, cluster routing, and one online range
// move under read load.
func (b *bench) stageMicro() {
	stage := b.tr.begin("stage.micro", 0, 0)
	defer stage.end()
	b.microOptlock()
	b.microCore()
	b.microCluster()
	b.microMove(stage.id())
}

func (b *bench) microOptlock() {
	const n = 2_000_000
	var l optlock.Lock
	b.set("optlock.read_pair_ns", perOpNs(n, func() {
		for i := 0; i < n; i++ {
			if lease := l.StartRead(); l.Valid(lease) {
				sink++
			}
		}
	}))
	b.set("optlock.write_pair_ns", perOpNs(n, func() {
		for i := 0; i < n; i++ {
			l.StartWrite()
			l.EndWrite()
		}
	}))
	b.set("optlock.upgrade_pair_ns", perOpNs(n, func() {
		for i := 0; i < n; i++ {
			if l.TryUpgradeToWrite(l.StartRead()) {
				l.EndWrite()
			}
		}
	}))
}

func (b *bench) microCore() {
	ordered := workload.Points2D(microN)
	shuffled := workload.Shuffle(ordered, b.seed)
	n := len(ordered)

	insert := func(pts []tuple.Tuple) (*core.Tree, float64) {
		t, h := core.New(2), core.NewHints()
		ns := perOpNs(n, func() {
			for _, p := range pts {
				t.InsertHint(p, h)
			}
		})
		return t, ns
	}
	_, ns := insert(ordered)
	b.set("core.insert_ordered_ns", ns)
	tree, ns := insert(shuffled)
	b.set("core.insert_random_ns", ns)

	probe := func(keys []tuple.Tuple, op func(tuple.Tuple, *core.Hints)) (float64, core.HintStats) {
		h := core.NewHints()
		ns := perOpNs(n, func() {
			for _, k := range keys {
				op(k, h)
			}
		})
		return ns, h.Stats
	}
	contains := func(k tuple.Tuple, h *core.Hints) {
		if tree.ContainsHint(k, h) {
			sink++
		}
	}
	ns, _ = probe(ordered, contains)
	b.set("core.contains_ordered_ns", ns)
	ns, _ = probe(shuffled, contains)
	b.set("core.contains_random_ns", ns)
	ns, _ = probe(shuffled, func(k tuple.Tuple, h *core.Hints) {
		if c := tree.LowerBoundHint(k, h); c.Valid() {
			sink++
		}
	})
	b.set("core.lower_bound_ns", ns)
	// Bound hints pay off on ascending probes, the order a Datalog join
	// presents them in.
	_, st := probe(ordered, func(k tuple.Tuple, h *core.Hints) { tree.LowerBoundHint(k, h) })
	b.set("core.hint_hit_ratio.lower", ratio(float64(st.LowerHits), float64(st.LowerHits+st.LowerMisses)))
	_, st = probe(ordered, func(k tuple.Tuple, h *core.Hints) { tree.UpperBoundHint(k, h) })
	b.set("core.hint_hit_ratio.upper", ratio(float64(st.UpperHits), float64(st.UpperHits+st.UpperMisses)))
	b.set("core.scan_ns_per_tuple", perOpNs(n, func() {
		tree.All(func(t tuple.Tuple) bool { sink += t[1]; return true })
	}))

	// A snapshot, then the first insert after it, which copies its path.
	const snaps = 20_000
	extra := tuplesOf(randomPairs(b.stageRNG("micro", 1), snaps, 1<<40))
	var snapNs, cowNs time.Duration
	for _, k := range extra {
		t0 := time.Now()
		s := tree.Snapshot()
		t1 := time.Now()
		tree.Insert(k)
		cowNs += time.Since(t1)
		snapNs += t1.Sub(t0)
		sink += uint64(s.Arity())
	}
	b.set("core.snapshot_ns", float64(snapNs)/snaps)
	b.set("core.cow_insert_ns", float64(cowNs)/snaps)

	mtps := func(tuples int, d time.Duration) float64 { return float64(tuples) / d.Seconds() / 1e6 }
	bulk := core.New(2)
	start := time.Now()
	bulk.BuildFromSorted(ordered)
	b.set("core.build_sorted_mtps", mtps(n, time.Since(start)))
	dst, _ := insert(shuffled[:n/2])
	src, _ := insert(shuffled[n/2:])
	start = time.Now()
	dst.ParallelInsertAll(src, b.procs)
	b.set("core.parallel_merge_mtps", mtps(src.Len(), time.Since(start)))
	if dst.Len() != n {
		b.fail("micro: parallel merge left %d tuples, want %d", dst.Len(), n)
	}

	// The same operations one layer up, through Provider.New → NewOps.
	// The adapter's cost is a difference of two large numbers, so both
	// are taken three times in alternation and compared at their best.
	var rel relation.Relation
	var ops relation.Ops
	var coreNs, relNs []float64
	for i := 0; i < 3; i++ {
		_, ns := insert(shuffled)
		coreNs = append(coreNs, ns)
		rel = relation.MustLookup("btree").New(2)
		ops = rel.NewOps()
		relNs = append(relNs, perOpNs(n, func() {
			for _, p := range shuffled {
				ops.Insert(p)
			}
		}))
	}
	b.set("relation.insert_ns", lowest(relNs))
	b.set("relation.adapter_overhead_ns", lowest(relNs)-lowest(coreNs))
	b.set("relation.contains_ns", perOpNs(n, func() {
		for _, p := range shuffled {
			if ops.Contains(p) {
				sink++
			}
		}
	}))
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	b.set("relation.prefix_scan_ns_per_tuple", perOpNs(n, func() {
		for x := 0; x < side; x++ {
			ops.PrefixScan(tuple.Tuple{uint64(x)}, func(t tuple.Tuple) bool { sink += t[1]; return true })
		}
	}))
	b.attempted.Add(int64(12 * n))
}

func (b *bench) microCluster() {
	const n = 1_000_000
	m := cluster.BandMap(3, b.p.KeySpace)
	keys := randomPairs(b.stageRNG("micro", 2), 4096, b.p.KeySpace)
	var dst []int
	b.set("cluster.route_ns", perOpNs(n, func() {
		for i := 0; i < n; i++ {
			k := keys[i%len(keys)][0]
			dst = m.ReadShards(dst[:0], k)
			sink += uint64(m.RouteInsert(k) + dst[0])
		}
	}))
	// How many shards one 16-tuple batch of the mix touches.
	touched, batches := 0, 0
	for lo := 0; lo+b.p.Batch <= len(keys); lo += b.p.Batch {
		seen := map[int]bool{}
		for _, k := range keys[lo : lo+b.p.Batch] {
			seen[m.RouteInsert(k[0])] = true
		}
		touched += len(seen)
		batches++
	}
	b.set("cluster.shards_per_insert", ratio(float64(touched), float64(batches)))
}

// microMove moves a quarter of one shard's band to its neighbour while a
// 1000 req/s read-only open loop runs: the background work (how long the
// move takes) and the foreground stall it causes (read p90 in the window).
func (b *bench) microMove(parent uint64) {
	const preloadN, rate = 100_000, 1000
	dir := filepath.Join(b.tmp, "move")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.fail("micro: move: %v", err)
		return
	}
	c, err := cluster.StartCluster(cluster.Options{
		Shards: 2, LogDir: dir, InitialMap: cluster.BandMap(2, b.p.KeySpace),
	})
	if err != nil {
		b.fail("micro: move: %v", err)
		return
	}
	defer c.Close()
	cl, err := c.Client(cluster.ClientOptions{Timeout: clientTimeout})
	if err != nil {
		b.fail("micro: move: %v", err)
		return
	}
	defer cl.Close()
	rng := b.stageRNG("micro", 3)
	base := randomPairs(rng, preloadN, b.p.KeySpace)
	if err := preload(cl.Insert, tuplesOf(base)); err != nil {
		b.fail("micro: move: %v", err)
		return
	}
	base = sortDedupe(base)

	readOnly := b.p
	readOnly.WritePct = 0
	arrivals := poissonArrivals(rng, rate, 1500*time.Millisecond)
	ops := genOps(rng, len(arrivals), readOnly)
	t := &loadTarget{layer: "cluster", clients: []relClient{cl}, base: base, scanLimit: b.p.ScanLimit, tr: b.tr, parent: parent}
	moved := make(chan time.Duration, 1)
	go func() {
		time.Sleep(200 * time.Millisecond) // let the window start
		half := b.p.KeySpace / 2           // shard 0 owns [0, half)
		sp := b.tr.begin("cluster.move_range", parent, 0)
		start := time.Now()
		err := c.MoveRange(half-half/4, half-1, 1, cluster.MoveOptions{})
		d := time.Since(start)
		sp.end()
		if err != nil {
			d = -1
		}
		moved <- d
	}()
	s := t.openLoop(ops, arrivals, b.p.MaxInflight)
	d := <-moved
	b.attempted.Add(s.attempted() + 1)
	b.failed.Add(s.failed())
	if d < 0 {
		b.failed.Add(1)
		b.fail("micro: MoveRange failed")
	}
	b.set("cluster.move_range_s", d.Seconds())
	b.set("cluster.move_read_p90_us", quantileSorted(s.readUs, 0.9))
	compared, wrong, err := gate(func(y func(tuple.Tuple) bool) error { return cl.ScanAll(nil, nil, y) }, base, nil, nil)
	b.attempted.Add(compared)
	b.failed.Add(wrong)
	if err != nil || wrong > 0 {
		b.fail("micro: after the move %d of %d tuples disagree with the preload: %v", wrong, compared, err)
	}
}
