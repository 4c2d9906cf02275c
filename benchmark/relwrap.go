package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"specbtree/internal/core"
	"specbtree/internal/relation"
	"specbtree/internal/tuple"
)

// relOp is a class of relation call the counting provider tells apart.
type relOp int

const (
	relInsert relOp = iota
	relContains
	relScan
	relMerge
	numRelOps
)

func (o relOp) String() string {
	return [...]string{"insert", "contains", "scan", "merge"}[o]
}

// samplePeriod: the counting provider counts every call and times one in
// samplePeriod (merges, being few and long, are all timed).
const samplePeriod = 64

// clockInside is the part of a time.Now/time.Since pair that lands
// inside the interval it measures, clockPair the whole pair. The sampled
// operations take tens to hundreds of nanoseconds, the same order as the
// clock, so every sampled interval is corrected by these.
var clockInside, clockPair = calibrateClock()

func calibrateClock() (inside, pair time.Duration) {
	const n = 200_000
	var sum time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return sum / n, time.Since(start) / n
}

// timed is a sampled interval without the clock's own share, scaled to
// the calls it stands for.
func timed(d time.Duration) int64 {
	return int64(max(0, d-clockInside)) * samplePeriod
}

// relRecorder accumulates the calls and sampled busy time of every
// relation created by one traced provider. Ops handles count locally
// and flush here, so the hot path touches no shared cache line.
type relRecorder struct {
	calls  [numRelOps]atomic.Int64
	busyNs [numRelOps]atomic.Int64 // already scaled by the sampling period
}

func (r *relRecorder) busySeconds(op relOp) float64 {
	return float64(r.busyNs[op].Load()) / 1e9
}

// traceProvider wraps p so that every relation it creates counts its
// calls into rec. The wrapper forwards every optional interface the
// engine asserts, so it only accepts providers that implement them all
// (the specialised B-tree does); anything less would silently change the
// engine's plan.
func traceProvider(p relation.Provider, rec *relRecorder) (relation.Provider, error) {
	probe := p.New(2)
	_, ok1 := probe.(relation.ParallelMerger)
	_, ok2 := probe.(relation.Splitter)
	_, ok3 := probe.(relation.Snapshotter)
	_, ok4 := probe.(relation.Shaper)
	ops := probe.NewOps()
	_, ok5 := ops.(relation.RangeScanner)
	_, ok6 := ops.(relation.CursorOps)
	_, ok7 := ops.(relation.HintReporter)
	_, ok8 := ops.(relation.StatsFlusher)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8) {
		return relation.Provider{}, fmt.Errorf("provider %s lacks an optional interface the counting wrapper forwards", p.Name)
	}
	wrapped := p
	wrapped.New = func(arity int) relation.Relation {
		return &tracedRel{Relation: p.New(arity), rec: rec}
	}
	return wrapped, nil
}

// tracedRel wraps one relation. The embedded Relation forwards Arity,
// Len, Empty and Scan.
type tracedRel struct {
	relation.Relation
	rec *relRecorder
}

// unwrap lets merges reach the backend's structure-aware fast path,
// which type-asserts its source.
func unwrap(r relation.Relation) relation.Relation {
	if t, ok := r.(*tracedRel); ok {
		return t.Relation
	}
	return r
}

func (r *tracedRel) NewOps() relation.Ops {
	inner := r.Relation.NewOps()
	return &tracedOps{
		inner: inner, rec: r.rec,
		ranger: inner.(relation.RangeScanner), cursors: inner.(relation.CursorOps),
	}
}

func (r *tracedRel) timeMerge(fn func()) {
	start := time.Now()
	fn()
	r.rec.calls[relMerge].Add(1)
	r.rec.busyNs[relMerge].Add(int64(time.Since(start)))
}

func (r *tracedRel) MergeFrom(src relation.Relation) {
	r.timeMerge(func() { r.Relation.MergeFrom(unwrap(src)) })
}

func (r *tracedRel) ParallelMergeFrom(src relation.Relation, workers int) {
	r.timeMerge(func() { r.Relation.(relation.ParallelMerger).ParallelMergeFrom(unwrap(src), workers) })
}

func (r *tracedRel) SplitRange(from, to tuple.Tuple, n int) []tuple.Tuple {
	return r.Relation.(relation.Splitter).SplitRange(from, to, n)
}

func (r *tracedRel) Snapshot() relation.Snapshot {
	return r.Relation.(relation.Snapshotter).Snapshot()
}

func (r *tracedRel) Shape() core.Shape { return r.Relation.(relation.Shaper).Shape() }

// tracedOps wraps one per-goroutine handle. Like the handle it wraps it
// is confined to one goroutine, so its counters are plain fields.
type tracedOps struct {
	inner   relation.Ops
	ranger  relation.RangeScanner
	cursors relation.CursorOps
	rec     *relRecorder
	calls   [numRelOps]int64
	busyNs  [numRelOps]int64
}

// sampled counts one call of class op and reports whether to time it.
func (o *tracedOps) sampled(op relOp) bool {
	o.calls[op]++
	return o.calls[op]%samplePeriod == 1
}

func (o *tracedOps) Insert(t tuple.Tuple) bool {
	if !o.sampled(relInsert) {
		return o.inner.Insert(t)
	}
	start := time.Now()
	fresh := o.inner.Insert(t)
	o.busyNs[relInsert] += timed(time.Since(start))
	return fresh
}

func (o *tracedOps) Contains(t tuple.Tuple) bool {
	if !o.sampled(relContains) {
		return o.inner.Contains(t)
	}
	start := time.Now()
	found := o.inner.Contains(t)
	o.busyNs[relContains] += timed(time.Since(start))
	return found
}

// scan runs a callback-driven scan; a sampled scan is timed without the
// time spent inside the engine's callback, which is not the relation's.
func (o *tracedOps) scan(run func(yield func(tuple.Tuple) bool), yield func(tuple.Tuple) bool) {
	if !o.sampled(relScan) {
		run(yield)
		return
	}
	var inYield time.Duration // callback time, plus the clock pairs that time it
	start := time.Now()
	run(func(t tuple.Tuple) bool {
		y0 := time.Now()
		more := yield(t)
		inYield += time.Since(y0) + clockPair - clockInside
		return more
	})
	o.busyNs[relScan] += timed(time.Since(start) - inYield)
}

func (o *tracedOps) PrefixScan(prefix tuple.Tuple, yield func(tuple.Tuple) bool) {
	o.scan(func(y func(tuple.Tuple) bool) { o.inner.PrefixScan(prefix, y) }, yield)
}

func (o *tracedOps) RangeScan(from, to tuple.Tuple, yield func(tuple.Tuple) bool) {
	o.scan(func(y func(tuple.Tuple) bool) { o.ranger.RangeScan(from, to, y) }, yield)
}

func (o *tracedOps) NewIterator() relation.Iterator {
	return &tracedIter{inner: o.cursors.NewIterator(), o: o}
}

func (o *tracedOps) HintStats() (hits, misses uint64) {
	return o.inner.(relation.HintReporter).HintStats()
}

// FlushStats is the engine's end-of-evaluation hook: besides forwarding
// it, the handle publishes its local counts.
func (o *tracedOps) FlushStats() {
	o.inner.(relation.StatsFlusher).FlushStats()
	for op := relOp(0); op < numRelOps; op++ {
		o.rec.calls[op].Add(o.calls[op])
		o.rec.busyNs[op].Add(o.busyNs[op])
		o.calls[op], o.busyNs[op] = 0, 0
	}
}

// tracedIter wraps a pull iterator: every Seek is one scan call, and a
// sampled scan times its Seek and each of its Next calls.
type tracedIter struct {
	inner relation.Iterator
	o     *tracedOps
	timed bool
}

func (it *tracedIter) Seek(lo, hi tuple.Tuple) {
	it.timed = it.o.sampled(relScan)
	if !it.timed {
		it.inner.Seek(lo, hi)
		return
	}
	start := time.Now()
	it.inner.Seek(lo, hi)
	it.o.busyNs[relScan] += timed(time.Since(start))
}

func (it *tracedIter) Next() bool {
	if !it.timed {
		return it.inner.Next()
	}
	start := time.Now()
	more := it.inner.Next()
	it.o.busyNs[relScan] += timed(time.Since(start))
	return more
}

func (it *tracedIter) Tuple() tuple.Tuple { return it.inner.Tuple() }
