package datalog

// The streaming evaluator. Each positive body atom becomes a
// cursor-backed iterator over its assigned index; the iterators compose
// into an odometer chain that pulls tuples lazily — no intermediate
// materialisation — and comparisons on the first suffix column of a
// scanned index are pushed down into the cursor's [lo, hi) bounds
// instead of filtering after the scan. DESIGN.md §12 documents the
// contract. It is the engine's only rule evaluator; the differential
// harness checks it against the naive reference in internal/check.

import (
	"sync"
	"sync/atomic"

	"specbtree/internal/obs"
	"specbtree/internal/relation"
	"specbtree/internal/tuple"
)

// pushSamplePeriod is the sampling rate of the pushdown-selectivity
// histogram: one in every pushSamplePeriod pushed scans (per worker)
// records its yield. Must be a power of two.
const pushSamplePeriod = 16

// chainStage is the per-worker runtime state of one body literal in a
// streaming chain. Atom stages own a reusable iterator and bound
// buffers; negation stages a probe buffer; comparison and negation
// stages fire exactly once per opening (done).
type chainStage struct {
	lit *litPlan

	// Positive atoms.
	iter    relation.Iterator
	lo, hi  tuple.Tuple // reusable bound buffers
	rows    uint64      // rows pulled from the current scan
	emitted uint64      // rows that passed the residual actions
	sample  bool        // record rows into the selectivity histogram at exhaustion
	empty   bool        // pushed bounds proved the scan empty; nothing to pull
	// pushedScan marks the current scan's bounds as pushdown-tightened;
	// spanStart is the scan's open time when the chain is traced.
	pushedScan bool
	spanStart  int64

	// Negated atoms.
	probe tuple.Tuple

	// Comparisons and negations: set after their single firing.
	done bool
}

// streamChain is a worker-local composed iterator over a rule body: one
// stage per literal, pulled by an odometer walk (run). A chain is
// confined to its worker goroutine — stages hold cursors and the
// worker's Ops handles — and lives for one rule evaluation, during
// which the phase-concurrency contract guarantees the scanned versions
// are not written (DESIGN.md §5.1).
type streamChain struct {
	e      *Engine
	ws     *workerState
	p      *rulePlan
	target insertTarget
	env    []uint64
	stages []chainStage

	// trace/ruleSpan snapshot the engine's current trace context at
	// chain construction (chains never outlive one rule evaluation), so
	// iter.scan spans parent to the enclosing engine.rule span.
	trace    obs.TraceID
	ruleSpan obs.SpanID
}

func newStreamChain(e *Engine, ws *workerState, p *rulePlan, target insertTarget) *streamChain {
	c := &streamChain{e: e, ws: ws, p: p, target: target, trace: e.trace, ruleSpan: e.ruleSpan}
	c.env = make([]uint64, p.numVars)
	c.stages = make([]chainStage, len(p.body))
	for i := range p.body {
		l := &p.body[i]
		c.stages[i].lit = l
		switch l.kind {
		case LitAtom:
			arity := l.rel.arity
			c.stages[i].lo = make(tuple.Tuple, 0, arity)
			c.stages[i].hi = make(tuple.Tuple, 0, arity)
		case LitNegAtom:
			c.stages[i].probe = make(tuple.Tuple, len(l.ground))
		}
	}
	return c
}

// scanSource resolves the relation version stage l reads this round.
func scanSource(l *litPlan) relation.Relation {
	if l.useDelta {
		return l.rel.delta[l.index]
	}
	return l.rel.full[l.index]
}

// scanBounds computes the [lo, hi) key range of an atom stage for the
// current bindings, folding the stage's pushed comparisons into the
// bounds. pushed reports whether a comparison tightened the range beyond
// the plain prefix bounds; empty reports a range proved unsatisfiable
// (the scan can be skipped outright). The returned slices alias the
// stage's reusable buffers; hi is nil for a scan running to the end of
// the index.
func (c *streamChain) scanBounds(s *chainStage) (lo, hi tuple.Tuple, pushed, empty bool) {
	l := s.lit
	arity := l.rel.arity
	nPrefix := len(l.prefix)
	lo = s.lo[:0]
	for _, vs := range l.prefix {
		lo = append(lo, vs.value(c.env))
	}

	// Fold the pushed comparisons into bounds on the first suffix column.
	const maxVal = ^uint64(0)
	var loCol, hiCol uint64
	hasLo, hasHi := false, false
	if nPrefix < arity {
		for _, pb := range l.push {
			v := pb.val.value(c.env)
			switch pb.op {
			case CmpGe:
				if !hasLo || v > loCol {
					loCol = v
				}
				hasLo = true
			case CmpGt:
				if v == maxVal {
					return nil, nil, true, true // x > max: no tuple qualifies
				}
				if !hasLo || v+1 > loCol {
					loCol = v + 1
				}
				hasLo = true
			case CmpLt:
				if !hasHi || v < hiCol {
					hiCol = v
				}
				hasHi = true
			case CmpLe:
				if v != maxVal { // x <= max is vacuous; keep the prefix bound
					if !hasHi || v+1 < hiCol {
						hiCol = v + 1
					}
					hasHi = true
				}
			case CmpEq:
				if !hasLo || v > loCol {
					loCol = v
				}
				hasLo = true
				if v != maxVal {
					if !hasHi || v+1 < hiCol {
						hiCol = v + 1
					}
					hasHi = true
				}
			}
		}
	}
	pushed = hasLo || hasHi
	if hasLo && hasHi && loCol >= hiCol {
		return nil, nil, true, true
	}

	if hasLo {
		lo = append(lo, loCol)
	}
	for len(lo) < arity {
		lo = append(lo, 0)
	}
	s.lo = lo

	if hasHi {
		h := s.hi[:0]
		h = append(h, lo[:nPrefix]...)
		h = append(h, hiCol)
		for len(h) < arity {
			h = append(h, 0)
		}
		s.hi = h
		return lo, h, pushed, false
	}
	hi = prefixUpperInto(s.hi[:0], lo[:nPrefix], arity)
	if hi != nil {
		s.hi = hi
	}
	return lo, hi, pushed, false
}

// prefixUpperInto is tuple.PrefixUpperBound into a caller-owned buffer:
// the exclusive upper bound of the range sharing prefix, padded with
// zeros to arity, or nil when the prefix is maximal (scan to the end).
func prefixUpperInto(buf, prefix tuple.Tuple, arity int) tuple.Tuple {
	buf = append(buf, prefix...)
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i] != ^uint64(0) {
			buf[i]++
			for j := i + 1; j < len(buf); j++ {
				buf[j] = 0
			}
			for len(buf) < arity {
				buf = append(buf, 0)
			}
			return buf
		}
	}
	return nil
}

// openScan seeks an atom stage's iterator to [lo, hi), creating the
// iterator on first use. Backends without an ordered cursor surface get
// the materialising fallback iterator.
func (c *streamChain) openScan(s *chainStage, lo, hi tuple.Tuple, pushed bool) {
	l := s.lit
	if s.iter == nil {
		ops := c.ws.opsFor(scanSource(l))
		if co, ok := ops.(relation.CursorOps); ok {
			s.iter = co.NewIterator()
		} else {
			s.iter = &fallbackIter{ops: ops, nPrefix: len(l.prefix), arity: l.rel.arity}
		}
	}
	c.ws.scans++
	c.ws.iterScans++
	s.rows = 0
	s.emitted = 0
	s.empty = false
	s.sample = false
	s.pushedScan = pushed
	if pushed {
		c.ws.pushScans++
		s.sample = obs.Enabled && c.ws.pushScans&(pushSamplePeriod-1) == 1
	}
	if c.trace != 0 {
		s.spanStart = obs.Clock()
	}
	s.iter.Seek(lo, hi)
}

// closeScan settles an exhausted atom scan: flush its exact actuals
// into the plan node (the EXPLAIN ANALYZE accumulators — atomic because
// workers share the litPlan) and, when the chain is traced, record the
// scan's span. Every opened scan reaches this point exactly once — the
// odometer walk always pulls a stage to exhaustion before reopening it
// — so actScans stays equal to the worker iterScans total.
func (c *streamChain) closeScan(s *chainStage) {
	l := s.lit
	atomic.AddUint64(&l.actScans, 1)
	atomic.AddUint64(&l.actRows, s.rows)
	atomic.AddUint64(&l.actEmitted, s.emitted)
	if c.trace != 0 {
		site := obs.SpanIterScan
		if s.pushedScan {
			site = obs.SpanIterScanPush
		}
		obs.RecordSpan(c.trace, 0, c.ruleSpan, site,
			s.spanStart, obs.Clock()-s.spanStart, s.rows, s.emitted)
	}
}

// open (re)positions stage i for the current bindings of the stages
// before it.
func (c *streamChain) open(i int) {
	s := &c.stages[i]
	if s.lit.kind != LitAtom {
		s.done = false
		return
	}
	lo, hi, pushed, empty := c.scanBounds(s)
	if empty {
		s.empty = true
		return
	}
	c.openScan(s, lo, hi, pushed)
}

// next advances stage i to its next satisfying binding. Atom stages
// pull tuples from their iterator until one passes the residual
// bind/check actions; comparison and negation stages fire at most once
// per opening.
func (c *streamChain) next(i int) bool {
	s := &c.stages[i]
	l := s.lit
	switch l.kind {
	case LitAtom:
		if s.empty {
			return false
		}
		nPrefix := len(l.prefix)
		for s.iter.Next() {
			c.ws.iterRows++
			s.rows++
			if applyActions(l.rest, s.iter.Tuple()[nPrefix:], c.env) {
				s.emitted++
				return true
			}
			c.ws.residualRows++
		}
		if s.sample {
			obs.Observe(obs.HistPushdownSelectivity, s.rows)
			s.sample = false
		}
		c.closeScan(s)
		return false
	case LitCmp:
		if s.done {
			return false
		}
		s.done = true
		if l.pushed {
			return true // absorbed into an earlier stage's scan bounds
		}
		return l.op.Eval(l.l.value(c.env), l.r.value(c.env))
	case LitNegAtom:
		if s.done {
			return false
		}
		s.done = true
		for k, vs := range l.ground {
			s.probe[k] = vs.value(c.env)
		}
		c.ws.contains++
		return !c.ws.opsFor(l.rel.full[l.index]).Contains(s.probe)
	}
	return false
}

// runFrom is the odometer walk: advance the deepest open stage; on
// success descend (or emit at the last stage), on exhaustion backtrack.
// Stage start must already be open; stages before it must have bound
// their variables into env.
func (c *streamChain) runFrom(start int) {
	depth := start
	last := len(c.stages) - 1
	for depth >= start {
		if !c.next(depth) {
			depth--
			continue
		}
		if depth == last {
			c.e.emit(c.ws, c.p, c.env, c.target)
			continue
		}
		depth++
		c.open(depth)
	}
}

// run opens stage start and pulls the chain to exhaustion.
func (c *streamChain) run(start int) {
	if start >= len(c.stages) {
		c.e.emit(c.ws, c.p, c.env, c.target)
		return
	}
	c.open(start)
	c.runFrom(start)
}

// runOuterRange pulls the chain with the outer stage pinned to one
// partition [lo, hi) of the (possibly pushdown-tightened) outer range.
func (c *streamChain) runOuterRange(lo, hi tuple.Tuple, pushed bool) {
	c.openScan(&c.stages[0], lo, hi, pushed)
	c.runFrom(0)
}

// evalPlanStream evaluates one rule version, partitioning the outermost
// scan across the worker pool (the paper's parallelisation of the
// outermost for-loop of Figure 1): splittable backends get Soufflé-style
// key-range partitions, others a materialised outer scan chunked across
// workers.
func (e *Engine) evalPlanStream(p *rulePlan, target insertTarget) {
	// A body without a positive outer atom (only comparisons and
	// negations) has nothing to partition: the chain fires each literal
	// once and emits at most one head tuple.
	if e.workers <= 1 || len(p.body) == 0 || p.body[0].kind != LitAtom {
		newStreamChain(e, e.workerState[0], p, target).run(0)
		return
	}

	// The outer bounds depend only on constants (the planner panics on an
	// unbound variable in the outermost prefix), so compute them once on a
	// scratch chain and clone them out of its buffers.
	outer := &p.body[0]
	arity := outer.rel.arity
	src := scanSource(outer)
	scratch := newStreamChain(e, e.workerState[0], p, target)
	lo, hi, outerPushed, empty := scratch.scanBounds(&scratch.stages[0])
	if empty {
		return
	}
	lo = append(tuple.Tuple(nil), lo...)
	if hi != nil {
		hi = append(tuple.Tuple(nil), hi...)
	}

	if sp, ok := src.(relation.Splitter); ok {
		bounds := sp.SplitRange(lo, hi, e.workers*4)
		starts := make([]tuple.Tuple, 0, len(bounds)+1)
		ends := make([]tuple.Tuple, 0, len(bounds)+1)
		starts = append(starts, lo)
		for _, b := range bounds {
			ends = append(ends, b)
			starts = append(starts, b)
		}
		ends = append(ends, hi)

		var wg sync.WaitGroup
		workers := e.workers
		if workers > len(starts) {
			workers = len(starts)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, ws *workerState) {
				defer wg.Done()
				c := newStreamChain(e, ws, p, target)
				for ri := w; ri < len(starts); ri += workers {
					c.runOuterRange(starts[ri], ends[ri], outerPushed)
				}
			}(w, e.workerState[w])
		}
		wg.Wait()
		return
	}

	// Materialise the outer range and chunk it across the workers. The
	// outer node's actuals mirror the worker counters exactly: actRows
	// counts every pulled row (out-of-bounds rows included, matching
	// iterRows), actEmitted the rows that survived bounds and residual
	// actions in the chunk loops below. The scan's span is recorded here
	// with arg1 = rows within bounds, since the residual pass has not run
	// yet when the scan closes.
	w0 := e.workerState[0]
	var flat []uint64
	w0.scans++
	w0.iterScans++
	if outerPushed {
		w0.pushScans++
	}
	var spanStart int64
	if e.trace != 0 {
		spanStart = obs.Clock()
	}
	pulled := uint64(0)
	w0.opsFor(src).PrefixScan(lo[:len(outer.prefix)], func(t tuple.Tuple) bool {
		w0.iterRows++
		pulled++
		if tuple.Compare(t, lo) < 0 || (hi != nil && tuple.Compare(t, hi) >= 0) {
			return true
		}
		flat = append(flat, t...)
		return true
	})
	n := len(flat) / arity
	atomic.AddUint64(&outer.actScans, 1)
	atomic.AddUint64(&outer.actRows, pulled)
	if e.trace != 0 {
		site := obs.SpanIterScan
		if outerPushed {
			site = obs.SpanIterScanPush
		}
		obs.RecordSpan(e.trace, 0, e.ruleSpan, site,
			spanStart, obs.Clock()-spanStart, pulled, uint64(n))
	}
	if n == 0 {
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	nPrefix := len(outer.prefix)
	for w := 0; w < workers; w++ {
		clo, chi := w*chunk, (w+1)*chunk
		if chi > n {
			chi = n
		}
		if clo >= chi {
			break
		}
		wg.Add(1)
		go func(ws *workerState, part []uint64) {
			defer wg.Done()
			c := newStreamChain(e, ws, p, target)
			emitted := uint64(0)
			for off := 0; off < len(part); off += arity {
				t := part[off : off+arity]
				if applyActions(outer.rest, t[nPrefix:], c.env) {
					emitted++
					c.run(1)
				}
			}
			atomic.AddUint64(&outer.actEmitted, emitted)
		}(e.workerState[w], flat[clo*arity:chi*arity])
	}
	wg.Wait()
}

// fallbackIter adapts a cursor-less Ops handle (the hash provider, the
// foreign-tree baselines) to the Iterator contract: Seek materialises
// the backend's prefix scan filtered to [lo, hi) and Next replays the
// buffer. The B-tree providers never take this path — their adapters
// implement relation.CursorOps natively.
type fallbackIter struct {
	ops     relation.Ops
	nPrefix int
	arity   int
	rows    []uint64
	pos     int
}

func (it *fallbackIter) Seek(lo, hi tuple.Tuple) {
	it.rows = it.rows[:0]
	it.pos = -1
	it.ops.PrefixScan(lo[:it.nPrefix], func(t tuple.Tuple) bool {
		if tuple.Compare(t, lo) < 0 || (hi != nil && tuple.Compare(t, hi) >= 0) {
			return true
		}
		it.rows = append(it.rows, t...)
		return true
	})
}

func (it *fallbackIter) Next() bool {
	if it.pos < 0 {
		it.pos = 0
	} else {
		it.pos += it.arity
	}
	return it.pos+it.arity <= len(it.rows) && it.arity > 0
}

func (it *fallbackIter) Tuple() tuple.Tuple {
	return it.rows[it.pos : it.pos+it.arity]
}
