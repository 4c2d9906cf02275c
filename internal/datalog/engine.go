package datalog

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/relation"
	"specbtree/internal/tuple"
)

// Options configures an Engine.
type Options struct {
	// Provider selects the relation representation (default "btree").
	Provider relation.Provider
	// Workers is the evaluation thread count (default GOMAXPROCS).
	Workers int
	// PlanCache overrides the compilation cache (default
	// DefaultPlanCache). Compilation is pure in the program text, so a
	// cache may be shared freely across providers.
	PlanCache *PlanCache
	// NoPlanCache compiles from scratch without consulting any cache.
	NoPlanCache bool
	// TraceID attributes the run's spans (engine rounds, rule
	// evaluations, iterator scans) to an existing trace — the relation
	// server threads a request frame's trace here, cmd/datalog -trace a
	// forced one. Zero (the default) lets Run consult the sampling gate
	// itself via obs.StartTrace, so engine-originated traces appear
	// whenever sampling is enabled.
	TraceID obs.TraceID
}

// Stats mirrors the evaluation statistics of the paper's Table 2, plus the
// hint statistics reported in §4.3. The JSON field names are part of the
// metrics contract documented in DESIGN.md §9.
type Stats struct {
	Relations int `json:"relations"`
	Rules     int `json:"rules"`

	Inserts         uint64 `json:"inserts"`           // data-structure insert operations (per index)
	MembershipTests uint64 `json:"membership_tests"`  // contains operations
	LowerBoundCalls uint64 `json:"lower_bound_calls"` // one per range scan
	UpperBoundCalls uint64 `json:"upper_bound_calls"` // one per range scan

	InputTuples    uint64 `json:"input_tuples"`    // facts loaded before evaluation
	ProducedTuples uint64 `json:"produced_tuples"` // distinct derived tuples
	Iterations     uint64 `json:"iterations"`      // fixpoint rounds across all strata

	HintHits   uint64 `json:"hint_hits"`
	HintMisses uint64 `json:"hint_misses"`

	// Streaming-evaluator counters. The fields below were appended for
	// the streaming rewrite; the earlier fields keep their positions and
	// names (append-only contract).
	StreamScans   uint64 `json:"stream_scans"`    // composed-iterator scans opened
	StreamRows    uint64 `json:"stream_rows"`     // tuples pulled through iterators
	PushdownScans uint64 `json:"pushdown_scans"`  // scans with comparison-tightened bounds
	ResidualRows  uint64 `json:"residual_rows"`   // pulled rows rejected by residual checks
	PlanCacheHits uint64 `json:"plan_cache_hits"` // 1 if this engine bound a cached plan
	PlanCacheMiss uint64 `json:"plan_cache_misses"`
}

// HintRate returns the fraction of hinted operations that hit.
func (s Stats) HintRate() float64 {
	total := s.HintHits + s.HintMisses
	if total == 0 {
		return 0
	}
	return float64(s.HintHits) / float64(total)
}

// engRel is the runtime representation of one logical relation: a set of
// indexes (column permutations), each materialised as full/delta/new
// versions for semi-naïve evaluation.
type engRel struct {
	name    string
	arity   int
	indexes []indexDef
	sig     map[string]int
	// sigIndex maps each search signature to the index serving it, as
	// computed by the minimum-chain-cover selection (indexopt.go).
	sigIndex map[sigSet]int

	full  []relation.Relation
	delta []relation.Relation
	nw    []relation.Relation
}

// ensureIndex registers the permutation if new and returns its id. Only
// legal before relation instantiation (compile time).
func (r *engRel) ensureIndex(perm []int) int {
	d := indexDef{Perm: perm}
	s := d.signature()
	if id, ok := r.sig[s]; ok {
		return id
	}
	id := len(r.indexes)
	r.indexes = append(r.indexes, d)
	r.sig[s] = id
	return id
}

// permute writes t permuted by idx into dst.
func (r *engRel) permute(idx int, t, dst tuple.Tuple) {
	for i, c := range r.indexes[idx].Perm {
		dst[i] = t[c]
	}
}

// Engine evaluates a Datalog program bottom-up with parallel semi-naïve
// iteration (paper §2). The relation data structure is pluggable; worker
// goroutines hold per-goroutine Ops handles carrying operation hints.
type Engine struct {
	prog     *Program
	provider relation.Provider
	workers  int
	syms     *SymbolTable
	rels     map[string]*engRel
	strata   []Stratum
	plans    map[int][]*rulePlan // stratum -> plans (recursive versions included)

	inputTuples uint64
	stats       Stats
	rounds      []RoundMetric
	ran         bool

	// trace is the run's trace ID (0 = untraced). ruleSpan is the
	// engine.rule span of the rule version currently under evaluation —
	// the parent the streaming evaluator hangs iter.scan spans off. Both
	// are written only by the sequential driver between parallel
	// sections; worker goroutines read them through the chains they are
	// handed at spawn.
	trace    obs.TraceID
	ruleSpan obs.SpanID

	// workerState[i] is owned by worker i during parallel sections.
	workerState []*workerState
}

// workerState carries per-worker Ops handles (hint storage) and counters.
type workerState struct {
	ops map[relation.Relation]relation.Ops

	inserts, contains, scans, produced uint64

	// Streaming-evaluator counters (iter.go).
	iterScans, iterRows, pushScans, residualRows uint64
}

func (w *workerState) opsFor(r relation.Relation) relation.Ops {
	if o, ok := w.ops[r]; ok {
		return o
	}
	o := r.NewOps()
	w.ops[r] = o
	return o
}

// New compiles prog for evaluation, consulting the plan cache unless
// Options opts out. The program must be safe and stratifiable.
func New(prog *Program, opts Options) (*Engine, error) {
	provider := opts.Provider
	if provider.New == nil {
		provider = relation.MustLookup("btree")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	e := &Engine{
		prog:     prog,
		provider: provider,
		workers:  workers,
		trace:    opts.TraceID,
		syms:     NewSymbolTable(),
		rels:     map[string]*engRel{},
		plans:    map[int][]*rulePlan{},
	}

	cache := opts.PlanCache
	if cache == nil {
		cache = DefaultPlanCache
	}
	if opts.NoPlanCache {
		cache = nil
	}
	var key string
	var entry *planEntry
	if cache != nil {
		key = programKey(prog)
		entry = cache.lookup(key)
	}
	if entry != nil {
		// Cache hit: skip the safety check, the stratification, the index
		// selection and the rule compilation — the entry was stored by a
		// successful compile of the identical program text.
		e.bindEntry(entry)
		e.stats.PlanCacheHits = 1
	} else {
		if err := e.compileProgram(); err != nil {
			return nil, err
		}
		if cache != nil {
			e.stats.PlanCacheMiss = 1
			cache.store(key, snapshotEntry(e))
		}
	}

	// Instantiate the relation sets now that the index set is final.
	for _, r := range e.rels {
		r.full = make([]relation.Relation, len(r.indexes))
		r.delta = make([]relation.Relation, len(r.indexes))
		r.nw = make([]relation.Relation, len(r.indexes))
		for i := range r.indexes {
			r.full[i] = provider.New(r.arity)
		}
	}

	e.workerState = make([]*workerState, workers)
	for i := range e.workerState {
		e.workerState[i] = &workerState{ops: map[relation.Relation]relation.Ops{}}
	}

	// Load inline facts. Both scratch buffers are hoisted out of the loop;
	// insertFact itself allocates nothing.
	buf := make(tuple.Tuple, 8)
	perm := make(tuple.Tuple, 8)
	for _, r := range prog.Rules {
		if len(r.Body) != 0 {
			continue
		}
		rel := e.rels[r.Head.Pred]
		t := buf[:0]
		for _, term := range r.Head.Terms {
			switch term.Kind {
			case TermNum:
				t = append(t, term.Num)
			case TermSym:
				t = append(t, e.syms.Intern(term.Sym))
			default:
				return nil, fmt.Errorf("datalog: line %d: non-ground fact %s", r.Line, r.Head)
			}
		}
		for len(perm) < rel.arity {
			perm = append(perm, 0)
		}
		e.insertFact(e.workerState[0], rel, t, perm[:rel.arity])
	}
	return e, nil
}

// compileProgram runs the full compilation pipeline: safety check,
// stratification, semi-naïve version enumeration, signature collection,
// minimum-chain-cover index selection and rule compilation. On return
// e.rels holds finalised index layouts (no instances yet), e.strata the
// stratification and e.plans the compiled versions — exactly the state
// snapshotEntry captures into the plan cache.
func (e *Engine) compileProgram() error {
	prog := e.prog
	if err := CheckSafety(prog); err != nil {
		return err
	}
	strata, err := Stratify(prog)
	if err != nil {
		return err
	}
	e.strata = strata
	for _, d := range prog.Decls {
		if d.Arity > 64 {
			return fmt.Errorf("datalog: relation %q has arity %d; the index selection supports at most 64 columns", d.Name, d.Arity)
		}
		e.rels[d.Name] = &engRel{name: d.Name, arity: d.Arity, sig: map[string]int{}}
	}
	// Every relation gets the identity index so facts, negation probes and
	// duplicate checks always have a home.
	for _, r := range e.rels {
		r.ensureIndex(permFor(r.arity, nil))
	}

	// Enumerate the semi-naïve rule versions per stratum.
	inStratum := make(map[string]int, len(prog.Decls))
	for si, st := range strata {
		for _, p := range st.Preds {
			inStratum[p] = si
		}
	}
	type version struct{ si, ri, deltaPos int }
	var versions []version
	for si, st := range strata {
		for _, ri := range st.Rules {
			r := prog.Rules[ri]
			if len(r.Body) == 0 {
				continue // facts are loaded, not planned
			}
			recursive := false
			for _, l := range r.Body {
				if l.Kind == LitAtom && inStratum[l.Atom.Pred] == si {
					recursive = true
				}
			}
			if !recursive {
				versions = append(versions, version{si, ri, -1})
				continue
			}
			for li, l := range r.Body {
				if l.Kind == LitAtom && inStratum[l.Atom.Pred] == si {
					versions = append(versions, version{si, ri, li})
				}
			}
		}
	}

	// Pass 1: collect the search signatures of every version and run the
	// minimum-chain-cover index selection per relation ([29]).
	sigsByRel := map[*engRel][]sigSet{}
	for _, v := range versions {
		e.collectSignatures(v.ri, v.deltaPos, func(r *engRel, s sigSet) {
			sigsByRel[r] = append(sigsByRel[r], s)
		})
	}
	for _, r := range e.rels {
		r.finalizeIndexes(sigsByRel[r])
	}

	// Pass 2: compile the versions against the final index assignment.
	for _, v := range versions {
		plan, err := e.compileRule(v.ri, v.deltaPos)
		if err != nil {
			return err
		}
		e.plans[v.si] = append(e.plans[v.si], plan)
	}
	return nil
}

// Symbols exposes the engine's symbol table for interning fact constants.
func (e *Engine) Symbols() *SymbolTable { return e.syms }

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// insertFact inserts t into all full indexes of rel on the given worker,
// using the caller's scratch buffer (len >= rel.arity) for the permuted
// rows so batch loading allocates nothing per fact.
func (e *Engine) insertFact(w *workerState, rel *engRel, t, perm tuple.Tuple) bool {
	rel.permute(0, t, perm)
	w.inserts++
	fresh := w.opsFor(rel.full[0]).Insert(perm)
	if !fresh {
		return false
	}
	for i := 1; i < len(rel.indexes); i++ {
		rel.permute(i, t, perm)
		w.inserts++
		w.opsFor(rel.full[i]).Insert(perm)
	}
	return true
}

// AddFact loads one input fact before Run. The tuple is in declaration
// column order; symbolic columns must be pre-interned via Symbols.
func (e *Engine) AddFact(name string, t tuple.Tuple) error {
	rel, ok := e.rels[name]
	if !ok {
		return fmt.Errorf("datalog: unknown relation %q", name)
	}
	if len(t) != rel.arity {
		return fmt.Errorf("datalog: relation %q has arity %d, fact has %d", name, rel.arity, len(t))
	}
	if e.ran {
		return fmt.Errorf("datalog: AddFact after Run")
	}
	perm := make(tuple.Tuple, rel.arity)
	if e.insertFact(e.workerState[0], rel, t, perm) {
		e.inputTuples++
	}
	return nil
}

// parallelFactsThreshold is the batch size below which AddFacts stays on
// one goroutine: sharding a few hundred facts costs more in goroutine
// start-up and hint-set cache misses than the inserts themselves.
const parallelFactsThreshold = 2048

// AddFacts loads a batch of input facts. The relation lookup, the
// run-state check and the arity validation happen once per batch, and
// for natively concurrent providers the inserts are sharded across the
// engine's workers, each with its own Ops handle (hint set) — the same
// per-worker discipline the evaluation phase uses. Sequential providers
// keep the single-goroutine path; their adapters would serialise the
// inserts on a global lock anyway.
func (e *Engine) AddFacts(name string, ts []tuple.Tuple) error {
	rel, ok := e.rels[name]
	if !ok {
		return fmt.Errorf("datalog: unknown relation %q", name)
	}
	if e.ran {
		return fmt.Errorf("datalog: AddFact after Run")
	}
	for _, t := range ts {
		if len(t) != rel.arity {
			return fmt.Errorf("datalog: relation %q has arity %d, fact has %d", name, rel.arity, len(t))
		}
	}

	workers := e.workers
	if workers > len(ts)/parallelFactsThreshold+1 {
		workers = len(ts)/parallelFactsThreshold + 1
	}
	if workers <= 1 || !e.provider.ThreadSafe {
		w := e.workerState[0]
		perm := make(tuple.Tuple, rel.arity)
		for _, t := range ts {
			if e.insertFact(w, rel, t, perm) {
				e.inputTuples++
			}
		}
		return nil
	}

	// Sharded load: worker w takes the contiguous chunk [lo, hi). Distinct
	// workers may race on duplicate tuples; the backend's insert reports
	// freshness exactly once per distinct tuple, so summing per-worker
	// fresh counts stays exact.
	fresh := make([]uint64, workers)
	var wg sync.WaitGroup
	chunk := (len(ts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(ts) {
			hi = len(ts)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, part []tuple.Tuple) {
			defer wg.Done()
			ws := e.workerState[w]
			perm := make(tuple.Tuple, rel.arity)
			for _, t := range part {
				if e.insertFact(ws, rel, t, perm) {
					fresh[w]++
				}
			}
		}(w, ts[lo:hi])
	}
	wg.Wait()
	for _, f := range fresh {
		e.inputTuples += f
	}
	return nil
}

// Count returns the number of tuples of a relation (after Run).
func (e *Engine) Count(name string) int {
	rel, ok := e.rels[name]
	if !ok {
		return 0
	}
	return rel.full[0].Len()
}

// Scan iterates over the tuples of a relation in lexicographic order (for
// ordered providers), in declaration column order.
func (e *Engine) Scan(name string, yield func(tuple.Tuple) bool) error {
	rel, ok := e.rels[name]
	if !ok {
		return fmt.Errorf("datalog: unknown relation %q", name)
	}
	rel.full[0].Scan(yield)
	return nil
}

// Run evaluates the program to its least fixpoint. It may be called once.
func (e *Engine) Run() error {
	if e.ran {
		return fmt.Errorf("datalog: Run called twice")
	}
	e.ran = true
	if e.trace == 0 {
		e.trace = obs.StartTrace()
	}
	for si := range e.strata {
		e.runStratum(si)
	}
	e.collectStats()
	return nil
}

// runStratum evaluates one SCC: non-recursive rules once, then semi-naïve
// fixpoint iteration for the recursive rule versions.
func (e *Engine) runStratum(si int) {
	st := &e.strata[si]
	var nonRec, rec []*rulePlan
	for _, p := range e.plans[si] {
		if p.recursiveVersion {
			rec = append(rec, p)
		} else {
			nonRec = append(nonRec, p)
		}
	}

	// Non-recursive rules: insert straight into the full indexes.
	for _, p := range nonRec {
		e.evalPlanSpanned(p, intoFull, si, 0)
	}
	if len(rec) == 0 {
		return
	}

	// Initialise deltas with a snapshot of everything known so far for the
	// stratum's predicates, and fresh "new" versions. The snapshots are
	// independent (one destination per index), so they fan out across the
	// worker pool; each lands on the backend's bulk-load fast path because
	// the fresh delta is empty.
	var jobs []mergeJob
	for _, pred := range st.Preds {
		r := e.rels[pred]
		for i := range r.indexes {
			r.delta[i] = e.provider.New(r.arity)
			r.nw[i] = e.provider.New(r.arity)
			if !r.full[i].Empty() {
				jobs = append(jobs, mergeJob{dst: r.delta[i], src: r.full[i]})
			}
		}
	}
	e.runMergeJobs(jobs)

	// Fixpoint loop (Figure 1's while-loop).
	for round := 1; ; round++ {
		e.stats.Iterations++
		obs.Inc(obs.EngineRounds)
		var roundStart time.Time
		if obs.Enabled {
			roundStart = time.Now()
		}
		// The round span's ID is issued up front so the rule spans inside
		// the round can name it as their parent before its duration (and
		// promoted-tuple count) is known.
		var roundSpan obs.SpanID
		var roundSpanStart int64
		if e.trace != 0 {
			roundSpan = obs.NewSpanID(e.trace)
			roundSpanStart = obs.Clock()
		}
		for _, p := range rec {
			e.evalPlanSpanned(p, intoNew, si, roundSpan)
		}

		// Merge new tuples into full, promote them to delta, and check for
		// the fixpoint. This used to be the engine's sequential step between
		// parallel phases; it is now fanned out across indexes × partitions
		// (runMergeJobs), which is sound because each destination index is a
		// distinct relation and a single merge per destination is in flight.
		progress := false
		var promoted uint64
		jobs = jobs[:0]
		for _, pred := range st.Preds {
			r := e.rels[pred]
			if !r.nw[0].Empty() {
				progress = true
			}
			if obs.Enabled {
				promoted += uint64(r.nw[0].Len())
			}
			for i := range r.indexes {
				nw := r.nw[i]
				if !nw.Empty() {
					jobs = append(jobs, mergeJob{dst: r.full[i], src: nw})
				}
				r.delta[i] = nw
				r.nw[i] = e.provider.New(r.arity)
			}
		}
		e.runMergeJobs(jobs)
		if obs.Enabled {
			obs.Add(obs.EngineDeltaTuples, promoted)
			dur := time.Since(roundStart)
			obs.Observe(obs.HistRoundNanos, uint64(dur))
			e.rounds = append(e.rounds, RoundMetric{
				Stratum:     si,
				Round:       round,
				Duration:    dur,
				DeltaTuples: promoted,
			})
		}
		if e.trace != 0 {
			obs.RecordSpan(e.trace, roundSpan, 0, obs.SpanEngineRound,
				roundSpanStart, obs.Clock()-roundSpanStart, uint64(round), promoted)
		}
		if !progress {
			break
		}
	}

	// Release the per-iteration versions.
	for _, pred := range st.Preds {
		r := e.rels[pred]
		for i := range r.indexes {
			r.delta[i], r.nw[i] = nil, nil
		}
	}
}

// mergeJob is one unit of the engine's bulk data movement: merge the
// tuples of src into dst. Jobs in one batch have pairwise distinct
// destinations, so they may run concurrently under every provider's
// merge contract.
type mergeJob struct {
	dst, src relation.Relation
}

// runMergeJobs executes a batch of merge jobs across the worker pool.
// Two layers of parallelism: independent jobs (one per destination
// index) run concurrently, and when there are fewer jobs than workers
// the surplus is handed to each job as its intra-merge worker budget —
// relation.MergeInto partitions the source for backends that support it
// (indexes × partitions). One HistMergeNanos sample covers the whole
// phase; per-job counts land in EngineMergeJobs.
func (e *Engine) runMergeJobs(jobs []mergeJob) {
	if len(jobs) == 0 {
		return
	}
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	obs.Add(obs.EngineMergeJobs, uint64(len(jobs)))
	if e.workers <= 1 {
		for _, j := range jobs {
			j.dst.MergeFrom(j.src)
		}
		if obs.Enabled {
			obs.Observe(obs.HistMergeNanos, uint64(time.Since(start)))
		}
		return
	}

	obs.Inc(obs.EngineParallelMerges)
	pool := e.workers
	if pool > len(jobs) {
		pool = len(jobs)
	}
	inner := e.workers / pool // per-job worker budget, >= 1
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				relation.MergeInto(jobs[i].dst, jobs[i].src, inner)
			}
		}()
	}
	wg.Wait()
	if obs.Enabled {
		obs.Observe(obs.HistMergeNanos, uint64(time.Since(start)))
	}
}

// insertTarget selects where derived head tuples go.
type insertTarget int

const (
	intoFull insertTarget = iota
	intoNew
)

// evalPlanSpanned evaluates one rule version, accumulating its profile
// timing and — when the run is traced — recording an engine.rule span
// under parent (the surrounding engine.round span in fixpoint rounds, 0
// for non-recursive rules). The rule span's ID is pre-issued into
// e.ruleSpan so the streaming evaluator can hang iter.scan spans off it
// before the rule span itself is recorded.
func (e *Engine) evalPlanSpanned(p *rulePlan, target insertTarget, si int, parent obs.SpanID) {
	var spanStart int64
	if e.trace != 0 {
		e.ruleSpan = obs.NewSpanID(e.trace)
		spanStart = obs.Clock()
	}
	start := time.Now()
	e.evalPlanStream(p, target)
	d := time.Since(start)
	p.evalTime += d
	p.evalCount++
	obs.Inc(obs.EngineRuleEvals)
	obs.Observe(obs.HistRuleNanos, uint64(d))
	if e.trace != 0 {
		obs.RecordSpan(e.trace, e.ruleSpan, parent, obs.SpanEngineRule,
			spanStart, obs.Clock()-spanStart, uint64(si), uint64(p.rule))
		e.ruleSpan = 0
	}
}

// applyActions binds/checks the suffix columns of a scanned tuple.
func applyActions(actions []colAction, suffix []uint64, env []uint64) bool {
	for i, a := range actions {
		switch a.kind {
		case actBind:
			env[a.v] = suffix[i]
		case actCheck:
			if env[a.v] != suffix[i] {
				return false
			}
		case actSkip:
		}
	}
	return true
}

func (s valSrc) value(env []uint64) uint64 {
	if s.isConst {
		return s.c
	}
	return env[s.v]
}

// emit projects and inserts the head tuple: duplicate check against the
// full version, insertion into the target version of every index (the
// `if (path.find(t3) == end) newPath.insert(t)` of Figure 1).
func (e *Engine) emit(ws *workerState, p *rulePlan, env []uint64, target insertTarget) {
	rel := p.head
	t := make(tuple.Tuple, rel.arity)
	for c, s := range p.headVals {
		t[c] = s.value(env)
	}

	dst := rel.full
	if target == intoNew {
		// Skip tuples already in the relation.
		ws.contains++
		if ws.opsFor(rel.full[0]).Contains(t) {
			return
		}
		dst = rel.nw
	}

	perm := make(tuple.Tuple, rel.arity)
	rel.permute(0, t, perm)
	ws.inserts++
	if !ws.opsFor(dst[0]).Insert(perm) {
		return // another worker (or iteration) produced it first
	}
	ws.produced++
	for i := 1; i < len(rel.indexes); i++ {
		rel.permute(i, t, perm)
		ws.inserts++
		ws.opsFor(dst[i]).Insert(perm)
	}
}

// collectStats aggregates worker counters and hint statistics, and
// settles every worker's batched observability counters so a snapshot
// taken after Run is exact.
func (e *Engine) collectStats() {
	s := &e.stats
	s.Relations = len(e.prog.Decls)
	s.Rules = len(e.prog.Rules)
	s.InputTuples = e.inputTuples
	for _, ws := range e.workerState {
		s.Inserts += ws.inserts
		s.MembershipTests += ws.contains
		s.LowerBoundCalls += ws.scans
		s.UpperBoundCalls += ws.scans
		s.ProducedTuples += ws.produced
		s.StreamScans += ws.iterScans
		s.StreamRows += ws.iterRows
		s.PushdownScans += ws.pushScans
		s.ResidualRows += ws.residualRows
		for _, ops := range ws.ops {
			if f, ok := ops.(relation.StatsFlusher); ok {
				f.FlushStats()
			}
			if rep, ok := ops.(relation.HintReporter); ok {
				h, m := rep.HintStats()
				s.HintHits += h
				s.HintMisses += m
			}
		}
	}
	obs.Add(obs.EngineIterScans, s.StreamScans)
	obs.Add(obs.EngineIterRows, s.StreamRows)
	obs.Add(obs.EngineIterPushdownScans, s.PushdownScans)
	obs.Add(obs.EngineIterResidualRows, s.ResidualRows)
}

// Stats returns the evaluation statistics (valid after Run).
func (e *Engine) Stats() Stats { return e.stats }

// RuleTiming is the accumulated evaluation time of one semi-naïve rule
// version, for Soufflé-style profiling. The JSON field names are part of
// the metrics contract documented in DESIGN.md §9.
type RuleTiming struct {
	Rule        string        `json:"rule"`
	Evaluations uint64        `json:"evaluations"`
	Total       time.Duration `json:"total_ns"`
}

// Profile returns per-rule-version evaluation timings, most expensive
// first (valid after Run).
func (e *Engine) Profile() []RuleTiming {
	var out []RuleTiming
	for _, plans := range e.plans {
		for _, p := range plans {
			out = append(out, RuleTiming{Rule: p.label, Evaluations: p.evalCount, Total: p.evalTime})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// RoundMetric records one semi-naïve fixpoint round: which stratum it ran
// in, its 1-based position in that stratum's iteration, its wall-clock
// duration and the number of tuples promoted into the delta relations
// afterwards (zero for the final, converged round). Rounds are only
// recorded when the observability layer is compiled in (obs.Enabled). The
// JSON field names are part of the metrics contract in DESIGN.md §9.
type RoundMetric struct {
	Stratum     int           `json:"stratum"`
	Round       int           `json:"round"`
	Duration    time.Duration `json:"duration_ns"`
	DeltaTuples uint64        `json:"delta_tuples"`
}

// Metrics is the engine-level structured metrics document: the aggregate
// Stats, the per-round semi-naïve progress and the per-rule-version
// timing profile, tagged with the provider and worker configuration. It
// forms the "engine"/"engines" sections of the JSON emitted by the
// commands' -metrics flag (DESIGN.md §9). Strategy always reads
// "stream": the engine has one evaluator, and the key stays because the
// document's keys are append-only under its schema version. Valid after
// Run.
type Metrics struct {
	Provider string        `json:"provider"`
	Workers  int           `json:"workers"`
	Strategy string        `json:"strategy"`
	Stats    Stats         `json:"stats"`
	Rounds   []RoundMetric `json:"rounds,omitempty"`
	Rules    []RuleTiming  `json:"rules,omitempty"`
}

// Metrics returns the structured metrics document for this engine run
// (valid after Run).
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Provider: e.provider.Name,
		Workers:  e.workers,
		Strategy: "stream",
		Stats:    e.stats,
		Rounds:   e.rounds,
		Rules:    e.Profile(),
	}
}

// TreeShapes reports the physical shape of every full relation index
// whose backend implements relation.Shaper (the specialised B-tree
// does; hash sets and baselines need not). Keys are relation names,
// with "[i]" appended for secondary indexes. Safe against concurrent
// writers — the underlying walkers take optimistic leases — so the
// debug server may call it on a live engine.
func (e *Engine) TreeShapes() map[string]core.Shape {
	shapes := make(map[string]core.Shape)
	for name, r := range e.rels {
		for i, rel := range r.full {
			s, ok := rel.(relation.Shaper)
			if !ok {
				continue
			}
			key := name
			if i > 0 {
				key = fmt.Sprintf("%s[%d]", name, i)
			}
			shapes[key] = s.Shape()
		}
	}
	return shapes
}
