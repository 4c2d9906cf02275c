package main

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// The driver keeps its own bookkeeping (generated requests, preloads,
// results) in pointer-free slices. It shares a heap with the servers it
// measures, and a few million tuple slices of its own would put its
// garbage collector work into their latencies.

// pair is an arity-2 tuple by value.
type pair [2]uint64

func comparePairs(a, b pair) int {
	if a[0] != b[0] {
		if a[0] < b[0] {
			return -1
		}
		return 1
	}
	if a[1] != b[1] {
		if a[1] < b[1] {
			return -1
		}
		return 1
	}
	return 0
}

func pairOf(t tuple.Tuple) pair { return pair{t[0], t[1]} }

// sortDedupe sorts ps and drops duplicates, in place.
func sortDedupe(ps []pair) []pair {
	slices.SortFunc(ps, comparePairs)
	return slices.Compact(ps)
}

// randomPairs draws n tuples with every word uniform in [0, space).
func randomPairs(rng *rand.Rand, n int, space uint64) []pair {
	out := make([]pair, n)
	for i := range out {
		out[i] = pair{rng.Uint64() % space, rng.Uint64() % space}
	}
	return out
}

// tuplesOf returns tuple views of ps for an API call; the views share
// one backing array.
func tuplesOf(ps []pair) []tuple.Tuple {
	flat := make([]uint64, 2*len(ps))
	out := make([]tuple.Tuple, len(ps))
	for i, p := range ps {
		flat[2*i], flat[2*i+1] = p[0], p[1]
		out[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	return out
}

// relClient is the operation surface shared by serve.Client and
// cluster.Client.
type relClient interface {
	Insert(batch []tuple.Tuple) (int, error)
	Contains(t tuple.Tuple) (bool, error)
	LowerBound(v tuple.Tuple) (tuple.Tuple, bool, error)
	UpperBound(v tuple.Tuple) (tuple.Tuple, bool, error)
	Scan(lo, hi tuple.Tuple, limit int) ([]tuple.Tuple, bool, error)
	ScanAll(lo, hi tuple.Tuple, yield func(tuple.Tuple) bool) error
	Close() error
}

type opKind uint8

const (
	opInsert opKind = iota
	opContains
	opLower
	opUpper
	opScan
)

var opNames = [...]string{"insert16", "contains", "lower_bound", "upper_bound", "scan64"}

// opSet is a generated request sequence: request i is of kind kinds[i]
// and its tuples (one probe, or an insert batch) are pairs[at[i]:at[i+1]].
type opSet struct {
	kinds []opKind
	at    []int32
	pairs []pair
}

func (s *opSet) len() int { return len(s.kinds) }

func (s *opSet) tuples(i int) []pair { return s.pairs[s.at[i]:s.at[i+1]] }

// genOps draws n requests of loadgen's default mix: WritePct % insert
// batches of Batch tuples, the rest split evenly between Contains,
// LowerBound, UpperBound and Scan, words uniform in [0, KeySpace).
func genOps(rng *rand.Rand, n int, p params) *opSet {
	s := &opSet{kinds: make([]opKind, n), at: make([]int32, n+1)}
	for i := range s.kinds {
		count := 1
		if int(rng.Uint64()%100) < p.WritePct {
			s.kinds[i], count = opInsert, p.Batch
		} else {
			s.kinds[i] = opContains + opKind(rng.Uint64()%4)
		}
		s.pairs = append(s.pairs, randomPairs(rng, count, p.KeySpace)...)
		s.at[i+1] = int32(len(s.pairs))
	}
	return s
}

// outcome classifies one request.
type outcome uint8

const (
	okDone outcome = iota
	failOverflow
	failTimeout
	failRetry
	failWrong
	failError
	numOutcomes
)

var outcomeNames = [...]string{"ok", "overflow", "timeout", "retry_exhausted", "wrong_answer", "error"}

// maxRetries bounds how often an insert answered RETRY is resent (1ms
// apart) before it counts as failed.
const maxRetries = 200

// loadTarget is a served relation under load: its client connections,
// and the preloaded contents the answer checks rest on.
type loadTarget struct {
	layer     string // span name prefix: serve, cluster or replica
	clients   []relClient
	base      []pair // preload, sorted, never changes
	scanLimit int
	tr        *tracer
	parent    uint64
	nextReq   atomic.Uint64
}

func (t *loadTarget) inBase(p pair) bool {
	_, found := slices.BinarySearchFunc(t.base, p, comparePairs)
	return found
}

// do issues request i of ops and checks what can be checked about the
// answer while inserts run: preloaded tuples are found, bounds respect
// their probe and are no further than the preload's own bound, scans are
// ascending and start at or after their lower bound.
func (t *loadTarget) do(c relClient, ops *opSet, i int) outcome {
	kind, ps := ops.kinds[i], ops.tuples(i)
	sp := t.tr.begin(t.layer+"."+opNames[kind], t.parent, t.nextReq.Add(1))
	defer sp.end()
	var err error
	right := true
	arg := tuple.Tuple(ps[0][:])
	switch kind {
	case opInsert:
		var fresh int
		batch := tuplesOf(ps)
		for try := 0; ; try++ {
			fresh, err = c.Insert(batch)
			if !errors.Is(err, serve.ErrRetry) {
				break
			}
			if try == maxRetries {
				return failRetry
			}
			time.Sleep(time.Millisecond)
		}
		right = fresh >= 0 && fresh <= len(batch)
	case opContains:
		var found bool
		found, err = c.Contains(arg)
		right = found || !t.inBase(ps[0])
	case opLower, opUpper:
		var got tuple.Tuple
		var ok bool
		strict := kind == opUpper
		if strict {
			got, ok, err = c.UpperBound(arg)
		} else {
			got, ok, err = c.LowerBound(arg)
		}
		if err == nil {
			right = t.boundPlausible(ps[0], got, ok, strict)
		}
	case opScan:
		var ts []tuple.Tuple
		ts, _, err = c.Scan(arg, nil, t.scanLimit)
		right = len(ts) <= t.scanLimit
		for j, tp := range ts {
			if (j == 0 && tuple.Less(tp, arg)) || (j > 0 && !tuple.Less(ts[j-1], tp)) {
				right = false
			}
		}
	}
	switch {
	case errors.Is(err, serve.ErrTimeout):
		return failTimeout
	case err != nil:
		return failError
	case !right:
		return failWrong
	}
	return okDone
}

// boundPlausible checks a lower (or strict upper) bound answer against
// the preload: the answer must not precede the probe, and since tuples
// are only ever added it may not lie beyond the preload's own bound.
func (t *loadTarget) boundPlausible(v pair, got tuple.Tuple, ok, strict bool) bool {
	i := sort.Search(len(t.base), func(i int) bool {
		c := comparePairs(t.base[i], v)
		return c > 0 || (c == 0 && !strict)
	})
	if !ok {
		return i == len(t.base)
	}
	g := pairOf(got)
	if c := comparePairs(g, v); c < 0 || (c == 0 && strict) {
		return false
	}
	return i == len(t.base) || comparePairs(g, t.base[i]) <= 0
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	readUs, insertUs, lateUs []float64 // ascending
	outcomes                 [numOutcomes]int64
	offered, achieved        float64 // req/s
	seconds                  float64
	acked, unknown           []pair // inserted tuples acknowledged / of unknown fate
	// The gated percentiles of an open-loop window: the best of its
	// parts (see slicedQuantiles).
	read50, read90, insert50, insert90 float64
}

// partLength is how long the parts are that a load window is cut into.
// The gated numbers are the best part's statistic (stats.go says why
// best and not median; over 24 runs on the dev host the best part's read
// p50 spread by 10%, the first-quartile part's by 38%, the whole
// window's by more): a noisy neighbour spoils most parts, not all. A
// part still holds hundreds of requests.
const partLength = 100 * time.Millisecond

// minPart is the fewest samples a part needs for its percentiles to
// count: with fewer, the best part would be the luckiest handful.
const minPart = 30

// partsOf is how many parts a window of the given length is cut into.
func partsOf(window time.Duration) int { return max(1, int(window/partLength)) }

// slicedQuantiles cuts an open-loop window into parts by intended send
// time and returns, for each q, the lowest over the parts of the part's
// q-quantile of latencies (µs) of the successful reads, or inserts.
// Parts with fewer than minPart samples do not count.
func slicedQuantiles(ops *opSet, res []outcome, latNs []int64, arrivals []time.Duration, window time.Duration, inserts bool, qs ...float64) []float64 {
	n := partsOf(window)
	parts := make([][]float64, n)
	for i, r := range res {
		if r != okDone || (ops.kinds[i] == opInsert) != inserts {
			continue
		}
		part := min(int(arrivals[i]*time.Duration(n)/window), n-1)
		parts[part] = append(parts[part], float64(latNs[i])/1e3)
	}
	out := make([]float64, len(qs))
	for j, q := range qs {
		var perPart []float64
		for _, p := range parts {
			if len(p) >= minPart {
				sort.Float64s(p)
				perPart = append(perPart, quantileSorted(p, q))
			}
		}
		if len(perPart) == 0 { // a window too short to cut up: use it whole
			var all []float64
			for _, p := range parts {
				all = append(all, p...)
			}
			sort.Float64s(all)
			perPart = []float64{quantileSorted(all, q)}
		}
		out[j] = lowest(perPart)
	}
	return out
}

func (s *phaseStats) attempted() int64 {
	var n int64
	for _, c := range s.outcomes {
		n += c
	}
	return n
}

func (s *phaseStats) failed() int64 { return s.attempted() - s.outcomes[okDone] }

// collect folds the results of the first len(res) requests into the
// digests.
func (s *phaseStats) collect(ops *opSet, res []outcome, latNs []int64) {
	for i := range res {
		s.outcomes[res[i]]++
		insert := ops.kinds[i] == opInsert
		switch {
		case res[i] == okDone && insert:
			s.insertUs = append(s.insertUs, float64(latNs[i])/1e3)
			s.acked = append(s.acked, ops.tuples(i)...)
		case res[i] == okDone:
			s.readUs = append(s.readUs, float64(latNs[i])/1e3)
		case insert && res[i] != failOverflow:
			// Sent but not acknowledged: may or may not have landed.
			s.unknown = append(s.unknown, ops.tuples(i)...)
		}
	}
	sort.Float64s(s.readUs)
	sort.Float64s(s.insertUs)
}

// poissonArrivals draws the send offsets of an open-loop window: a
// Poisson process of the given rate over dur.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openLoop sends request i at start+arrivals[i] whatever the target
// does: independent users. Each request runs on its own goroutine over
// connection i mod len(clients) (the connections pipeline), and its
// latency counts from the intended send time, so a stall is charged to
// every request it delayed, not only to the one that hit it. At most
// maxInflight requests are outstanding; one that would exceed that is
// not sent and counts as failed.
func (t *loadTarget) openLoop(ops *opSet, arrivals []time.Duration, maxInflight int) phaseStats {
	n := len(arrivals)
	res := make([]outcome, n)
	latNs := make([]int64, n)
	lateUs := make([]float64, n)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	var done atomic.Int64

	clock := newSleeper() // see sleep_linux.go for why not time.Sleep
	defer clock.close()
	start := time.Now()
	for i, off := range arrivals {
		due := start.Add(off)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			clock.sleep(d)
		}
		lateUs[i] = float64(time.Since(due)) / 1e3
		if inflight.Load() >= int64(maxInflight) {
			res[i] = failOverflow
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = t.do(t.clients[i%len(t.clients)], ops, i)
			latNs[i] = int64(time.Since(due))
			inflight.Add(-1)
			done.Add(1)
		}(i)
	}
	window := time.Since(start)
	completed := done.Load() // within the window: the rest is backlog
	wg.Wait()

	s := phaseStats{
		lateUs:   lateUs,
		seconds:  window.Seconds(),
		offered:  float64(n) / window.Seconds(),
		achieved: float64(completed) / window.Seconds(),
	}
	sort.Float64s(s.lateUs)
	s.collect(ops, res, latNs)
	if n > 0 {
		span := arrivals[n-1] + 1
		r := slicedQuantiles(ops, res, latNs, arrivals, span, false, 0.5, 0.9)
		w := slicedQuantiles(ops, res, latNs, arrivals, span, true, 0.5, 0.9)
		s.read50, s.read90, s.insert50, s.insert90 = r[0], r[1], w[0], w[1]
	}
	return s
}

// closedLoop keeps `callers` callers busy for dur, each sending its next
// request when the previous one returns: the saturation measurement. The
// callers share the request sequence; the phase ends early if it runs
// out.
func (t *loadTarget) closedLoop(ops *opSet, callers int, dur time.Duration) phaseStats {
	res := make([]outcome, ops.len())
	latNs := make([]int64, ops.len())
	var next atomic.Int64
	parts := partsOf(dur)
	perPart := make([]atomic.Int64, parts) // successful completions per part of the window
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := t.clients[c%len(t.clients)]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= ops.len() {
					return
				}
				t0 := time.Now()
				res[i] = t.do(cl, ops, i)
				latNs[i] = int64(time.Since(t0))
				if part := int(time.Since(start) * time.Duration(parts) / dur); res[i] == okDone && part < parts {
					perPart[part].Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := min(int(next.Load()), ops.len())
	s := phaseStats{seconds: elapsed.Seconds()}
	s.collect(ops, res[:n], latNs[:n])
	// Completions per second: the best of the window's parts.
	rates := make([]float64, parts)
	for i := range rates {
		rates[i] = float64(perPart[i].Load()) * float64(parts) / dur.Seconds()
	}
	s.achieved = highest(rates)
	s.offered = s.achieved
	return s
}

// gate is the determinism gate: after the load, a full scan of the
// relation must hold exactly the preload plus every acknowledged tuple;
// tuples of unknown fate (sent, never acknowledged) may or may not be
// there. It returns how many tuples it compared and how many disagreed.
func gate(scan func(yield func(tuple.Tuple) bool) error, base, acked, unknown []pair) (compared, wrong int64, err error) {
	want := sortDedupe(append(append([]pair(nil), base...), acked...))
	maybe := make(map[pair]bool, len(unknown))
	for _, p := range unknown {
		maybe[p] = true
	}
	i := 0
	var prev pair
	first := true
	err = scan(func(t tuple.Tuple) bool {
		got := pairOf(t)
		compared++
		if !first && comparePairs(prev, got) >= 0 {
			wrong++ // out of order or duplicate
		}
		prev, first = got, false
		for i < len(want) && comparePairs(want[i], got) < 0 {
			wrong++ // an expected tuple is missing
			i++
		}
		if i < len(want) && want[i] == got {
			i++
		} else if !maybe[got] {
			wrong++ // a tuple nobody inserted
		}
		return true
	})
	wrong += int64(len(want) - i)
	return compared, wrong, err
}
