package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"specbtree/internal/cluster"
	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/replica"
	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// servedPlan says what a served stage does in this run.
type servedPlan struct {
	load     bool // run the load phases (otherwise only recovery / catch-up)
	reported bool // its load gives the run's read/insert/saturation metrics
	focus    bool // the workload's own stage: budget is the measuring window
	budget   time.Duration
}

// stageRNG gives every (stage, purpose) its own stream of the run seed.
func (b *bench) stageRNG(stage string, purpose int) *rand.Rand {
	h := fnvOffset.word(uint64(b.seed)).word(uint64(purpose))
	for _, c := range []byte(stage) {
		h = h.word(uint64(c))
	}
	return rand.New(rand.NewSource(int64(h)))
}

// outboundQueue is every benchmark server's per-connection response
// queue. The default (128) disconnects a pipelining client as soon as an
// open-loop burst puts more responses than that in flight on one of the
// nproc connections; sized to the driver's in-flight cap, a burst queues
// and shows up as latency instead of as a dropped connection.
const outboundQueue = 4096

// clientTimeout bounds one request; a request that exceeds it counts as
// failed. Far above any latency the rungs produce, far below the run.
const clientTimeout = 5 * time.Second

// satOpsPerSecond sizes the closed-loop phase's op list, with headroom
// over the measured saturation of each stage.
var satOpsPerSecond = map[string]int{stServe: 60000, stDurable: 20000, stReplicated: 40000}

// timedSetup runs setup reps times, tearing all but the last down again,
// and returns the last result with the fastest time.
func timedSetup[T any](reps int, setup func(rep int) (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			teardown(last)
		}
		start := time.Now()
		v, err := setup(rep)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, lowest(times), nil
}

// loadPhases is the open-loop ladder plus the closed-loop saturation
// phase of one served stage.
type loadPhases struct {
	rungs          map[string]phaseStats // low/high only in a traced run
	sat            phaseStats
	acked, unknown []pair
	openSeconds    float64 // wall time of the open-loop rungs
}

// runLoad drives t: a warm-up, the rate rungs (all three when traced,
// the gated middle one otherwise: the outer rungs feed per-layer metrics
// only), then saturation. between runs after the open-loop rungs and
// before saturation, for readings that must cover the rungs alone. On
// the workload's own stage a traced run also repeats part of the middle
// rung with span recording off, which prices the tracing.
func (b *bench) runLoad(st string, t *loadTarget, plan servedPlan, between func(openSeconds float64)) loadPhases {
	budget := plan.budget
	rates := b.p.Rates[st]
	share := func(f float64) time.Duration { return time.Duration(float64(budget) * f) }
	type rung struct {
		name string
		rate int
		dur  time.Duration
	}
	warm, sat := share(0.10), share(0.30)
	rungs := []rung{{"mid", rates[1], share(0.60)}}
	if b.traced() {
		warm, sat = share(0.08), share(0.14)
		rungs = []rung{{"low", rates[0], share(0.14)}, {"mid", rates[1], share(0.38)}, {"high", rates[2], share(0.14)}}
	}
	out := loadPhases{rungs: make(map[string]phaseStats)}
	account := func(s phaseStats) {
		b.attempted.Add(s.attempted())
		b.failed.Add(s.failed())
		out.acked = append(out.acked, s.acked...)
		out.unknown = append(out.unknown, s.unknown...)
	}
	open := func(purpose int, rate int, dur time.Duration) phaseStats {
		rng := b.stageRNG(st, purpose)
		arrivals := poissonArrivals(rng, float64(rate), dur)
		ops := genOps(rng, len(arrivals), b.p)
		s := t.openLoop(ops, arrivals, b.p.MaxInflight)
		account(s)
		return s
	}

	sp := b.tr.begin(t.layer+".warmup", t.parent, 0)
	open(0, rates[1], warm)
	sp.end()
	var untracedP50 float64
	if b.traced() && plan.focus {
		tr := t.tr
		t.tr = nil
		untracedP50 = quantileSorted(open(20, rates[1], share(0.12)).readUs, 0.5)
		t.tr = tr
	}
	for i, r := range rungs {
		sp := b.tr.begin(fmt.Sprintf("%s.open_loop.%s", t.layer, r.name), t.parent, 0)
		s := open(1+i, r.rate, r.dur)
		sp.end()
		out.rungs[r.name] = s
		out.openSeconds += s.seconds
	}
	if between != nil {
		between(out.openSeconds)
	}
	if untracedP50 > 0 {
		b.set("trace.overhead_ratio", quantileSorted(out.rungs["mid"].readUs, 0.5)/untracedP50)
	}
	rng := b.stageRNG(st, 10)
	ops := genOps(rng, int(float64(satOpsPerSecond[st])*sat.Seconds()), b.p)
	sp = b.tr.begin(t.layer+".saturation", t.parent, 0)
	out.sat = t.closedLoop(ops, b.procs*b.p.SatCallers, sat)
	sp.end()
	account(out.sat)
	return out
}

// reportLoad publishes a load's numbers: the gated metrics when this
// stage is the run's reported one, the client.* rung metrics when traced.
func (b *bench) reportLoad(st string, lp loadPhases, reported bool, p99Limit float64) {
	mid := lp.rungs["mid"]
	if reported {
		b.set("read_p50_us", mid.read50)
		b.set("read_p90_us", mid.read90)
		b.set("insert_p50_us", mid.insert50)
		b.set("insert_p90_us", mid.insert90)
		b.set("saturation_rps", lp.sat.achieved)
	}
	pre := "client." + st + "."
	b.set(pre+"achieved_rps.mid", mid.achieved)
	b.set(pre+"gen_late_p50_us", quantileSorted(mid.lateUs, 0.5))
	b.set(pre+"samples.read.mid", float64(len(mid.readUs)))
	b.set(pre+"samples.insert.mid", float64(len(mid.insertUs)))
	for o := outcome(1); o < numOutcomes; o++ {
		var n int64
		for _, s := range lp.rungs {
			n += s.outcomes[o]
		}
		if n += lp.sat.outcomes[o]; n > 0 {
			b.set(pre+"failed."+outcomeNames[o], float64(n))
		}
	}
	if !b.traced() {
		return
	}
	var late []float64
	samples, okRate := 0, 0.0
	for i, name := range rungNames {
		s := lp.rungs[name]
		p99 := supported(s.readUs, 0.99)
		b.set(pre+"read_p99_us."+name, p99)
		late = append(late, s.lateUs...)
		samples += len(s.readUs) + len(s.insertUs)
		// A rung holds when its p99 meets the limit, nothing failed and
		// completions kept up with arrivals (no growing backlog).
		if p99 <= p99Limit && s.failed() == 0 && s.achieved >= 0.97*s.offered {
			okRate = float64(b.p.Rates[st][i])
		}
	}
	b.set(pre+"read_p50_us.high", quantileSorted(lp.rungs["high"].readUs, 0.5))
	b.set(pre+"insert_p99_us.mid", supported(mid.insertUs, 0.99))
	b.set(pre+"gen_late_p99_us", supported(sortedCopy(late), 0.99))
	b.set(pre+"max_rate_ok_rps", okRate)
	b.values["client.sample_count"] += float64(samples)
}

// checkGate runs the determinism gate over a leader-only scan and
// accounts its comparisons as checked operations.
func (b *bench) checkGate(st string, scout relClient, base []pair, lp loadPhases) {
	compared, wrong, err := gate(func(y func(tuple.Tuple) bool) error { return scout.ScanAll(nil, nil, y) }, base, lp.acked, lp.unknown)
	b.attempted.Add(compared)
	b.failed.Add(wrong)
	if err != nil {
		b.fail("%s stage: final scan: %v", st, err)
	}
	if wrong > 0 {
		b.fail("%s stage: determinism gate: %d of %d tuples disagree with preload + acknowledged inserts", st, wrong, compared)
	}
}

// idleMedian times fn calls times from one idle caller and returns the
// median in microseconds; a failing call fails the run.
func (b *bench) idleMedian(what string, calls int, fn func(i int) error) float64 {
	us := make([]float64, calls)
	for i := range us {
		start := time.Now()
		err := fn(i)
		us[i] = float64(time.Since(start)) / 1e3
		b.attempted.Add(1)
		if err != nil {
			b.failed.Add(1)
			b.fail("%s: %v", what, err)
			break
		}
	}
	return median(us)
}

// ---- serve-mixed: one server, no log ----

type serveEnv struct {
	srv     *serve.Server
	clients []relClient
}

func (e serveEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// startServe bulk-loads sorted tuples into a tree and serves it to conns
// client connections.
func startServe(sorted []tuple.Tuple, conns int, opts serve.Options) (serveEnv, error) {
	tree := core.New(2)
	tree.BuildFromSorted(sorted)
	opts.Tree, opts.OutboundQueue = tree, outboundQueue
	srv, err := serve.Start("127.0.0.1:0", opts)
	if err != nil {
		return serveEnv{}, err
	}
	env := serveEnv{srv: srv}
	for i := 0; i < conns; i++ {
		c, err := serve.Dial(srv.Addr(), serve.ClientOptions{Timeout: clientTimeout})
		if err != nil {
			env.close()
			return serveEnv{}, err
		}
		env.clients = append(env.clients, c)
	}
	return env, nil
}

func (b *bench) stageServe(plan servedPlan) {
	stage := b.tr.begin("stage.serve", 0, 0)
	defer stage.end()
	base := sortDedupe(randomPairs(b.stageRNG(stServe, 100), b.p.ServePreload, b.p.KeySpace))
	sorted := tuplesOf(base)
	env, setupS, err := timedSetup(b.p.SetupReps,
		func(int) (serveEnv, error) { return startServe(sorted, b.procs, serve.Options{}) }, serveEnv.close)
	if err != nil {
		b.fail("serve stage: %v", err)
		return
	}
	defer env.close()
	b.setup = append(b.setup, setupS)
	b.set("setup.serve_s", setupS)

	t := &loadTarget{layer: "serve", clients: env.clients, base: base, scanLimit: b.p.ScanLimit, tr: b.tr, parent: stage.id()}
	before := env.srv.Stats()
	depthMax := 0
	stopDepth := sampleEvery(10*time.Millisecond, func() { depthMax = max(depthMax, env.srv.Stats().WriteQueueDepth) })
	var after serve.Stats
	lp := b.runLoad(stServe, t, plan, func(float64) { after = env.srv.Stats() })
	stopDepth()
	b.reportLoad(stServe, lp, plan.reported, 2000)

	if b.traced() {
		d := func(a, z uint64) float64 { return float64(z - a) }
		epochs := d(before.Epochs, after.Epochs)
		b.set("serve.tuples_per_epoch", ratio(d(before.WriteOps, after.WriteOps), epochs))
		b.set("serve.epochs_per_s", ratio(epochs, lp.openSeconds))
		b.set("serve.snapshot_read_ratio", ratio(d(before.SnapshotReads, after.SnapshotReads), d(before.ReadOps, after.ReadOps)))
		var inserts float64
		for _, s := range lp.rungs {
			inserts += float64(len(s.insertUs))
		}
		b.set("serve.retry_ratio", ratio(d(before.Retries, after.Retries), d(before.Retries, after.Retries)+inserts))
		b.set("serve.write_queue_depth_max", float64(depthMax))
		lp.acked = append(lp.acked, b.serveIdle(env, sorted)...)
	}
	b.checkGate(stServe, env.clients[0], base, lp)
	if st := env.srv.Stats(); st.PhaseViolations != 0 || st.ConnsDropped != 0 {
		b.fail("serve stage: %d phase violations, %d dropped connections", st.PhaseViolations, st.ConnsDropped)
	}
}

// sampleEvery calls fn every period on its own goroutine until the
// returned stop function is called; stop waits for the goroutine.
func sampleEvery(period time.Duration, fn func()) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// serveIdle takes the serve layer's idle single-client medians on the
// stage's own server. It returns the tuples it inserted, for the gate.
func (b *bench) serveIdle(env serveEnv, sorted []tuple.Tuple) []pair {
	n := b.p.IdleCalls
	rng := b.stageRNG(stServe, 200)
	cl := env.clients[0].(*serve.Client)
	keys := tuplesOf(randomPairs(rng, n, b.p.KeySpace))
	batches := randomPairs(rng, 3*n*b.p.Batch, b.p.KeySpace)
	batch := func(k, i int) []tuple.Tuple {
		lo := (k*n + i) * b.p.Batch
		return tuplesOf(batches[lo : lo+b.p.Batch])
	}
	b.set("serve.rtt_floor_us", b.idleMedian("serve idle Stamp", n, func(int) error { _, err := cl.Stamp(); return err }))
	b.set("serve.contains_us", b.idleMedian("serve idle Contains", n, func(i int) error { _, err := cl.Contains(keys[i]); return err }))
	b.set("serve.scan64_us", b.idleMedian("serve idle Scan", n, func(i int) error {
		_, _, err := cl.Scan(keys[i], nil, b.p.ScanLimit)
		return err
	}))
	b.set("serve.insert16_us", b.idleMedian("serve idle Insert", n, func(i int) error { _, err := cl.Insert(batch(0, i)); return err }))
	b.set("serve.apply16_us", b.idleMedian("serve idle Apply", n, func(i int) error { _, err := env.srv.Apply(batch(1, i)); return err }))
	b.set("serve.snapshot_now_us", b.idleMedian("serve idle SnapshotNow", n, func(int) error { _, err := env.srv.SnapshotNow(); return err }))
	b.set("serve.barrier_us", b.idleMedian("serve idle Barrier", n, func(int) error { return env.srv.Barrier() }))

	// The same insert with the blocking read gate instead of snapshot
	// reads, on a second server over the same preload: the difference is
	// what copy-on-write snapshots cost an insert.
	nosnap, err := startServe(sorted, 1, serve.Options{DisableSnapshotReads: true})
	if err != nil {
		b.fail("serve stage: %v", err)
		return nil
	}
	defer nosnap.close()
	b.set("serve.insert16_nosnap_us", b.idleMedian("serve idle Insert, no snapshots", n, func(i int) error {
		_, err := nosnap.clients[0].Insert(batch(2, i))
		return err
	}))
	return batches[:2*n*b.p.Batch]
}

// ---- cluster-durable: three shards, fsync-before-ack logs ----

// timedLog wraps a shard log at the serve.Options.EpochLog seam and
// times every non-empty epoch flush. Only traced runs install it.
type timedLog struct {
	inner serve.EpochLog
	tr    *tracer
	mu    sync.Mutex
	us    []float64
	n     int64 // tuples flushed
}

func (l *timedLog) LogEpoch(batches [][]tuple.Tuple) error {
	n := 0
	for _, bt := range batches {
		n += len(bt)
	}
	if n == 0 {
		return l.inner.LogEpoch(batches)
	}
	sp := l.tr.begin("cluster.log_epoch", 0, 0)
	start := time.Now()
	err := l.inner.LogEpoch(batches)
	d := time.Since(start)
	sp.end()
	l.mu.Lock()
	l.us = append(l.us, float64(d)/1e3)
	l.n += int64(n)
	l.mu.Unlock()
	return err
}

// shard is one running durable shard.
type shard struct {
	srv   *serve.Server
	log   *cluster.ShardLog
	timed *timedLog // nil when untraced
	rec   *cluster.Recovery
}

func (s *shard) kill() {
	s.srv.Close()
	if s.log != nil {
		s.log.Close()
	}
}

// openShard is the recovery path: replay the log, bulk-load the tree,
// serve it. An empty path starts an empty shard without a log (the
// ladder's no-log rung).
func (b *bench) openShard(path string, id uint32) (*shard, error) {
	s := &shard{}
	opts := serve.Options{Sharded: true, ShardID: id, OutboundQueue: outboundQueue}
	if path != "" {
		log, rec, err := cluster.OpenShardLog(path, 2)
		if err != nil {
			return nil, err
		}
		s.log, s.rec = log, rec
		opts.Tree, opts.EpochLog, opts.Replica = cluster.BuildTree(rec.Tuples, 2), log, log.ReplicaSource()
		if b.traced() {
			s.timed = &timedLog{inner: log, tr: b.tr}
			opts.EpochLog = s.timed
		}
	}
	var err error
	if s.srv, err = serve.Start("127.0.0.1:0", opts); err != nil {
		if s.log != nil {
			s.log.Close()
		}
		return nil, err
	}
	return s, nil
}

// durableEnv is a running cluster of durable shards with its routing
// clients.
type durableEnv struct {
	dir     string
	shards  []*shard
	opened  []time.Duration // how long each shard took to (re)open
	clients []relClient
}

func (e *durableEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.clients = nil
	for _, s := range e.shards {
		s.kill()
	}
	e.shards = nil
}

func (e *durableEnv) addrs() []string {
	out := make([]string, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.srv.Addr()
	}
	return out
}

// openDurable (re)starts every shard from its log in dir and dials conns
// routing clients over a band map of the key space. An empty dir runs
// the shards without logs.
func (b *bench) openDurable(dir string, shards, conns int) (*durableEnv, error) {
	e := &durableEnv{dir: dir}
	for i := 0; i < shards; i++ {
		path := ""
		if dir != "" {
			path = filepath.Join(dir, fmt.Sprintf("shard-%d.log", i))
		}
		start := time.Now()
		s, err := b.openShard(path, uint32(i))
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, s)
		e.opened = append(e.opened, time.Since(start))
	}
	src := cluster.NewStaticMap(cluster.BandMap(shards, b.p.KeySpace))
	for i := 0; i < conns; i++ {
		c, err := cluster.NewClient(src, e.addrs(), cluster.ClientOptions{Timeout: clientTimeout})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// preloadBatch is the insert size of preloads: the serve layer's
// default MaxBatch, so a preload is a few hundred epochs, not millions.
const preloadBatch = 4096

func preload(insert func([]tuple.Tuple) (int, error), ts []tuple.Tuple) error {
	for lo := 0; lo < len(ts); lo += preloadBatch {
		if _, err := insert(ts[lo:min(lo+preloadBatch, len(ts))]); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) stageDurable(plan servedPlan) {
	stage := b.tr.begin("stage.durable", 0, 0)
	defer stage.end()
	const shards = 3
	base := randomPairs(b.stageRNG(stDurable, 100), b.p.DurablePreload, b.p.KeySpace)
	tuples := tuplesOf(base)
	env, setupS, err := timedSetup(b.p.SetupReps, func(rep int) (*durableEnv, error) {
		dir := filepath.Join(b.tmp, fmt.Sprintf("durable-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		e, err := b.openDurable(dir, shards, b.procs)
		if err != nil {
			return nil, err
		}
		if err := preload(e.clients[0].Insert, tuples); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}, (*durableEnv).close)
	if err != nil {
		b.fail("durable stage: %v", err)
		return
	}
	defer func() { env.close() }()
	b.setup = append(b.setup, setupS)
	b.set("setup.durable_s", setupS)
	base = sortDedupe(base)

	var lp loadPhases
	if plan.load {
		t := &loadTarget{layer: "cluster", clients: env.clients, base: base, scanLimit: b.p.ScanLimit, tr: b.tr, parent: stage.id()}
		for _, s := range env.shards {
			if s.timed != nil {
				s.timed.us, s.timed.n = nil, 0 // drop the preload's flushes
			}
		}
		lp = b.runLoad(stDurable, t, plan, func(openSeconds float64) {
			if b.traced() {
				b.logMetrics(env, openSeconds)
			}
		})
		b.reportLoad(stDurable, lp, plan.reported, 10000)
		if b.traced() {
			rng := b.stageRNG(stDurable, 200)
			idle := randomPairs(rng, b.p.IdleCalls/4*b.p.Batch, b.p.KeySpace)
			b.set("cluster.idle_insert16_us", b.idleMedian("durable idle Insert", b.p.IdleCalls/4, func(i int) error {
				_, err := env.clients[0].Insert(tuplesOf(idle[i*b.p.Batch : (i+1)*b.p.Batch]))
				return err
			}))
			lp.acked = append(lp.acked, idle...)
		}
	}

	// Crash recovery: every shard is closed without drain and reopened
	// from its log. Repeated, because one cycle is tens of milliseconds.
	var logBytes int64
	for _, s := range env.shards {
		if fi, err := os.Stat(s.log.Path()); err == nil {
			logBytes += fi.Size()
		}
	}
	var opened [][]time.Duration // per repetition, each shard's reopen time
	recovered := 0
	for rep := 0; rep < b.p.MeasureReps; rep++ {
		env.close()
		sp := b.tr.begin("cluster.recover", stage.id(), 0)
		env, err = b.openDurable(env.dir, shards, 1)
		sp.end()
		if err != nil {
			b.fail("durable stage: recovery: %v", err)
			env = &durableEnv{}
			return
		}
		opened = append(opened, env.opened)
		recovered = 0
		for _, s := range env.shards {
			recovered += len(s.rec.Tuples)
			if s.rec.TornTail || s.rec.Dropped != 0 {
				b.fail("durable stage: recovery found a torn tail or dropped %d tuples", s.rec.Dropped)
			}
		}
	}
	// Each shard reopens on its own, one after the other: the recovery
	// time is the sum over shards of a shard's fastest reopen.
	recoveryS := bestSum(opened).Seconds()
	b.set("recovery_s", recoveryS)
	b.set("durable.recovered_tuples", float64(recovered))
	// acked ⊆ recovered, and nothing else: the gate over the reopened
	// shards.
	b.checkGate(stDurable, env.clients[0], base, lp)

	if b.traced() {
		b.set("cluster.recover_mtps", ratio(float64(recovered), recoveryS)/1e6)
		b.set("cluster.log_bytes_per_user_byte", ratio(float64(logBytes), float64(recovered*2*8)))
		b.tailMetric(env.shards[0].log.Path())
	}
}

// logMetrics publishes the wrapped logs' flush digests over the
// open-loop rungs.
func (b *bench) logMetrics(env *durableEnv, openSeconds float64) {
	var us []float64
	var tuples int64
	for _, s := range env.shards {
		s.timed.mu.Lock()
		us = append(us, s.timed.us...)
		tuples += s.timed.n
		s.timed.mu.Unlock()
	}
	us = sortedCopy(us)
	var busy float64
	for _, v := range us {
		busy += v
	}
	b.set("cluster.log_epoch_p50_us", quantileSorted(us, 0.5))
	b.set("cluster.log_epoch_p90_us", quantileSorted(us, 0.9))
	b.set("cluster.log_flushes_per_s", ratio(float64(len(us)), openSeconds))
	b.set("cluster.tuples_per_flush", ratio(float64(tuples), float64(len(us))))
	// Busy share of one shard's epoch goroutine, averaged over shards.
	b.set("cluster.log_busy_share", ratio(busy/1e6, openSeconds*float64(len(env.shards))))
}

// tailMetric reads one shard log back through the replication tailer.
func (b *bench) tailMetric(path string) {
	start := time.Now()
	tl, err := cluster.TailShardLog(path, 2, 0)
	if err != nil {
		b.fail("durable stage: tail: %v", err)
		return
	}
	defer tl.Close()
	tuples := 0
	for {
		ep, ok, err := tl.Next()
		if err != nil {
			b.fail("durable stage: tail: %v", err)
			return
		}
		if !ok {
			break
		}
		for _, bt := range ep.Batches {
			tuples += len(bt)
		}
	}
	b.set("cluster.tail_mtps", ratio(float64(tuples), time.Since(start).Seconds())/1e6)
}

// ---- cluster-replicated: one durable leader, one follower ----

// startFollower starts a cold follower of the leader shard (shard 0) with
// its own log and returns once it has applied the leader's committed
// head and reports a healthy stream: snapshot bootstrap plus catch-up.
func startFollower(leader *shard, logPath string) (*replica.Follower, error) {
	f, err := replica.Start(replica.Options{
		Leader: leader.srv.Addr(), Sharded: true, Shard: 0, LogPath: logPath,
		Serve: serve.Options{OutboundQueue: outboundQueue},
	})
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	head := leader.log.CommittedSeq()
	for start := time.Now(); !(f.Applied() >= head && f.Healthy()); time.Sleep(200 * time.Microsecond) {
		if time.Since(start) > 60*time.Second {
			f.Close()
			return nil, fmt.Errorf("follower stuck at epoch %d of %d", f.Applied(), head)
		}
	}
	return f, nil
}

func (b *bench) stageReplicated(plan servedPlan) {
	stage := b.tr.begin("stage.replicated", 0, 0)
	defer stage.end()
	base := randomPairs(b.stageRNG(stReplicated, 100), b.p.LeaderPreload, b.p.KeySpace)
	tuples := tuplesOf(base)
	leader, setupS, err := timedSetup(b.p.SetupReps, func(rep int) (*shard, error) {
		s, err := b.openShard(filepath.Join(b.tmp, fmt.Sprintf("leader-%d.log", rep)), 0)
		if err != nil {
			return nil, err
		}
		if err := preload(s.srv.Apply, tuples); err != nil {
			s.kill()
			return nil, err
		}
		return s, nil
	}, (*shard).kill)
	if err != nil {
		b.fail("replicated stage: %v", err)
		return
	}
	leaderAlive := true
	defer func() {
		if leaderAlive {
			leader.kill()
		}
	}()
	b.setup = append(b.setup, setupS)
	b.set("setup.replicated_s", setupS)
	base = sortDedupe(base)
	src := cluster.NewStaticMap(cluster.BandMap(1, b.p.KeySpace))
	addrs := []string{leader.srv.Addr()}
	dial := func(n int, opts cluster.ClientOptions) ([]relClient, error) {
		opts.Timeout = clientTimeout
		var out []relClient
		for i := 0; i < n; i++ {
			c, err := cluster.NewClient(src, addrs, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		return out, nil
	}
	closeAll := func(cs []relClient) {
		for _, c := range cs {
			c.Close()
		}
	}
	var early phaseStats // the leader-only window, whose inserts the gate must know

	// Leader-only window at the middle rate, before any follower exists
	// (per-layer only): what offload is compared against.
	if b.traced() && plan.load {
		cs, err := dial(b.procs, cluster.ClientOptions{})
		if err != nil {
			b.fail("replicated stage: %v", err)
			return
		}
		t := &loadTarget{layer: "cluster", clients: cs, base: base, scanLimit: b.p.ScanLimit, tr: b.tr, parent: stage.id()}
		rng := b.stageRNG(stReplicated, 50)
		arrivals := poissonArrivals(rng, float64(b.p.Rates[stReplicated][1]), plan.budget/8)
		early = t.openLoop(genOps(rng, len(arrivals), b.p), arrivals, b.p.MaxInflight)
		closeAll(cs)
		b.attempted.Add(early.attempted())
		b.failed.Add(early.failed())
		b.set("replica.leader_only_read_p50_us", quantileSorted(early.readUs, 0.5))
	}

	// Cold follower catch-up: snapshot bootstrap plus the epoch stream
	// until the follower has applied the leader's committed head.
	var follower *replica.Follower
	defer func() {
		if follower != nil {
			follower.Close()
		}
	}()
	var times []float64
	for rep := 0; rep < b.p.MeasureReps; rep++ {
		if follower != nil {
			follower.Close()
			follower = nil
		}
		sp := b.tr.begin("replica.catchup", stage.id(), 0)
		start := time.Now()
		follower, err = startFollower(leader, filepath.Join(b.tmp, fmt.Sprintf("follower-%d.log", rep)))
		times = append(times, time.Since(start).Seconds())
		sp.end()
		if err != nil {
			b.fail("replicated stage: %v", err)
			return
		}
	}
	b.set("follower_catchup_s", lowest(times))
	if b.traced() {
		b.set("replica.bootstrap_mtps", ratio(float64(len(base)), lowest(times))/1e6)
	}
	if !plan.load {
		b.attempted.Add(1) // the catch-up itself, checked by the wait above
		return
	}

	cs, err := dial(b.procs, cluster.ClientOptions{Followers: [][]string{{follower.Addr()}}, MaxStaleEpochs: b.p.MaxStale})
	if err != nil {
		b.fail("replicated stage: %v", err)
		return
	}
	defer closeAll(cs)
	scout, err := dial(1, cluster.ClientOptions{})
	if err != nil {
		b.fail("replicated stage: %v", err)
		return
	}
	defer closeAll(scout)
	t := &loadTarget{layer: "replica", clients: cs, base: base, scanLimit: b.p.ScanLimit, tr: b.tr, parent: stage.id()}

	var lags []float64
	stopLag := func() {}
	if b.traced() {
		stopLag = sampleEvery(10*time.Millisecond, func() {
			if h, a := follower.Head(), follower.Applied(); h >= a {
				lags = append(lags, float64(h-a))
			}
		})
	}
	fr0, fb0 := obs.Value(obs.ReplicaFollowerReads), obs.Value(obs.ReplicaFallbackReads)
	var fr1, fb1 uint64
	lp := b.runLoad(stReplicated, t, plan, func(float64) {
		fr1, fb1 = obs.Value(obs.ReplicaFollowerReads), obs.Value(obs.ReplicaFallbackReads)
	})
	stopLag()
	lp.acked = append(lp.acked, early.acked...)
	lp.unknown = append(lp.unknown, early.unknown...)
	b.reportLoad(stReplicated, lp, plan.reported, 10000)

	if b.traced() {
		lags = sortedCopy(lags)
		b.set("replica.lag_epochs_p50", quantileSorted(lags, 0.5))
		b.set("replica.lag_epochs_p90", quantileSorted(lags, 0.9))
		b.set("replica.lag_epochs_max", quantileSorted(lags, 1))
		var reads float64
		for _, s := range lp.rungs {
			reads += float64(len(s.readUs))
		}
		b.set("replica.follower_read_ratio", ratio(float64(fr1-fr0), reads))
		b.set("replica.fallback_ratio", ratio(float64(fb1-fb0), float64(fr1-fr0)+float64(fb1-fb0)))
		keys := tuplesOf(randomPairs(b.stageRNG(stReplicated, 200), b.p.IdleCalls, b.p.KeySpace))
		b.set("replica.idle_read_us", b.idleMedian("replicated idle Contains", b.p.IdleCalls, func(i int) error {
			_, err := cs[0].Contains(keys[i])
			return err
		}))
		direct, err := serve.Dial(follower.Addr(), serve.ClientOptions{Timeout: clientTimeout, ExpectShard: true, ShardID: 0})
		if err != nil {
			b.fail("replicated stage: %v", err)
			return
		}
		b.set("replica.stamped_contains_us", b.idleMedian("follower idle ContainsStamped", b.p.IdleCalls, func(i int) error {
			_, _, err := direct.ContainsStamped(keys[i])
			return err
		}))
		direct.Close()
	}
	b.checkGate(stReplicated, scout[0], base, lp)

	if b.traced() {
		// Failover, after the measured window: the leader dies, the
		// follower replays the tail of its log and turns writable.
		head := leader.log.CommittedSeq()
		leader.kill()
		leaderAlive = false
		start := time.Now()
		mark, err := follower.CatchUpFromLog(leader.log.Path())
		b.set("replica.catchup_from_log_s", time.Since(start).Seconds())
		if err != nil || mark != head {
			b.fail("replicated stage: catch-up from log reached epoch %d of %d: %v", mark, head, err)
		}
		start = time.Now()
		if err := follower.Promote(); err != nil {
			b.fail("replicated stage: promote: %v", err)
		}
		b.set("replica.promote_s", time.Since(start).Seconds())
		// A promoted follower's server and log belong to the caller.
		srv, flog := follower.Server(), follower.Log()
		follower.Close()
		follower = nil
		srv.Close()
		flog.Close()
	}
}
