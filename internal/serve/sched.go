package serve

import (
	"errors"
	"sync"
	"sync/atomic"

	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// This file is the phase scheduler: the admission controller that turns
// open-world network traffic back into the paper's phase-concurrency
// discipline. The rules, in order of authority:
//
//  1. A write epoch never overlaps a read *of the live tree*. The epoch
//     goroutine closes the read gate (epochPending), waits for active
//     readers to drain to zero, executes every admitted batch
//     single-handedly, and reopens the gate. Between epochs, reads run
//     fully concurrently on the tree's optimistic read path.
//     Readers arriving while the gate is closed are not blocked: they
//     are routed to the last-epoch snapshot (core.Tree.Snapshot,
//     DESIGN.md §14), which is immutable and safe to read while the
//     epoch writes — the MVCC-lite bypass. Snapshot readers are
//     uncounted by design: they never touch current-epoch state, so the
//     counted no-overlap invariant below concerns live readers only.
//     Options.DisableSnapshotReads restores the blocking gate (the
//     pre-snapshot baseline, kept for comparison benchmarks).
//  2. Writes are admitted through a bounded queue. A full queue is
//     backpressure, not blocking: submit fails fast and the server
//     answers RETRY, pushing the wait onto the client where it cannot
//     hold server resources.
//  3. Writers cannot be starved: once an epoch is pending, newly
//     arriving readers queue behind it rather than extending the current
//     read phase indefinitely.
//  4. Shutdown drains: batches already admitted to the queue execute
//     before the scheduler stops; new submissions fail with ErrShutdown.
//
// The invariant of rule 1 is not merely structural — it is *counted*.
// Readers and the epoch executor each publish their activity in atomic
// cells, and both sides cross-check the other on every operation; any
// observed overlap increments a violation counter surfaced through
// Stats and obs ("serve.phase.violations"). The differential harness
// (internal/check) asserts the counter stays zero under concurrent
// socket traffic in every build flavour.

// ErrShutdown is returned for work submitted after drain began.
var ErrShutdown = errors.New("serve: server shutting down")

// errBusy reports a full write queue; the conn layer turns it into a
// RETRY response.
var errBusy = errors.New("serve: write queue full")

// writeBatch is one admitted insert batch and its completion channel.
// trace carries the originating frame's trace ID (0 = untraced) so the
// epoch that applies the batch can attribute itself to it. A batch with
// swap set is a tree exchange instead of an insert: the epoch installs
// the replacement tree at its quiescent point (Server.Exchange — the
// follower fence-retirement path) and resets every hint set, since
// cached leaves of the old tree could still pass their lease+coverage
// checks and answer from retired data.
type writeBatch struct {
	tuples []tuple.Tuple
	swap   *core.Tree
	done   chan writeResult
	trace  obs.TraceID
}

// writeResult reports an executed batch: the number of tuples not
// previously present, or the error that failed the epoch's durability
// (the batch was applied in memory but could not be logged; the
// acknowledgement becomes a server error so the client cannot count on
// it surviving a restart).
type writeResult struct {
	fresh int
	err   error
}

// readMode classifies a beginRead admission.
type readMode uint8

const (
	// readRefused: the scheduler is draining; answer ErrShutdown.
	readRefused readMode = iota
	// readLive: the reader was admitted to the live tree between epochs
	// and must call endRead when done.
	readLive
	// readSnapshot: a write epoch holds the gate closed; the reader was
	// handed the last-epoch snapshot instead and must NOT call endRead
	// (snapshot readers are uncounted — they never touch the live tree).
	readSnapshot
)

// scheduler implements the epoch-batched phase admission for one tree.
type scheduler struct {
	// tree is the served tree. It is a pointer cell because a follower
	// retiring a fenced range exchanges the whole tree at an epoch
	// boundary (writeBatch.swap); readers load it once per operation.
	tree atomic.Pointer[core.Tree]
	// treeGen counts tree exchanges. Connections compare it against the
	// generation their hint set was built for and discard stale hints —
	// a cached leaf of a replaced tree can still pass lease+coverage
	// validation and would answer from retired data.
	treeGen atomic.Uint64

	// snapshots enables the gate-bypass path: gated readers get the
	// last-epoch snapshot instead of blocking. Disabled, the scheduler
	// behaves exactly like the pre-snapshot blocking gate.
	snapshots bool
	// snap is the last-epoch snapshot. Refreshing it is demand-driven:
	// the epoch goroutine recaptures at an epoch boundary (a quiescent
	// point by construction — the gate is closed and live readers have
	// drained) only while bypass traffic is consuming snapshots, because
	// each capture freezes the whole tree and taxes every later insert
	// with a copy-on-write clone per first-touched node (DESIGN.md §14).
	// With no demand the boundary marks the snapshot stale instead, and
	// a write-only stream pays nothing. Handout happens under mu so
	// drain can fence it (see beginRead).
	snap atomic.Pointer[core.Snapshot]

	mu   sync.Mutex
	cond *sync.Cond
	// readers is the number of admitted, still-active readers.
	readers int
	// epochPending closes the read gate: it is set from the moment an
	// epoch starts waiting for readers to drain until its batches have
	// been applied.
	epochPending bool
	draining     bool
	// snapStale marks the stored snapshot as missing acknowledged epochs:
	// handing it out would break read-your-writes, so a gated reader
	// blocks instead (and sets snapDemand). snapUsed records a handout
	// since the last refresh decision; either signal makes the next epoch
	// boundary refresh.
	snapStale  bool
	snapUsed   bool
	snapDemand bool

	// log, when non-nil, makes epochs durable: runEpoch appends every
	// applied batch to it before delivering acknowledgements
	// (Options.EpochLog). Guarded by logMu: promotion installs a log
	// into a follower's scheduler while the epoch goroutine runs.
	logMu sync.Mutex
	log   EpochLog

	queue  chan *writeBatch
	stopCh chan struct{}
	doneCh chan struct{}

	// Atomic mirrors of the phase state, used only for invariant
	// cross-checking (they deliberately do not feed scheduling
	// decisions, so a bug in the mutex protocol cannot hide itself).
	atomicReaders atomic.Int64
	epochActive   atomic.Bool

	// Local counters mirroring the obs registry so Stats (and the
	// harness's invariant assertion) work under the obsoff build tag too.
	epochs        atomic.Uint64
	readOps       atomic.Uint64
	writeOps      atomic.Uint64
	retries       atomic.Uint64
	violations    atomic.Uint64
	snapshotReads atomic.Uint64

	hints *core.Hints // epoch executor's insert hints; owned by run()
}

// newScheduler builds and starts the scheduler. snapshots enables the
// gate-bypass path; the construction point is quiescent, so the initial
// snapshot (of the possibly pre-loaded tree) is taken right here.
func newScheduler(tree *core.Tree, queueCap int, snapshots bool, log EpochLog) *scheduler {
	s := &scheduler{
		snapshots: snapshots,
		log:       log,
		queue:     make(chan *writeBatch, queueCap),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		hints:     core.NewHints(),
	}
	s.tree.Store(tree)
	if snapshots {
		sp := tree.Snapshot()
		s.snap.Store(&sp)
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// setLog installs (or replaces) the scheduler's epoch log. The
// promotion path calls it on a follower's scheduler, which until then
// ran without durability — its tree was a replica of an elsewhere-
// durable log — and from the next epoch on must log its own writes.
func (s *scheduler) setLog(l EpochLog) {
	s.logMu.Lock()
	s.log = l
	s.logMu.Unlock()
}

// violation records one observed overlap of a read with a write epoch.
func (s *scheduler) violation() {
	s.violations.Add(1)
	obs.Inc(obs.ServePhaseViolations)
}

// beginRead admits one reader. With the gate open it admits to the live
// tree (mode readLive; the caller must endRead). With a write epoch
// pending it hands out the last-epoch snapshot instead of blocking
// (mode readSnapshot; snap is non-nil, no endRead) — unless snapshots
// are disabled, in which case it blocks at the gate like the original
// scheduler. mode readRefused means the scheduler is draining and the
// read must be refused. blocked reports whether the gate actually made
// the caller wait (feeding the serve.phase.wait span — an unblocked
// admission records nothing; a snapshot bypass never blocks).
//
// Snapshot handout is fenced behind draining *under mu*: drain sets
// draining under the same mutex before executing the final epochs, so a
// reader that passed the fence holds a snapshot from before drain began
// and a reader arriving after it is refused — it can never be handed a
// view of a tree the server has logically closed.
func (s *scheduler) beginRead() (mode readMode, snap *core.Snapshot, blocked bool) {
	s.mu.Lock()
	if s.epochPending && !s.draining && s.snapshots {
		if sp := s.snap.Load(); sp != nil && !s.snapStale {
			s.snapUsed = true
			s.mu.Unlock()
			s.snapshotReads.Add(1)
			obs.Inc(obs.ServeSnapshotReads)
			return readSnapshot, sp, false
		}
		// The snapshot lapsed while bypass demand was idle (it misses
		// acknowledged epochs, so handing it out would break
		// read-your-writes). Block this reader like the baseline gate and
		// signal the epoch goroutine to resume refreshing.
		s.snapDemand = true
	}
	for s.epochPending && !s.draining {
		blocked = true
		s.cond.Wait()
	}
	if s.draining && s.epochPending {
		// Drain has priority over late readers; refuse rather than race
		// the final epochs.
		s.mu.Unlock()
		return readRefused, nil, blocked
	}
	s.readers++
	s.mu.Unlock()
	s.atomicReaders.Add(1)
	// Cross-check rule 1 from the reader's side: no epoch may be
	// executing while this live reader is admitted.
	if s.epochActive.Load() {
		s.violation()
	}
	return readLive, nil, blocked
}

// endRead retires one live reader (readLive admissions only — snapshot
// readers are uncounted), waking a drain-waiting epoch when the last
// reader leaves.
func (s *scheduler) endRead() {
	s.atomicReaders.Add(-1)
	s.mu.Lock()
	s.readers--
	if s.readers == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// submit admits an insert batch to the write queue. It fails fast with
// errBusy on a full queue (backpressure) and ErrShutdown once drain
// began. On success the result is delivered on b.done after the batch's
// epoch executed.
func (s *scheduler) submit(b *writeBatch) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrShutdown
	}
	select {
	case s.queue <- b:
		depth := len(s.queue)
		s.mu.Unlock()
		obs.Observe(obs.HistServeQueueDepth, uint64(depth))
		return nil
	default:
		s.mu.Unlock()
		s.retries.Add(1)
		obs.Inc(obs.ServeRetries)
		return errBusy
	}
}

// run is the epoch goroutine: it blocks for the first queued batch,
// greedily collects everything else already admitted, and executes the
// collection as one write epoch. On stop it drains the queue (graceful
// shutdown) before exiting.
func (s *scheduler) run() {
	defer close(s.doneCh)
	for {
		select {
		case first := <-s.queue:
			s.runEpoch(s.collect(first))
		case <-s.stopCh:
			for {
				select {
				case b := <-s.queue:
					s.runEpoch(s.collect(b))
				default:
					return
				}
			}
		}
	}
}

// collect greedily gathers every batch already sitting in the queue, so
// one epoch absorbs all concurrently arrived writes (the flat-combining
// analogue: one drain pays for the whole backlog).
func (s *scheduler) collect(first *writeBatch) []*writeBatch {
	batch := []*writeBatch{first}
	for {
		select {
		case b := <-s.queue:
			batch = append(batch, b)
		default:
			return batch
		}
	}
}

// runEpoch executes one write epoch: close the read gate, wait for
// readers to drain, apply every batch, reopen the gate and deliver the
// results. When any batch is traced, the whole epoch — reader drain
// included — is recorded as one serve.epoch span under the first
// traced batch's trace.
func (s *scheduler) runEpoch(batches []*writeBatch) {
	var etrace obs.TraceID
	var espanStart int64
	for _, b := range batches {
		if b.trace != 0 {
			etrace = b.trace
			espanStart = obs.Clock()
			break
		}
	}

	s.mu.Lock()
	s.epochPending = true
	for s.readers > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()

	start := obs.Clock()
	s.epochActive.Store(true)
	results := make([]writeResult, len(batches))
	swapped := false
	for bi, b := range batches {
		// Cross-check rule 1 from the writer's side, per batch: no
		// reader may be active while the epoch executes.
		if s.atomicReaders.Load() != 0 {
			s.violation()
		}
		if b.swap != nil {
			// Tree exchange at the quiescent point: live readers are
			// drained, snapshot readers hold the immutable old snapshot.
			// The epoch executor's hints and every connection's hints
			// (via treeGen) are reset — old-tree leaves could still pass
			// their coverage checks and answer from retired data.
			s.tree.Store(b.swap)
			s.hints = core.NewHints()
			s.treeGen.Add(1)
			swapped = true
			results[bi] = writeResult{}
			continue
		}
		bstart := obs.Clock()
		fresh := 0
		tree := s.tree.Load()
		for _, words := range b.tuples {
			if tree.InsertHint(words, s.hints) {
				fresh++
			}
		}
		obs.Observe(obs.HistServeWriteBatchNanos, uint64(obs.Clock()-bstart))
		obs.Add(obs.ServeWriteOps, uint64(len(b.tuples)))
		obs.Inc(obs.ServeWriteBatches)
		s.writeOps.Add(uint64(len(b.tuples)))
		results[bi] = writeResult{fresh: fresh}
	}
	s.hints.FlushObs()
	s.epochActive.Store(false)

	// Durability point: the applied batches hit the insert log as one
	// flush before any acknowledgement is delivered, so the set of acked
	// tuples is always a prefix of the committed log. A log failure
	// fails every batch of the epoch — the tuples are in memory but not
	// durable, and the clients must not be told otherwise. (Swap batches
	// carry no tuples and contribute nothing to the flush.)
	s.logMu.Lock()
	log := s.log
	s.logMu.Unlock()
	if log != nil {
		applied := make([][]tuple.Tuple, len(batches))
		for bi, b := range batches {
			applied[bi] = b.tuples
		}
		if err := log.LogEpoch(applied); err != nil {
			for bi := range results {
				results[bi] = writeResult{err: err}
			}
		}
	}

	// Epoch-boundary snapshot decision, before the gate reopens: the gate
	// is still closed and live readers are drained, so this is a
	// quiescent point by construction. Refresh only on demand — a
	// handout since the last refresh, a gated reader that found the
	// snapshot stale, or the very first epoch (so the bypass is warm for
	// tests and freshly started servers). Each refresh freezes the whole
	// tree (every later insert copy-on-writes its first touch of a
	// frozen node), so an idle bypass must not pay it per epoch: with no
	// demand the snapshot is marked stale instead, and the next gated
	// reader blocks once to re-arm the refreshes.
	if s.snapshots {
		s.mu.Lock()
		// A tree exchange forces the refresh: the stored snapshot views
		// the replaced tree, and serving it would resurrect the retired
		// range past the epoch that dropped it.
		refresh := s.snapUsed || s.snapDemand || swapped || s.epochs.Load() == 0
		s.mu.Unlock()
		if refresh {
			sp := s.tree.Load().Snapshot()
			s.snap.Store(&sp)
		}
		s.mu.Lock()
		if refresh {
			s.snapStale, s.snapUsed, s.snapDemand = false, false, false
		} else {
			s.snapStale = true
		}
		s.mu.Unlock()
	}

	// Deliver the acknowledgements only after the snapshot refresh:
	// otherwise a client could see its insert ACKed and immediately issue
	// a read that the still-closed gate routes to the pre-epoch snapshot,
	// losing read-your-writes. done is buffered; a departed connection
	// cannot block the epoch.
	for bi, b := range batches {
		b.done <- results[bi]
	}

	s.mu.Lock()
	s.epochPending = false
	s.cond.Broadcast()
	s.mu.Unlock()

	s.epochs.Add(1)
	obs.Inc(obs.ServeEpochs)
	obs.Observe(obs.HistServeEpochNanos, uint64(obs.Clock()-start))
	if etrace != 0 {
		tuples := uint64(0)
		for _, b := range batches {
			tuples += uint64(len(b.tuples))
		}
		obs.RecordSpan(etrace, 0, 0, obs.SpanServeEpoch, espanStart, obs.Clock()-espanStart,
			uint64(len(batches)), tuples)
	}
}

// drain stops admission and waits until every already-admitted batch has
// executed. Idempotent.
func (s *scheduler) drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if !already {
		close(s.stopCh)
	}
	<-s.doneCh
}

// queueDepth reports the current write-queue occupancy.
func (s *scheduler) queueDepth() int { return len(s.queue) }
