package cluster

import (
	"fmt"
	"time"

	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// MoveOptions tunes one online range move.
type MoveOptions struct {
	// ChunkSize bounds the tuples per Apply submission on the
	// destination (default 2048, clamped to the destination's MaxBatch
	// by the serve layer contract — keep it under serve MaxBatch).
	ChunkSize int
	// Pace, when non-zero, is slept between chunk submissions, bounding
	// the move's write pressure on the destination while readers run.
	Pace time.Duration

	// hookBeforeFence, when set, runs after the import and before the
	// fence; a non-nil return forces the abort path. Tests inject
	// failures (and concurrent inserts) here — there is no exported
	// surface for it.
	hookBeforeFence func() error
}

func (o MoveOptions) withDefaults() MoveOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 2048
	}
	return o
}

// MoveRange hands the leading-column range [lo, hi] (inclusive) to
// shard dst online, without stopping reads or inserts (DESIGN.md §15):
//
//  1. Cut: publish the map with the range Moving. From here inserts
//     into the range route to dst and reads consult both sides.
//  2. Barrier on the source: an empty write epoch flushes every insert
//     admitted under the old map, so the snapshot below contains all
//     source-routed tuples.
//  3. Snapshot + export: an O(1) epoch snapshot of the source, the
//     range materialised from it — readers keep running.
//  4. Import: the exported tuples stream into dst in chunks through
//     the write scheduler (logged, phase-disciplined, idempotent).
//  5. Fence: the source's log records the handoff, so a source replay
//     no longer resurrects the moved range (dst holds it durably).
//  6. Finalize: publish the map with dst owning the range.
//
// The moved tuples linger in the source's in-memory tree as a leftover
// region until its next restart replays the fence; scans never read
// them because routing is map-driven. Moves are serialised — at most
// one range moves at a time.
//
// Failure handling never republishes an old map generation (versions
// only move forward) and never hides an acknowledged write:
//
//   - A failure before the fence (steps 2–4) aborts through a draining
//     overlay: inserts route back to the source, reads keep consulting
//     both shards, and the destination's range tuples are copied back
//     to the source before the overlay clears. If that copy-back
//     itself fails, the draining map stays published — reads stay
//     exact at the cost of double-probing the range — and the next
//     MoveRange completes the drain before anything else.
//   - A fence failure (step 5) does NOT restore source ownership: the
//     fence bytes may be partially durable, and a source restart that
//     replays them would drop the range while a source-owning map
//     still routed reads at it. The destination holds the range
//     durably (every imported chunk was logged before its ack), so
//     the move finalizes to dst regardless; the failed fence only
//     means the source keeps its leftover region across restarts.
//     The source's log is poisoned by the failed flush and rejects
//     further epochs until the shard restarts, so the condition
//     surfaces on the shard's own write path.
func (c *Cluster) MoveRange(lo, hi uint64, dst int, opts MoveOptions) error {
	opts = opts.withDefaults()
	c.moveMu.Lock()
	defer c.moveMu.Unlock()

	m := c.src.Map()
	if m.Moving.Active {
		if !m.Moving.Draining {
			return fmt.Errorf("cluster: a move of [%d, %d] is already in flight", m.Moving.Lo, m.Moving.Hi)
		}
		// A previous abort's reconciliation failed and left the range
		// draining: finish pulling the destination's tuples back before
		// routing can change again.
		if err := c.reconcile(m, opts.ChunkSize); err != nil {
			return fmt.Errorf("cluster: completing aborted move of [%d, %d] first: %w", m.Moving.Lo, m.Moving.Hi, err)
		}
		m = c.src.Map()
	}
	src := m.Owner(lo)
	if m.Owner(hi) != src {
		return fmt.Errorf("cluster: range [%d, %d] spans shards; move one owned range at a time", lo, hi)
	}
	if dst == src {
		return fmt.Errorf("cluster: range [%d, %d] already on shard %d", lo, hi, dst)
	}
	if dst < 0 || dst >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", dst)
	}

	// 1. Cut: announce the move. The new generation routes range
	// inserts to dst and fans range reads across both shards.
	cut := m.withMoving(lo, hi, src, dst)
	if err := cut.Validate(); err != nil {
		return err
	}
	c.src.Set(cut)

	// 2–4. Barrier, snapshot + export, chunked import into dst.
	moved, err := c.copyRange(src, dst, lo, hi, opts.ChunkSize, opts.Pace)
	if err != nil {
		return c.abort(cut, opts.ChunkSize, fmt.Errorf("cluster: move: %w", err))
	}

	if opts.hookBeforeFence != nil {
		if err := opts.hookBeforeFence(); err != nil {
			return c.abort(cut, opts.ChunkSize, fmt.Errorf("cluster: move aborted: %w", err))
		}
	}

	// 5. Fence the source's log: from here a source replay drops the
	// range — the destination has it durably. Without a log (ephemeral
	// cluster) there is nothing to fence.
	c.mu.Lock()
	srcLog := c.shards[src].log
	c.mu.Unlock()
	if srcLog != nil {
		if err := srcLog.AppendFence(lo, hi, uint32(dst)); err != nil {
			// The fence may be partially durable, so source ownership is
			// unrecoverable (see the contract above): count the failed
			// fence and finalize to dst, which holds the range durably,
			// like a successful move.
			obs.Inc(obs.ClusterRebalanceFenceFailures)
		}
	}

	// 6. Finalize: dst owns the range; the overlay clears.
	fin := cut.finalized()
	if err := fin.Validate(); err != nil {
		return err
	}
	c.src.Set(fin)
	obs.Inc(obs.ClusterRebalanceMoves)
	obs.Add(obs.ClusterRebalanceTuples, uint64(moved))
	return nil
}

// abort unwinds a move that failed before its fence. Inserts acked by
// the destination while the cut was live exist only there, so the
// pre-move map cannot simply be republished — reads would consult the
// source alone and acknowledged writes would silently vanish. Instead
// the overlay flips to draining (a new generation: inserts route back
// to the source, reads keep fanning over both shards), the
// destination's range tuples are reconciled back to the source, and
// only then does the overlay clear. The returned error always reports
// cause; a failed reconciliation is appended and leaves the draining
// map published.
func (c *Cluster) abort(cut *ShardMap, chunkSize int, cause error) error {
	drain := cut.draining()
	c.src.Set(drain)
	obs.Inc(obs.ClusterRebalanceAborts)
	if err := c.reconcile(drain, chunkSize); err != nil {
		return fmt.Errorf("%w (reconciliation also failed: %v; the range stays draining — reads consult both shards until a later MoveRange completes the drain)", cause, err)
	}
	return cause
}

// reconcile completes a published draining overlay: the destination's
// tuples in the draining range are copied back to the source (copyRange
// — the forward move mirrored), then
// the overlay clears with another version bump. Inserts acked by the
// destination after its barrier here were necessarily submitted under
// the pre-drain cut map, so the routing client's version revalidation
// resubmits them to the source; the source's copy converges either way.
func (c *Cluster) reconcile(m *ShardMap, chunkSize int) error {
	mv := m.Moving
	if _, err := c.copyRange(mv.Dst, mv.Src, mv.Lo, mv.Hi, chunkSize, 0); err != nil {
		return fmt.Errorf("cluster: drain: %w", err)
	}
	c.src.Set(m.withoutMoving())
	return nil
}

// copyRange copies the leading-column range [lo, hi] (inclusive) from
// shard `from` to shard `to` while both keep serving — steps 2–4 of
// MoveRange, and mirrored, the drain of an aborted one: barrier on the
// source, snapshot + export, then the import in chunks through the
// destination's write scheduler (logged before acknowledgement,
// phase-disciplined against concurrent readers, idempotent under
// re-import), sleeping pace between chunks to bound the write pressure.
// It returns the number of tuples copied.
func (c *Cluster) copyRange(from, to int, lo, hi uint64, chunk int, pace time.Duration) (int, error) {
	fromSrv, toSrv := c.Shard(from), c.Shard(to)
	if err := fromSrv.Barrier(); err != nil {
		return 0, fmt.Errorf("barrier on shard %d: %w", from, err)
	}
	snap, err := fromSrv.SnapshotNow()
	if err != nil {
		return 0, fmt.Errorf("snapshot on shard %d: %w", from, err)
	}
	arity := snap.Arity()
	rangeLo := tuple.PrefixLowerBound(tuple.Tuple{lo}, arity)
	rangeHi := tuple.PrefixUpperBound(tuple.Tuple{hi}, arity) // nil when hi = MaxUint64
	moved := snap.ExportRange(rangeLo, rangeHi)
	for off := 0; off < len(moved); off += chunk {
		end := min(off+chunk, len(moved))
		if _, err := toSrv.Apply(moved[off:end]); err != nil {
			return 0, fmt.Errorf("import into shard %d: %w", to, err)
		}
		if pace > 0 && end < len(moved) {
			time.Sleep(pace)
		}
	}
	return len(moved), nil
}
