// Package cluster shards one relation across N relation servers
// (internal/serve), each backed by the paper's concurrent specialised
// B-tree. A ShardMap partitions the key space by range on the leading
// tuple column; a shard-aware Client routes inserts and point reads to
// the owning shard and fans range scans across shards with an ordered
// k-way merge. Each shard persists a per-epoch append-only insert log
// (this file) replayed through core.BuildFromSorted on restart, and
// ranges move between shards online via core.Snapshot handoff
// (rebalance.go). DESIGN.md §15 specifies the protocols.
//
// The log exploits the paper's insert-only contract: a relation is
// reconstructed exactly by re-inserting every acknowledged tuple, so
// durability is one append-only file of insert records — no undo, no
// page images, no checkpointing beyond the log itself.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// The log file is a sequence of committed epochs, numbered 1, 2, 3, …
// with no gaps, in the serving stack's one epoch framing
// (serve.AppendEpoch / serve.DecodeEpoch, DESIGN.md §15) — the same
// bytes the replication stream ships, so Epoch and Fence are the
// serving layer's types.
//
// One write epoch is composed in memory, written with a single Write
// and fsynced BEFORE the server delivers the epoch's acknowledgements,
// so the set of acknowledged tuples is always a prefix of the committed
// log. Recovery applies committed epochs only: an incomplete trailing
// record or a trailing epoch with no commit marker is a crash artifact
// past the last durable flush, never acknowledged, and is truncated
// silently; a complete but invalid record is ErrLogCorrupt.
type (
	Epoch = serve.Epoch
	Fence = serve.Fence
)

// ErrLogCorrupt is the pinned error for a shard insert log whose
// committed prefix is damaged. Torn trailing bytes from a crash are NOT
// corruption — they are truncated silently, because the
// flush-before-ack protocol guarantees nothing torn was ever
// acknowledged.
var ErrLogCorrupt = serve.ErrLogCorrupt

// ErrCrashed is returned by ShardLog operations after the log has been
// poisoned — by an injected crash (logcrash builds) or by an earlier
// flush that failed with a real write or sync error. Either way the
// file's tail state is untrustworthy, so the log refuses further
// appends until reopened (recovery truncates any torn tail).
var ErrCrashed = errors.New("cluster: log writer crashed")

// ShardLog is the append-only per-epoch insert log of one shard. It
// implements serve.EpochLog: the shard's scheduler calls LogEpoch with
// the applied batches of each write epoch after application and before
// acknowledgement delivery. Appends are mutex-serialised so the
// rebalance control plane can interleave AppendFence with the
// scheduler's epoch flushes.
type ShardLog struct {
	arity int
	path  string

	mu      sync.Mutex
	f       *os.File
	nextSeq uint64
	buf     []byte
	crashed bool
	// pulse is closed and replaced after every successful flush, so
	// tailing streamers can block on Pulse instead of polling.
	pulse chan struct{}
}

// Recovery describes what OpenShardLog replayed from an existing log.
type Recovery struct {
	// Tuples are the committed tuples in log order, fence-dropped
	// ranges excluded; duplicates possible (re-inserts are logged as
	// acknowledged). Build a tree with BuildTree.
	Tuples []tuple.Tuple
	// Epochs is the number of committed epochs replayed.
	Epochs uint64
	// TornTail reports that trailing bytes past the last committed
	// epoch were discarded (crash artifact, never acknowledged).
	TornTail bool
	// Dropped is the number of committed tuples discarded because a
	// later fence moved their range to another shard.
	Dropped int
	// Watermark is the highest replication watermark (recMark) among
	// the committed epochs — the last leader-log epoch this follower
	// log applied. Zero for leader logs, which carry no marks.
	Watermark uint64
}

// apply folds one committed epoch into the recovery, offline: its
// batches join the committed set, then each of its fences filters the
// whole set (this epoch's batches included).
func (rec *Recovery) apply(ep *Epoch) {
	for _, b := range ep.Batches {
		rec.Tuples = append(rec.Tuples, b...)
	}
	for _, fc := range ep.Fences {
		kept := rec.Tuples[:0]
		for _, t := range rec.Tuples {
			if t[0] >= fc.Lo && t[0] <= fc.Hi {
				rec.Dropped++
				continue
			}
			kept = append(kept, t)
		}
		rec.Tuples = kept
	}
	if ep.Mark > rec.Watermark {
		rec.Watermark = ep.Mark
	}
	rec.Epochs++
}

// OpenShardLog opens (or creates) the insert log at path for a shard
// of the given arity, replays its committed prefix, truncates any
// trailing crash artifact, and returns the log positioned to append
// the next epoch. The returned Recovery holds the replayed tuples.
// Recovery reads the file the way replication does — through a
// LogTailer driven to the committed end — so there is one log reader.
func OpenShardLog(path string, arity int) (*ShardLog, *Recovery, error) {
	if arity < 1 {
		return nil, nil, fmt.Errorf("cluster: arity %d out of range", arity)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	rec, err := recoverLog(f, arity)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	obs.Add(obs.ClusterLogReplayTuples, uint64(len(rec.Tuples)))
	if rec.TornTail {
		obs.Inc(obs.ClusterLogTornTails)
	}
	l := &ShardLog{arity: arity, f: f, path: path, nextSeq: rec.Epochs + 1, pulse: make(chan struct{})}
	return l, rec, nil
}

// recoverLog replays f's committed prefix and leaves f truncated to it
// and positioned at its end. Whatever follows the last committed epoch
// is a torn tail: the flush was cut mid-epoch, nothing in it was acked.
func recoverLog(f *os.File, arity int) (*Recovery, error) {
	rec := &Recovery{}
	t := &LogTailer{f: f, arity: arity}
	for {
		ep, ok, err := t.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		rec.apply(ep)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if t.off < size {
		rec.TornTail = true
		if err := f.Truncate(t.off); err != nil {
			return nil, err
		}
	}
	if _, err := f.Seek(t.off, io.SeekStart); err != nil {
		return nil, err
	}
	return rec, nil
}

// Path returns the log's file path.
func (l *ShardLog) Path() string { return l.path }

// CommittedSeq returns the sequence number of the last durably
// committed epoch (0 before the first).
func (l *ShardLog) CommittedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Pulse returns a channel closed at the next successful epoch flush.
// Tailing streamers block on it instead of polling; after it fires,
// call Pulse again for the next edge.
func (l *ShardLog) Pulse() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pulse
}

// Close closes the underlying file. The log must not be used after.
func (l *ShardLog) Close() error { return l.f.Close() }

// LogEpoch durably appends one write epoch — the applied insert
// batches followed by a commit marker — as a single write + fsync.
// The serving layer calls it after batch application and before
// acknowledgement delivery (serve.EpochLog); an error fails the
// epoch's acknowledgements. An epoch with no tuples (a barrier) has
// nothing to make durable and writes nothing.
func (l *ShardLog) LogEpoch(batches [][]tuple.Tuple) error {
	return l.append(Epoch{Batches: batches}, crashSiteEpoch)
}

// LogReplicatedEpoch durably appends one applied replication epoch to a
// follower's own log: the epoch's insert batches and fences exactly as
// streamed from the leader, plus a watermark record carrying the leader
// epoch number, all under one commit marker and one flush. On restart,
// recovery reconstructs the follower tree and Recovery.Watermark tells
// the follower where to resume its subscription; re-applying an epoch
// the leader also streams again is idempotent (set inserts, re-fenced
// empty ranges).
func (l *ShardLog) LogReplicatedEpoch(batches [][]tuple.Tuple, fences []Fence, mark uint64) error {
	return l.append(Epoch{Batches: batches, Fences: fences, Mark: mark}, crashSiteEpoch)
}

// AppendFence durably appends a fence epoch recording that the
// leading-column range [lo, hi] now lives on shard dst: on replay,
// committed tuples inside the range from earlier epochs are dropped
// (the destination shard logged them before this fence was written).
func (l *ShardLog) AppendFence(lo, hi uint64, dst uint32) error {
	return l.append(Epoch{Fences: []Fence{{Lo: lo, Hi: hi, Dst: dst}}}, crashSiteFence)
}

// append is the one log writer: it stamps ep with the next sequence
// number, composes its records, writes and fsyncs them as one flush,
// counts them, and wakes the tailers. An epoch carrying nothing — no
// tuple, no fence, no mark — is skipped without consuming a sequence
// number.
func (l *ShardLog) append(ep Epoch, site CrashSite) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrashed
	}
	empty := len(ep.Fences) == 0 && ep.Mark == 0
	for _, b := range ep.Batches {
		empty = empty && len(b) == 0
	}
	if empty {
		return nil
	}
	for _, fc := range ep.Fences {
		if fc.Lo > fc.Hi {
			return fmt.Errorf("cluster: fence range [%d, %d] inverted", fc.Lo, fc.Hi)
		}
	}
	start := obs.Clock()
	ep.Seq = l.nextSeq
	var records int
	l.buf, records = serve.AppendEpoch(l.buf[:0], &ep)
	if err := l.flush(site); err != nil {
		return err
	}
	obs.Add(obs.ClusterLogRecords, uint64(records))
	obs.Add(obs.ClusterLogBytes, uint64(len(l.buf)))
	obs.Observe(obs.HistClusterLogFlushNanos, uint64(obs.Clock()-start))
	l.nextSeq++
	// Wake Pulse waiters.
	close(l.pulse)
	l.pulse = make(chan struct{})
	return nil
}

// CrashSite identifies a log flush the logcrash injector may cut short:
// one per durable append path. The injector sees which protocol step is
// flushing and the exact size of the composed epoch buffer, so a test
// can compute byte-precise kill points — mid-record, between a record
// and its commit marker, or after a complete but checksum-less prefix.
// Inert in default builds.
type CrashSite uint8

const (
	crashSiteEpoch CrashSite = iota
	crashSiteFence
)

// flush writes the composed epoch buffer and fsyncs. In logcrash
// builds an installed injector may cut the write short at the given
// site, simulating a process kill mid-flush; the log then refuses
// further use until reopened. A real write or sync error poisons the
// log the same way: the tail may be torn (a short write) or of unknown
// durability (a failed sync), and appending after it would frame the
// next epoch into garbage — turning a recoverable torn tail into
// ErrLogCorrupt on replay. Only a reopen, which replays and truncates,
// may append again.
func (l *ShardLog) flush(site CrashSite) error {
	b := l.buf
	if CrashInjecting {
		if cut, ok := crashCut(site, len(b)); ok {
			if cut > 0 {
				l.f.Write(b[:cut])
				l.f.Sync()
			}
			l.crashed = true
			return ErrCrashed
		}
	}
	if _, err := l.f.Write(b); err != nil {
		l.crashed = true
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.crashed = true
		return err
	}
	return nil
}

// BuildTree sorts and deduplicates the replayed tuples and bulk-loads
// them into a fresh tree via core.BuildFromSorted — the recovery path
// the paper's insert-only contract makes exact: re-inserting every
// acknowledged tuple reconstructs the relation.
func BuildTree(tuples []tuple.Tuple, arity int) *core.Tree {
	t := core.New(arity)
	if len(tuples) == 0 {
		return t
	}
	sorted := make([]tuple.Tuple, len(tuples))
	copy(sorted, tuples)
	sort.Slice(sorted, func(i, j int) bool { return tuple.Less(sorted[i], sorted[j]) })
	dedup := sorted[:1]
	for _, tt := range sorted[1:] {
		if !tuple.Equal(tt, dedup[len(dedup)-1]) {
			dedup = append(dedup, tt)
		}
	}
	t.BuildFromSorted(dedup)
	return t
}
