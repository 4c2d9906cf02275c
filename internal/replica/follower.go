// Package replica implements streaming read replicas of cluster
// shards (DESIGN.md §16). A Follower bootstraps from a leader
// snapshot, subscribes to the leader's committed epoch stream
// (internal/serve's replication frames over the shard insert log), and
// applies whole epochs in order through its own phase scheduler — so
// the replica is always at a state the leader actually passed through.
// Every applied epoch is re-logged into the follower's own durable log
// with the leader's sequence number as a watermark, making the
// follower restartable (replay, then resume the stream from the
// watermark) and promotable (replay the dead leader's committed log
// tail past the watermark, then turn writable).
//
// The follower serves reads over the ordinary wire protocol; its
// answers carry a replication stamp (applied watermark, known
// committed head, stream health) so routing clients can enforce a
// bounded-staleness contract per read and fall back to the leader when
// the bound is violated. Fence records in the stream — rebalance cuts
// — retire the moved range from the replica at the epoch boundary that
// cut them, by exchanging the served tree for a rebuilt complement:
// exactly once per cut in effect, and idempotent under replay, since a
// replayed epoch's batches re-insert at most what its fences drop
// again.
package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"specbtree/internal/cluster"
	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// Options configures a Follower.
type Options struct {
	// Leader is the leader shard's address.
	Leader string
	// Shard is the shard number this follower replicates; with Sharded
	// set, every hello (stream and data-plane) verifies it.
	Shard   uint32
	Sharded bool
	// Arity is the tuple width of the replicated relation (default 2).
	Arity int
	// LogPath is the follower's own durable log: applied epochs are
	// re-logged there, restarts replay it, promotion keeps writing it.
	LogPath string
	// Addr is the follower's listen address (default "127.0.0.1:0").
	Addr string
	// StaleAfter is how long the stream may be silent — no epoch, no
	// heartbeat — before the follower reports unhealthy and its reads
	// stop passing the staleness gate (default 1s; leaders heartbeat
	// every 100ms by default).
	StaleAfter time.Duration
	// ReconnectEvery paces stream reconnect attempts after a broken
	// subscription (default 100ms).
	ReconnectEvery time.Duration
	// Serve tunes the follower's server; Arity, Tree, EpochLog, Stamp,
	// Sharded and ShardID are overwritten.
	Serve serve.Options
}

func (o Options) withDefaults() Options {
	if o.Arity <= 0 {
		o.Arity = 2
	}
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = time.Second
	}
	if o.ReconnectEvery <= 0 {
		o.ReconnectEvery = 100 * time.Millisecond
	}
	return o
}

// Follower is one running read replica. It implements
// cluster.FollowerHandle, so a Cluster can attach it for read offload
// and promote it on leader failure.
type Follower struct {
	opts Options
	srv  *serve.Server
	log  *cluster.ShardLog

	// applied is the leader epoch watermark: every epoch <= applied is
	// applied to the tree AND durable in the follower's own log.
	applied atomic.Uint64
	// head is the highest leader epoch known committed (epoch frames,
	// heartbeats, and the subscribe ack all carry it).
	head atomic.Uint64
	// healthy reports a live stream: frames arriving within StaleAfter.
	healthy atomic.Bool

	mu sync.Mutex
	rc *serve.ReplicaConn // live subscription, for teardown

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Start opens (replaying) the follower's own log, serves the recovered
// tree read-only, and begins streaming from the leader in the
// background: a snapshot bootstrap when the log held nothing applied,
// a resume from the recovered watermark otherwise.
func Start(opts Options) (*Follower, error) {
	opts = opts.withDefaults()
	if opts.LogPath == "" {
		return nil, fmt.Errorf("replica: follower needs a log path")
	}
	log, rec, err := cluster.OpenShardLog(opts.LogPath, opts.Arity)
	if err != nil {
		return nil, fmt.Errorf("replica: follower log: %w", err)
	}
	f := &Follower{
		opts: opts,
		log:  log,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.applied.Store(rec.Watermark)
	f.head.Store(rec.Watermark)

	sopts := opts.Serve
	sopts.Arity = opts.Arity
	sopts.Tree = cluster.BuildTree(rec.Tuples, opts.Arity)
	sopts.EpochLog = nil // replication logs explicitly, per applied epoch
	sopts.Stamp = f.stamp
	sopts.Sharded = opts.Sharded
	sopts.ShardID = opts.Shard
	srv, err := serve.Start(opts.Addr, sopts)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("replica: follower server: %w", err)
	}
	f.srv = srv
	go f.run()
	return f, nil
}

// stamp is the follower's serve.Options.Stamp: the replication
// position its read frames answer opStamp with.
func (f *Follower) stamp() (applied, head uint64, healthy bool) {
	applied = f.applied.Load()
	head = f.head.Load()
	if head < applied {
		head = applied
	}
	return applied, head, f.healthy.Load()
}

// Addr returns the follower's serving address.
func (f *Follower) Addr() string { return f.srv.Addr() }

// Applied returns the follower's applied-epoch watermark.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// Head returns the highest leader epoch the follower knows committed.
func (f *Follower) Head() uint64 { _, h, _ := f.stamp(); return h }

// Healthy reports whether the replication stream is live.
func (f *Follower) Healthy() bool { return f.healthy.Load() }

// Server returns the follower's serving surface.
func (f *Follower) Server() *serve.Server { return f.srv }

// Log returns the follower's own durable log.
func (f *Follower) Log() *cluster.ShardLog { return f.log }

// run is the stream loop: subscribe, apply until the subscription
// breaks, back off, resubscribe from the current watermark. Exits on
// Close or promotion.
func (f *Follower) run() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		f.streamOnce()
		f.healthy.Store(false)
		select {
		case <-f.stop:
			return
		case <-time.After(f.opts.ReconnectEvery):
		}
	}
}

// streamOnce runs one subscription to completion (error or stop). A
// zero watermark requests a snapshot bootstrap; anything else resumes
// the epoch stream right after the watermark.
func (f *Follower) streamOnce() {
	after := f.applied.Load()
	rc, err := serve.DialReplica(f.opts.Leader, serve.ReplicaDialOptions{
		Arity:   f.opts.Arity,
		Shard:   f.opts.Shard,
		Sharded: f.opts.Sharded,
		After:   after,
	})
	if err != nil {
		return
	}
	f.mu.Lock()
	f.rc = rc
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		if f.rc == rc {
			f.rc = nil
		}
		f.mu.Unlock()
		rc.Close()
	}()
	f.observeHead(rc.Head)

	for {
		select {
		case <-f.stop:
			return
		default:
		}
		m, err := rc.Recv(f.opts.StaleAfter)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// The leader went quiet past the staleness window: report
				// unhealthy (reads fall back to the leader — or fail with
				// it, which is what promotion is for) but keep listening;
				// the subscription may simply be stalled, not dead.
				f.healthy.Store(false)
				continue
			}
			return
		}
		switch m.Type {
		case serve.ReplicaSnapPage:
			if err := f.applyBootstrapPage(m); err != nil {
				return
			}
			continue
		case serve.ReplicaEpochMsg:
			if m.Epoch.Seq <= f.applied.Load() {
				continue // bootstrap overlap: already applied, idempotent to skip
			}
			if err := f.applyEpoch(m.Epoch); err != nil {
				return // apply failure or a gap: resubscribe from the watermark
			}
		}
		// An epoch or a heartbeat: the leader is alive and named its head.
		f.observeHead(m.Head)
		f.healthy.Store(true)
		applied, head, _ := f.stamp()
		obs.Observe(obs.HistReplicaLagEpochs, head-applied)
	}
}

// applyBootstrapPage applies one snapshot page: into the tree through
// the scheduler, then durably into the follower's log — with mark 0
// until the final page, whose mark is the bootstrap base. A crash
// mid-bootstrap therefore recovers with watermark 0 and bootstraps
// again (re-applied tuples are idempotent set additions).
func (f *Follower) applyBootstrapPage(m serve.ReplicaMsg) error {
	if len(m.Tuples) > 0 {
		if _, err := f.srv.Apply(m.Tuples); err != nil {
			return err
		}
		if err := f.log.LogReplicatedEpoch([][]tuple.Tuple{m.Tuples}, nil, 0); err != nil {
			return err
		}
		obs.Add(obs.ReplicaBootstrapTuples, uint64(len(m.Tuples)))
	}
	if m.Last {
		if err := f.log.LogReplicatedEpoch(nil, nil, m.Base); err != nil {
			return err
		}
		f.applied.Store(m.Base)
		f.observeHead(m.Base)
		f.healthy.Store(true)
	}
	return nil
}

// applyEpoch applies one committed leader epoch atomically from the
// readers' point of view: insert batches through the scheduler, fence
// retirements as tree exchanges at the quiescent point, then the whole
// epoch into the follower's own log, and only then the watermark —
// reads stamped `applied` never overstate what is both served and
// durable. A crash between apply and log recovers to the previous
// watermark and re-applies this epoch from the stream; its batches
// re-insert at most what its fences drop again, so fence retirement
// stays effectively exactly-once. The epoch must extend the watermark by
// exactly one: a gap means the stream (or the log being caught up from)
// skipped an epoch, and applying past it would break prefix consistency.
func (f *Follower) applyEpoch(ep *cluster.Epoch) error {
	if applied := f.applied.Load(); ep.Seq != applied+1 {
		return fmt.Errorf("replica: epoch %d does not extend watermark %d", ep.Seq, applied)
	}
	tuples := uint64(0)
	for _, b := range ep.Batches {
		if len(b) == 0 {
			continue
		}
		if _, err := f.srv.Apply(b); err != nil {
			return err
		}
		tuples += uint64(len(b))
	}
	for _, fc := range ep.Fences {
		if err := f.retire(fc); err != nil {
			return err
		}
		obs.Inc(obs.ReplicaFencesApplied)
	}
	if err := f.log.LogReplicatedEpoch(ep.Batches, ep.Fences, ep.Seq); err != nil {
		return err
	}
	f.applied.Store(ep.Seq)
	obs.Inc(obs.ReplicaApplyEpochs)
	obs.Add(obs.ReplicaApplyTuples, tuples)
	return nil
}

// retire drops the fenced leading-column range [Lo, Hi] from the
// replica without a restart: snapshot the served tree, export the
// complement of the range, bulk-load it into a fresh tree, and
// exchange it in at an epoch boundary. O(kept) work, but fences are
// rare (one per rebalance) and the replica must not serve a range the
// leader no longer owns.
func (f *Follower) retire(fc cluster.Fence) error {
	snap, err := f.srv.SnapshotNow()
	if err != nil {
		return err
	}
	arity := f.opts.Arity
	from := tuple.PrefixLowerBound(tuple.Tuple{fc.Lo}, arity)
	keep := snap.ExportRange(nil, from)
	if to := tuple.PrefixUpperBound(tuple.Tuple{fc.Hi}, arity); to != nil {
		keep = append(keep, snap.ExportRange(to, nil)...)
	}
	t := core.New(arity)
	if len(keep) > 0 {
		t.BuildFromSorted(keep)
	}
	return f.srv.Exchange(t)
}

// observeHead raises the known committed head (it never goes back).
func (f *Follower) observeHead(h uint64) {
	for {
		cur := f.head.Load()
		if h <= cur || f.head.CompareAndSwap(cur, h) {
			return
		}
	}
}

// stopStream stops the background stream loop and waits it out.
// Idempotent.
func (f *Follower) stopStream() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.mu.Lock()
		if f.rc != nil {
			f.rc.Close() // unblock a Recv in flight
		}
		f.mu.Unlock()
	})
	<-f.done
}

// CatchUpFromLog replays the committed tail of a (dead) leader's
// durable log past the follower's watermark — promotion's catch-up.
// The stream loop is stopped first; a torn tail in the log is the end
// of the committed prefix (those bytes were never acknowledged), while
// corruption inside it is a real error. Returns the new watermark.
func (f *Follower) CatchUpFromLog(path string) (uint64, error) {
	f.stopStream()
	tail, err := cluster.TailShardLog(path, f.opts.Arity, f.applied.Load())
	if err != nil {
		return f.applied.Load(), fmt.Errorf("replica: catch-up open: %w", err)
	}
	defer tail.Close()
	for {
		ep, ok, err := tail.Next()
		if err != nil {
			return f.applied.Load(), fmt.Errorf("replica: catch-up replay: %w", err)
		}
		if !ok {
			return f.applied.Load(), nil
		}
		if err := f.applyEpoch(ep); err != nil {
			return f.applied.Load(), fmt.Errorf("replica: catch-up apply: %w", err)
		}
	}
}

// Promote flips the follower into a writable leader: the stream loop
// stops, the follower's own log becomes the scheduler's epoch log, and
// insert frames are accepted from then on. The follower then answers
// stamps as a leader (applied == head, healthy) — it defines the head
// now. Call CatchUpFromLog first; cluster.Promote does both.
func (f *Follower) Promote() error {
	f.stopStream()
	f.srv.PromoteToLeader(f.log)
	f.healthy.Store(true)
	obs.Inc(obs.ReplicaPromotions)
	return nil
}

// Promoted reports whether the follower has been promoted.
func (f *Follower) Promoted() bool { return f.srv.Promoted() }

// Close stops the stream and — unless the follower was promoted, in
// which case the cluster took ownership of its server and log — shuts
// the server down and closes the log.
func (f *Follower) Close() error {
	f.stopStream()
	if f.Promoted() {
		return nil
	}
	err := f.srv.Close()
	if lerr := f.log.Close(); err == nil {
		err = lerr
	}
	return err
}
