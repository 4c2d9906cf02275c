package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// Options configures a Server. The zero value of every field selects a
// sensible default.
type Options struct {
	// Arity is the tuple width of the served relation (default 2).
	// Ignored when Tree is set.
	Arity int
	// Capacity is the per-node element capacity of the served tree
	// (0 = core.DefaultCapacity). Ignored when Tree is set.
	Capacity int
	// Tree, when non-nil, is served instead of a fresh tree — e.g. a
	// relation pre-loaded by the caller.
	Tree *core.Tree
	// WriteQueue bounds the number of admitted-but-unexecuted insert
	// batches (default 64). A full queue answers RETRY.
	WriteQueue int
	// OutboundQueue bounds the per-connection response queue (default
	// 128). A client that cannot keep up with its responses overflows it
	// and is disconnected.
	OutboundQueue int
	// MaxBatch bounds the tuples of one insert frame (default 4096).
	MaxBatch int
	// MaxScan caps the tuples returned by one scan operation (default
	// 1024); longer results set the truncated flag and the client
	// paginates.
	MaxScan int
	// WriteTimeout bounds one response write to a connection (default
	// 10s); a blocked write disconnects the slow client.
	WriteTimeout time.Duration
	// DisableSnapshotReads restores the blocking read gate: readers
	// arriving during a write epoch wait for it instead of being served
	// from the last-epoch snapshot. The default (false) enables the
	// snapshot bypass — reads then never block behind writes, at the
	// cost of answers lagging at most one epoch while a write epoch is
	// in flight (DESIGN.md §14). Kept as an option so benchmarks can
	// compare against the gate-blocking baseline.
	DisableSnapshotReads bool
	// EpochLog, when non-nil, makes every write epoch durable: the
	// scheduler calls LogEpoch with the epoch's applied batches after
	// application and BEFORE the acknowledgements are delivered, so an
	// acknowledged insert is always on stable storage (the cluster
	// shard log, DESIGN.md §15). A log error fails the epoch's
	// acknowledgements with a server error.
	EpochLog EpochLog
	// Sharded marks this server as one shard of a cluster. The shard
	// identity is verified in the hello handshake: a shard-aware client
	// states which shard it expects (ShardID) and the server refuses
	// the connection on a mismatch — the guard against a stale shard
	// map routing to a rebound address.
	Sharded bool
	// ShardID is this server's shard number; meaningful only with
	// Sharded set (shard 0 is a valid shard).
	ShardID uint32
	// Replica, when non-nil, enables replication subscriptions
	// (DESIGN.md §16): a client may send kindSubscribe and the
	// server streams the source's committed epochs to it. Set on
	// leaders to the shard's insert log.
	Replica ReplicaSource
	// Stamp, when non-nil, makes the server a read-only follower and
	// supplies the replication stamp answered to opStamp reads: its
	// applied epoch watermark, the highest leader epoch it knows
	// committed, and whether its replication stream is healthy. Insert
	// frames are refused with a server error directing the client to
	// the leader, until PromoteToLeader flips the server into a
	// writable leader; the in-process Apply path stays open — it is how
	// the replication apply loop feeds the tree (internal/replica).
	// When nil, opStamp reports the server's own epoch count for both
	// positions and healthy=true (a leader is never stale against
	// itself).
	Stamp func() (applied, head uint64, healthy bool)
	// HeartbeatEvery bounds the idle gap between replication frames on
	// a subscription (default 100ms): with no fresh epoch to ship, the
	// streamer sends a heartbeat carrying the committed head, so
	// followers can judge staleness while the log is quiet.
	HeartbeatEvery time.Duration
}

// EpochLog receives every write epoch's applied insert batches, in
// application order, and must make them durable before returning: the
// scheduler delivers the epoch's acknowledgements only after LogEpoch
// returns nil. Called from the single epoch goroutine, never
// concurrently.
type EpochLog interface {
	LogEpoch(batches [][]tuple.Tuple) error
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Arity <= 0 {
		o.Arity = 2
	}
	if o.WriteQueue <= 0 {
		o.WriteQueue = 64
	}
	if o.OutboundQueue <= 0 {
		o.OutboundQueue = 128
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.MaxScan <= 0 {
		o.MaxScan = 1024
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 100 * time.Millisecond
	}
	return o
}

// Server is a TCP relation server: one concurrent B-tree behind the
// phase scheduler, speaking the package's wire protocol. Start it with
// Start; stop it with Shutdown (graceful drain) or Close.
type Server struct {
	opts  Options
	sched *scheduler
	lis   net.Listener

	mu     sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool

	wg sync.WaitGroup // accept loop + per-conn goroutines

	accepted atomic.Uint64
	dropped  atomic.Uint64
	// promoted flips a follower into a leader (PromoteToLeader): insert
	// frames are accepted from then on.
	promoted atomic.Bool
}

// Stats is a point-in-time reading of the server's serving-layer state,
// available in every build flavour (unlike the obs counters, which
// compile out under obsoff). Monotonic fields mirror their obs
// counterparts; depth and connection counts are instantaneous gauges.
type Stats struct {
	// Conns is the number of currently attached connections.
	Conns int
	// WriteQueueDepth is the current write-queue occupancy (gauge).
	WriteQueueDepth int
	// Epochs counts write epochs executed so far.
	Epochs uint64
	// WriteOps counts tuples applied by write epochs.
	WriteOps uint64
	// ReadOps counts read operations executed.
	ReadOps uint64
	// SnapshotReads counts read frames answered from the last-epoch
	// snapshot because a write epoch held the gate closed.
	SnapshotReads uint64
	// Retries counts RETRY responses sent on a full write queue.
	Retries uint64
	// ConnsAccepted and ConnsDropped count accepted connections and
	// slow-client disconnects.
	ConnsAccepted, ConnsDropped uint64
	// PhaseViolations counts detected read/write-epoch overlaps; any
	// non-zero value is a scheduler bug.
	PhaseViolations uint64
}

// Start listens on addr (host:port; port 0 picks a free port) and serves
// the relation in background goroutines until Shutdown or Close.
func Start(addr string, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	tree := opts.Tree
	if tree == nil {
		var copts []core.Options
		if opts.Capacity != 0 {
			copts = append(copts, core.Options{Capacity: opts.Capacity})
		}
		tree = core.New(opts.Arity, copts...)
	}
	opts.Arity = tree.Arity()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{
		opts:  opts,
		sched: newScheduler(tree, opts.WriteQueue, !opts.DisableSnapshotReads, opts.EpochLog),
		lis:   lis,
		conns: make(map[*serverConn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the resolved listen address (useful with port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Arity returns the tuple width of the served relation.
func (s *Server) Arity() int { return s.opts.Arity }

// Tree returns the served tree; between write epochs it is safe to read
// (the usual phase discipline applies to direct access too). On a
// follower the served tree can be exchanged by a fence retirement
// (Exchange), so callers must not cache the pointer across epochs.
func (s *Server) Tree() *core.Tree { return s.sched.tree.Load() }

// Barrier submits an empty write batch through the scheduler and waits
// for its epoch: when it returns, every insert admitted before the
// call has been applied, logged and acknowledged. Used by the
// rebalance protocol to drain in-flight epochs after a shard-map cut.
func (s *Server) Barrier() error {
	_, err := s.submitWait(&writeBatch{})
	return err
}

// submitWait submits one batch through the write scheduler and waits
// for its epoch. The in-process control-plane callers (Barrier,
// Exchange, Apply) want the wait, not RETRY, so a full write queue is
// waited out; ErrShutdown reports drain.
func (s *Server) submitWait(b *writeBatch) (fresh int, err error) {
	b.done = make(chan writeResult, 1)
	for {
		err := s.sched.submit(b)
		if err == nil {
			res := <-b.done
			return res.fresh, res.err
		}
		if !errors.Is(err, errBusy) {
			return 0, err
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Exchange replaces the served tree with t at an epoch boundary: the
// swap is submitted through the write scheduler like a batch, so it
// installs at a quiescent point (live readers drained, snapshot readers
// on the immutable old snapshot) and every cached hint set is
// invalidated. This is the follower fence-retirement path (DESIGN.md
// §16): the replication apply loop rebuilds the kept complement of a
// fenced range into a fresh tree and exchanges it in, retiring the
// moved range without a restart.
func (s *Server) Exchange(t *core.Tree) error {
	if t.Arity() != s.opts.Arity {
		return fmt.Errorf("serve: arity-%d tree for arity-%d relation", t.Arity(), s.opts.Arity)
	}
	_, err := s.submitWait(&writeBatch{swap: t})
	return err
}

// PromoteToLeader flips a follower into a writable leader: the given
// log becomes the scheduler's epoch log (installed before writes are
// admitted, so no accepted insert misses durability) and insert frames
// are accepted from then on. One-way; used by cluster failover after
// the follower has drained the dead leader's stream tail.
func (s *Server) PromoteToLeader(log EpochLog) {
	s.sched.setLog(log)
	s.promoted.Store(true)
}

// Promoted reports whether a follower server has been promoted to
// leader.
func (s *Server) Promoted() bool { return s.promoted.Load() }

// stamp answers opStamp reads: the replication watermark of a follower
// (Options.Stamp), or the server's own epoch count on a leader — a
// leader is never stale against itself. A promoted follower answers as
// a leader: its stream is gone, and it now defines the head.
func (s *Server) stamp() (applied, head uint64, healthy bool) {
	if s.opts.Stamp != nil && !s.promoted.Load() {
		return s.opts.Stamp()
	}
	e := s.sched.epochs.Load()
	return e, e, true
}

// Apply submits one insert batch through the write scheduler
// in-process — the same admission, epoch application, durable logging
// and phase discipline as a network insert, without a connection. The
// rebalance import path uses it so handed-off tuples reach the
// destination's log before the source fences them.
func (s *Server) Apply(batch []tuple.Tuple) (fresh int, err error) {
	for _, t := range batch {
		if len(t) != s.opts.Arity {
			return 0, fmt.Errorf("serve: arity-%d tuple for arity-%d relation", len(t), s.opts.Arity)
		}
	}
	return s.submitWait(&writeBatch{tuples: batch})
}

// SnapshotNow captures an immutable snapshot of the served tree at a
// quiescent point: it admits itself as a live reader (which excludes
// write epochs by the phase discipline) and captures under that
// admission. While the gate is closed it waits the epoch out rather
// than settling for the possibly stale last-epoch snapshot — the
// rebalance export needs every acknowledged tuple, not a lagging view.
func (s *Server) SnapshotNow() (core.Snapshot, error) {
	for {
		mode, _, _ := s.sched.beginRead()
		switch mode {
		case readRefused:
			return core.Snapshot{}, ErrShutdown
		case readLive:
			sp := s.sched.tree.Load().Snapshot()
			s.sched.endRead()
			return sp, nil
		default:
			// Gate closed (snapshot bypass active): wait out the write
			// epoch and retry — control-plane path, a brief spin is fine.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Stats returns a point-in-time serving-layer snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	return Stats{
		Conns:           conns,
		WriteQueueDepth: s.sched.queueDepth(),
		Epochs:          s.sched.epochs.Load(),
		WriteOps:        s.sched.writeOps.Load(),
		ReadOps:         s.sched.readOps.Load(),
		SnapshotReads:   s.sched.snapshotReads.Load(),
		Retries:         s.sched.retries.Load(),
		ConnsAccepted:   s.accepted.Load(),
		ConnsDropped:    s.dropped.Load(),
		PhaseViolations: s.sched.violations.Load(),
	}
}

// Shutdown gracefully stops the server: stop accepting, drain every
// admitted write batch (their responses are still delivered), then close
// connections and wait for the per-connection goroutines, bounded by
// ctx. It returns ctx.Err() if the deadline expired before quiescence.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.lis.Close()
	// Drain: already-admitted writes execute and answer before the
	// connections go away.
	s.sched.drain()

	// Unblock every connection reader; in-flight operations finish, the
	// next frame read fails and the connection tears down.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the server immediately (a Shutdown with a short drain
// bound).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		obs.Inc(obs.ServeConnsAccepted)
		c := &serverConn{
			s:        s,
			nc:       nc,
			out:      make(chan outFrame, s.opts.OutboundQueue),
			rdClosed: make(chan struct{}),
			closed:   make(chan struct{}),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// outFrame is one queued response. trace echoes the request frame's
// trace ID; it rides in the frame rather than on the connection because
// readLoop enqueues while writeLoop drains concurrently.
type outFrame struct {
	kind    byte
	id      uint64
	trace   obs.TraceID
	payload []byte
}

// serverConn is one attached client connection: a reader goroutine that
// decodes, classifies and executes frames, and a writer goroutine that
// flushes the bounded outbound queue.
type serverConn struct {
	s  *Server
	nc net.Conn

	out chan outFrame
	// rdClosed is closed when the reader goroutine exits; the writer
	// then flushes whatever responses are still queued (the graceful
	// half of teardown) before closing the socket.
	rdClosed  chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
	// inflight counts insert helper goroutines that still owe the
	// connection a response. The writer's graceful teardown waits for
	// them before its final flush: an insert acknowledged by a drained
	// epoch must reach the outbound queue before the queue is emptied
	// for the last time, or the acknowledgement would be lost in a race
	// the client cannot distinguish from a failed write.
	inflight sync.WaitGroup

	hints *core.Hints // read-path hints; owned by readLoop
	// hintGen is the tree generation the hint set was built for; a tree
	// exchange (scheduler.treeGen) invalidates it — cached leaves of the
	// replaced tree could still pass lease+coverage validation.
	hintGen uint64
}

// close tears the connection down once: the net.Conn is closed (which
// unblocks both loops) and the outbound queue is abandoned.
func (c *serverConn) close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	})
}

// dropSlow disconnects a client that fell behind its responses.
func (c *serverConn) dropSlow() {
	c.s.dropped.Add(1)
	obs.Inc(obs.ServeConnsDropped)
	c.close()
}

// send enqueues a response without blocking; an overflowing outbound
// queue means the client is not draining responses and is disconnected.
func (c *serverConn) send(f outFrame) {
	select {
	case c.out <- f:
	case <-c.closed:
	default:
		c.dropSlow()
	}
}

// sendBlocking enqueues a frame, blocking while the outbound queue is
// full instead of dropping the connection — the replication streamer's
// backpressure: a follower that falls behind slows the stream down
// rather than losing it (it would only have to re-bootstrap).
// WriteTimeout still disconnects a dead peer. Reports false once the
// connection is closed.
func (c *serverConn) sendBlocking(f outFrame) bool {
	select {
	case c.out <- f:
		return true
	case <-c.closed:
		return false
	}
}

func (c *serverConn) writeLoop() {
	defer c.s.wg.Done()
	bw := bufio.NewWriter(c.nc)
	write := func(f outFrame) error {
		c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
		err := writeFrame(bw, f.kind, f.id, f.trace, f.payload)
		// Flush eagerly when the queue is empty so pipelined clients are
		// not stalled behind buffering.
		if err == nil && len(c.out) == 0 {
			err = bw.Flush()
		}
		return err
	}
	for {
		select {
		case f := <-c.out:
			if write(f) != nil {
				c.writeFailed()
				return
			}
		case <-c.rdClosed:
			// Reader gone (disconnect or shutdown): wait out the insert
			// helpers still owed to this connection (their epochs execute
			// during the drain; the wait is bounded by epoch completion),
			// then flush the queued responses and tear the connection
			// down.
			c.inflight.Wait()
			for {
				select {
				case f := <-c.out:
					if write(f) != nil {
						c.writeFailed()
						return
					}
				default:
					bw.Flush()
					c.close()
					return
				}
			}
		case <-c.closed:
			return
		}
	}
}

// writeFailed tears down after a failed response write, counting it as a
// slow-client drop unless the connection was already closing.
func (c *serverConn) writeFailed() {
	select {
	case <-c.closed:
		c.close()
	default:
		c.dropSlow()
	}
}

func (c *serverConn) readLoop() {
	defer c.s.wg.Done()
	defer close(c.rdClosed)
	defer func() {
		if c.hints != nil {
			c.hints.FlushObs()
		}
	}()
	c.hints = core.NewHints()
	br := bufio.NewReader(c.nc)
	arity := c.s.opts.Arity
	for {
		kind, id, trace, payload, err := readFrame(br)
		if err != nil {
			return // disconnect, protocol error or shutdown deadline
		}
		switch kind {
		case kindHello:
			c.handleHello(id, trace, payload)
		case kindRequest:
			if trace == 0 {
				// An untraced frame may still start a server-side trace
				// (sampling gate; off by default) so server-only
				// investigations need no client cooperation.
				trace = obs.StartTrace()
			}
			var frameStart int64
			if trace != 0 {
				frameStart = obs.Clock()
			}
			req, err := decodeRequest(id, payload, arity, c.s.opts.MaxBatch)
			if err != nil {
				c.sendErr(id, trace, err.Error())
				return
			}
			if req.insert != nil {
				c.handleInsert(req, trace, frameStart)
			} else {
				c.handleReads(req, trace, frameStart)
			}
		case kindSubscribe:
			if err := c.handleSubscribe(id, trace, payload); err != nil {
				c.sendErr(id, trace, err.Error())
				return
			}
		default:
			// A response frame from a client is a protocol error.
			c.sendErr(id, trace, "serve: unexpected frame kind")
			return
		}
	}
}

// sendErr answers a frame with a statusErr response.
func (c *serverConn) sendErr(id uint64, trace obs.TraceID, msg string) {
	c.send(outFrame{kind: kindResponse, id: id, trace: trace, payload: encodeErr(msg)})
}

// handleHello answers the arity handshake. A client arity of 0 adopts
// the server's; any other mismatch is refused. A 2-byte payload carries
// the arity only; a 6-byte payload additionally carries the shard
// number the client expects, answered — after verification against
// Options.ShardID — with the server's shard number, so a shard-aware
// client can never ingest data from a shard a stale map misrouted it
// to.
func (c *serverConn) handleHello(id uint64, trace obs.TraceID, payload []byte) {
	r := &rbuf{b: payload}
	clientArity := int(r.u16())
	withShard := len(payload) > 2
	var wantShard uint32
	if withShard {
		wantShard = r.u32()
	}
	switch err := r.done(); {
	case err != nil:
		c.sendErr(id, trace, err.Error())
	case withShard && !c.s.opts.Sharded:
		c.sendErr(id, trace, fmt.Sprintf("serve: client expects shard %d but server is not a cluster shard", wantShard))
	case withShard && wantShard != c.s.opts.ShardID:
		c.sendErr(id, trace, fmt.Sprintf("serve: shard mismatch: client expects shard %d, server is shard %d", wantShard, c.s.opts.ShardID))
	case clientArity != 0 && clientArity != c.s.opts.Arity:
		c.sendErr(id, trace, fmt.Sprintf("serve: arity mismatch: client %d, server %d", clientArity, c.s.opts.Arity))
	default:
		w := &wbuf{}
		w.u8(statusOK)
		w.u16(uint16(c.s.opts.Arity))
		if withShard {
			w.u32(c.s.opts.ShardID)
		}
		c.send(outFrame{kind: kindHello, id: id, trace: trace, payload: w.b})
	}
}

// handleInsert submits the write batch and hands the epoch wait to a
// helper goroutine, so the connection keeps reading pipelined frames
// while the batch waits for its epoch. Responses may therefore overtake
// each other; clients match by id. A traced frame records one
// serve.frame.insert span spanning admission to epoch acknowledgement,
// and its trace rides on the batch so the executing epoch can adopt it.
func (c *serverConn) handleInsert(req request, trace obs.TraceID, frameStart int64) {
	if c.s.opts.Stamp != nil && !c.s.promoted.Load() {
		c.sendErr(req.id, trace, "serve: shard is a read-only follower; write to the leader")
		return
	}
	b := &writeBatch{tuples: req.insert, done: make(chan writeResult, 1), trace: trace}
	if err := c.s.sched.submit(b); err != nil {
		if errors.Is(err, errBusy) {
			c.send(outFrame{kind: kindResponse, id: req.id, trace: trace, payload: []byte{statusRetry}})
			return
		}
		c.sendErr(req.id, trace, err.Error())
		return
	}
	c.s.wg.Add(1)
	c.inflight.Add(1)
	go func() {
		defer c.s.wg.Done()
		defer c.inflight.Done()
		res := <-b.done
		if res.err != nil {
			c.sendErr(req.id, trace, res.err.Error())
			return
		}
		w := &wbuf{}
		w.u8(statusOK)
		w.u32(uint32(res.fresh))
		c.send(outFrame{kind: kindResponse, id: req.id, trace: trace, payload: w.b})
		if trace != 0 {
			obs.RecordSpan(trace, 0, 0, obs.SpanServeFrameInsert, frameStart, obs.Clock()-frameStart,
				uint64(len(req.insert)), uint64(res.fresh))
		}
	}()
}

// handleReads executes a read frame inline under read admission: all
// attached connections' read frames run concurrently between write
// epochs, and frames arriving while a write epoch holds the gate closed
// are answered from the last-epoch snapshot instead of blocking (unless
// Options.DisableSnapshotReads). A traced frame records a
// serve.frame.read span from decode to response enqueue, and — when the
// phase gate actually blocked it — a serve.phase.wait child span
// covering the wait. Every snapshot-served frame records its duration
// into "hist.serve.gate.bypass.ns" (the time a blocking gate would have
// added a wait to).
func (c *serverConn) handleReads(req request, trace obs.TraceID, frameStart int64) {
	if g := c.s.sched.treeGen.Load(); g != c.hintGen {
		// A tree exchange retired the tree these hints index; start over.
		c.hints.FlushObs()
		c.hints = core.NewHints()
		c.hintGen = g
	}
	var frameSpan obs.SpanID
	var waitStart int64
	if trace != 0 {
		frameSpan = obs.NewSpanID(trace)
		waitStart = obs.Clock()
	}
	mode, snap, blocked := c.s.sched.beginRead()
	if mode == readRefused {
		c.sendErr(req.id, trace, ErrShutdown.Error())
		return
	}
	if trace != 0 && blocked {
		obs.RecordSpan(trace, 0, frameSpan, obs.SpanServePhaseWait, waitStart, obs.Clock()-waitStart, 0, 0)
	}
	start := obs.SampleClock()
	var bypassStart int64
	if mode == readSnapshot {
		bypassStart = obs.Clock()
	}
	w := &wbuf{}
	w.u8(statusOK)
	if mode == readSnapshot {
		// Snapshot descents take no leases (the subtree is frozen), so
		// there are no hints to consult.
		rd := snapReader{snap}
		for i := range req.reads {
			execRead[core.SnapCursor](c, rd, &req.reads[i], w)
		}
	} else {
		rd := liveReader{c.s.sched.tree.Load(), c.hints}
		for i := range req.reads {
			execRead[core.Cursor](c, rd, &req.reads[i], w)
		}
	}
	if mode == readLive {
		c.s.sched.endRead()
	} else {
		obs.Observe(obs.HistServeGateBypassNanos, uint64(obs.Clock()-bypassStart))
	}
	c.s.sched.readOps.Add(uint64(len(req.reads)))
	obs.Add(obs.ServeReadOps, uint64(len(req.reads)))
	if start != 0 {
		obs.Observe(obs.HistServeReadNanos, uint64(obs.Clock()-start))
	}
	c.send(outFrame{kind: kindResponse, id: req.id, trace: trace, payload: w.b})
	if trace != 0 {
		obs.RecordSpan(trace, frameSpan, 0, obs.SpanServeFrameRead, frameStart, obs.Clock()-frameStart,
			uint64(len(req.reads)), uint64(len(w.b)))
	}
}

// cursor is the iteration surface core.Cursor and core.SnapCursor share
// (both through pointer receivers). It is a type-parameter constraint,
// not an interface value: execRead is instantiated once per cursor
// type, so the scan loop makes direct calls.
type cursor[C any] interface {
	*C
	Valid() bool
	Tuple() tuple.Tuple
	Compare(tuple.Tuple) int
	CopyTo(tuple.Tuple)
	Next()
}

// reader is what a read frame executes against: the live tree through
// the connection's hints between write epochs (liveReader), or the
// last-epoch snapshot while an epoch holds the gate closed
// (snapReader).
type reader[C any] interface {
	contains(v tuple.Tuple) bool
	bound(v tuple.Tuple, strict bool) C
	begin() C
	len() int
}

type liveReader struct {
	t *core.Tree
	h *core.Hints
}

func (r liveReader) contains(v tuple.Tuple) bool { return r.t.ContainsHint(v, r.h) }
func (r liveReader) begin() core.Cursor          { return r.t.Begin() }
func (r liveReader) len() int                    { return r.t.Len() }
func (r liveReader) bound(v tuple.Tuple, strict bool) core.Cursor {
	if strict {
		return r.t.UpperBoundHint(v, r.h)
	}
	return r.t.LowerBoundHint(v, r.h)
}

type snapReader struct{ s *core.Snapshot }

func (r snapReader) contains(v tuple.Tuple) bool { return r.s.Contains(v) }
func (r snapReader) begin() core.SnapCursor      { return r.s.Cursor() }
func (r snapReader) len() int                    { return r.s.Len() }
func (r snapReader) bound(v tuple.Tuple, strict bool) core.SnapCursor {
	if strict {
		return r.s.UpperBound(v)
	}
	return r.s.LowerBound(v)
}

// execRead evaluates one read operation against rd and appends its
// result to the response.
func execRead[C any, P cursor[C], R reader[C]](c *serverConn, rd R, op *readOp, w *wbuf) {
	switch op.code {
	case opContains:
		w.bool(rd.contains(op.arg))
	case opLower, opUpper:
		cur := rd.bound(op.arg, op.code == opUpper)
		if P(&cur).Valid() {
			w.bool(true)
			w.tuple(P(&cur).Tuple())
		} else {
			w.bool(false)
		}
	case opScan:
		// One bounded range scan: from lo (or the start; lo itself
		// skipped when loStrict) up to hi exclusive, capped at the
		// effective limit with a truncation flag.
		limit := int(op.limit)
		if limit <= 0 || limit > c.s.opts.MaxScan {
			limit = c.s.opts.MaxScan
		}
		var cur C
		if op.lo != nil {
			cur = rd.bound(op.lo, op.loStrict)
		} else {
			cur = rd.begin()
		}
		countAt := len(w.b)
		w.u32(0) // patched below
		n := 0
		truncated := false
		buf := make(tuple.Tuple, c.s.opts.Arity)
		for p := P(&cur); p.Valid(); p.Next() {
			if op.hi != nil && p.Compare(op.hi) >= 0 {
				break
			}
			if n == limit {
				truncated = true
				break
			}
			p.CopyTo(buf)
			w.tuple(buf)
			n++
		}
		binary.BigEndian.PutUint32(w.b[countAt:], uint32(n))
		w.bool(truncated)
	case opLen:
		w.u64(uint64(rd.len()))
	case opStamp:
		// Safe from the snapshot path too: a handed-out snapshot is never
		// stale (scheduler.snapStale blocks instead), so the stamp cannot
		// overstate what the frame's other reads observed.
		applied, head, healthy := c.s.stamp()
		w.u64(applied)
		w.u64(head)
		w.bool(healthy)
	}
}
