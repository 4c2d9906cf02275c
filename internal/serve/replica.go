package serve

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"specbtree/internal/core"
	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// This file is the replication stream (DESIGN.md §16): the server side
// of a subscription — a follower sends one kindSubscribe frame and
// the leader pushes an optional bootstrap snapshot followed by its
// committed epochs and idle heartbeats — and the follower-side stream
// client (DialReplica / ReplicaConn). The unit of shipment is the
// *committed epoch*, exactly as the shard insert log frames it: a
// follower that applies whole epochs in sequence is always at a state
// the leader actually passed through, which is what makes bounded
// staleness a meaningful promise and promotion a log-replay rather
// than a reconciliation.

// EpochTailer is a cursor over a source's committed epochs, in
// sequence order. Next reports ok=false when no further epoch is
// committed yet; Wait blocks until the source signals progress, stop
// closes, or max elapses — the streamer's idle loop. Implemented by
// the shard log's tailing reader (cluster.LogTailer).
type EpochTailer interface {
	Next() (*Epoch, bool, error)
	Wait(stop <-chan struct{}, max time.Duration)
	Close() error
}

// ReplicaSource is what a leader streams from: its durable epoch
// sequence. CommittedSeq is the highest committed epoch (the head
// carried by epoch and heartbeat frames); TailEpochs opens a cursor
// positioned after the given epoch. Implemented by the cluster shard
// log (Options.Replica wires it in).
type ReplicaSource interface {
	CommittedSeq() uint64
	TailEpochs(after uint64) (EpochTailer, error)
}

// replSnapPageTuples bounds one bootstrap snapshot page.
const replSnapPageTuples = 4096

// handleSubscribe validates a kindSubscribe frame, acknowledges it
// (statusOK + the committed head), and hands the connection's outbound
// side to a streamer goroutine. The reader keeps running so a follower
// disconnect is noticed; a returned error tears the connection down.
func (c *serverConn) handleSubscribe(id uint64, trace obs.TraceID, payload []byte) error {
	if c.s.opts.Replica == nil {
		return fmt.Errorf("serve: replication not enabled on this server")
	}
	r := &rbuf{b: payload}
	after := r.u64()
	if err := r.done(); err != nil {
		return err
	}
	w := &wbuf{}
	w.u8(statusOK)
	w.u64(c.s.opts.Replica.CommittedSeq())
	c.send(outFrame{kind: kindResponse, id: id, trace: trace, payload: w.b})
	c.s.wg.Add(1)
	go c.streamReplica(id, after)
	return nil
}

// streamReplica is the per-subscription push loop. A subscriber that
// has applied nothing (after == 0) is first paged a bootstrap snapshot;
// the ordering is load-bearing:
// the base epoch is read BEFORE the snapshot is captured, so the
// snapshot contains every epoch <= base and the stream starts at
// base+1 — a tuple landing between the two reads is simply replayed
// onto itself (inserts are idempotent set additions). Epoch frames are
// enqueued with blocking backpressure (sendBlocking): a slow follower
// slows the stream, it is not dropped; WriteTimeout still disconnects
// a dead one. With the default knobs one epoch frame cannot exceed
// MaxPayload (WriteQueue batches of MaxBatch tuples stay well under
// it); a deployment raising both past ~16M tuple-words per epoch would
// have to split epochs first.
func (c *serverConn) streamReplica(id uint64, after uint64) {
	defer c.s.wg.Done()
	src := c.s.opts.Replica
	start := after
	if after == 0 {
		base := src.CommittedSeq() // before the capture: snapshot ⊇ epochs <= base
		snap, err := c.s.SnapshotNow()
		if err != nil {
			c.close()
			return
		}
		if !c.sendSnapshot(id, base, &snap) {
			return
		}
		start = base
	}
	tailer, err := src.TailEpochs(start)
	if err != nil {
		c.close()
		return
	}
	defer tailer.Close()
	for {
		select {
		case <-c.closed:
			return
		default:
		}
		ep, ok, err := tailer.Next()
		if err != nil {
			// Permanent (log corruption past the committed prefix): the
			// follower re-bootstraps elsewhere or alerts; nothing to stream.
			c.close()
			return
		}
		if !ok {
			w := &wbuf{}
			w.u64(src.CommittedSeq())
			if !c.sendBlocking(outFrame{kind: kindHeartbeat, id: id, payload: w.b}) {
				return
			}
			tailer.Wait(c.closed, c.s.opts.HeartbeatEvery)
			continue
		}
		// head, then the epoch exactly as the log frames it.
		w := &wbuf{}
		w.u64(src.CommittedSeq())
		w.b, _ = AppendEpoch(w.b, ep)
		if !c.sendBlocking(outFrame{kind: kindEpoch, id: id, payload: w.b}) {
			return
		}
		obs.Inc(obs.ReplicaStreamEpochs)
	}
}

// sendSnapshot pages a bootstrap snapshot to the subscriber; every page
// carries the base epoch and the final one is flagged last (an empty
// relation ships one empty last page). Reports false when the
// connection closed mid-transfer.
func (c *serverConn) sendSnapshot(id uint64, base uint64, snap *core.Snapshot) bool {
	send := func(page []tuple.Tuple, last bool) bool {
		w := &wbuf{}
		w.u64(base)
		w.bool(last)
		w.tuples(page)
		return c.sendBlocking(outFrame{kind: kindSnapPage, id: id, payload: w.b})
	}
	page := make([]tuple.Tuple, 0, replSnapPageTuples)
	for cur := snap.Cursor(); cur.Valid(); cur.Next() {
		t := make(tuple.Tuple, c.s.opts.Arity)
		cur.CopyTo(t)
		page = append(page, t)
		if len(page) == replSnapPageTuples {
			if !send(page, false) {
				return false
			}
			page = page[:0]
		}
	}
	return send(page, true)
}

// ReplicaDialOptions configures DialReplica.
type ReplicaDialOptions struct {
	// Arity is the tuple width the follower expects (must match the
	// leader's; 0 adopts it).
	Arity int
	// Shard, with Sharded set, makes the hello verify the leader's shard
	// identity — same guard as the data-plane client's ExpectShard.
	Shard   uint32
	Sharded bool
	// After is the resume position: the stream starts at epoch After+1
	// (a restarting follower replays its own log first). Zero — nothing
	// applied yet — makes the leader page out a bootstrap snapshot and
	// stream from the snapshot's base instead.
	After uint64
}

// ReplicaMsgType discriminates ReplicaMsg.
type ReplicaMsgType uint8

const (
	// ReplicaSnapPage carries Base, Last and Tuples.
	ReplicaSnapPage ReplicaMsgType = iota + 1
	// ReplicaEpochMsg carries Epoch and Head.
	ReplicaEpochMsg
	// ReplicaHeartbeat carries Head only.
	ReplicaHeartbeat
)

// ReplicaMsg is one received replication stream message.
type ReplicaMsg struct {
	Type ReplicaMsgType
	// Base is the bootstrap base epoch: the snapshot contains every
	// epoch <= Base and the stream will start at Base+1.
	Base uint64
	// Last flags the final snapshot page.
	Last bool
	// Tuples is one snapshot page's contents.
	Tuples []tuple.Tuple
	// Epoch is one committed leader epoch, to apply atomically.
	Epoch *Epoch
	// Head is the leader's committed head when the frame was built —
	// the staleness yardstick (applied vs Head).
	Head uint64
}

// ReplicaConn is the follower side of a replication subscription: a
// dedicated connection that performed the hello and subscribe
// handshakes and now receives the server's push frames via Recv. Not
// safe for concurrent use; the replication apply loop owns it.
type ReplicaConn struct {
	nc    net.Conn
	br    *bufio.Reader
	arity int
	// Head is the leader's committed head at subscribe time.
	Head uint64
}

// DialReplica connects to a leader and opens a replication
// subscription: the data-plane client's hello (arity, optional shard
// verification), then the subscribe exchange, both synchronously under
// the dial deadline.
func DialReplica(addr string, o ReplicaDialOptions) (*ReplicaConn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial replica source %s: %w", addr, err)
	}
	rc := &ReplicaConn{nc: nc, br: bufio.NewReader(nc)}
	nc.SetDeadline(time.Now().Add(dialTimeout))
	if err := rc.subscribe(o); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return rc, nil
}

// subscribe performs the hello and subscribe exchanges.
func (rc *ReplicaConn) subscribe(o ReplicaDialOptions) (err error) {
	if rc.arity, err = hello(rc.br, rc.nc, o.Arity, o.Sharded, o.Shard); err != nil {
		return err
	}
	sub := &wbuf{}
	sub.u64(o.After)
	if err := writeFrame(rc.nc, kindSubscribe, 1, 0, sub.b); err != nil {
		return fmt.Errorf("serve: subscribe: %w", err)
	}
	kind, _, _, payload, err := readFrame(rc.br)
	if err != nil {
		return fmt.Errorf("serve: subscribe: %w", err)
	}
	if kind != kindResponse {
		return fmt.Errorf("%w: subscribe answered with frame kind %d", errProtocol, kind)
	}
	r := &rbuf{b: payload}
	if err := decodeStatus(r); err != nil {
		return fmt.Errorf("serve: subscribe refused: %w", err)
	}
	rc.Head = r.u64()
	return r.done()
}

// Recv blocks for the next stream message, at most timeout (0 blocks
// indefinitely). A deadline expiry surfaces as a net.Error with
// Timeout() true — the apply loop's cue that the leader went quiet
// past its heartbeat interval and the follower should report
// unhealthy.
func (rc *ReplicaConn) Recv(timeout time.Duration) (ReplicaMsg, error) {
	if timeout > 0 {
		rc.nc.SetReadDeadline(time.Now().Add(timeout))
	} else {
		rc.nc.SetReadDeadline(time.Time{})
	}
	kind, _, _, payload, err := readFrame(rc.br)
	if err != nil {
		return ReplicaMsg{}, err
	}
	r := &rbuf{b: payload}
	var m ReplicaMsg
	switch kind {
	case kindSnapPage:
		m.Type = ReplicaSnapPage
		m.Base = r.u64()
		m.Last = r.bool()
		m.Tuples = r.tuples(rc.arity)
	case kindEpoch:
		m.Type = ReplicaEpochMsg
		m.Head = r.u64()
		if r.err == nil {
			// The rest of the payload is one epoch in the log's own
			// framing; anything but exactly one complete epoch is a
			// protocol error (a frame is never torn).
			ep, n, err := DecodeEpoch(r.b[r.off:], 0, 0, rc.arity)
			if err != nil || ep == nil {
				return ReplicaMsg{}, fmt.Errorf("%w: malformed epoch frame: %v", errProtocol, err)
			}
			m.Epoch = ep
			r.off += n
		}
	case kindHeartbeat:
		m.Type = ReplicaHeartbeat
		m.Head = r.u64()
	default:
		return ReplicaMsg{}, fmt.Errorf("%w: unexpected frame kind %d on replication stream", errProtocol, kind)
	}
	if err := r.done(); err != nil {
		return ReplicaMsg{}, err
	}
	return m, nil
}

// Close tears the subscription down.
func (rc *ReplicaConn) Close() error { return rc.nc.Close() }
