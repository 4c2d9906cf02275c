package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// ErrRetry reports server-side write backpressure: the write queue was
// full and the insert batch was NOT applied. The caller owns the backoff
// and resend policy (the batch is safe to resubmit verbatim — inserts
// are idempotent set additions, RETRY means nothing was executed).
var ErrRetry = errors.New("serve: server busy, retry")

// ErrTimeout reports that a request's per-call timeout expired before
// its response arrived. For inserts the batch may or may not have been
// applied; tuple-set inserts are idempotent, so resubmitting after an
// application-level decision is safe.
var ErrTimeout = errors.New("serve: request timed out")

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("serve: client closed")

// dialTimeout bounds connection establishment, for the data-plane
// client and the replication subscriber alike.
const dialTimeout = 5 * time.Second

// ClientOptions configures Dial.
type ClientOptions struct {
	// Arity is the tuple width the client expects; 0 adopts the
	// server's, any other value must match it or Dial fails.
	Arity int
	// Timeout bounds each request round-trip (default 10s).
	Timeout time.Duration
	// Trace, when non-zero, stamps every request of this client with the
	// given trace ID (obs.ForceTrace issues one) and records a
	// client.request span per round trip. When zero, each request
	// consults the obs sampling gate (obs.SetTraceSampleRate) instead —
	// off by default.
	Trace obs.TraceID
	// ExpectShard makes every hello (initial dial and reconnect) state
	// which cluster shard the client expects: the server must be a
	// shard and its number must equal ShardID, or the connection is
	// refused. Cluster routing sets it so a stale shard map can never
	// silently read or write the wrong shard behind a rebound address.
	ExpectShard bool
	// ShardID is the expected shard number; meaningful only with
	// ExpectShard set (shard 0 is a valid shard).
	ShardID uint32
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	return o
}

// Client is a pipelined wire-protocol client. It is safe for concurrent
// use: calls from many goroutines share one connection, their requests
// are pipelined (written back to back, matched to responses by id), and
// each call waits only for its own response.
//
// The client re-establishes its connection on demand: a broken
// connection fails the calls in flight, and the next call redials.
// Idempotent reads are additionally retried once transparently after a
// connection reset; inserts never are (a reset insert's fate is unknown
// — the caller decides, see Insert).
type Client struct {
	addr string
	opts ClientOptions

	// connMu guards connection (re)establishment and frame writes.
	connMu sync.Mutex
	conn   net.Conn
	bw     *bufio.Writer
	gen    uint64 // connection generation, for targeted teardown
	arity  int

	pendMu  sync.Mutex
	pending map[uint64]*call

	nextID     atomic.Uint64
	reconnects atomic.Uint64
	closed     atomic.Bool
}

// call is one in-flight request.
type call struct {
	gen uint64
	ch  chan callResult
}

type callResult struct {
	payload []byte
	err     error
}

// Dial connects to a relation server and performs the arity handshake.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults(), pending: make(map[uint64]*call)}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Arity returns the negotiated tuple width.
func (c *Client) Arity() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.arity
}

// Reconnects returns how many times the client re-established its
// connection (the initial dial not counted).
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// connectLocked dials and performs the hello handshake; connMu held.
func (c *Client) connectLocked() error {
	if c.closed.Load() {
		return ErrClosed
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("serve: dial %s: %w", c.addr, err)
	}
	// Handshake synchronously, before the reader goroutine exists.
	conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	arity, err := hello(conn, conn, c.opts.Arity, c.opts.ExpectShard, c.opts.ShardID)
	if err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Time{})
	c.arity = arity
	c.conn = conn
	c.bw = bufio.NewWriter(conn)
	c.gen++
	go c.readLoop(conn, c.gen)
	return nil
}

// hello performs the client side of the handshake on a fresh connection,
// synchronously — no other frame can be in flight yet. It states the
// expected arity (0 adopts the server's) and, with expectShard, the
// shard number the server must verify and echo; it returns the served
// arity. Both the data-plane client and the replication subscriber
// connect through it. The caller owns deadlines and closing.
func hello(r io.Reader, w io.Writer, arity int, expectShard bool, shard uint32) (int, error) {
	req := &wbuf{}
	req.u16(uint16(arity))
	if expectShard {
		req.u32(shard)
	}
	if err := writeFrame(w, kindHello, 0, 0, req.b); err != nil {
		return 0, fmt.Errorf("serve: hello: %w", err)
	}
	kind, _, _, payload, err := readFrame(r)
	if err != nil {
		return 0, fmt.Errorf("serve: hello: %w", err)
	}
	ans := &rbuf{b: payload}
	if kind != kindHello {
		// Refusals (arity or shard mismatch, malformed hello) arrive as
		// response frames carrying statusErr.
		if err := decodeStatus(ans); err != nil {
			return 0, fmt.Errorf("serve: hello refused: %w", err)
		}
		return 0, fmt.Errorf("%w: hello answered with frame kind %d", errProtocol, kind)
	}
	if status := ans.u8(); status != statusOK {
		return 0, fmt.Errorf("serve: hello refused with status %d", status)
	}
	served := int(ans.u16())
	if expectShard {
		// A server that verified the shard echoes its number; an answer
		// without it (a latched decode error below) cannot be trusted to
		// be the right shard.
		if got := ans.u32(); ans.err == nil && got != shard {
			return 0, fmt.Errorf("serve: shard mismatch: want shard %d, server is shard %d", shard, got)
		}
	}
	if err := ans.done(); err != nil {
		return 0, err
	}
	if served == 0 {
		return 0, fmt.Errorf("%w: hello advertises arity 0", errProtocol)
	}
	if arity != 0 && served != arity {
		return 0, fmt.Errorf("serve: arity mismatch: want %d, server %d", arity, served)
	}
	return served, nil
}

// ensureConnLocked returns the live connection, redialing if needed.
func (c *Client) ensureConnLocked() (uint64, error) {
	if c.conn != nil {
		return c.gen, nil
	}
	if err := c.connectLocked(); err != nil {
		return 0, err
	}
	c.reconnects.Add(1)
	return c.gen, nil
}

// readLoop dispatches response frames to their waiting calls. On a read
// error it tears down this connection generation: the socket is closed,
// and every call sent on it fails with the connection error so its
// caller can decide whether to retry.
func (c *Client) readLoop(conn net.Conn, gen uint64) {
	br := bufio.NewReader(conn)
	for {
		_, id, _, payload, err := readFrame(br)
		if err != nil {
			c.teardown(conn, gen, err)
			return
		}
		c.pendMu.Lock()
		ca := c.pending[id]
		if ca != nil && ca.gen == gen {
			delete(c.pending, id)
		} else {
			ca = nil // stale or timed-out request; drop the frame
		}
		c.pendMu.Unlock()
		if ca != nil {
			ca.ch <- callResult{payload: payload}
		}
	}
}

// teardown closes one connection generation and fails its in-flight
// calls.
func (c *Client) teardown(conn net.Conn, gen uint64, err error) {
	c.connMu.Lock()
	if c.gen == gen && c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.bw = nil
	}
	c.connMu.Unlock()
	if c.closed.Load() {
		err = ErrClosed
	}
	c.pendMu.Lock()
	for id, ca := range c.pending {
		if ca.gen == gen {
			delete(c.pending, id)
			ca.ch <- callResult{err: fmt.Errorf("serve: connection lost: %w", err)}
		}
	}
	c.pendMu.Unlock()
}

// roundTrip sends one request payload and waits for its response.
// idempotent requests are retried once on a fresh connection after a
// connection-level failure; non-idempotent ones (inserts) never are.
// A traced request (ClientOptions.Trace, or the obs sampling gate)
// carries its trace ID in the frame header and records one
// client.request span covering the whole round trip, retry included.
func (c *Client) roundTrip(payload []byte, idempotent bool) ([]byte, error) {
	trace := c.opts.Trace
	if trace == 0 {
		trace = obs.StartTrace()
	}
	var spanStart int64
	if trace != 0 {
		spanStart = obs.Clock()
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		res, connErr, err := c.attempt(payload, trace)
		if err != nil {
			return nil, err // application-level or timeout: no retry
		}
		if connErr == nil {
			if trace != 0 {
				obs.RecordSpan(trace, 0, 0, obs.SpanClientRequest, spanStart, obs.Clock()-spanStart,
					uint64(len(payload)), uint64(attempt+1))
			}
			return res, nil
		}
		lastErr = connErr
		if !idempotent || attempt >= 1 {
			return nil, lastErr
		}
		// Idempotent read on a reset connection: redial (inside the next
		// attempt) and retry exactly once.
	}
}

// attempt performs one send/receive. The error split matters for retry
// policy: connErr reports a connection-level failure (dial, write,
// reset) where the request may simply be resent; err reports a
// definitive outcome (timeout with unknown fate, client closed) that
// roundTrip must not paper over.
func (c *Client) attempt(payload []byte, trace obs.TraceID) (resp []byte, connErr, err error) {
	c.connMu.Lock()
	gen, cerr := c.ensureConnLocked()
	if cerr != nil {
		c.connMu.Unlock()
		return nil, cerr, nil
	}
	id := c.nextID.Add(1)
	ca := &call{gen: gen, ch: make(chan callResult, 1)}
	c.pendMu.Lock()
	c.pending[id] = ca
	c.pendMu.Unlock()

	c.conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	werr := writeFrame(c.bw, kindRequest, id, trace, payload)
	if werr == nil {
		werr = c.bw.Flush()
	}
	conn := c.conn
	c.connMu.Unlock()
	if werr != nil {
		c.unregister(id)
		c.teardown(conn, gen, werr)
		return nil, werr, nil
	}

	timer := time.NewTimer(c.opts.Timeout)
	defer timer.Stop()
	select {
	case r := <-ca.ch:
		if r.err != nil {
			return nil, r.err, nil
		}
		return r.payload, nil, nil
	case <-timer.C:
		c.unregister(id)
		return nil, nil, ErrTimeout
	}
}

// unregister removes a pending call (send failure or timeout); a late
// response for it is discarded by the read loop.
func (c *Client) unregister(id uint64) {
	c.pendMu.Lock()
	delete(c.pending, id)
	c.pendMu.Unlock()
}

// decodeStatus consumes the response status byte, mapping RETRY and ERR
// to errors.
func decodeStatus(r *rbuf) error {
	switch status := r.u8(); status {
	case statusOK:
		return nil
	case statusRetry:
		return ErrRetry
	case statusErr:
		msg := r.take(int(r.u16()))
		if r.err != nil {
			return fmt.Errorf("%w: truncated error response", errProtocol)
		}
		return fmt.Errorf("serve: server error: %s", msg)
	default:
		return fmt.Errorf("%w: unknown response status %d", errProtocol, status)
	}
}

// checkArity validates an argument tuple's width before serialising.
func (c *Client) checkArity(t tuple.Tuple) error {
	if len(t) != c.arity {
		return fmt.Errorf("serve: arity-%d tuple for arity-%d relation", len(t), c.arity)
	}
	return nil
}

// Stamp is a server's replication position, answered by opStamp under
// the same read admission as the rest of its frame: Applied is the
// server's applied-epoch watermark, Head the highest leader epoch it
// knows committed, Healthy whether its replication stream is live. On
// a leader Applied == Head always (a leader is never stale against
// itself), so Head-Applied is the follower's lag in epochs.
type Stamp struct {
	Applied, Head uint64
	Healthy       bool
}

// decodeStamp consumes one opStamp result.
func decodeStamp(r *rbuf) Stamp {
	return Stamp{Applied: r.u64(), Head: r.u64(), Healthy: r.bool()}
}

// newRequest starts the payload of a single-operation request frame —
// every request of the client, reads and inserts alike, is one; the
// caller appends the operation and hands the payload to exchange. With
// st non-nil, opStamp is prepended so the response carries the server's
// replication position evaluated atomically with the read — the cluster
// router's staleness check costs no extra round trip.
func newRequest(st *Stamp) (w wbuf) {
	if st != nil {
		w.u16(2)
		w.u8(opStamp)
	} else {
		w.u16(1)
	}
	return w
}

// exchange sends a newRequest payload and returns the response decoder
// positioned at the operation's result, with *st (if requested) filled
// in. A failed round trip or a RETRY/ERR status is latched in the
// decoder like any decode error: the caller decodes its result
// regardless (reads on a failed decoder yield zero values) and returns
// r.done(), the one error check. Only idempotent requests (the reads)
// are retried on a fresh connection. wbuf and rbuf travel by value, so
// neither is heap-allocated per request.
func (c *Client) exchange(w *wbuf, st *Stamp, idempotent bool) (r rbuf) {
	if r.b, r.err = c.roundTrip(w.b, idempotent); r.err != nil {
		return r
	}
	if r.err = decodeStatus(&r); r.err == nil && st != nil {
		*st = decodeStamp(&r)
	}
	return r
}

// Stamp fetches the server's replication position alone — the health
// and lag probe promotion and routing decisions poll.
func (c *Client) Stamp() (Stamp, error) {
	w := newRequest(nil)
	w.u8(opStamp)
	r := c.exchange(&w, nil, true)
	return decodeStamp(&r), r.done()
}

// Contains reports whether t is in the served relation.
func (c *Client) Contains(t tuple.Tuple) (bool, error) { return c.contains(t, nil) }

// ContainsStamped is Contains plus the server's replication stamp,
// evaluated in the same frame.
func (c *Client) ContainsStamped(t tuple.Tuple) (bool, Stamp, error) {
	var st Stamp
	v, err := c.contains(t, &st)
	return v, st, err
}

func (c *Client) contains(t tuple.Tuple, st *Stamp) (bool, error) {
	if err := c.checkArity(t); err != nil {
		return false, err
	}
	w := newRequest(st)
	w.u8(opContains)
	w.tuple(t)
	r := c.exchange(&w, st, true)
	return r.bool(), r.done()
}

// LowerBound returns the smallest stored tuple >= v.
func (c *Client) LowerBound(v tuple.Tuple) (tuple.Tuple, bool, error) {
	return c.Bound(v, false, nil)
}

// UpperBound returns the smallest stored tuple > v.
func (c *Client) UpperBound(v tuple.Tuple) (tuple.Tuple, bool, error) {
	return c.Bound(v, true, nil)
}

// Bound is LowerBound (strict false) or UpperBound (strict true); a
// non-nil st additionally receives the server's replication stamp,
// evaluated in the same frame.
func (c *Client) Bound(v tuple.Tuple, strict bool, st *Stamp) (t tuple.Tuple, ok bool, err error) {
	if err := c.checkArity(v); err != nil {
		return nil, false, err
	}
	w := newRequest(st)
	if strict {
		w.u8(opUpper)
	} else {
		w.u8(opLower)
	}
	w.tuple(v)
	r := c.exchange(&w, st, true)
	if ok = r.bool(); ok {
		t = r.tuple(c.arity)
	}
	return t, ok, r.done()
}

// Len returns the relation's element count.
func (c *Client) Len() (int, error) {
	w := newRequest(nil)
	w.u8(opLen)
	r := c.exchange(&w, nil, true)
	return int(r.u64()), r.done()
}

// Scan returns stored tuples t with lo <= t < hi in order (nil bounds
// are open), at most limit of them (0 = the server's cap). truncated
// reports that the server cut the result off; ScanAll paginates instead.
func (c *Client) Scan(lo, hi tuple.Tuple, limit int) (ts []tuple.Tuple, truncated bool, err error) {
	return c.ScanPage(lo, hi, false, limit, nil)
}

// ScanPage fetches one page of a resumable range scan: tuples t with
// lo <= t < hi in order (nil bounds are open; lo itself is excluded
// when loStrict), at most limit of them (0 = the server's cap).
// truncated reports more tuples remain; resume with lo = the last
// returned tuple and loStrict = true — the resumption-token surface
// the cluster router's fan-out merge paginates each shard with. A
// non-nil st additionally receives the server's replication stamp.
func (c *Client) ScanPage(lo, hi tuple.Tuple, loStrict bool, limit int, st *Stamp) (ts []tuple.Tuple, truncated bool, err error) {
	// Reject before encoding: the wire carries limit as u32, so a
	// negative value would wrap into a huge positive cap.
	if limit < 0 {
		return nil, false, fmt.Errorf("serve: negative scan limit %d", limit)
	}
	var flags byte
	if lo != nil {
		if err := c.checkArity(lo); err != nil {
			return nil, false, err
		}
		flags |= scanLoPresent
	}
	if hi != nil {
		if err := c.checkArity(hi); err != nil {
			return nil, false, err
		}
		flags |= scanHiPresent
	}
	if loStrict {
		flags |= scanLoStrict
	}
	w := newRequest(st)
	w.u8(opScan)
	w.u8(flags)
	if lo != nil {
		w.tuple(lo)
	}
	if hi != nil {
		w.tuple(hi)
	}
	w.u32(uint32(limit))
	r := c.exchange(&w, st, true)
	ts, truncated = r.tuples(c.arity), r.bool()
	return ts, truncated, r.done()
}

// ScanAll streams the whole range [lo, hi) through yield in order,
// paginating past the server's per-scan cap; returning false from yield
// stops early.
func (c *Client) ScanAll(lo, hi tuple.Tuple, yield func(tuple.Tuple) bool) error {
	cur, strict := lo, false
	for {
		page, truncated, err := c.ScanPage(cur, hi, strict, 0, nil)
		if err != nil {
			return err
		}
		for _, t := range page {
			if !yield(t) {
				return nil
			}
		}
		if !truncated {
			return nil
		}
		// A truncated page must carry at least one tuple to resume after;
		// an empty one means the server can make no progress claim, and
		// trusting it would loop forever (and indexing it would panic).
		if len(page) == 0 {
			return fmt.Errorf("%w: truncated scan page carries no tuples", errProtocol)
		}
		cur, strict = page[len(page)-1], true
	}
}

// Insert adds the batch to the relation, returning how many tuples were
// new. On ErrRetry the server's write queue was full and nothing was
// applied: back off and resubmit. Inserts are never retried internally —
// a connection failure mid-insert returns the error with the batch's
// fate unknown (set inserts are idempotent, so callers with a fresh
// connection may safely resubmit; the fresh count of a resubmitted batch
// counts only genuinely new tuples).
func (c *Client) Insert(batch []tuple.Tuple) (fresh int, err error) {
	for _, t := range batch {
		if err := c.checkArity(t); err != nil {
			return 0, err
		}
	}
	w := newRequest(nil)
	w.u8(opInsert)
	w.tuples(batch)
	r := c.exchange(&w, nil, false)
	return int(r.u32()), r.done()
}
