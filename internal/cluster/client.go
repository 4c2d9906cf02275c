package cluster

import (
	"fmt"
	"sync"
	"time"

	"specbtree/internal/obs"
	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// ClientOptions configures a routing Client.
type ClientOptions struct {
	// Arity is the tuple width of the clustered relation (default 2).
	Arity int
	// Timeout is passed through to every per-shard connection
	// (serve.ClientOptions' default applies).
	Timeout time.Duration
	// PageLimit caps the tuples fetched per shard scan page during
	// fan-out merges (0 = the server's cap). Tests shrink it to force
	// resumption across pages and shard boundaries.
	PageLimit int
	// MaxBatch caps the tuples per wire insert frame; Insert chunks
	// larger per-shard sub-batches to it (default 4096, the serve
	// layer's own default cap — lower it when the shards run with a
	// smaller one).
	MaxBatch int
	// Directory, when non-nil, is the live shard address table: every
	// operation re-resolves its shard's address through it, so a
	// promotion (Cluster.Promote) repoints this client without a
	// restart. Nil pins the NewClient address table forever.
	Directory *Directory
	// Followers[i] lists shard i's read-replica addresses. When a shard
	// has followers, its point reads and scan pages are offloaded to
	// one, under the staleness bound below: each follower read carries
	// the follower's replication stamp, and an answer from an unhealthy
	// or too-stale follower is discarded and re-asked of the leader.
	Followers [][]string
	// MaxStaleEpochs bounds how many committed leader epochs a follower
	// may trail by and still answer reads (0 = it must be fully caught
	// up). Only meaningful with Followers set; reads offloaded under
	// this bound trade read-your-writes for leader offload, by exactly
	// this many epochs at most.
	MaxStaleEpochs uint64
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Arity <= 0 {
		o.Arity = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096 // serve.Options' default MaxBatch
	}
	return o
}

// Client routes operations over a sharded relation: inserts and point
// reads go to the shard owning the tuple's leading column per the
// current ShardMap, range scans fan out across the owning shards and
// are stitched back into one globally sorted stream by an ordered
// merge. Safe for concurrent use; per-shard connections are lazily
// dialed, shared, and re-established on demand (serve.Client's
// reconnection), each handshake pinned to its shard number so a stale
// address can never silently reach the wrong shard.
type Client struct {
	src  MapSource
	opts ClientOptions
	// dir is the live shard address table: the caller's Directory, or a
	// private one pinned to the NewClient addresses.
	dir *Directory

	mu        sync.Mutex
	conns     map[int]*serve.Client
	connAddrs map[int]string // address each leader conn was dialed to
	fconns    map[int]*serve.Client
	fFailed   map[int]time.Time // last follower dial failure, for backoff
}

// NewClient builds a routing client over the given map source and
// shard address table (addrs[i] serves shard i). No connection is made
// until the first operation.
func NewClient(src MapSource, addrs []string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	m := src.Map()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if n := m.Shards(); n > len(addrs) {
		return nil, fmt.Errorf("cluster: map references %d shards, %d addresses given", n, len(addrs))
	}
	dir := opts.Directory
	if dir == nil {
		dir = NewDirectory(addrs)
	}
	return &Client{
		src: src, opts: opts, dir: dir,
		conns:     make(map[int]*serve.Client),
		connAddrs: make(map[int]string),
		fconns:    make(map[int]*serve.Client),
		fFailed:   make(map[int]time.Time),
	}, nil
}

// Arity returns the tuple width of the clustered relation.
func (c *Client) Arity() int { return c.opts.Arity }

// Close tears down every per-shard connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, conns := range []map[int]*serve.Client{c.conns, c.fconns} {
		for shard, cl := range conns {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
			delete(conns, shard)
		}
	}
	return first
}

// shard returns the connection to one shard's leader, dialing lazily
// and re-resolving through the directory: when a promotion repointed
// the shard's address, the stale connection is dropped and the new
// leader dialed — the shard-verified hello makes a wrong address fail
// loudly rather than answer.
func (c *Client) shard(i int) (*serve.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr := c.dir.Addr(i)
	if addr == "" {
		return nil, fmt.Errorf("cluster: no address for shard %d", i)
	}
	if cl, ok := c.conns[i]; ok {
		if c.connAddrs[i] == addr {
			return cl, nil
		}
		cl.Close()
		delete(c.conns, i)
	}
	cl, err := c.dial(addr, i)
	if err != nil {
		return nil, err
	}
	c.conns[i] = cl
	c.connAddrs[i] = addr
	return cl, nil
}

// dial connects to addr as shard i — leader or follower — with the
// handshake pinned to the shard number.
func (c *Client) dial(addr string, i int) (*serve.Client, error) {
	return serve.Dial(addr, serve.ClientOptions{
		Arity:       c.opts.Arity,
		Timeout:     c.opts.Timeout,
		ExpectShard: true,
		ShardID:     uint32(i),
	})
}

// followerDialBackoff is how long a failed follower dial suppresses
// redial attempts (reads fall back to the leader meanwhile).
const followerDialBackoff = time.Second

// follower returns a connection to one of shard i's read replicas, or
// nil when the shard has none configured or none is reachable right
// now — the caller then reads from the leader.
func (c *Client) follower(i int) *serve.Client {
	if i < 0 || i >= len(c.opts.Followers) || len(c.opts.Followers[i]) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.fconns[i]; ok {
		return cl
	}
	if t, ok := c.fFailed[i]; ok && time.Since(t) < followerDialBackoff {
		return nil
	}
	for _, addr := range c.opts.Followers[i] {
		cl, err := c.dial(addr, i)
		if err == nil {
			delete(c.fFailed, i)
			c.fconns[i] = cl
			return cl
		}
	}
	c.fFailed[i] = time.Now()
	return nil
}

// dropFollower discards shard i's follower connection after a failed
// read, arming the dial backoff so the next reads go to the leader.
func (c *Client) dropFollower(i int, cl *serve.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fconns[i] == cl {
		cl.Close()
		delete(c.fconns, i)
		c.fFailed[i] = time.Now()
	}
}

// admit decides whether a follower read may be returned: the read must
// have succeeded, the follower's replication stream must be healthy,
// and it may trail the committed head by at most MaxStaleEpochs. A
// refused answer is counted as a fallback (the caller re-asks the
// leader), and a failed read additionally drops the follower
// connection, arming the dial backoff.
func (c *Client) admit(shard int, fc *serve.Client, st serve.Stamp, err error) bool {
	if err == nil && st.Healthy && st.Head >= st.Applied && st.Head-st.Applied <= c.opts.MaxStaleEpochs {
		obs.Inc(obs.ReplicaFollowerReads)
		return true
	}
	if err != nil {
		c.dropFollower(shard, fc)
	}
	obs.Inc(obs.ReplicaFallbackReads)
	return false
}

// checkArity validates one argument tuple's width.
func (c *Client) checkArity(t tuple.Tuple) error {
	if len(t) != c.opts.Arity {
		return fmt.Errorf("cluster: arity-%d tuple for arity-%d relation", len(t), c.opts.Arity)
	}
	return nil
}

// Insert adds the batch to the clustered relation, splitting it by
// routing shard, and returns how many tuples were new. Shard-level
// RETRY backpressure is absorbed here (bounded backoff and resubmit —
// set inserts are idempotent). If the shard map changes while a
// sub-batch is in flight, tuples whose route moved are resubmitted to
// their new shard: an insert acknowledged by a shard that lost the
// range mid-flight would otherwise land in the leftover region scans
// never read (the freshness count of such a resubmitted tuple may be
// double-reported in that rare window; visibility is never lost).
func (c *Client) Insert(batch []tuple.Tuple) (fresh int, err error) {
	for _, t := range batch {
		if err := c.checkArity(t); err != nil {
			return 0, err
		}
	}
	pendingMap := c.src.Map()
	pending := batch
	for len(pending) > 0 {
		m := pendingMap
		byShard := make(map[int][]tuple.Tuple)
		for _, t := range pending {
			s := m.RouteInsert(t[0])
			byShard[s] = append(byShard[s], t)
		}
		pending = nil
		for s, sub := range byShard {
			n, err := c.insertShard(s, sub)
			if err != nil {
				return fresh, err
			}
			fresh += n
			// Revalidate against the map as of after the ack: tuples
			// whose route changed mid-flight are resent to the new owner.
			now := c.src.Map()
			if now.Version != m.Version {
				for _, t := range sub {
					if now.RouteInsert(t[0]) != s {
						pending = append(pending, t)
					}
				}
				pendingMap = now
			}
		}
	}
	return fresh, nil
}

// insertShard submits one sub-batch to one shard, chunked to the wire
// insert cap (a single-shard share larger than the server's MaxBatch
// would otherwise be refused as a protocol error), absorbing RETRY
// per chunk.
func (c *Client) insertShard(shard int, sub []tuple.Tuple) (int, error) {
	cl, err := c.shard(shard)
	if err != nil {
		return 0, err
	}
	fresh := 0
	for off := 0; off < len(sub); off += c.opts.MaxBatch {
		end := min(off+c.opts.MaxBatch, len(sub))
		n, err := c.insertChunk(cl, shard, sub[off:end])
		if err != nil {
			return fresh, err
		}
		fresh += n
	}
	return fresh, nil
}

// An insert chunk the shard answers RETRY to is resubmitted after
// retryBackoff, for at most retryFor in total before the RETRY surfaces
// as an error — a persistently stuck shard must not hang Insert forever.
const (
	retryBackoff = 200 * time.Microsecond
	retryFor     = 5 * time.Second
)

// insertChunk submits one wire-sized chunk, absorbing RETRY
// backpressure with bounded backoff (the RETRY that finally surfaces is
// errors.Is-able as serve.ErrRetry).
func (c *Client) insertChunk(cl *serve.Client, shard int, chunk []tuple.Tuple) (int, error) {
	var deadline time.Time
	for {
		n, err := cl.Insert(chunk)
		if err == nil {
			return n, nil
		}
		if err != serve.ErrRetry {
			return 0, fmt.Errorf("cluster: shard %d: %w", shard, err)
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(retryFor)
		} else if now.After(deadline) {
			return 0, fmt.Errorf("cluster: shard %d: backpressured for %v: %w", shard, retryFor, err)
		}
		time.Sleep(retryBackoff)
	}
}

// Contains reports whether t is in the clustered relation, consulting
// both sides of an in-flight move when t's range is moving. A miss is
// trusted only if the map generation did not change while probing: a
// move finalizing (and its source restarting) mid-probe could misroute
// the lookup, so a raced miss retries under the fresh map.
func (c *Client) Contains(t tuple.Tuple) (bool, error) {
	if err := c.checkArity(t); err != nil {
		return false, err
	}
	var shards []int
	for {
		m := c.src.Map()
		shards = m.ReadShards(shards[:0], t[0])
		for _, s := range shards {
			ok, err := c.containsShard(s, t)
			if err != nil {
				return false, fmt.Errorf("cluster: shard %d: %w", s, err)
			}
			if ok {
				return true, nil
			}
		}
		if c.src.Map().Version == m.Version {
			return false, nil
		}
	}
}

// containsShard probes one shard, preferring a follower whose stamp
// passes the staleness bound; a stale, unhealthy or failed follower
// answer falls back to the leader.
func (c *Client) containsShard(s int, t tuple.Tuple) (bool, error) {
	if fc := c.follower(s); fc != nil {
		ok, st, err := fc.ContainsStamped(t)
		if c.admit(s, fc, st, err) {
			return ok, nil
		}
	}
	cl, err := c.shard(s)
	if err != nil {
		return false, err
	}
	return cl.Contains(t)
}

// boundShard asks one shard for a local bound, preferring a follower
// under the staleness bound like containsShard.
func (c *Client) boundShard(s int, v tuple.Tuple, strict bool) (tuple.Tuple, bool, error) {
	if fc := c.follower(s); fc != nil {
		var st serve.Stamp
		t, ok, err := fc.Bound(v, strict, &st)
		if c.admit(s, fc, st, err) {
			return t, ok, nil
		}
	}
	cl, err := c.shard(s)
	if err != nil {
		return nil, false, err
	}
	return cl.Bound(v, strict, nil)
}

// scanPageShard fetches one scan page from one shard, preferring a
// follower under the staleness bound like containsShard.
func (c *Client) scanPageShard(s int, lo, hi tuple.Tuple, loStrict bool, limit int) ([]tuple.Tuple, bool, error) {
	if fc := c.follower(s); fc != nil {
		var st serve.Stamp
		page, truncated, err := fc.ScanPage(lo, hi, loStrict, limit, &st)
		if c.admit(s, fc, st, err) {
			return page, truncated, nil
		}
	}
	cl, err := c.shard(s)
	if err != nil {
		return nil, false, err
	}
	return cl.ScanPage(lo, hi, loStrict, limit, nil)
}

// Len returns the clustered relation's element count: the length of
// the merged global stream. Counting through the merge — rather than
// summing shard lengths — keeps it exact in the presence of rebalance
// leftovers (tuples a completed move left behind outside their
// source's owned ranges) and mid-move duplicates.
func (c *Client) Len() (int, error) {
	n := 0
	err := c.ScanAll(nil, nil, func(tuple.Tuple) bool {
		n++
		return true
	})
	return n, err
}

// LowerBound returns the smallest stored tuple >= v.
func (c *Client) LowerBound(v tuple.Tuple) (tuple.Tuple, bool, error) {
	return c.bound(v, false)
}

// UpperBound returns the smallest stored tuple > v.
func (c *Client) UpperBound(v tuple.Tuple) (tuple.Tuple, bool, error) {
	return c.bound(v, true)
}

// bound walks the scan runs in key order from v's run onward, asking
// each run's shard(s) for their local bound, and returns the first
// (smallest) hit — runs are key-ordered and disjoint, so the first
// run with a hit holds the global bound. Like Contains, a result is
// trusted only if the map generation held still for the whole walk;
// a raced walk retries under the fresh map.
func (c *Client) bound(v tuple.Tuple, strict bool) (tuple.Tuple, bool, error) {
	if err := c.checkArity(v); err != nil {
		return nil, false, err
	}
	for {
		m := c.src.Map()
		t, ok, err := c.boundGeneration(m, v, strict)
		if err != nil {
			return nil, false, err
		}
		if c.src.Map().Version == m.Version {
			return t, ok, nil
		}
	}
}

// boundGeneration is one bound walk under a pinned map generation.
func (c *Client) boundGeneration(m *ShardMap, v tuple.Tuple, strict bool) (tuple.Tuple, bool, error) {
	for _, r := range m.runs() {
		if r.hi < v[0] {
			continue
		}
		var best tuple.Tuple
		for _, s := range []int{r.shards[0], r.shards[1]} {
			if s < 0 {
				continue
			}
			t, ok, err := c.boundShard(s, v, strict)
			if err != nil {
				return nil, false, fmt.Errorf("cluster: shard %d: %w", s, err)
			}
			// Discard hits past the run: they belong to leftover regions
			// or to later runs, which will answer for themselves.
			if ok && t[0] <= r.hi && (best == nil || tuple.Less(t, best)) {
				best = t
			}
		}
		if best != nil {
			return best, true, nil
		}
	}
	return nil, false, nil
}

// Scan returns stored tuples t with lo <= t < hi in global order (nil
// bounds are open), at most limit of them (0 = no cap); truncated
// reports a cut-off result. The scan fans out across the owning shards
// run by run and merges the streams in order.
func (c *Client) Scan(lo, hi tuple.Tuple, limit int) (ts []tuple.Tuple, truncated bool, err error) {
	if limit < 0 {
		return nil, false, fmt.Errorf("cluster: negative scan limit %d", limit)
	}
	err = c.ScanAll(lo, hi, func(t tuple.Tuple) bool {
		if limit > 0 && len(ts) == limit {
			truncated = true
			return false
		}
		ts = append(ts, t.Clone())
		return true
	})
	return ts, truncated, err
}

// ScanAll streams the whole range [lo, hi) through yield in global
// order, paginating past every shard's per-scan cap; returning false
// from yield stops early. The yielded tuple is transient — clone to
// retain.
//
// It is the fan-out merge: the map decomposes into key-ordered
// runs, each run streamed from its owning shard — or, for the moving
// range, 2-way merged from source and destination with equal-head
// duplicates elided — so the concatenation is the exact global sorted
// sequence. Each shard stream paginates with ScanPage resumption
// tokens (last tuple + strict), which carry across page and run
// boundaries by construction.
//
// The map generation is revalidated before every emission: pinning one
// generation for a whole paginated scan would misroute its tail if a
// move finalizes mid-scan and the source shard then restarts (the
// fence replay drops the moved range from the source while the stale
// map still directs that run's pages at it — silently omitting
// acknowledged tuples). When the version moves, the scan restarts from
// its first unemitted position under the fresh map; emitted tuples are
// strictly below the resume point and acknowledged tuples are never
// deleted, so the restart neither duplicates nor skips.
func (c *Client) ScanAll(lo, hi tuple.Tuple, yield func(tuple.Tuple) bool) error {
	if lo != nil {
		if err := c.checkArity(lo); err != nil {
			return err
		}
	}
	if hi != nil {
		if err := c.checkArity(hi); err != nil {
			return err
		}
	}
	cur := lo
	fanned := false
	for {
		resume, err := c.scanGeneration(c.src.Map(), cur, hi, yield, &fanned)
		if err != nil || resume == nil {
			return err
		}
		cur = resume
		obs.Inc(obs.ClusterScanRestarts)
	}
}

// scanGeneration streams [lo, hi) under one pinned map generation. A
// nil resume means the scan completed (or yield stopped it); a non-nil
// resume means the map version changed and the caller must rescan from
// resume (inclusive — it was never emitted) under the current map.
func (c *Client) scanGeneration(m *ShardMap, lo, hi tuple.Tuple, yield func(tuple.Tuple) bool, fanned *bool) (tuple.Tuple, error) {
	arity := c.opts.Arity
	fanout := 0
	// emit yields t unless the map generation moved, in which case it
	// hands t back as the resume point. ok=false stops the generation
	// either way; resume distinguishes done from restart.
	var resume tuple.Tuple
	emit := func(t tuple.Tuple) bool {
		if c.src.Map().Version != m.Version {
			resume = t.Clone()
			return false
		}
		return yield(t)
	}
	for _, r := range m.runs() {
		// Clip the run against the requested bounds.
		runLo := tuple.PrefixLowerBound(tuple.Tuple{r.lo}, arity)
		runHi := tuple.PrefixUpperBound(tuple.Tuple{r.hi}, arity) // nil when r.hi = MaxUint64
		if lo != nil && tuple.Compare(lo, runLo) > 0 {
			runLo = lo
		}
		if hi != nil && (runHi == nil || tuple.Compare(hi, runHi) < 0) {
			runHi = hi
		}
		if runHi != nil && tuple.Compare(runLo, runHi) >= 0 {
			if hi != nil && tuple.Compare(hi, runLo) <= 0 {
				return resume, nil // past the requested range: done
			}
			continue // empty clip: next run
		}
		fanout++
		if fanout == 2 && !*fanned {
			*fanned = true // count once per logical scan, restarts included
			obs.Inc(obs.ClusterScanFanouts)
		}
		// Merge the run's one or two shard streams in order (b is nil
		// outside the moving range and reads as exhausted).
		a, b := c.newStream(r.shards[0], runLo, runHi), c.newStream(r.shards[1], runLo, runHi)
		ta, aok, err := a.next()
		if err != nil {
			return nil, err
		}
		tb, bok, err := b.next()
		if err != nil {
			return nil, err
		}
		for aok || bok {
			// Take the smaller head; equal heads are the same tuple on
			// both sides of the move and are emitted once.
			var cmp int
			switch {
			case !bok:
				cmp = -1
			case !aok:
				cmp = 1
			default:
				cmp = tuple.Compare(ta, tb)
			}
			out := ta
			if cmp > 0 {
				out = tb
			}
			if cmp == 0 {
				obs.Inc(obs.ClusterScanDupes)
			}
			if !emit(out) {
				return resume, nil
			}
			if cmp <= 0 {
				if ta, aok, err = a.next(); err != nil {
					return nil, err
				}
			}
			if cmp >= 0 {
				if tb, bok, err = b.next(); err != nil {
					return nil, err
				}
			}
		}
	}
	return resume, nil
}

// shardStream pulls one shard's tuples in [lo, hi) page by page. Pages
// fetch through Client.scanPageShard, so each page independently
// offloads to a follower or falls back to the leader — the resumption
// token (last tuple + strict) is position, not connection, state.
type shardStream struct {
	c      *Client
	hi     tuple.Tuple
	cur    tuple.Tuple
	strict bool
	limit  int
	page   []tuple.Tuple
	i      int
	more   bool // the last page was truncated: fetch another
	shard  int
}

// newStream opens a paginated stream over one shard's [lo, hi) range;
// shard -1 (a run's absent second side) yields the nil stream, which is
// always exhausted.
func (c *Client) newStream(shard int, lo, hi tuple.Tuple) *shardStream {
	if shard < 0 {
		return nil
	}
	return &shardStream{c: c, hi: hi, cur: lo, limit: c.opts.PageLimit, more: true, shard: shard}
}

// next returns the stream's next tuple in order, fetching pages on
// demand; ok=false means the range is exhausted.
func (s *shardStream) next() (tuple.Tuple, bool, error) {
	if s == nil {
		return nil, false, nil
	}
	for s.i >= len(s.page) {
		if !s.more {
			return nil, false, nil
		}
		page, truncated, err := s.c.scanPageShard(s.shard, s.cur, s.hi, s.strict, s.limit)
		if err != nil {
			return nil, false, fmt.Errorf("cluster: shard %d: %w", s.shard, err)
		}
		if truncated && len(page) == 0 {
			return nil, false, fmt.Errorf("cluster: shard %d: truncated scan page carries no tuples", s.shard)
		}
		s.page, s.i, s.more = page, 0, truncated
		if len(page) > 0 {
			// Resumption token: the page's last tuple, strictly after.
			s.cur, s.strict = page[len(page)-1], true
		}
	}
	t := s.page[s.i]
	s.i++
	return t, true, nil
}
