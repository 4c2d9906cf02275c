package cluster

import (
	"fmt"
	"sync"

	"specbtree/internal/serve"
)

// This file wires the shard insert log into the serve layer's
// replication stream (the leader side) and gives the cluster control
// plane its follower surface: attach read replicas to a shard, and
// promote the most caught-up one when the leader dies (DESIGN.md §16).
// The follower runtime itself lives in internal/replica; the cluster
// commands it through the FollowerHandle interface so the import
// direction stays replica -> cluster -> serve.

// ReplicaSource is the shard log as a replication source
// (serve.Options.Replica on every leader with a log): committed epochs
// are read back through a LogTailer — recovery's reader — and idle
// streamers block on the log's flush pulse.
func (l *ShardLog) ReplicaSource() serve.ReplicaSource { return l }

// TailEpochs opens a tailer positioned after the given epoch
// (serve.ReplicaSource).
func (l *ShardLog) TailEpochs(after uint64) (serve.EpochTailer, error) {
	t, err := TailShardLog(l.path, l.arity, after)
	if err != nil {
		return nil, err
	}
	t.log = l
	return t, nil
}

// Directory publishes the live shard address table to routing clients.
// Promotion repoints a shard's address at the promoted follower; a
// client holding the directory re-resolves on its next operation — no
// client restart. Addresses otherwise stay stable (RestartShard rebinds
// the same one).
type Directory struct {
	mu    sync.Mutex
	addrs []string
}

// NewDirectory builds a directory over a fixed initial table.
func NewDirectory(addrs []string) *Directory {
	d := &Directory{addrs: make([]string, len(addrs))}
	copy(d.addrs, addrs)
	return d
}

// Addr returns shard i's current address ("" when out of range).
func (d *Directory) Addr(i int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.addrs) {
		return ""
	}
	return d.addrs[i]
}

// Addrs returns a copy of the current table.
func (d *Directory) Addrs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.addrs))
	copy(out, d.addrs)
	return out
}

// Set repoints shard i's address.
func (d *Directory) Set(i int, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i >= 0 && i < len(d.addrs) {
		d.addrs[i] = addr
	}
}

// FollowerHandle is the cluster's command surface over one attached
// read replica (implemented by replica.Follower). The cluster never
// imports the replica package; promotion drives the follower through
// this interface.
type FollowerHandle interface {
	// Addr is the follower's serving address.
	Addr() string
	// Applied is the follower's applied-epoch watermark.
	Applied() uint64
	// CatchUpFromLog replays the committed tail of the (dead) leader's
	// durable log past the follower's watermark, returning the new
	// watermark. A torn tail in that log is the end of the committed
	// prefix — those bytes were never acknowledged.
	CatchUpFromLog(path string) (uint64, error)
	// Promote flips the follower into a writable leader serving from
	// its own durable log.
	Promote() error
	// Server is the follower's serving surface; after promotion the
	// cluster uses it as the shard's control plane.
	Server() *serve.Server
	// Log is the follower's own durable log; after promotion it is the
	// shard's log (fences and epochs append to it).
	Log() *ShardLog
}

// AttachFollower registers a follower as a read replica of shard i.
// Routing clients created afterwards offload bounded-staleness reads
// to it, and Promote considers it for failover.
func (c *Cluster) AttachFollower(i int, h FollowerHandle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("cluster: no shard %d", i)
	}
	c.followers[i] = append(c.followers[i], h)
	return nil
}

// Promote fails shard i over to its most caught-up follower. The
// caller must have stopped the old leader first (KillShard); promotion
// then replays the committed tail of the leader's durable log into the
// follower — every acknowledged write is in that prefix, so none is
// lost — flips the follower writable, and repoints the shard's
// directory entry. The old leader stays fenced out: RestartShard
// refuses a promoted shard, because rebinding the old address would
// put two writable leaders behind one shard number (split-brain).
// Returns the new leader's address.
func (c *Cluster) Promote(i int) (string, error) {
	if c.opts.LogDir == "" {
		return "", fmt.Errorf("cluster: promotion needs durable logs; cluster runs without persistence")
	}
	c.mu.Lock()
	if i < 0 || i >= len(c.shards) {
		c.mu.Unlock()
		return "", fmt.Errorf("cluster: no shard %d", i)
	}
	st := c.shards[i]
	if st.promoted {
		c.mu.Unlock()
		return "", fmt.Errorf("cluster: shard %d already failed over once; chained promotion not supported", i)
	}
	followers := append([]FollowerHandle(nil), c.followers[i]...)
	c.mu.Unlock()
	if len(followers) == 0 {
		return "", fmt.Errorf("cluster: shard %d has no followers to promote", i)
	}

	best := followers[0]
	for _, h := range followers[1:] {
		if h.Applied() > best.Applied() {
			best = h
		}
	}
	if _, err := best.CatchUpFromLog(c.logPath(i)); err != nil {
		return "", fmt.Errorf("cluster: shard %d catch-up: %w", i, err)
	}
	if err := best.Promote(); err != nil {
		return "", fmt.Errorf("cluster: shard %d promote: %w", i, err)
	}

	c.mu.Lock()
	st.promoted = true
	st.srv = best.Server()
	st.log = best.Log()
	st.rec = nil
	st.addr = best.Addr()
	// The promoted follower stops being a follower of this shard.
	keep := c.followers[i][:0]
	for _, h := range c.followers[i] {
		if h != best {
			keep = append(keep, h)
		}
	}
	c.followers[i] = keep
	c.mu.Unlock()
	c.dir.Set(i, best.Addr())
	return best.Addr(), nil
}

// FollowerAddrs returns the attached follower address table
// (addrs[i] = shard i's followers) — what Cluster.Client seeds its
// follower routing with.
func (c *Cluster) FollowerAddrs() [][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]string, len(c.shards))
	for i, hs := range c.followers {
		for _, h := range hs {
			out[i] = append(out[i], h.Addr())
		}
	}
	return out
}

// Directory returns the cluster's live shard address directory.
func (c *Cluster) Directory() *Directory { return c.dir }
