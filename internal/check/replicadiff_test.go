package check

import (
	"path/filepath"
	"testing"
	"time"

	"specbtree/internal/cluster"
	"specbtree/internal/obs"
	"specbtree/internal/replica"
	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// TestReplicaFailoverGate is the replication subsystem's gate
// (DESIGN.md §16): a shard with two streaming followers takes
// acknowledged writes, is killed abruptly mid-stream — connections
// dropped, log abandoned, followers behind — and fails over to the
// most caught-up follower. The gate asserts the two replication
// contracts to the tuple:
//
//   - No acknowledged write is lost: promotion replays the dead
//     leader's committed log tail, so the promoted leader serves every
//     tuple that was ever acked — including the tail acked after the
//     followers' last applied epoch. The final state is compared
//     against an exact in-memory model, both directions.
//   - No stale read exceeds the bound: a follower read stamped with
//     applied watermark A reflects every write acknowledged at or
//     before epoch A (prefix consistency — the stream applies whole
//     epochs in order), and the routing client only accepts follower
//     answers whose stamp satisfies head - applied <= MaxStaleEpochs.
func TestReplicaFailoverGate(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.StartCluster(cluster.Options{
		Shards: 1,
		LogDir: dir,
		Serve:  serve.Options{HeartbeatEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer c.Close()

	follower := func(name string) *replica.Follower {
		f, err := replica.Start(replica.Options{
			Leader:         c.Addrs()[0],
			Sharded:        true,
			Shard:          0,
			Arity:          2,
			LogPath:        filepath.Join(dir, name+".log"),
			StaleAfter:     300 * time.Millisecond,
			ReconnectEvery: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("replica.Start(%s): %v", name, err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	f1, f2 := follower("f1"), follower("f2")
	if err := c.AttachFollower(0, f1); err != nil {
		t.Fatalf("AttachFollower: %v", err)
	}
	if err := c.AttachFollower(0, f2); err != nil {
		t.Fatalf("AttachFollower: %v", err)
	}

	const maxStale = 4
	cl, err := c.Client(cluster.ClientOptions{MaxStaleEpochs: maxStale})
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer cl.Close()

	// Direct stamped connections: the leader's stamp dates each ack
	// (its epoch count only moves at commit), the follower's stamped
	// reads carry the watermark the prefix contract is judged against.
	leaderCl, err := serve.Dial(c.Addrs()[0], serve.ClientOptions{Arity: 2, ExpectShard: true, ShardID: 0})
	if err != nil {
		t.Fatalf("Dial leader: %v", err)
	}
	defer leaderCl.Close()
	fCl, err := serve.Dial(f1.Addr(), serve.ClientOptions{Arity: 2, ExpectShard: true, ShardID: 0})
	if err != nil {
		t.Fatalf("Dial follower: %v", err)
	}
	defer fCl.Close()

	// model is the exact acked state; ackedAt[k] the leader epoch whose
	// commit acknowledged key k.
	model := make(map[uint64]tuple.Tuple)
	ackedAt := make(map[uint64]uint64)
	write := func(keys ...uint64) {
		batch := make([]tuple.Tuple, len(keys))
		for i, k := range keys {
			batch[i] = tuple.Tuple{k, k * 3}
		}
		if _, err := cl.Insert(batch); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		st, err := leaderCl.Stamp()
		if err != nil {
			t.Fatalf("leader Stamp: %v", err)
		}
		for _, k := range keys {
			model[k] = tuple.Tuple{k, k * 3}
			ackedAt[k] = st.Applied
		}
	}

	// Pre-crash load: epochs of writes interleaved with stamped reads
	// on the follower. The prefix contract: a read stamped applied=A
	// must contain every key acked at or before A; and when the
	// follower claims freshness within the bound, head-applied must
	// actually be within it (what the routing client admits).
	prefixChecks := 0
	for k := uint64(0); k < 400; k += 8 {
		write(k, k+1, k+2, k+3, k+4, k+5, k+6, k+7)
		for probe := range ackedAt {
			ok, st, err := fCl.ContainsStamped(tuple.Tuple{probe, probe * 3})
			if err != nil {
				t.Fatalf("ContainsStamped: %v", err)
			}
			if st.Applied >= ackedAt[probe] && !ok {
				t.Fatalf("prefix violated: key %d acked at epoch %d invisible at watermark %d",
					probe, ackedAt[probe], st.Applied)
			}
			if st.Healthy && st.Head >= st.Applied && st.Head-st.Applied <= maxStale {
				prefixChecks++
			}
			break // one probe per round keeps the load phase fast
		}
	}
	if prefixChecks == 0 {
		t.Fatal("no follower read ever passed the freshness gate; staleness bound untested")
	}

	// Let the followers approach the head, then ack a tail of writes
	// and kill the leader before the stream can ship them — the
	// promoted follower must recover them from the leader's log alone.
	deadline := time.Now().Add(5 * time.Second)
	for f1.Applied() < 40 && f2.Applied() < 40 {
		if time.Now().After(deadline) {
			t.Fatalf("followers stalled: applied %d/%d", f1.Applied(), f2.Applied())
		}
		time.Sleep(time.Millisecond)
	}
	write(9001, 9002, 9003, 9004)
	write(9005, 9006)
	if err := c.KillShard(0); err != nil {
		t.Fatalf("KillShard: %v", err)
	}

	promotions := obs.Value(obs.ReplicaPromotions)
	newAddr, err := c.Promote(0)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if obs.Enabled && obs.Value(obs.ReplicaPromotions) != promotions+1 {
		t.Fatal("promotion not counted")
	}

	// Contract 1 is about the promoted leader, but cl offloads reads to
	// followers: the one left behind keeps answering "healthy, caught up
	// with the head I know of" until its stream loop has run far enough
	// to see the dead connection — bounded staleness is stream-carried
	// knowledge, not read-your-writes (§16.4) — and on a loaded host that
	// window is long enough for a read of the acked tail to land in it.
	// Wait it out, so every read below falls back to the new leader.
	deadline = time.Now().Add(5 * time.Second)
	for _, f := range []*replica.Follower{f1, f2} {
		for !f.Promoted() && f.Healthy() {
			if time.Now().After(deadline) {
				t.Fatal("the follower left behind never noticed its leader died")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Contract 1: nothing acked is lost, and nothing invented — the
	// promoted leader's state equals the model exactly.
	for k, tp := range model {
		ok, err := cl.Contains(tp)
		if err != nil {
			t.Fatalf("Contains(%d) after failover: %v", k, err)
		}
		if !ok {
			t.Fatalf("acked write %d (epoch %d) lost across failover", k, ackedAt[k])
		}
	}
	n, err := cl.Len()
	if err != nil {
		t.Fatalf("Len: %v", err)
	}
	if n != len(model) {
		t.Fatalf("promoted leader serves %d tuples, model has %d", n, len(model))
	}
	extra := 0
	if err := cl.ScanAll(nil, nil, func(tp tuple.Tuple) bool {
		if _, ok := model[tp[0]]; !ok {
			extra++
		}
		return true
	}); err != nil {
		t.Fatalf("ScanAll: %v", err)
	}
	if extra != 0 {
		t.Fatalf("promoted leader serves %d tuples the model never acked", extra)
	}

	// The new leader takes writes; the old one stays fenced out.
	if _, err := cl.Insert([]tuple.Tuple{{77777, 7}}); err != nil {
		t.Fatalf("Insert after failover: %v", err)
	}
	if ok, err := cl.Contains(tuple.Tuple{77777, 7}); err != nil || !ok {
		t.Fatalf("post-failover write not served: %v %v", ok, err)
	}
	if err := c.RestartShard(0); err == nil {
		t.Fatal("old leader restart accepted after failover; split-brain fence missing")
	}
	if c.Directory().Addr(0) != newAddr {
		t.Fatalf("directory points at %s, promotion returned %s", c.Directory().Addr(0), newAddr)
	}
}
