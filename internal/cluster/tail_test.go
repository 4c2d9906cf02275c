package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"specbtree/internal/tuple"
)

// TestTailerFollowsLiveLog tails a log while the writer appends,
// checking that epochs arrive in order with the logged batches intact
// and that Next reports "nothing yet" at the committed end.
func TestTailerFollowsLiveLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tail, err := TailShardLog(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, ok, err := tail.Next(); err != nil || ok {
		t.Fatalf("empty log: Next = ok=%v err=%v, want no epoch", ok, err)
	}

	for e := 0; e < 4; e++ {
		batch := mkTuples(uint64(e*100), 5)
		if err := l.LogEpoch([][]tuple.Tuple{batch}); err != nil {
			t.Fatal(err)
		}
		ep, ok, err := tail.Next()
		if err != nil || !ok {
			t.Fatalf("epoch %d: Next = ok=%v err=%v", e+1, ok, err)
		}
		if ep.Seq != uint64(e+1) {
			t.Fatalf("tailed epoch %d, want %d", ep.Seq, e+1)
		}
		if len(ep.Batches) != 1 {
			t.Fatalf("epoch %d carries %d batches, want 1", ep.Seq, len(ep.Batches))
		}
		sameTuples(t, ep.Batches[0], batch)
		// No further epoch yet.
		if _, ok, err := tail.Next(); err != nil || ok {
			t.Fatalf("after epoch %d: Next = ok=%v err=%v, want no epoch", e+1, ok, err)
		}
	}
	if tail.Seq() != 4 {
		t.Fatalf("tailer at seq %d, want 4", tail.Seq())
	}
}

// TestTailerFences checks fence epochs decode with their ranges and
// that fence-only epochs count in the sequence.
func TestTailerFences(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(0, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFence(10, 20, 7); err != nil {
		t.Fatal(err)
	}

	tail, err := TailShardLog(path, 2, 1) // skip the insert epoch
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	ep, ok, err := tail.Next()
	if err != nil || !ok {
		t.Fatalf("Next = ok=%v err=%v", ok, err)
	}
	if ep.Seq != 2 || len(ep.Fences) != 1 || len(ep.Batches) != 0 {
		t.Fatalf("fence epoch decoded as %+v", ep)
	}
	if fc := ep.Fences[0]; fc.Lo != 10 || fc.Hi != 20 || fc.Dst != 7 {
		t.Fatalf("fence = %+v, want [10, 20] -> 7", fc)
	}
}

// TestTailerTornTailRetry writes an epoch byte-by-byte under the tailer:
// every prefix must read as "nothing yet" — never corruption, never a
// truncation — and the epoch must decode once the last byte lands. This
// is the property that lets a streamer race the writer's write(2).
func TestTailerTornTailRetry(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.log")
	l, _, err := OpenShardLog(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := mkTuples(100, 6)
	if err := l.LogEpoch([][]tuple.Tuple{batch}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "torn.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tail, err := TailShardLog(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for i := range whole {
		if _, ok, err := tail.Next(); err != nil || ok {
			t.Fatalf("prefix of %d bytes: Next = ok=%v err=%v, want retry", i, ok, err)
		}
		if _, err := f.Write(whole[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	ep, ok, err := tail.Next()
	if err != nil || !ok {
		t.Fatalf("complete epoch: Next = ok=%v err=%v", ok, err)
	}
	if ep.Seq != 1 {
		t.Fatalf("tailed epoch %d, want 1", ep.Seq)
	}
	sameTuples(t, ep.Batches[0], batch)
}

// TestTailerCorruptionIsPermanent flips a byte inside a committed
// epoch's body: the tailer must surface ErrLogCorrupt, not retry.
func TestTailerCorruptionIsPermanent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(0, 4)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tail, err := TailShardLog(path, 2, 0)
	if err != nil {
		if !errors.Is(err, ErrLogCorrupt) {
			t.Fatalf("TailShardLog = %v, want ErrLogCorrupt", err)
		}
		return
	}
	defer tail.Close()
	if _, _, err := tail.Next(); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("Next = %v, want ErrLogCorrupt", err)
	}
}

// TestReplicatedEpochRoundtrip writes follower-style epochs (batches +
// fence + watermark) and checks both replay and the tailer reconstruct
// them, including Recovery.Watermark for resume.
func TestReplicatedEpochRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "follower0.log")
	l, rec, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Watermark != 0 {
		t.Fatalf("fresh log watermark %d, want 0", rec.Watermark)
	}
	keep := mkTuples(1000, 4)
	moved := mkTuples(10, 3) // leading columns 10..12, retired below
	if err := l.LogReplicatedEpoch([][]tuple.Tuple{moved}, nil, 7); err != nil {
		t.Fatal(err)
	}
	if err := l.LogReplicatedEpoch([][]tuple.Tuple{keep}, []Fence{{Lo: 0, Hi: 99, Dst: 1}}, 9); err != nil {
		t.Fatal(err)
	}
	// Nothing applied: nothing logged, sequence unchanged.
	if err := l.LogReplicatedEpoch(nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := l.CommittedSeq(); got != 2 {
		t.Fatalf("CommittedSeq = %d, want 2", got)
	}
	l.Close()

	_, rec2, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Watermark != 9 {
		t.Fatalf("replayed watermark %d, want 9", rec2.Watermark)
	}
	if rec2.Epochs != 2 {
		t.Fatalf("replayed %d epochs, want 2", rec2.Epochs)
	}
	if rec2.Dropped != len(moved) {
		t.Fatalf("fence dropped %d tuples, want %d", rec2.Dropped, len(moved))
	}
	sameTuples(t, rec2.Tuples, keep)

	tail, err := TailShardLog(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	ep1, ok, err := tail.Next()
	if err != nil || !ok || ep1.Mark != 7 {
		t.Fatalf("epoch 1: ok=%v err=%v mark=%d, want mark 7", ok, err, ep1.Mark)
	}
	ep2, ok, err := tail.Next()
	if err != nil || !ok || ep2.Mark != 9 || len(ep2.Fences) != 1 {
		t.Fatalf("epoch 2: ok=%v err=%v %+v", ok, err, ep2)
	}
}

// TestLogPulse checks Pulse fires on flush so tailing streamers can
// block instead of polling.
func TestLogPulse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p := l.Pulse()
	select {
	case <-p:
		t.Fatal("pulse fired before any flush")
	default:
	}
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(0, 1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p:
	default:
		t.Fatal("pulse did not fire after flush")
	}
}
