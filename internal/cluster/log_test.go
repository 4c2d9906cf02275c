package cluster

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// The record kinds of the log format (serve/epoch.go), restated here so
// the test helpers that walk the framing by hand — epochEnd and the
// logcrash naive replayer — stay independent of the codec under test.
const (
	recInsert = 1
	recCommit = 2
	recFence  = 3
)

// mkTuples builds n arity-2 tuples (base+i, i).
func mkTuples(base uint64, n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{base + uint64(i), uint64(i)}
	}
	return out
}

// canon sorts and deduplicates a tuple slice for order-insensitive
// comparison.
func canon(ts []tuple.Tuple) []tuple.Tuple {
	c := make([]tuple.Tuple, len(ts))
	copy(c, ts)
	sort.Slice(c, func(i, j int) bool { return tuple.Less(c[i], c[j]) })
	out := c[:0]
	for _, t := range c {
		if len(out) == 0 || !tuple.Equal(t, out[len(out)-1]) {
			out = append(out, t)
		}
	}
	return out
}

func sameTuples(t *testing.T, got, want []tuple.Tuple) {
	t.Helper()
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("recovered %d distinct tuples, want %d", len(g), len(w))
	}
	for i := range g {
		if !tuple.Equal(g[i], w[i]) {
			t.Fatalf("recovered tuple %d = %v, want %v", i, g[i], w[i])
		}
	}
}

func TestShardLogRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, rec, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tuples) != 0 || rec.Epochs != 0 {
		t.Fatalf("fresh log recovered %d tuples, %d epochs", len(rec.Tuples), rec.Epochs)
	}
	var acked []tuple.Tuple
	for e := 0; e < 5; e++ {
		b1 := mkTuples(uint64(e*100), 7)
		b2 := mkTuples(uint64(e*100+50), 3)
		if err := l.LogEpoch([][]tuple.Tuple{b1, b2}); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, b1...)
		acked = append(acked, b2...)
	}
	// Barrier epochs carry no tuples and are not logged.
	if err := l.LogEpoch(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.Epochs != 5 {
		t.Fatalf("recovered %d epochs, want 5", rec2.Epochs)
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	sameTuples(t, rec2.Tuples, acked)
	tree := BuildTree(rec2.Tuples, 2)
	if tree.Len() != len(canon(acked)) {
		t.Fatalf("rebuilt tree has %d tuples, want %d", tree.Len(), len(canon(acked)))
	}
	for _, tt := range acked {
		if !tree.Contains(tt) {
			t.Fatalf("rebuilt tree missing %v", tt)
		}
	}
	// The reopened log continues the epoch sequence.
	extra := mkTuples(9000, 4)
	if err := l2.LogEpoch([][]tuple.Tuple{extra}); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Epochs != 6 {
		t.Fatalf("after append, recovered %d epochs, want 6", rec3.Epochs)
	}
	sameTuples(t, rec3.Tuples, append(append([]tuple.Tuple{}, acked...), extra...))
}

func TestShardLogFenceDropsRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch([][]tuple.Tuple{{{10, 1}, {20, 2}, {30, 3}, {40, 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFence(15, 35, 1); err != nil {
		t.Fatal(err)
	}
	// Tuples logged after the fence stay, even inside the old range:
	// the shard map routed them here on purpose.
	if err := l.LogEpoch([][]tuple.Tuple{{{25, 9}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, rec.Tuples, []tuple.Tuple{{10, 1}, {40, 4}, {25, 9}})
	if rec.Dropped != 2 {
		t.Fatalf("fence dropped %d tuples, want 2", rec.Dropped)
	}
}

func TestShardLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	acked := mkTuples(0, 8)
	if err := l.LogEpoch([][]tuple.Tuple{acked}); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(1000, 8)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the file mid-way through the second epoch, as a crash during
	// its flush would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := epochEnd(t, data, 1)
	if err := os.WriteFile(path, data[:firstEnd+10], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if rec.Epochs != 1 {
		t.Fatalf("recovered %d epochs, want 1", rec.Epochs)
	}
	sameTuples(t, rec.Tuples, acked)
	// The artifact was truncated: appending and replaying again works.
	extra := mkTuples(2000, 3)
	if err := l2.LogEpoch([][]tuple.Tuple{extra}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, rec2, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TornTail {
		t.Fatal("tail still torn after recovery truncation")
	}
	sameTuples(t, rec2.Tuples, append(append([]tuple.Tuple{}, acked...), extra...))
}

func TestShardLogRejectsTrailingGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(0, 4)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("GARBAGE GARBAGE GARBAGE")
	f.Close()

	if _, _, err := OpenShardLog(path, 2); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("garbage tail recovered with err=%v, want ErrLogCorrupt", err)
	}
}

func TestShardLogRejectsBitrot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(0, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(100, 4)}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip one payload byte inside the first (committed, non-trailing)
	// epoch: the checksum must catch it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShardLog(path, 2); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("bit-rotted log recovered with err=%v, want ErrLogCorrupt", err)
	}
}

// TestShardLogRejectsEpochZero pins the sequence check's lower edge:
// the writer numbers epochs from 1, so a log whose first epoch claims
// seq 0 is corrupt by definition — without the explicit rejection it
// would slip through (no epoch open, and 0 == the zero epochSeq) and
// replay as committed.
func TestShardLogRejectsEpochZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	raw, _ := serve.AppendEpoch(nil, &Epoch{Seq: 0, Batches: [][]tuple.Tuple{mkTuples(0, 3)}})
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShardLog(path, 2); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("epoch-0 log recovered with err=%v, want ErrLogCorrupt", err)
	}
}

// TestShardLogPoisonedAfterFailedFlush pins the append-after-torn-write
// hardening: once a flush fails, the file's tail is untrustworthy (a
// short write would make the next epoch frame into garbage and turn a
// recoverable tail into ErrLogCorrupt), so the log must refuse every
// further append until reopened.
func TestShardLogPoisonedAfterFailedFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	acked := mkTuples(0, 4)
	if err := l.LogEpoch([][]tuple.Tuple{acked}); err != nil {
		t.Fatal(err)
	}
	// Close the fd underneath the writer: the next flush's write fails
	// like any real I/O error would.
	l.f.Close()
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(100, 4)}); err == nil {
		t.Fatal("flush on a closed file reported success")
	}
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(200, 4)}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after failed flush returned %v, want ErrCrashed", err)
	}
	if err := l.AppendFence(0, 10, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("fence after failed flush returned %v, want ErrCrashed", err)
	}
	// A reopen replays the intact committed prefix and appends again.
	l2, rec, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	sameTuples(t, rec.Tuples, acked)
	if err := l2.LogEpoch([][]tuple.Tuple{mkTuples(300, 2)}); err != nil {
		t.Fatal(err)
	}
}

// epochEnd returns the byte offset just past the n-th committed epoch
// by walking the record framing.
func epochEnd(t *testing.T, data []byte, n int) int {
	t.Helper()
	off, epochs := 0, 0
	for off < len(data) {
		bodyLen := int(binary.BigEndian.Uint32(data[off:]))
		kind := data[off+4]
		off += 4 + bodyLen + 4
		if kind == recCommit {
			epochs++
			if epochs == n {
				return off
			}
		}
	}
	t.Fatalf("log holds only %d epochs, want %d", epochs, n)
	return 0
}
