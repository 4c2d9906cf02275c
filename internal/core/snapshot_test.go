package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"specbtree/internal/tuple"
)

// collectSnap drains a snapshot into a slice via its cursor.
func collectSnap(s Snapshot) []tuple.Tuple {
	var out []tuple.Tuple
	s.All(func(tp tuple.Tuple) bool {
		out = append(out, tp.Clone())
		return true
	})
	return out
}

func tuplesEqual(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tuple.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotEmpty(t *testing.T) {
	tr := New(2)
	s := tr.Snapshot()
	if !s.Empty() || s.Len() != 0 {
		t.Errorf("empty snapshot: Empty=%v Len=%d", s.Empty(), s.Len())
	}
	if s.Contains(tuple.Tuple{1, 2}) {
		t.Error("empty snapshot contains a tuple")
	}
	if c := s.Cursor(); c.Valid() {
		t.Error("cursor on empty snapshot is valid")
	}
	if c := s.LowerBound(tuple.Tuple{0, 0}); c.Valid() {
		t.Error("lower bound on empty snapshot is valid")
	}
	var zero Snapshot
	if !zero.Empty() || zero.Len() != 0 {
		t.Error("zero Snapshot is not empty")
	}
}

// TestSnapshotIsolation is the core MVCC contract: a snapshot taken
// mid-stream sees exactly the tuples inserted before it, none after.
func TestSnapshotIsolation(t *testing.T) {
	tr := New(2, Options{Capacity: 4}) // small nodes force deep trees
	before := randTuples(2000, 2, 500, 1)
	for _, tp := range before {
		tr.Insert(tp)
	}
	want := sortedUnique(before)

	s := tr.Snapshot()

	after := randTuples(2000, 2, 500, 2)
	for _, tp := range after {
		tr.Insert(tp)
	}

	if got := s.Len(); got != len(want) {
		t.Fatalf("snapshot Len = %d, want %d", got, len(want))
	}
	if got := collectSnap(s); !tuplesEqual(got, want) {
		t.Fatalf("snapshot iteration diverged from frozen reference (%d vs %d tuples)", len(got), len(want))
	}
	for _, tp := range want {
		if !s.Contains(tp) {
			t.Fatalf("snapshot lost pre-epoch tuple %v", tp)
		}
	}
	// No in-flight-epoch tuple may leak in.
	inSnap := make(map[[2]uint64]bool, len(want))
	for _, tp := range want {
		inSnap[[2]uint64{tp[0], tp[1]}] = true
	}
	for _, tp := range after {
		if !inSnap[[2]uint64{tp[0], tp[1]}] && s.Contains(tp) {
			t.Fatalf("snapshot sees current-epoch tuple %v", tp)
		}
	}
	// The live tree still has everything.
	liveWant := sortedUnique(append(append([]tuple.Tuple{}, before...), after...))
	if got := collect(tr); !tuplesEqual(got, liveWant) {
		t.Fatalf("live tree diverged after cow: %d tuples, want %d", len(got), len(liveWant))
	}
}

// TestSnapshotBounds checks snapshot bound cursors against the live
// tree's answers on the identical tuple set.
func TestSnapshotBounds(t *testing.T) {
	tr := New(1, Options{Capacity: 4})
	for i := uint64(0); i < 500; i++ {
		tr.Insert(tuple.Tuple{i * 3}) // 0, 3, 6, ...
	}
	s := tr.Snapshot()
	// Mutate the live tree so any accidental live read would differ.
	for i := uint64(0); i < 500; i++ {
		tr.Insert(tuple.Tuple{i*3 + 1})
	}
	for probe := uint64(0); probe < 1520; probe += 7 {
		v := tuple.Tuple{probe}
		for _, strict := range []bool{false, true} {
			var want uint64
			var wantOK bool
			if strict {
				want, wantOK = (probe/3+1)*3, (probe/3+1)*3 < 1500
			} else {
				want = (probe + 2) / 3 * 3
				wantOK = want < 1500
			}
			c := s.bound(v, strict)
			if c.Valid() != wantOK {
				t.Fatalf("bound(%d, strict=%v): valid=%v, want %v", probe, strict, c.Valid(), wantOK)
			}
			if wantOK {
				if got := c.Tuple()[0]; got != want {
					t.Fatalf("bound(%d, strict=%v) = %d, want %d", probe, strict, got, want)
				}
			}
		}
	}
	// Scan a half-open window and compare against the arithmetic answer.
	var got []uint64
	s.Scan(tuple.Tuple{100}, tuple.Tuple{200}, func(tp tuple.Tuple) bool {
		got = append(got, tp[0])
		return true
	})
	var want []uint64
	for v := uint64(102); v < 200; v += 3 {
		want = append(want, v)
	}
	if len(got) != len(want) {
		t.Fatalf("Scan[100,200) yielded %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Scan[100,200)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestSnapshotStacked takes several snapshots between insert waves and
// verifies each one still answers from its own epoch at the end.
func TestSnapshotStacked(t *testing.T) {
	tr := New(2, Options{Capacity: 4})
	const waves = 5
	var snaps []Snapshot
	var refs [][]tuple.Tuple
	var all []tuple.Tuple
	for w := 0; w < waves; w++ {
		wave := randTuples(400, 2, 300, int64(10+w))
		for _, tp := range wave {
			tr.Insert(tp)
		}
		all = append(all, wave...)
		snaps = append(snaps, tr.Snapshot())
		refs = append(refs, sortedUnique(all))
	}
	for w := range snaps {
		if got := collectSnap(snaps[w]); !tuplesEqual(got, refs[w]) {
			t.Fatalf("snapshot %d diverged from its frozen reference (%d vs %d tuples)", w, len(got), len(refs[w]))
		}
	}
}

// TestSnapshotConcurrentWriters races snapshot readers against live
// writers: the snapshot must keep answering exactly its frozen reference
// while inserts split and copy-on-write the tree underneath it. Run with
// -race to check the no-synchronisation claim of the frozen subtree.
func TestSnapshotConcurrentWriters(t *testing.T) {
	tr := New(2, Options{Capacity: 4})
	before := randTuples(1500, 2, 400, 42)
	for _, tp := range before {
		tr.Insert(tp)
	}
	want := sortedUnique(before)

	s := tr.Snapshot()

	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			h := NewHints()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.InsertHint(tuple.Tuple{uint64(rng.Int63n(400)), uint64(rng.Int63n(400))}, h)
			}
		}(int64(100 + w))
	}

	for round := 0; round < 20; round++ {
		if got := collectSnap(s); !tuplesEqual(got, want) {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: snapshot diverged from frozen reference (%d vs %d tuples)", round, len(got), len(want))
		}
		for _, tp := range want[:50] {
			if !s.Contains(tp) {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d: snapshot lost %v under concurrent writers", round, tp)
			}
		}
	}
	close(stop)
	wg.Wait()

	// After the dust settles the live tree must contain every pre-epoch
	// tuple (cow must not drop elements while cloning paths).
	for _, tp := range want {
		if !tr.Contains(tp) {
			t.Fatalf("live tree lost pre-epoch tuple %v after cow", tp)
		}
	}
}

// TestSnapshotHintAcrossEpoch drives hinted inserts and reads across a
// snapshot boundary: hints cached before the epoch point at nodes that
// get retired by cow, and the hinted fast paths must treat those as
// misses rather than answer from a stale clone source.
func TestSnapshotHintAcrossEpoch(t *testing.T) {
	tr := New(1, Options{Capacity: 4})
	h := NewHints()
	for i := uint64(0); i < 300; i++ {
		tr.InsertHint(tuple.Tuple{i * 2}, h)
	}
	_ = tr.Snapshot()
	// The cached leaves are now frozen; hinted operations must still be
	// correct (miss + full descent, or cow on the write path).
	for i := uint64(0); i < 300; i++ {
		if !tr.ContainsHint(tuple.Tuple{i * 2}, h) {
			t.Fatalf("hinted contains lost %d after epoch", i*2)
		}
		if tr.InsertHint(tuple.Tuple{i * 2}, h) {
			t.Fatalf("hinted insert re-inserted %d after epoch", i*2)
		}
		if !tr.InsertHint(tuple.Tuple{i*2 + 1}, h) {
			t.Fatalf("hinted insert dropped %d after epoch", i*2+1)
		}
		if c := tr.LowerBoundHint(tuple.Tuple{i * 2}, h); !c.Valid() || c.Tuple()[0] != i*2 {
			t.Fatalf("hinted lower bound wrong at %d after epoch", i*2)
		}
	}
	if got, want := tr.Len(), 600; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestSnapshotExportRange checks the rebalance-handoff contract:
// ExportRange yields exactly the in-range tuples, sorted and owned,
// and the result bulk-loads via BuildFromSorted into an equal subtree.
func TestSnapshotExportRange(t *testing.T) {
	tr := New(2)
	rng := rand.New(rand.NewSource(7))
	seen := map[[2]uint64]bool{}
	for i := 0; i < 500; i++ {
		tp := tuple.Tuple{uint64(rng.Intn(100)), uint64(rng.Intn(100))}
		tr.Insert(tp)
		seen[[2]uint64{tp[0], tp[1]}] = true
	}
	s := tr.Snapshot()
	lo, hi := tuple.Tuple{25, 0}, tuple.Tuple{75, 0}
	got := s.ExportRange(lo, hi)
	want := 0
	for k := range seen {
		if k[0] >= 25 && k[0] < 75 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("exported %d tuples, want %d", len(got), want)
	}
	for i, tp := range got {
		if tuple.Compare(tp, lo) < 0 || tuple.Compare(tp, hi) >= 0 {
			t.Fatalf("exported out-of-range tuple %v", tp)
		}
		if i > 0 && tuple.Compare(got[i-1], tp) >= 0 {
			t.Fatalf("export not strictly increasing at %d: %v then %v", i, got[i-1], tp)
		}
	}
	// The export is owned, not aliased into a scan buffer.
	if len(got) >= 2 && &got[0][0] == &got[1][0] {
		t.Fatal("exported tuples alias one buffer")
	}
	dst := New(2)
	dst.BuildFromSorted(got)
	if dst.Len() != want {
		t.Fatalf("bulk-loaded tree has %d tuples, want %d", dst.Len(), want)
	}
	for _, tp := range got {
		if !dst.Contains(tp) {
			t.Fatalf("bulk-loaded tree missing %v", tp)
		}
	}
	// Full-range export equals the snapshot contents.
	if all := s.ExportRange(nil, nil); !tuplesEqual(all, collectSnap(s)) {
		t.Fatal("full-range export differs from snapshot contents")
	}
}

// TestSnapshotSplitRetention pins the doSplit slot clearing: an inner
// node that keeps pointers to the children it moved to its split sibling
// pins every later copy-on-write's retired subtree, so frequent
// snapshots grow the retained heap without bound. Snapshots are dropped
// at once here; with the slots cleared, the retained heap must stay
// close to that of the same inserts without snapshots.
func TestSnapshotSplitRetention(t *testing.T) {
	const n, every = 100_000, 12
	retained := func(snapshots bool) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := New(2)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < n; i++ {
			tr.Insert(tuple.Tuple{rng.Uint64(), rng.Uint64()})
			if snapshots && i%every == 0 {
				tr.Snapshot()
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	plain := retained(false)
	snapped := retained(true)
	ratio := float64(snapped) / float64(plain)
	t.Logf("retained heap: %d B plain, %d B with snapshots (ratio %.2f)", plain, snapped, ratio)
	if ratio > 1.5 {
		t.Errorf("retained heap %d B with a snapshot every %d inserts vs %d B without (ratio %.2f > 1.5)",
			snapped, every, plain, ratio)
	}
}
