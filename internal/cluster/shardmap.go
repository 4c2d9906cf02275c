package cluster

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// ShardMap partitions the key space by range on the leading tuple
// column: Entries are sorted, disjoint, and cover every leading key in
// [0, MaxUint64]. A map value is immutable once published — routing
// changes swap in a fresh map with a higher Version through a
// MapSource — so routing reads need no locks.
//
// At most one range is Moving at a time: during a rebalance the moving
// range's tuples may exist on both its source and destination shard,
// so inserts route to the destination (which will survive the move)
// and reads consult both, the scan merge eliding duplicates
// (DESIGN.md §15).
type ShardMap struct {
	// Version orders map generations; every routing change increments
	// it.
	Version uint64
	// Entries are the owned ranges, sorted by Lo, disjoint, covering
	// the whole leading-column axis.
	Entries []MapEntry
	// Moving is the at-most-one range in flight between shards; Active
	// false means no move is in progress.
	Moving Moving
}

// MapEntry is one contiguous owned range: leading keys k with
// Lo <= k <= Hi (inclusive on both ends, so MaxUint64 is coverable)
// are owned by Shard.
type MapEntry struct {
	// Lo and Hi bound the range's leading keys, both inclusive.
	Lo, Hi uint64
	// Shard is the owning shard number.
	Shard int
}

// Moving describes a range mid-handoff: leading keys in [Lo, Hi] are
// moving from shard Src to shard Dst.
type Moving struct {
	// Lo and Hi bound the moving range's leading keys, both inclusive.
	Lo, Hi uint64
	// Src and Dst are the shards the range is leaving and joining.
	Src, Dst int
	// Active reports a move in progress; the zero Moving is inactive.
	Active bool
	// Draining marks an aborted move being unwound: inserts acked by
	// Dst while the cut was live may exist only there, so reads keep
	// consulting both shards, but new inserts route back to the owner
	// (Src). The overlay clears once Dst's range tuples have been
	// reconciled back to Src (Cluster.reconcile).
	Draining bool
}

// MapSource supplies the current shard map; implementations publish
// fresh maps atomically (Cluster does, and StaticMap wraps a fixed
// one). Routing code reads the map once per operation, so one
// operation always sees one consistent generation.
type MapSource interface {
	Map() *ShardMap
}

// StaticMap is a MapSource frozen at construction — the client-only
// deployments' source (loadgen's multi-shard mode), and the property
// tests' harness.
type StaticMap struct{ m atomic.Pointer[ShardMap] }

// NewStaticMap wraps m; the map must be valid (see Validate).
func NewStaticMap(m *ShardMap) *StaticMap {
	s := &StaticMap{}
	s.m.Store(m)
	return s
}

// Map returns the wrapped map.
func (s *StaticMap) Map() *ShardMap { return s.m.Load() }

// Set publishes a replacement map (tests use it to flip generations).
func (s *StaticMap) Set(m *ShardMap) { s.m.Store(m) }

// UniformMap builds the canonical starting map for n shards: the
// leading-column axis split into n near-equal contiguous ranges, shard
// i owning the i-th.
func UniformMap(n int) *ShardMap {
	return bands(n, ^uint64(0)/uint64(max(n, 1))+1) // per-shard span, rounding up
}

// BandMap partitions [0, keySpace) into equal bands, one per shard in
// order, the last shard keeping the rest of the axis — the right
// starting map for workloads whose leading keys occupy a small prefix
// of the axis, where UniformMap would put everything on shard 0.
func BandMap(shards int, keySpace uint64) *ShardMap {
	return bands(shards, max(keySpace/uint64(max(shards, 1)), 1))
}

// bands builds the map whose shard i owns the i-th width-wide stripe of
// the axis, the last shard keeping everything from its stripe on.
func bands(shards int, width uint64) *ShardMap {
	if shards < 1 {
		panic("cluster: a shard map needs at least one shard")
	}
	entries := make([]MapEntry, shards)
	lo := uint64(0)
	for i := range entries {
		hi := lo + width - 1
		if i == shards-1 || hi < lo { // the last stripe, or overflow
			hi = ^uint64(0)
		}
		entries[i] = MapEntry{Lo: lo, Hi: hi, Shard: i}
		lo = hi + 1
	}
	return &ShardMap{Version: 1, Entries: entries}
}

// Validate checks the map's structural invariants: entries sorted,
// disjoint, gap-free, covering [0, MaxUint64], and an active Moving
// range lying inside a single source entry.
func (m *ShardMap) Validate() error {
	if len(m.Entries) == 0 {
		return fmt.Errorf("cluster: shard map has no entries")
	}
	want := uint64(0)
	for i, e := range m.Entries {
		if e.Lo != want {
			return fmt.Errorf("cluster: shard map entry %d starts at %d, want %d", i, e.Lo, want)
		}
		if e.Hi < e.Lo {
			return fmt.Errorf("cluster: shard map entry %d inverted [%d, %d]", i, e.Lo, e.Hi)
		}
		if i == len(m.Entries)-1 {
			if e.Hi != ^uint64(0) {
				return fmt.Errorf("cluster: shard map ends at %d, leaving a gap", e.Hi)
			}
		} else {
			want = e.Hi + 1
		}
	}
	if m.Moving.Active {
		mv := m.Moving
		if mv.Lo > mv.Hi {
			return fmt.Errorf("cluster: moving range [%d, %d] inverted", mv.Lo, mv.Hi)
		}
		i := m.find(mv.Lo)
		e := m.Entries[i]
		if e.Shard != mv.Src || mv.Hi > e.Hi {
			return fmt.Errorf("cluster: moving range [%d, %d] not inside one entry of shard %d", mv.Lo, mv.Hi, mv.Src)
		}
	}
	return nil
}

// find returns the index of the entry owning leading key k.
func (m *ShardMap) find(k uint64) int {
	// First entry whose Hi >= k; the covering invariant guarantees one.
	return sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].Hi >= k })
}

// Owner returns the shard owning leading key k per the entry table,
// ignoring any active move.
func (m *ShardMap) Owner(k uint64) int { return m.Entries[m.find(k)].Shard }

// RouteInsert returns the shard an insert of leading key k must go to:
// the destination while k is in an active moving range (the shard that
// survives the move), the owner otherwise — including while the range
// is draining after an abort, when the owner is again where new data
// must land.
func (m *ShardMap) RouteInsert(k uint64) int {
	if m.Moving.Active && !m.Moving.Draining && k >= m.Moving.Lo && k <= m.Moving.Hi {
		return m.Moving.Dst
	}
	return m.Owner(k)
}

// ReadShards appends to dst the shards a read of leading key k must
// consult: normally just the owner; during a move of k's range — or
// its drain-back after an aborted move — both sides, source first (the
// merge elides duplicates). The append-style API keeps the hot read
// path allocation-free.
func (m *ShardMap) ReadShards(dst []int, k uint64) []int {
	if m.Moving.Active && k >= m.Moving.Lo && k <= m.Moving.Hi {
		return append(dst, m.Moving.Src, m.Moving.Dst)
	}
	return append(dst, m.Owner(k))
}

// Shards returns the highest shard number referenced by the map plus
// one — the size of the address table a router needs.
func (m *ShardMap) Shards() int {
	n := 0
	for _, e := range m.Entries {
		if e.Shard >= n {
			n = e.Shard + 1
		}
	}
	if m.Moving.Active && m.Moving.Dst >= n {
		n = m.Moving.Dst + 1
	}
	return n
}

// run is one maximal stretch of leading keys [lo, hi] (inclusive) that
// a scan reads from a fixed shard set: one shard normally, the moving
// range's source and destination pair during a rebalance. Scans
// iterate runs in key order, so the global sorted order is the
// concatenation of per-run sorted streams.
type run struct {
	lo, hi uint64
	shards [2]int // shards[1] = -1 when the run has a single shard
}

// runs decomposes the map into scan runs in key order: entry
// boundaries split the axis, and an active moving range further splits
// its entry into before/overlap/after.
func (m *ShardMap) runs() []run {
	out := make([]run, 0, len(m.Entries)+2)
	for _, e := range m.Entries {
		if !m.Moving.overlaps(e) {
			out = append(out, run{lo: e.Lo, hi: e.Hi, shards: [2]int{e.Shard, -1}})
			continue
		}
		m.Moving.carve(e, func(lo, hi uint64, inside bool) {
			r := run{lo: lo, hi: hi, shards: [2]int{e.Shard, -1}}
			if inside {
				r.shards = [2]int{m.Moving.Src, m.Moving.Dst}
			}
			out = append(out, r)
		})
	}
	return out
}

// overlaps reports whether the range is active and intersects entry e.
func (mv Moving) overlaps(e MapEntry) bool {
	return mv.Active && mv.Lo <= e.Hi && mv.Hi >= e.Lo
}

// carve cuts entry e, which the range overlaps, into the stretch before
// the range, the overlap (inside = true), and the stretch after, in key
// order.
func (mv Moving) carve(e MapEntry, emit func(lo, hi uint64, inside bool)) {
	if e.Lo < mv.Lo {
		emit(e.Lo, mv.Lo-1, false)
	}
	emit(max(e.Lo, mv.Lo), min(e.Hi, mv.Hi), true)
	if e.Hi > mv.Hi {
		emit(mv.Hi+1, e.Hi, false)
	}
}

// withMoving returns a copy of m with the moving overlay installed and
// the version bumped — the map cut that starts a rebalance.
func (m *ShardMap) withMoving(lo, hi uint64, src, dst int) *ShardMap {
	return &ShardMap{
		Version: m.Version + 1,
		Entries: m.Entries, // entries are immutable; sharing is safe
		Moving:  Moving{Lo: lo, Hi: hi, Src: src, Dst: dst, Active: true},
	}
}

// draining returns a copy of m with its active moving overlay flipped
// to draining and the version bumped — the abort cut: inserts route
// back to the source (the range's owner per the entry table), reads
// keep fanning over both shards until the destination's range tuples
// are reconciled back. Versions only ever move forward: an abort never
// republishes an old generation, so in-flight routing revalidation can
// never mistake it for the map it raced against.
func (m *ShardMap) draining() *ShardMap {
	mv := m.Moving
	mv.Draining = true
	return &ShardMap{Version: m.Version + 1, Entries: m.Entries, Moving: mv}
}

// withoutMoving returns a copy of m with the overlay cleared and the
// version bumped — the end of an aborted move's reconciliation.
func (m *ShardMap) withoutMoving() *ShardMap {
	return &ShardMap{Version: m.Version + 1, Entries: m.Entries}
}

// finalized returns a copy of m with the active move applied to the
// entry table — the moving range carved out of its source entry and
// owned by the destination — and the overlay cleared. Adjacent
// same-shard entries are coalesced.
func (m *ShardMap) finalized() *ShardMap {
	mv := m.Moving
	var entries []MapEntry
	for _, e := range m.Entries {
		if !mv.overlaps(e) {
			entries = append(entries, e)
			continue
		}
		mv.carve(e, func(lo, hi uint64, inside bool) {
			piece := MapEntry{Lo: lo, Hi: hi, Shard: e.Shard}
			if inside {
				piece.Shard = mv.Dst
			}
			entries = append(entries, piece)
		})
	}
	coalesced := entries[:1]
	for _, e := range entries[1:] {
		last := &coalesced[len(coalesced)-1]
		if e.Shard == last.Shard {
			last.Hi = e.Hi
			continue
		}
		coalesced = append(coalesced, e)
	}
	return &ShardMap{Version: m.Version + 1, Entries: coalesced}
}
