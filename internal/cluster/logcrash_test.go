//go:build logcrash

package cluster

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// The kill-point regression tests: each one cuts the log flush at a
// byte-precise point a real SIGKILL could produce, then asserts the
// hardened replay recovers EXACTLY the acknowledged prefix — and that
// the unhardened reference replay (naiveReplay below) does not, so
// each test fails on pre-hardening replay code.
//
// The acked set is what LogEpoch returned nil for; the crashed epoch's
// LogEpoch returned ErrCrashed, so its tuples were never acknowledged
// and must not reappear.

// naiveReplay is the unhardened replay these tests regress against: no
// checksum verification, no commit-marker gating (insert records apply
// immediately), no epoch-sequence check, and torn trailing records are
// decoded tuple-by-tuple as far as the bytes reach instead of being
// truncated. Every kill point makes it disagree with the hardened
// replay in log.go.
func naiveReplay(data []byte, arity int) []tuple.Tuple {
	var out []tuple.Tuple
	off := 0
	for off < len(data) {
		if len(data)-off < 4 {
			break
		}
		bodyLen := int(binary.BigEndian.Uint32(data[off:]))
		end := off + 4 + bodyLen
		if end > len(data) {
			end = len(data)
		}
		body := data[off+4 : end]
		if len(body) >= 9 {
			kind, payload := body[0], body[9:]
			switch kind {
			case recInsert:
				if len(payload) >= 4 {
					count := int(binary.BigEndian.Uint32(payload))
					payload = payload[4:]
					if avail := len(payload) / (arity * 8); avail < count {
						count = avail // decode the torn record's partial tuples
					}
					for i := 0; i < count; i++ {
						tt := make(tuple.Tuple, arity)
						for j := 0; j < arity; j++ {
							tt[j] = binary.BigEndian.Uint64(payload[(i*arity+j)*8:])
						}
						out = append(out, tt)
					}
				}
			case recFence:
				if len(payload) >= 16 {
					lo, hi := binary.BigEndian.Uint64(payload), binary.BigEndian.Uint64(payload[8:])
					kept := out[:0]
					for _, tt := range out {
						if tt[0] >= lo && tt[0] <= hi {
							continue
						}
						kept = append(kept, tt)
					}
					out = kept
				}
			}
		}
		off = end + 4
	}
	return out
}

// crashScenario drives a log through two acked epochs, then a third
// whose flush is cut after `cut` bytes (cut < 0 means cut = total-cut
// from the end). It returns the acked tuples, the crashed epoch's
// tuples, and the log path.
func crashScenario(t *testing.T, cutAt func(n int) int) (acked, lost []tuple.Tuple, path string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "shard.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		b := mkTuples(uint64(e*100), 6)
		if err := l.LogEpoch([][]tuple.Tuple{b}); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, b...)
	}
	lost = mkTuples(500, 6)
	SetCrashInjector(func(site CrashSite, n int) (int, bool) {
		if site != CrashSiteEpoch {
			return 0, false
		}
		return cutAt(n), true
	})
	defer ClearCrashInjector()
	if err := l.LogEpoch([][]tuple.Tuple{lost}); err == nil {
		t.Fatal("cut flush did not fail the epoch")
	} else if !errors.Is(err, ErrCrashed) {
		t.Fatalf("cut flush failed with %v, want ErrCrashed", err)
	}
	// The crashed writer refuses further work until reopened.
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(900, 1)}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append returned %v, want ErrCrashed", err)
	}
	l.Close()
	return acked, lost, path
}

// checkKillPoint reopens the cut log and asserts hardened replay =
// acked prefix exactly, while naive replay diverges.
func checkKillPoint(t *testing.T, acked []tuple.Tuple, path string, wantTorn bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	l, rec, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatalf("hardened replay failed: %v", err)
	}
	defer l.Close()
	sameTuples(t, rec.Tuples, acked)
	if rec.Epochs != 2 {
		t.Fatalf("recovered %d epochs, want 2", rec.Epochs)
	}
	if rec.TornTail != wantTorn {
		t.Fatalf("TornTail = %v, want %v", rec.TornTail, wantTorn)
	}
	// The recovered log accepts new epochs on the truncated prefix.
	if err := l.LogEpoch([][]tuple.Tuple{mkTuples(700, 2)}); err != nil {
		t.Fatal(err)
	}

	naive := canon(naiveReplay(data, 2))
	want := canon(acked)
	diverges := len(naive) != len(want)
	for i := 0; !diverges && i < len(naive); i++ {
		diverges = !tuple.Equal(naive[i], want[i])
	}
	if !diverges {
		t.Fatal("naive replay recovered the exact acked prefix — kill point does not regress unhardened replay")
	}
}

// TestKillMidRecord cuts the flush inside the insert record's tuple
// payload: some whole tuples of the crashed epoch are on disk.
// Hardened replay truncates them (no commit marker); naive replay
// resurrects never-acked tuples.
func TestKillMidRecord(t *testing.T) {
	acked, _, path := crashScenario(t, func(n int) int {
		return 4 + 9 + 4 + 3*2*8 // len + head + count + three whole tuples
	})
	checkKillPoint(t, acked, path, true)
}

// TestKillTornTuple cuts the flush mid-tuple — not even a whole row of
// the crashed record is decodable past the cut.
func TestKillTornTuple(t *testing.T) {
	acked, _, path := crashScenario(t, func(n int) int {
		return 4 + 9 + 4 + 2*2*8 + 5 // two whole tuples, then 5 bytes of the third
	})
	checkKillPoint(t, acked, path, true)
}

// TestKillMissingCommitMarker cuts the flush exactly after the
// complete, checksummed insert record and before the commit marker:
// the subtlest point, because every byte on disk verifies. Hardened
// replay still drops the epoch — no commit marker, never acked; naive
// replay applies it.
func TestKillMissingCommitMarker(t *testing.T) {
	insertLen := 4 + (9 + 4 + 6*2*8) + 4
	acked, _, path := crashScenario(t, func(n int) int {
		return insertLen
	})
	checkKillPoint(t, acked, path, true)
}

// TestKillTornLengthPrefix cuts inside the commit marker's 4-byte
// length field, leaving a complete insert record plus a 2-byte stub.
func TestKillTornLengthPrefix(t *testing.T) {
	insertLen := 4 + (9 + 4 + 6*2*8) + 4
	acked, _, path := crashScenario(t, func(n int) int {
		return insertLen + 2
	})
	checkKillPoint(t, acked, path, true)
}

// TestKillFenceFlush cuts AppendFence after the fence record but
// before its commit marker. The move was not acknowledged, so hardened
// replay keeps the range on this shard; naive replay applies the
// uncommitted fence and loses the range's tuples.
func TestKillFenceFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	acked := []tuple.Tuple{{10, 1}, {20, 2}, {30, 3}}
	if err := l.LogEpoch([][]tuple.Tuple{acked}); err != nil {
		t.Fatal(err)
	}
	fenceLen := 4 + (9 + 20) + 4
	SetCrashInjector(func(site CrashSite, n int) (int, bool) {
		if site != CrashSiteFence {
			return 0, false
		}
		return fenceLen, true
	})
	defer ClearCrashInjector()
	if err := l.AppendFence(15, 35, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("cut fence flush returned %v, want ErrCrashed", err)
	}
	l.Close()
	ClearCrashInjector()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenShardLog(path, 2)
	if err != nil {
		t.Fatalf("hardened replay failed: %v", err)
	}
	if !rec.TornTail {
		t.Fatal("uncommitted fence not reported as torn tail")
	}
	sameTuples(t, rec.Tuples, acked) // fence not applied: range stays
	naive := naiveReplay(data, 2)
	if len(naive) == len(acked) {
		t.Fatal("naive replay kept the fenced range — kill point does not regress unhardened replay")
	}
}

// TestClusterFenceFailureFinalizesToDestination pins the move
// protocol's fence-failure contract: once the import is durable on the
// destination, a failed source fence must finalize ownership to the
// destination — never restore it to the source. The dangerous variant
// is a fence that reached disk before the failure surfaced: a source
// that later restarts replays it and drops the range, so a map still
// routing reads at the source would silently hide acknowledged writes.
// Both variants (fence fully durable, fence torn) are exercised; in
// both the cluster stays exact through a source crash-cycle.
func TestClusterFenceFailureFinalizesToDestination(t *testing.T) {
	fenceLen := 4 + (9 + 20) + 4
	for _, tc := range []struct {
		name string
		cut  func(n int) int
	}{
		{"fence durable", func(n int) int { return n }},
		{"fence torn", func(n int) int { return fenceLen / 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startTestCluster(t, 2)
			cl, err := c.Client(ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tuples := spread(100)
			if _, err := cl.Insert(tuples); err != nil {
				t.Fatal(err)
			}
			m0 := c.Map().Map()
			e0 := m0.Entries[0]
			mid := e0.Lo + (e0.Hi-e0.Lo)/2

			SetCrashInjector(func(site CrashSite, n int) (int, bool) {
				if site != CrashSiteFence {
					return 0, false
				}
				return tc.cut(n), true
			})
			defer ClearCrashInjector()
			if err := c.MoveRange(e0.Lo, mid, 1, MoveOptions{ChunkSize: 32}); err != nil {
				t.Fatalf("fence-failed move surfaced an error: %v", err)
			}
			ClearCrashInjector()

			fin := c.Map().Map()
			if fin.Moving.Active {
				t.Fatalf("fence-failed move left the overlay active: %+v", fin.Moving)
			}
			if got := fin.Owner(e0.Lo); got != 1 {
				t.Fatalf("Owner(%d) = %d after fence-failed move, want 1 (destination)", e0.Lo, got)
			}
			checkContents(t, cl, tuples)

			// Crash-cycle the source: a durable fence replays (dropping
			// the range's leftovers), a torn one truncates (keeping
			// them) — either way the destination-owning map stays exact.
			if err := c.KillShard(0); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartShard(0); err != nil {
				t.Fatal(err)
			}
			checkContents(t, cl, tuples)
		})
	}
}

// TestNaiveNonTruncationCorruptsAppends demonstrates why recovery MUST
// truncate the torn tail: an unhardened recovery that leaves the torn
// bytes in place and appends the next epoch after them produces a log
// whose torn record now frames into the fresh epoch's bytes — the
// hardened replay correctly refuses it as corrupt, and the acked
// post-recovery epoch is unrecoverable.
func TestNaiveNonTruncationCorruptsAppends(t *testing.T) {
	acked, _, path := crashScenario(t, func(n int) int {
		return n - 7 // all but the tail of the commit marker
	})
	// Unhardened recovery: no truncation, append straight after the
	// torn bytes.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	epoch, _ := serve.AppendEpoch(nil, &Epoch{Seq: 3, Batches: [][]tuple.Tuple{mkTuples(700, 2)}})
	if _, err := f.Write(epoch); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, _, err := OpenShardLog(path, 2); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("append-after-torn-tail recovered with err=%v, want ErrLogCorrupt", err)
	}
	_ = acked
}
