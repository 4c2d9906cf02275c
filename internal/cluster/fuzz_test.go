package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// FuzzDecodeEpoch fuzzes the one epoch codec (serve.DecodeEpoch) — every
// byte the stack reads from a log file, and every epoch frame it reads
// from a replication stream, goes through it. The seeds are what a real
// ShardLog writes (plain epochs, a fence epoch, a marked follower
// epoch), whole and per epoch, plus truncations and bit flips of them;
// testdata/fuzz/FuzzDecodeEpoch holds the checked-in corpus.
//
// Invariants: it never panics; it returns a decoded epoch, or "need
// more bytes" (nil, 0, nil), or ErrLogCorrupt — nothing else; a decoded
// epoch consumed at least as many bytes as the tuples it materialised
// (no amplification past the record bodies actually present); every
// strict prefix of a decoded epoch is a torn tail, never corruption and
// never a shorter epoch; and re-encoding it decodes back to itself.
func FuzzDecodeEpoch(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.log")
	l, _, err := OpenShardLog(path, 2)
	if err != nil {
		f.Fatal(err)
	}
	steps := []error{
		l.LogEpoch([][]tuple.Tuple{mkTuples(0, 3), mkTuples(100, 1)}),
		l.AppendFence(10, 20, 7),
		l.LogReplicatedEpoch([][]tuple.Tuple{mkTuples(5, 2)}, []Fence{{Lo: 0, Hi: 4, Dst: 1}}, 9),
		l.LogReplicatedEpoch(nil, nil, 12),
	}
	for _, err := range steps {
		if err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for off, seq := 0, uint64(1); off < len(data); seq++ {
		ep, n, err := serve.DecodeEpoch(data[off:], int64(off), seq, 2)
		if err != nil || ep == nil {
			f.Fatalf("seed log does not decode at %d: ep=%v err=%v", off, ep, err)
		}
		one := data[off : off+n]
		f.Add(one, seq, uint8(2))
		f.Add(one, uint64(0), uint8(2)) // the stream side: adopt the sender's seq
		f.Add(one, seq, uint8(3))       // wrong arity
		f.Add(one[:n-1], seq, uint8(2))
		f.Add(one[:n/2], seq, uint8(2))
		for _, bit := range []int{0, 4 * 8, 5 * 8, 13*8 + 1, (n - 1) * 8} {
			flipped := append([]byte(nil), one...)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped, seq, uint8(2))
		}
		off += n
	}
	f.Add(data, uint64(1), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, wantSeq uint64, a uint8) {
		arity := 1 + int(a%4)
		ep, n, err := serve.DecodeEpoch(data, 0, wantSeq, arity)
		if err != nil {
			if !errors.Is(err, ErrLogCorrupt) || ep != nil || n != 0 {
				t.Fatalf("error path returned ep=%v n=%d err=%v, want (nil, 0, ErrLogCorrupt)", ep, n, err)
			}
			return
		}
		if ep == nil {
			if n != 0 {
				t.Fatalf("need-more-bytes consumed %d bytes", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded epoch consumed %d of %d bytes", n, len(data))
		}
		if wantSeq != 0 && ep.Seq != wantSeq {
			t.Fatalf("decoded epoch %d, asked for %d", ep.Seq, wantSeq)
		}
		words := 0
		for _, b := range ep.Batches {
			for _, tp := range b {
				if len(tp) != arity {
					t.Fatalf("arity-%d tuple from an arity-%d decode", len(tp), arity)
				}
			}
			words += len(b) * arity
		}
		if words*8 > n {
			t.Fatalf("materialised %d tuple bytes from %d input bytes", words*8, n)
		}
		for _, cut := range []int{n - 1, n / 2} {
			if p, pn, perr := serve.DecodeEpoch(data[:cut], 0, wantSeq, arity); p != nil || pn != 0 || perr != nil {
				t.Fatalf("prefix %d/%d of a valid epoch decoded as ep=%v n=%d err=%v, want a torn tail", cut, n, p, pn, perr)
			}
		}
		again, _ := serve.AppendEpoch(nil, ep)
		back, bn, err := serve.DecodeEpoch(again, 0, ep.Seq, arity)
		if err != nil || back == nil || bn != len(again) {
			t.Fatalf("re-encoded epoch decodes as ep=%v n=%d/%d err=%v", back, bn, len(again), err)
		}
		if back.Seq != ep.Seq || back.Mark != ep.Mark || len(back.Fences) != len(ep.Fences) {
			t.Fatalf("round trip changed the epoch: %+v -> %+v", ep, back)
		}
		var flat, flatBack []tuple.Tuple
		for _, b := range ep.Batches {
			flat = append(flat, b...)
		}
		for _, b := range back.Batches {
			flatBack = append(flatBack, b...)
		}
		sameTuples(t, flatBack, flat)
	})
}
