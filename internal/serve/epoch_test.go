package serve

import (
	"errors"
	"reflect"
	"testing"

	"specbtree/internal/tuple"
)

// TestEpochCodecRoundTrip pins the one epoch codec from both of its
// readers' points of view: the log side asks for a specific sequence
// number, the stream side (wantSeq 0) adopts the sender's.
func TestEpochCodecRoundTrip(t *testing.T) {
	ep := &Epoch{
		Seq:     7,
		Batches: [][]tuple.Tuple{{{1, 2}, {3, 4}}, {}, {{5, 6}}},
		Fences:  []Fence{{Lo: 10, Hi: 20, Dst: 3}},
		Mark:    41,
	}
	data, records := AppendEpoch([]byte("prefix"), ep)
	if string(data[:6]) != "prefix" {
		t.Fatalf("AppendEpoch clobbered the buffer it extends")
	}
	data = data[6:]
	if records != 5 { // two non-empty batches, one fence, the mark, the commit
		t.Fatalf("AppendEpoch wrote %d records, want 5", records)
	}
	want := &Epoch{Seq: 7, Batches: [][]tuple.Tuple{{{1, 2}, {3, 4}}, {{5, 6}}}, Fences: ep.Fences, Mark: 41}
	for _, wantSeq := range []uint64{7, 0} {
		got, n, err := DecodeEpoch(append(append([]byte(nil), data...), 0xee), 0, wantSeq, 2)
		if err != nil || n != len(data) {
			t.Fatalf("DecodeEpoch(wantSeq=%d) consumed %d of %d bytes, err=%v", wantSeq, n, len(data), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeEpoch(wantSeq=%d) = %+v, want %+v", wantSeq, got, want)
		}
	}
	if got, n, err := DecodeEpoch(data[:len(data)-1], 0, 7, 2); got != nil || n != 0 || err != nil {
		t.Fatalf("torn epoch decoded as ep=%v n=%d err=%v, want need-more-bytes", got, n, err)
	}
	for name, tc := range map[string]struct {
		mutate  func(b []byte)
		wantSeq uint64
		arity   int
	}{
		"wrong sequence": {func([]byte) {}, 8, 2},
		"wrong arity":    {func([]byte) {}, 7, 3},
		"flipped bit":    {func(b []byte) { b[len(b)/2] ^= 1 }, 7, 2},
	} {
		b := append([]byte(nil), data...)
		tc.mutate(b)
		if _, _, err := DecodeEpoch(b, 0, tc.wantSeq, tc.arity); !errors.Is(err, ErrLogCorrupt) {
			t.Errorf("%s: err = %v, want ErrLogCorrupt", name, err)
		}
	}
}
