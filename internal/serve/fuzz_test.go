package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"specbtree/internal/tuple"
)

// FuzzReadFrame fuzzes the single-version frame parser — every byte the
// stack reads from a socket passes through readFrame first. Seeds are
// real frames of every kind plus truncated and corrupted headers;
// testdata/fuzz/FuzzReadFrame holds the checked-in corpus.
//
// Invariants: it never panics; a rejected frame is a protocol error or
// the reader's own EOF; an accepted frame has a known kind, a payload
// within MaxPayload, and re-encodes to exactly the bytes consumed.
func FuzzReadFrame(f *testing.F) {
	frame := func(kind byte, id uint64, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, id, 7, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	hello := frame(kindHello, 0, []byte{0, 2})
	f.Add(hello)
	f.Add(frame(kindRequest, 1, []byte{0, 1, opLen}))
	f.Add(frame(kindResponse, 1, encodeErr("boom")))
	f.Add(frame(kindSubscribe, 1, make([]byte, 8)))
	f.Add(frame(kindHeartbeat, 1, make([]byte, 8)))
	f.Add(hello[:headerSize-1])
	f.Add(append(append([]byte(nil), hello...), 0xff))
	for _, i := range []int{0, 2, 3, 12, 15} {
		bad := append([]byte(nil), hello...)
		bad[i] ^= 0x40
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		kind, id, trace, payload, err := readFrame(rd)
		if err != nil {
			if !errors.Is(err, errProtocol) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("readFrame failed with %v, want a protocol error or EOF", err)
			}
			return
		}
		if kind < kindHello || kind > kindHeartbeat {
			t.Fatalf("accepted unknown frame kind %d", kind)
		}
		if len(payload) > MaxPayload {
			t.Fatalf("accepted a %d-byte payload", len(payload))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, id, trace, payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if consumed := len(data) - rd.Len(); !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("re-encoded frame differs from the %d bytes consumed", consumed)
		}
	})
}

// FuzzDecodeRequest fuzzes the request-payload decoder behind
// readFrame: opcodes, scan flags, tuple and batch bounds. Seeds are the
// payloads the client actually sends; testdata/fuzz/FuzzDecodeRequest
// holds the checked-in corpus.
//
// Invariants: it never panics; every rejection is a protocol error; an
// accepted request is homogeneous (reads or one insert, never both), its
// insert batch respects the server's cap, and every tuple it carries has
// the served arity.
func FuzzDecodeRequest(f *testing.F) {
	const maxBatch = 64
	reads := &wbuf{}
	reads.u16(5)
	reads.u8(opStamp)
	reads.u8(opContains)
	reads.tuple(tuple.Tuple{1, 2})
	reads.u8(opUpper)
	reads.tuple(tuple.Tuple{3, 4})
	reads.u8(opScan)
	reads.u8(scanLoPresent | scanHiPresent | scanLoStrict)
	reads.tuple(tuple.Tuple{5, 6})
	reads.tuple(tuple.Tuple{7, 8})
	reads.u32(9)
	reads.u8(opLen)
	insert := &wbuf{}
	insert.u16(1)
	insert.u8(opInsert)
	insert.tuples([]tuple.Tuple{{1, 2}, {3, 4}})
	f.Add(reads.b, uint8(2))
	f.Add(insert.b, uint8(2))
	f.Add(insert.b, uint8(1))
	f.Add(reads.b[:len(reads.b)-3], uint8(2))
	f.Add(append(append([]byte(nil), insert.b...), 0), uint8(2))
	f.Add([]byte{0xff, 0xff, opInsert, 0xff, 0xff, 0xff, 0xff}, uint8(2))

	f.Fuzz(func(t *testing.T, payload []byte, a uint8) {
		arity := 1 + int(a%4)
		req, err := decodeRequest(1, payload, arity, maxBatch)
		if err != nil {
			if !errors.Is(err, errProtocol) {
				t.Fatalf("decodeRequest failed with %v, want a protocol error", err)
			}
			return
		}
		if req.reads != nil && req.insert != nil {
			t.Fatalf("accepted a frame mixing %d reads with an insert", len(req.reads))
		}
		if len(req.insert) > maxBatch {
			t.Fatalf("accepted a %d-tuple batch over the cap %d", len(req.insert), maxBatch)
		}
		check := func(tp tuple.Tuple) {
			if tp != nil && len(tp) != arity {
				t.Fatalf("accepted an arity-%d tuple for an arity-%d relation", len(tp), arity)
			}
		}
		for _, tp := range req.insert {
			check(tp)
		}
		for _, op := range req.reads {
			check(op.arg)
			check(op.lo)
			check(op.hi)
		}
	})
}
