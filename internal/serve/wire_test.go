package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"specbtree/internal/tuple"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, kindRequest, 42, 77, p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		if buf.Len() != headerSize+len(p) {
			t.Fatalf("frame is %d bytes, want %d", buf.Len(), headerSize+len(p))
		}
		kind, id, trace, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if kind != kindRequest || id != 42 || trace != 77 {
			t.Fatalf("kind=%d id=%d trace=%d, want kind=%d id=42 trace=77", kind, id, trace, kindRequest)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload %x, want %x", got, p)
		}
	}
}

func TestFrameRejectsMalformedHeaders(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		writeFrame(&buf, kindHello, 1, 0, []byte{0, 0})
		return buf.Bytes()
	}
	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'x'; return b }},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }},
		{"older version", func(b []byte) []byte { b[2] = ProtocolVersion - 1; return b }},
		{"bad kind", func(b []byte) []byte { b[3] = 77; return b }},
		{"oversized payload", func(b []byte) []byte {
			b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.corrupt(good())
			_, _, _, _, err := readFrame(bytes.NewReader(b))
			if !errors.Is(err, errProtocol) {
				t.Fatalf("err = %v, want errProtocol", err)
			}
		})
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	err := writeFrame(&bytes.Buffer{}, kindRequest, 1, 0, make([]byte, MaxPayload+1))
	if !errors.Is(err, errProtocol) {
		t.Fatalf("err = %v, want errProtocol", err)
	}
}

func TestDecodeRequestReads(t *testing.T) {
	w := &wbuf{}
	w.u16(4)
	w.u8(opContains)
	w.tuple(tuple.Tuple{1, 2})
	w.u8(opLower)
	w.tuple(tuple.Tuple{3, 4})
	w.u8(opScan)
	w.u8(scanLoPresent | scanLoStrict)
	w.tuple(tuple.Tuple{5, 6})
	w.u32(7)
	w.u8(opLen)
	req, err := decodeRequest(9, w.b, 2, 100)
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if req.id != 9 || len(req.reads) != 4 || req.insert != nil {
		t.Fatalf("req = %+v", req)
	}
	scan := req.reads[2]
	if scan.code != opScan || !scan.loStrict || scan.hi != nil || scan.limit != 7 {
		t.Fatalf("scan op = %+v", scan)
	}
	if scan.lo[0] != 5 || scan.lo[1] != 6 {
		t.Fatalf("scan lo = %v", scan.lo)
	}
}

func TestDecodeRequestInsert(t *testing.T) {
	w := &wbuf{}
	w.u16(1)
	w.u8(opInsert)
	w.u32(2)
	w.tuple(tuple.Tuple{1, 2})
	w.tuple(tuple.Tuple{3, 4})
	req, err := decodeRequest(1, w.b, 2, 100)
	if err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if len(req.insert) != 2 || req.reads != nil {
		t.Fatalf("req = %+v", req)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	mixed := &wbuf{}
	mixed.u16(2)
	mixed.u8(opContains)
	mixed.tuple(tuple.Tuple{1, 2})
	mixed.u8(opInsert)
	mixed.u32(1)
	mixed.tuple(tuple.Tuple{3, 4})

	unknown := &wbuf{}
	unknown.u16(1)
	unknown.u8(200)

	oversize := &wbuf{}
	oversize.u16(1)
	oversize.u8(opInsert)
	oversize.u32(101)

	truncated := &wbuf{}
	truncated.u16(1)
	truncated.u8(opContains)
	truncated.u64(7) // half a tuple

	trailing := &wbuf{}
	trailing.u16(1)
	trailing.u8(opLen)
	trailing.u8(0xff)

	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"insert mixed with reads", mixed.b, "mixed"},
		{"unknown opcode", unknown.b, "opcode"},
		{"batch above cap", oversize.b, "cap"},
		{"truncated tuple", truncated.b, "truncated"},
		{"trailing bytes", trailing.b, "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeRequest(1, tc.b, 2, 100)
			if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want errProtocol mentioning %q", err, tc.want)
			}
		})
	}
}

func TestRbufLatchesError(t *testing.T) {
	r := &rbuf{b: []byte{1}}
	r.u64() // fails
	if got := r.u8(); got != 0 {
		t.Fatalf("read after failure = %d, want 0", got)
	}
	if err := r.done(); !errors.Is(err, errProtocol) {
		t.Fatalf("done = %v, want errProtocol", err)
	}
}

func TestEncodeErrTruncatesLongMessages(t *testing.T) {
	b := encodeErr(strings.Repeat("x", 1<<16))
	r := &rbuf{b: b}
	if s := r.u8(); s != statusErr {
		t.Fatalf("status = %d", s)
	}
	n := int(r.u16())
	if n != 1<<15 || len(b) != 3+n {
		t.Fatalf("len = %d, payload = %d", n, len(b))
	}
}
