// Package serve exposes one relation — a concurrent specialised B-tree
// (package core) — over TCP, while preserving the paper's central engine
// assumption under open-world traffic: a relation is either read by many
// threads or written by many threads, never both (phase concurrency,
// paper §2). Independent network clients do not arrive in phases, so the
// server manufactures them: a phase scheduler (sched.go) classifies every
// request as read (contains, lower/upper bound, scan, len) or write
// (insert batch), queues writes into a bounded admission queue, and
// executes them in *write epochs* — the scheduler closes the read gate,
// waits for in-flight reads to drain, applies every queued batch with no
// reader active, and reopens the gate. Reads between epochs run fully
// concurrently on the optimistic read path, exactly as inside the
// evaluation engine. Epoch-batched admission is the serving-layer
// analogue of flat-combining batched updates (see PAPERS.md on
// elimination (a,b)-trees); the read path stays optimistic as in
// FB+-tree.
//
// Backpressure is explicit and bounded everywhere: a full write queue
// answers RETRY (the client backs off and resends), a slow client whose
// bounded outbound queue overflows is disconnected, and shutdown drains
// admitted work before closing connections.
//
// This file defines the wire protocol. It is a length-prefixed binary
// framing with no dependencies outside the standard library, in exactly
// one version — there has never been a deployed peer speaking another,
// so a frame whose version byte is not ProtocolVersion is a protocol
// error, not something to negotiate:
//
//	offset  size  field
//	0       2     magic "sb"
//	2       1     protocol version (ProtocolVersion)
//	3       1     frame kind (hello / request / response / replication)
//	4       8     request id, big-endian (echoed by the response)
//	12      4     payload length, big-endian (at most MaxPayload)
//	16      8     trace id, big-endian
//	24      —     payload
//
// The trace ID links the frame to the observability layer's span tracer
// (internal/obs, DESIGN.md §13). Zero means "not traced"; responses echo
// the request's trace ID.
//
// A connection starts with a hello exchange: the client states its tuple
// arity (0 adopts the server's) and, when it expects a particular
// cluster shard, that shard's number; the server answers with the served
// arity and — having verified it — its shard number. After the hello,
// request frames carry a batch of operations and may be pipelined: the
// server may answer frames out of order, and responses are matched to
// requests by id. A request frame is *homogeneous*: either a batch of
// read operations or a single insert batch — never both, so its phase
// classification is unambiguous.
//
// Request payload: uint16 operation count, then operations in order.
// Each operation is an opcode byte followed by its arguments; tuples are
// arity × 8 bytes, big-endian words.
//
//	opContains  tuple
//	opLower     tuple
//	opUpper     tuple
//	opScan      flags byte (bit0 lo present, bit1 hi present, bit2 lo
//	            strict), [lo tuple], [hi tuple], uint32 limit (0 = server
//	            cap; hi is exclusive)
//	opLen       (no arguments)
//	opInsert    uint32 tuple count, tuples (write; must be the frame's
//	            only operation)
//	opStamp     (no arguments) — the server's replication stamp (a
//	            follower's applied-epoch watermark), evaluated under the
//	            same read admission as the frame's other operations
//
// Response payload: status byte, then per-operation results in request
// order (statusOK), nothing (statusRetry — write queue full, resend
// later), or uint16 length + message (statusErr).
//
//	opContains  bool byte
//	opLower     bool byte, [tuple]
//	opUpper     bool byte, [tuple]
//	opScan      uint32 count, tuples, truncated bool byte
//	opLen       uint64
//	opInsert    uint32 fresh (tuples not previously present)
//	opStamp     uint64 applied, uint64 head, healthy bool byte
//
// The replication frame family (subscribe / snapshot page / epoch /
// heartbeat, replica.go) is server-push; its epoch frame carries the
// shard log's own records (epoch.go), so the bytes a follower receives
// are the bytes recovery reads.
//
// Integers are big-endian throughout. Unknown versions, kinds, opcodes,
// oversized payloads and truncated frames are protocol errors; the
// server answers statusErr where it can and closes the connection.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// ProtocolVersion is the wire-protocol version byte every frame carries.
const ProtocolVersion = 3

// MaxPayload bounds a frame payload; larger length prefixes are protocol
// errors, protecting both sides from corrupt or hostile peers.
const MaxPayload = 1 << 24

// headerSize is the fixed frame-header length.
const headerSize = 24

// Frame kinds. The replication kinds are a server-push family: a
// follower sends one kindSubscribe, the server answers it with a
// kindResponse and then pushes snapshot pages, epochs and heartbeats
// carrying the subscribe frame's id (replica.go).
const (
	kindHello    = 1
	kindRequest  = 2
	kindResponse = 3
	// kindSubscribe (client -> server) opens an epoch stream after the
	// given epoch, preceded by a bootstrap snapshot when that is 0:
	// payload = after u64.
	kindSubscribe = 4
	// kindSnapPage (server -> client) carries one bootstrap
	// snapshot page: base u64, last bool u8, count u32, tuples.
	kindSnapPage = 5
	// kindEpoch (server -> client) carries one committed epoch:
	// head u64, then the epoch's log records (AppendEpoch).
	kindEpoch = 6
	// kindHeartbeat (server -> client) refreshes the leader's
	// committed head while the log is idle: head u64.
	kindHeartbeat = 7
)

// Operation codes.
const (
	opContains = 1
	opLower    = 2
	opUpper    = 3
	opScan     = 4
	opLen      = 5
	opInsert   = 6
	opStamp    = 7
)

// Response status codes.
const (
	statusOK    = 0
	statusRetry = 1
	statusErr   = 2
)

// Scan flag bits.
const (
	scanLoPresent = 1 << 0
	scanHiPresent = 1 << 1
	scanLoStrict  = 1 << 2
)

// errProtocol wraps malformed-frame conditions; connections observing it
// are torn down.
var errProtocol = errors.New("serve: protocol error")

// writeFrame writes one frame. The caller serialises writers.
func writeFrame(w io.Writer, kind byte, id uint64, trace obs.TraceID, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d exceeds MaxPayload", errProtocol, len(payload))
	}
	var hdr [headerSize]byte
	hdr[0], hdr[1] = 's', 'b'
	hdr[2] = ProtocolVersion
	hdr[3] = kind
	binary.BigEndian.PutUint64(hdr[4:12], id)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[16:24], uint64(trace))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, bounding the payload at MaxPayload.
func readFrame(r io.Reader) (kind byte, id uint64, trace obs.TraceID, payload []byte, err error) {
	var hdr [headerSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	if hdr[0] != 's' || hdr[1] != 'b' {
		return 0, 0, 0, nil, fmt.Errorf("%w: bad magic %q", errProtocol, hdr[0:2])
	}
	if hdr[2] != ProtocolVersion {
		return 0, 0, 0, nil, fmt.Errorf("%w: version %d, want %d", errProtocol, hdr[2], ProtocolVersion)
	}
	kind = hdr[3]
	if kind < kindHello || kind > kindHeartbeat {
		return 0, 0, 0, nil, fmt.Errorf("%w: unknown frame kind %d", errProtocol, kind)
	}
	id = binary.BigEndian.Uint64(hdr[4:12])
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxPayload {
		return 0, 0, 0, nil, fmt.Errorf("%w: payload %d exceeds MaxPayload", errProtocol, n)
	}
	trace = obs.TraceID(binary.BigEndian.Uint64(hdr[16:24]))
	if n > 0 {
		payload = make([]byte, n)
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	return kind, id, trace, payload, nil
}

// wbuf is an append-only payload encoder.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) tuple(t tuple.Tuple) {
	for _, v := range t {
		w.u64(v)
	}
}

// tuples encodes a uint32 count followed by the tuples (rbuf.tuples
// decodes it).
func (w *wbuf) tuples(ts []tuple.Tuple) {
	w.u32(uint32(len(ts)))
	for _, t := range ts {
		w.tuple(t)
	}
}

// rbuf is a cursor-based payload decoder. The first failed read latches
// err; subsequent reads return zero values, so decode sequences need a
// single error check at the end.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated payload", errProtocol)
	}
}

// take consumes the next n payload bytes; nil (with the truncation
// error latched) when fewer remain. Every fixed-width read bounds-checks
// here.
func (r *rbuf) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *rbuf) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *rbuf) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *rbuf) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *rbuf) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *rbuf) bool() bool { return r.u8() != 0 }

func (r *rbuf) tuple(arity int) tuple.Tuple {
	b := r.take(8 * arity)
	if b == nil {
		return nil
	}
	t := make(tuple.Tuple, arity)
	for i := range t {
		t[i] = binary.BigEndian.Uint64(b[8*i:])
	}
	return t
}

// tuples decodes a uint32 count followed by that many tuples. The count
// is checked against the remaining bytes by division: the product form
// (off + 8*arity*n > len) overflows int on 32-bit platforms for a
// hostile count, wrapping negative and slipping past the check.
func (r *rbuf) tuples(arity int) []tuple.Tuple {
	n := int(r.u32())
	if r.err != nil || arity <= 0 || n < 0 || n > (len(r.b)-r.off)/(8*arity) {
		r.fail()
		return nil
	}
	out := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.tuple(arity))
	}
	return out
}

// done reports decoding success: no latched error and no trailing bytes.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", errProtocol, len(r.b)-r.off)
	}
	return nil
}

// readOp is one decoded read operation of a request frame.
type readOp struct {
	code     byte
	arg      tuple.Tuple // contains/lower/upper probe
	lo, hi   tuple.Tuple // scan range (nil = open end)
	loStrict bool        // scan: skip elements equal to lo
	limit    uint32      // scan: result cap (0 = server cap)
}

// request is one decoded request frame: either read ops or one insert
// batch, never both (see the package comment on homogeneous frames).
type request struct {
	id     uint64
	reads  []readOp
	insert []tuple.Tuple
}

// decodeRequest decodes and classifies a request payload for tuples of
// the given arity, enforcing frame homogeneity and batch bounds.
func decodeRequest(id uint64, payload []byte, arity, maxBatch int) (request, error) {
	req := request{id: id}
	r := &rbuf{b: payload}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		code := r.u8()
		switch code {
		case opContains, opLower, opUpper:
			req.reads = append(req.reads, readOp{code: code, arg: r.tuple(arity)})
		case opScan:
			var op readOp
			op.code = code
			flags := r.u8()
			if flags&scanLoPresent != 0 {
				op.lo = r.tuple(arity)
			}
			if flags&scanHiPresent != 0 {
				op.hi = r.tuple(arity)
			}
			op.loStrict = flags&scanLoStrict != 0
			op.limit = r.u32()
			req.reads = append(req.reads, op)
		case opLen, opStamp:
			req.reads = append(req.reads, readOp{code: code})
		case opInsert:
			if n != 1 {
				return req, fmt.Errorf("%w: insert mixed with other operations", errProtocol)
			}
			cnt := int(r.u32())
			if cnt > maxBatch {
				return req, fmt.Errorf("%w: insert batch %d exceeds server cap %d", errProtocol, cnt, maxBatch)
			}
			req.insert = make([]tuple.Tuple, 0, cnt)
			for j := 0; j < cnt && r.err == nil; j++ {
				req.insert = append(req.insert, r.tuple(arity))
			}
		default:
			return req, fmt.Errorf("%w: unknown opcode %d", errProtocol, code)
		}
	}
	return req, r.done()
}

// encodeErr renders a statusErr response payload.
func encodeErr(msg string) []byte {
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	w := &wbuf{}
	w.u8(statusErr)
	w.u16(uint16(len(msg)))
	w.b = append(w.b, msg...)
	return w.b
}
