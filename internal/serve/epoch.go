package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"specbtree/internal/tuple"
)

// This file is the one epoch codec. A committed write epoch has exactly
// one byte representation: the shard insert log stores it (cluster
// ShardLog appends what AppendEpoch produces), crash recovery and the
// replication tailer read it back (DecodeEpoch), and the replication
// stream ships the same records as the payload of a kindEpoch frame
// — the log record *is* the replication frame. The paper's insert-only
// contract is what makes one format enough: a relation is exactly every
// acknowledged tuple re-inserted, so durability, replication and
// recovery all consume the same sequence of epochs.
//
// Format (DESIGN.md §15):
//
//	epoch  := record* commit
//	record := bodyLen:u32 body crc:u32     (big-endian, crc32-IEEE of body)
//	body   := kind:u8 seq:u64 payload
//
// Record kinds:
//
//	recInsert (1): payload = count:u32 (count × arity) u64 words —
//	    the tuples of one insert batch, in batch order.
//	recCommit (2): no payload — ends epoch seq; every record of an
//	    epoch carries the same seq, and consecutive epochs of a log are
//	    numbered 1, 2, 3, … with no gaps.
//	recFence  (3): payload = lo:u64 hi:u64 dst:u32 — the leading-column
//	    range [lo, hi] was handed to shard dst at this point; replay
//	    drops earlier committed tuples inside it (the destination
//	    logged them durably before the fence was written).
//	recMark   (4): payload = mark:u64 — the replication watermark: this
//	    epoch applied leader-log epoch `mark`. Written only by follower
//	    logs; replay surfaces the highest committed mark so a restarted
//	    follower resumes its stream after it.
const (
	recInsert = 1
	recCommit = 2
	recFence  = 3
	recMark   = 4

	// maxRecordBody bounds a single record body (64 MiB). A length
	// field above it cannot come from this writer and marks the record
	// complete-but-corrupt rather than torn.
	maxRecordBody = 1 << 26
)

// ErrLogCorrupt is the pinned error for a damaged epoch record: a
// checksum mismatch, an unknown record kind, an out-of-sequence epoch
// number, or an implausible record length. Torn trailing bytes from a
// crash are NOT corruption — DecodeEpoch reports them as "no complete
// epoch yet", and the log truncates them silently, because the
// flush-before-ack protocol guarantees nothing torn was ever
// acknowledged.
var ErrLogCorrupt = errors.New("serve: epoch log corrupt")

// Fence is one rebalance cut: committed tuples with leading column in
// [Lo, Hi] (inclusive) from epochs before it belong to shard Dst.
// Recovery drops the range from the replayed set; a follower receiving
// a fence in its epoch stream retires the range from its tree (the
// destination shard's followers stream it independently).
type Fence struct {
	Lo, Hi uint64
	Dst    uint32
}

// Epoch is one committed write epoch — the unit of durability, of
// replication shipment, and of recovery.
type Epoch struct {
	// Seq is the epoch's sequence number in its log (consecutive from 1).
	Seq uint64
	// Batches holds one tuple slice per insert record, in record order.
	Batches [][]tuple.Tuple
	// Fences holds the epoch's fence records, applied at commit to all
	// tuples committed so far (this epoch's batches included).
	Fences []Fence
	// Mark is the epoch's replication watermark (0 if none): the
	// leader-log epoch a follower applied when it logged this epoch.
	Mark uint64
}

// AppendEpoch appends ep's records — one insert record per non-empty
// batch, its fences, its mark if any, and the commit marker — to buf,
// returning the extended buffer and the number of records written.
func AppendEpoch(buf []byte, ep *Epoch) ([]byte, int) {
	records := 0
	for _, b := range ep.Batches {
		if len(b) == 0 {
			continue
		}
		w := &wbuf{b: make([]byte, 0, 4+len(b)*len(b[0])*8)}
		w.tuples(b)
		buf = appendRecord(buf, recInsert, ep.Seq, w.b)
		records++
	}
	for _, fc := range ep.Fences {
		w := &wbuf{}
		w.u64(fc.Lo)
		w.u64(fc.Hi)
		w.u32(fc.Dst)
		buf = appendRecord(buf, recFence, ep.Seq, w.b)
		records++
	}
	if ep.Mark > 0 {
		w := &wbuf{}
		w.u64(ep.Mark)
		buf = appendRecord(buf, recMark, ep.Seq, w.b)
		records++
	}
	return appendRecord(buf, recCommit, ep.Seq, nil), records + 1
}

// appendRecord frames one record: bodyLen, body (kind + seq + payload),
// crc32 of the body.
func appendRecord(buf []byte, kind byte, seq uint64, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+8+len(payload)))
	bodyStart := len(buf)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[bodyStart:]))
}

// DecodeEpoch decodes one committed epoch of arity-wide tuples from the
// front of data, returning it and the bytes it occupied. It returns
// (nil, 0, nil) when data holds no complete committed epoch yet — an
// incomplete record or a missing commit marker, i.e. a (possibly still
// in-flight) torn tail the caller may retry after more bytes arrive.
// Complete-but-invalid records are ErrLogCorrupt. Every record must
// carry epoch number wantSeq; wantSeq 0 adopts the first record's (the
// stream side, where the sender chooses the position). base is the file
// offset of data[0], used only in error messages. This is the one
// decode path: crash recovery, the replication tailer and the
// follower's stream receiver all call it.
func DecodeEpoch(data []byte, base int64, wantSeq uint64, arity int) (*Epoch, int, error) {
	ep := &Epoch{Seq: wantSeq}
	off := 0
	for {
		if len(data)-off < 4 {
			return nil, 0, nil
		}
		bodyLen := int(binary.BigEndian.Uint32(data[off:]))
		if bodyLen < 9 || bodyLen > maxRecordBody {
			return nil, 0, fmt.Errorf("%w: record at offset %d has implausible length %d", ErrLogCorrupt, base+int64(off), bodyLen)
		}
		if len(data)-off < 4+bodyLen+4 {
			return nil, 0, nil
		}
		body := data[off+4 : off+4+bodyLen]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[off+4+bodyLen:]) {
			return nil, 0, fmt.Errorf("%w: record at offset %d fails its checksum", ErrLogCorrupt, base+int64(off))
		}
		kind, recSeq := body[0], binary.BigEndian.Uint64(body[1:])
		if wantSeq == 0 && off == 0 {
			ep.Seq = recSeq
		}
		if recSeq != ep.Seq {
			// Covers epoch 0 in a log too: the writer numbers epochs from
			// 1, so a log's wantSeq is always >= 1 and a record claiming 0
			// cannot match.
			return nil, 0, fmt.Errorf("%w: record at offset %d carries epoch %d, want %d", ErrLogCorrupt, base+int64(off), recSeq, ep.Seq)
		}
		// The payload words are in the wire codec's encoding; its decoder
		// bounds-checks every read, and done rejects a short or an
		// overlong payload alike.
		r := &rbuf{b: body[9:]}
		switch kind {
		case recInsert:
			ep.Batches = append(ep.Batches, r.tuples(arity))
		case recFence:
			ep.Fences = append(ep.Fences, Fence{Lo: r.u64(), Hi: r.u64(), Dst: r.u32()})
		case recMark:
			ep.Mark = r.u64()
		case recCommit:
		default:
			return nil, 0, fmt.Errorf("%w: record at offset %d has unknown kind %d", ErrLogCorrupt, base+int64(off), kind)
		}
		if err := r.done(); err != nil {
			return nil, 0, fmt.Errorf("%w: kind-%d record at offset %d malformed: %v", ErrLogCorrupt, kind, base+int64(off), err)
		}
		off += 4 + bodyLen + 4
		if kind == recCommit {
			return ep, off, nil
		}
	}
}
