package cluster

import (
	"fmt"
	"io"
	"os"
	"time"

	"specbtree/internal/serve"
)

// LogTailer is the one reader of a shard insert log: a cursor that
// decodes committed epochs in order (serve.DecodeEpoch). Crash recovery
// drives it to the committed end and truncates there (OpenShardLog);
// the leader-side replication streamer and promotion catch-up tail a
// log that may still be growing. The tailer itself never truncates: an
// incomplete tail — a flush the writer has not finished (a single
// write(2) is not atomic for concurrent readers, so a tailer may
// observe a prefix of an in-flight epoch), or a crash artifact at the
// end of a dead leader's log — makes Next report "nothing yet" and the
// tailer retries from the same offset once more bytes arrive.
//
// A tailer holds its own file descriptor and may run concurrently with
// the writing ShardLog. It must NOT outlive a reopen of the same path:
// reopening truncates torn tails, which can rewrite offsets a live
// tailer has already buffered.
type LogTailer struct {
	f     *os.File
	arity int
	off   int64  // file offset of the first undecoded byte
	seq   uint64 // last epoch sequence returned
	buf   []byte // file bytes from offset off-rd on; buf[rd:] is undecoded
	rd    int
	// log, when set, is the live writer of the tailed file: Wait blocks
	// on its flush pulse.
	log *ShardLog
}

// tailChunk is the read granularity of LogTailer.fill. An epoch that
// straddles a chunk boundary is decoded twice (once as "nothing yet"),
// so the chunk is sized well above a typical epoch.
const tailChunk = 1 << 20

// TailShardLog opens a read-only tailer over the log at path and
// fast-forwards it past epoch `after` (0 starts from the beginning), so
// the first Next returns epoch after+1. Fast-forwarding decodes from the
// start of the file — the log has no index — but discards the decoded
// epochs without materialising their tuples beyond one epoch at a time.
func TailShardLog(path string, arity int, after uint64) (*LogTailer, error) {
	if arity < 1 {
		return nil, fmt.Errorf("cluster: arity %d out of range", arity)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t := &LogTailer{f: f, arity: arity}
	for t.seq < after {
		_, ok, err := t.Next()
		if err != nil {
			f.Close()
			return nil, err
		}
		if !ok {
			// The log ends before the requested epoch; position at its
			// committed end and let the caller retry as it grows.
			break
		}
	}
	return t, nil
}

// Next returns the next committed epoch. ok is false when the log holds
// no further complete epoch yet — end of file or a torn/in-flight tail —
// in which case the tailer stays put and the caller retries later (Wait,
// or poll for an unwatched file). Errors are permanent: ErrLogCorrupt
// for a damaged committed prefix, or an I/O error from the underlying
// file.
func (t *LogTailer) Next() (*Epoch, bool, error) {
	for {
		ep, n, err := serve.DecodeEpoch(t.buf[t.rd:], t.off, t.seq+1, t.arity)
		if err != nil {
			return nil, false, err
		}
		if ep != nil {
			t.rd += n
			t.off += int64(n)
			t.seq = ep.Seq
			return ep, true, nil
		}
		got, err := t.fill()
		if err != nil {
			return nil, false, err
		}
		if got == 0 {
			return nil, false, nil
		}
	}
}

// fill reads up to one more chunk of the file into the decode buffer,
// returning how many bytes arrived (0 at end of file). The consumed
// prefix is dropped here, once per read rather than once per epoch, and
// the bytes land directly in the buffer's spare capacity, so the
// buffer's footprint stays bounded by one epoch plus one chunk without
// per-epoch copying or per-read allocation.
func (t *LogTailer) fill() (int, error) {
	if t.rd > 0 {
		t.buf = t.buf[:copy(t.buf, t.buf[t.rd:])]
		t.rd = 0
	}
	if cap(t.buf)-len(t.buf) < tailChunk {
		t.buf = append(make([]byte, 0, 2*cap(t.buf)+tailChunk), t.buf...)
	}
	n, err := t.f.ReadAt(t.buf[len(t.buf):len(t.buf)+tailChunk], t.off+int64(len(t.buf)))
	t.buf = t.buf[:len(t.buf)+n]
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, nil
}

// Wait blocks until the tailed log's writer pulses a flush, stop
// closes, or max elapses (a tailer over an unwatched file just sleeps
// out max). The pulse channel is grabbed after Next already reported
// "nothing yet", so a flush racing the two calls is noticed at worst
// one max later — which is why streamers keep max at their heartbeat
// interval.
func (t *LogTailer) Wait(stop <-chan struct{}, max time.Duration) {
	var pulse <-chan struct{}
	if t.log != nil {
		pulse = t.log.Pulse()
	}
	timer := time.NewTimer(max)
	defer timer.Stop()
	select {
	case <-pulse:
	case <-stop:
	case <-timer.C:
	}
}

// Seq returns the sequence number of the last epoch Next returned.
func (t *LogTailer) Seq() uint64 { return t.seq }

// Close releases the tailer's file descriptor.
func (t *LogTailer) Close() error { return t.f.Close() }
