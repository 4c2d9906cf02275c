package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"specbtree/internal/tuple"
)

func startServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialClient(t *testing.T, s *Server, opts ClientOptions) *Client {
	t.Helper()
	c, err := Dial(s.Addr(), opts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerBasicOps(t *testing.T) {
	s := startServer(t, Options{Arity: 2})
	c := dialClient(t, s, ClientOptions{})
	if c.Arity() != 2 {
		t.Fatalf("negotiated arity = %d, want 2", c.Arity())
	}

	fresh, err := c.Insert([]tuple.Tuple{{1, 10}, {2, 20}, {3, 30}, {1, 10}})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if fresh != 3 {
		t.Fatalf("fresh = %d, want 3", fresh)
	}

	for _, tc := range []struct {
		t    tuple.Tuple
		want bool
	}{{tuple.Tuple{1, 10}, true}, {tuple.Tuple{2, 20}, true}, {tuple.Tuple{9, 9}, false}} {
		got, err := c.Contains(tc.t)
		if err != nil {
			t.Fatalf("Contains(%v): %v", tc.t, err)
		}
		if got != tc.want {
			t.Fatalf("Contains(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}

	lb, ok, err := c.LowerBound(tuple.Tuple{2, 0})
	if err != nil || !ok || lb[0] != 2 || lb[1] != 20 {
		t.Fatalf("LowerBound = %v, %v, %v; want {2 20}", lb, ok, err)
	}
	ub, ok, err := c.UpperBound(tuple.Tuple{2, 20})
	if err != nil || !ok || ub[0] != 3 || ub[1] != 30 {
		t.Fatalf("UpperBound = %v, %v, %v; want {3 30}", ub, ok, err)
	}
	if _, ok, err := c.LowerBound(tuple.Tuple{9, 9}); err != nil || ok {
		t.Fatalf("LowerBound past end = %v, %v; want miss", ok, err)
	}

	n, err := c.Len()
	if err != nil || n != 3 {
		t.Fatalf("Len = %d, %v; want 3", n, err)
	}

	ts, truncated, err := c.Scan(tuple.Tuple{1, 10}, tuple.Tuple{3, 30}, 0)
	if err != nil || truncated {
		t.Fatalf("Scan: truncated=%v err=%v", truncated, err)
	}
	if len(ts) != 2 || ts[0][0] != 1 || ts[1][0] != 2 {
		t.Fatalf("Scan = %v, want [{1 10} {2 20}]", ts)
	}

	ts, truncated, err = c.Scan(nil, nil, 2)
	if err != nil || !truncated || len(ts) != 2 {
		t.Fatalf("limited Scan = %v, truncated=%v, err=%v", ts, truncated, err)
	}
}

func TestClientScanAllPaginates(t *testing.T) {
	s := startServer(t, Options{Arity: 1, MaxScan: 10})
	c := dialClient(t, s, ClientOptions{Arity: 1})
	const n = 35
	var batch []tuple.Tuple
	for i := 0; i < n; i++ {
		batch = append(batch, tuple.Tuple{uint64(i)})
	}
	if _, err := c.Insert(batch); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	var got []uint64
	if err := c.ScanAll(nil, nil, func(t tuple.Tuple) bool {
		got = append(got, t[0])
		return true
	}); err != nil {
		t.Fatalf("ScanAll: %v", err)
	}
	if len(got) != n {
		t.Fatalf("ScanAll yielded %d tuples, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
	// Early stop.
	count := 0
	if err := c.ScanAll(nil, nil, func(tuple.Tuple) bool { count++; return count < 5 }); err != nil {
		t.Fatalf("ScanAll early stop: %v", err)
	}
	if count != 5 {
		t.Fatalf("early stop yielded %d, want 5", count)
	}
}

func TestDialArityMismatch(t *testing.T) {
	s := startServer(t, Options{Arity: 2})
	_, err := Dial(s.Addr(), ClientOptions{Arity: 3})
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("Dial with wrong arity = %v, want arity-mismatch error", err)
	}
}

// TestServerBackpressureRetry deterministically forces a full write
// queue (a held reader blocks the epoch) and checks that the overflowing
// insert surfaces as ErrRetry and succeeds after backoff.
func TestServerBackpressureRetry(t *testing.T) {
	s := startServer(t, Options{Arity: 2, WriteQueue: 1})
	c := dialClient(t, s, ClientOptions{})

	if mode, _, _ := s.sched.beginRead(); mode != readLive {
		t.Fatalf("beginRead mode = %v, want readLive", mode)
	}
	readHeld := true
	defer func() {
		if readHeld {
			s.sched.endRead() // never leave Close() deadlocked on a failure path
		}
	}()
	results := make(chan error, 2)
	insert := func(v uint64) {
		_, err := c.Insert([]tuple.Tuple{{v, v}})
		results <- err
	}
	go insert(1) // picked up by the epoch goroutine, which blocks on the reader
	waitUntil(t, "epoch to start waiting", func() bool { return epochPending(s.sched) })
	go insert(2) // fills the queue (cap 1)
	waitUntil(t, "queue to fill", func() bool { return s.sched.queueDepth() == 1 })

	if _, err := c.Insert([]tuple.Tuple{{3, 3}}); !errors.Is(err, ErrRetry) {
		t.Fatalf("overflowing insert = %v, want ErrRetry", err)
	}

	s.sched.endRead()
	readHeld = false
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued insert %d: %v", i, err)
		}
	}
	if _, err := c.Insert([]tuple.Tuple{{3, 3}}); err != nil {
		t.Fatalf("insert after backoff: %v", err)
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	if st.PhaseViolations != 0 {
		t.Fatalf("phase violations = %d", st.PhaseViolations)
	}
}

// TestServerGracefulShutdownDeliversPendingInserts checks the drain
// contract: an insert admitted before Shutdown gets its response even
// though its epoch runs during the drain.
func TestServerGracefulShutdownDeliversPendingInserts(t *testing.T) {
	s := startServer(t, Options{Arity: 2})
	c := dialClient(t, s, ClientOptions{})

	if mode, _, _ := s.sched.beginRead(); mode != readLive {
		t.Fatalf("beginRead mode = %v, want readLive", mode)
	}
	readHeld := true
	defer func() {
		if readHeld {
			s.sched.endRead()
		}
	}()
	type res struct {
		fresh int
		err   error
	}
	insertDone := make(chan res, 1)
	go func() {
		fresh, err := c.Insert([]tuple.Tuple{{7, 7}, {8, 8}})
		insertDone <- res{fresh, err}
	}()
	waitUntil(t, "epoch to start waiting", func() bool { return epochPending(s.sched) })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Close() }()
	time.Sleep(10 * time.Millisecond) // let Shutdown reach the drain
	s.sched.endRead()
	readHeld = false

	r := <-insertDone
	if r.err != nil || r.fresh != 2 {
		t.Fatalf("pending insert = fresh %d, err %v; want 2, nil", r.fresh, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if s.Tree().Len() != 2 {
		t.Fatalf("tree.Len = %d, want 2", s.Tree().Len())
	}
}

// TestServerDropsSlowClient overflows a tiny outbound queue with large
// pipelined scan responses that the client never reads.
func TestServerDropsSlowClient(t *testing.T) {
	s := startServer(t, Options{Arity: 2, OutboundQueue: 1, WriteTimeout: 200 * time.Millisecond})
	seed := dialClient(t, s, ClientOptions{})
	var batch []tuple.Tuple
	for i := 0; i < 1000; i++ {
		batch = append(batch, tuple.Tuple{uint64(i), uint64(i)})
	}
	if _, err := seed.Insert(batch); err != nil {
		t.Fatalf("seed insert: %v", err)
	}

	// Raw connection: handshake, then blast full-table scans without ever
	// reading a response.
	nc, err := netDial(s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	hello := &wbuf{}
	hello.u16(0)
	if err := writeFrame(nc, kindHello, 0, 0, hello.b); err != nil {
		t.Fatalf("hello: %v", err)
	}
	scan := &wbuf{}
	scan.u16(1)
	scan.u8(opScan)
	scan.u8(0)
	scan.u32(0)
	for i := 0; i < 5000; i++ {
		if err := writeFrame(nc, kindRequest, uint64(i+1), 0, scan.b); err != nil {
			break // server closed the connection
		}
	}
	waitUntil(t, "slow client to be dropped", func() bool { return s.Stats().ConnsDropped >= 1 })
}

// TestServerConcurrentClients runs mixed traffic from 8 pipelined
// clients and asserts the counted phase invariant plus exact contents.
func TestServerConcurrentClients(t *testing.T) {
	s := startServer(t, Options{Arity: 2, WriteQueue: 4})
	const (
		clients   = 8
		perClient = 40
		batchSize = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), ClientOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				var batch []tuple.Tuple
				for j := 0; j < batchSize; j++ {
					v := uint64(ci*perClient*batchSize + i*batchSize + j)
					batch = append(batch, tuple.Tuple{v, v + 1})
				}
				for {
					if _, err := c.Insert(batch); err == nil {
						break
					} else if !errors.Is(err, ErrRetry) {
						errs <- fmt.Errorf("client %d insert: %w", ci, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				if _, err := c.Contains(batch[0]); err != nil {
					errs <- fmt.Errorf("client %d contains: %w", ci, err)
					return
				}
				if _, _, err := c.LowerBound(batch[0]); err != nil {
					errs <- fmt.Errorf("client %d lower: %w", ci, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.PhaseViolations != 0 {
		t.Fatalf("phase violations = %d, want 0", st.PhaseViolations)
	}
	if st.Epochs == 0 {
		t.Fatal("no write epochs recorded")
	}
	want := clients * perClient * batchSize
	if st.WriteOps == 0 || s.Tree().Len() != want {
		t.Fatalf("tree.Len = %d (writeOps %d), want %d", s.Tree().Len(), st.WriteOps, want)
	}
}

// TestServerRejectsMalformedFrame checks that a protocol error earns an
// error response and a closed connection.
func TestServerRejectsMalformedFrame(t *testing.T) {
	s := startServer(t, Options{Arity: 2})
	nc, err := netDial(s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	hello := &wbuf{}
	hello.u16(0)
	if err := writeFrame(nc, kindHello, 0, 0, hello.b); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, _, _, _, err := readFrame(nc); err != nil {
		t.Fatalf("hello response: %v", err)
	}
	bad := &wbuf{}
	bad.u16(1)
	bad.u8(250) // unknown opcode
	if err := writeFrame(nc, kindRequest, 1, 0, bad.b); err != nil {
		t.Fatalf("write: %v", err)
	}
	kind, _, _, payload, err := readFrame(nc)
	if err != nil {
		t.Fatalf("read error response: %v", err)
	}
	r := &rbuf{b: payload}
	if kind != kindResponse || r.u8() != statusErr {
		t.Fatalf("kind=%d payload=%x, want statusErr response", kind, payload)
	}
	// The server closes the connection after a protocol error.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, _, _, err := readFrame(nc); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

// TestServerSnapshotReadsDuringEpoch is the end-to-end gate bypass: a
// held live reader keeps an insert's epoch pending, and a client read
// arriving then is answered immediately from the last-epoch snapshot —
// with pre-epoch contents — instead of waiting out the epoch.
func TestServerSnapshotReadsDuringEpoch(t *testing.T) {
	s := startServer(t, Options{Arity: 2})
	c := dialClient(t, s, ClientOptions{Timeout: 5 * time.Second})

	if _, err := c.Insert([]tuple.Tuple{{1, 1}, {2, 2}}); err != nil {
		t.Fatalf("seed insert: %v", err)
	}
	waitUntil(t, "seed epoch to retire", func() bool { return !epochPending(s.sched) })

	// Hold the gate: the next insert's epoch stays pending.
	if mode, _, _ := s.sched.beginRead(); mode != readLive {
		t.Fatalf("beginRead mode = %v, want readLive", mode)
	}
	readHeld := true
	defer func() {
		if readHeld {
			s.sched.endRead()
		}
	}()
	insDone := make(chan error, 1)
	go func() {
		_, err := c.Insert([]tuple.Tuple{{3, 3}})
		insDone <- err
	}()
	waitUntil(t, "epoch pending", func() bool { return epochPending(s.sched) })

	// Reads served now must come from the pre-epoch snapshot, promptly.
	if got, err := c.Contains(tuple.Tuple{1, 1}); err != nil || !got {
		t.Fatalf("snapshot Contains(1,1) = (%v, %v), want true", got, err)
	}
	if got, err := c.Contains(tuple.Tuple{3, 3}); err != nil || got {
		t.Fatalf("snapshot Contains(3,3) = (%v, %v), want false (in-flight epoch)", got, err)
	}
	if bt, ok, err := c.LowerBound(tuple.Tuple{2, 0}); err != nil || !ok || bt[0] != 2 || bt[1] != 2 {
		t.Fatalf("snapshot LowerBound(2,0) = (%v, %v, %v), want (2,2)", bt, ok, err)
	}
	if n, err := c.Len(); err != nil || n != 2 {
		t.Fatalf("snapshot Len = (%d, %v), want 2", n, err)
	}
	var scanned []tuple.Tuple
	if err := c.ScanAll(nil, nil, func(tp tuple.Tuple) bool {
		scanned = append(scanned, tp.Clone())
		return true
	}); err != nil {
		t.Fatalf("snapshot ScanAll: %v", err)
	}
	if len(scanned) != 2 {
		t.Fatalf("snapshot ScanAll yielded %d tuples, want 2", len(scanned))
	}
	if st := s.Stats(); st.SnapshotReads == 0 {
		t.Fatal("no snapshot reads recorded")
	}

	// Release the gate; read-your-writes: once the insert is ACKed, a
	// read must see it (live or from the refreshed snapshot).
	s.sched.endRead()
	readHeld = false
	if err := <-insDone; err != nil {
		t.Fatalf("insert: %v", err)
	}
	if got, err := c.Contains(tuple.Tuple{3, 3}); err != nil || !got {
		t.Fatalf("post-ACK Contains(3,3) = (%v, %v), want true", got, err)
	}
	if st := s.Stats(); st.PhaseViolations != 0 {
		t.Fatalf("phase violations = %d", st.PhaseViolations)
	}
}

// TestServerDisableSnapshotReads pins the baseline configuration: with
// the bypass off, a read arriving during a pending epoch waits at the
// gate (and no snapshot reads are counted).
func TestServerDisableSnapshotReads(t *testing.T) {
	s := startServer(t, Options{Arity: 2, DisableSnapshotReads: true})
	c := dialClient(t, s, ClientOptions{Timeout: 5 * time.Second})

	if mode, _, _ := s.sched.beginRead(); mode != readLive {
		t.Fatalf("beginRead mode = %v, want readLive", mode)
	}
	readHeld := true
	defer func() {
		if readHeld {
			s.sched.endRead()
		}
	}()
	insDone := make(chan error, 1)
	go func() {
		_, err := c.Insert([]tuple.Tuple{{1, 1}})
		insDone <- err
	}()
	waitUntil(t, "epoch pending", func() bool { return epochPending(s.sched) })

	readDone := make(chan struct{})
	go func() {
		c.Contains(tuple.Tuple{1, 1})
		close(readDone)
	}()
	select {
	case <-readDone:
		t.Fatal("read completed while the epoch was pending with snapshots disabled")
	case <-time.After(30 * time.Millisecond):
	}

	s.sched.endRead()
	readHeld = false
	<-readDone
	if err := <-insDone; err != nil {
		t.Fatalf("insert: %v", err)
	}
	if st := s.Stats(); st.SnapshotReads != 0 {
		t.Fatalf("SnapshotReads = %d with bypass disabled", st.SnapshotReads)
	}
}
