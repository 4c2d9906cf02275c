package serve

import (
	"errors"
	"net"
	"testing"
	"time"

	"specbtree/internal/tuple"
)

func netDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// fakeServer accepts connections and hands each, with its 0-based
// accept index, to handle. It lets the client tests script connection
// resets precisely.
type fakeServer struct {
	lis net.Listener
}

func startFake(t *testing.T, handle func(i int, nc net.Conn)) *fakeServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for i := 0; ; i++ {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go handle(i, nc)
		}
	}()
	return &fakeServer{lis: lis}
}

func (f *fakeServer) addr() string { return f.lis.Addr().String() }

// fakeHello answers the handshake with arity 2.
func fakeHello(t *testing.T, nc net.Conn) bool {
	t.Helper()
	kind, id, _, _, err := readFrame(nc)
	if err != nil || kind != kindHello {
		return false
	}
	w := &wbuf{}
	w.u8(statusOK)
	w.u16(2)
	return writeFrame(nc, kindHello, id, 0, w.b) == nil
}

// TestClientRetriesIdempotentReadOnce scripts a reset: the first
// connection dies after reading the request, the second answers it. The
// read succeeds transparently over one reconnect.
func TestClientRetriesIdempotentReadOnce(t *testing.T) {
	fake := startFake(t, func(i int, nc net.Conn) {
		defer nc.Close()
		if !fakeHello(t, nc) {
			return
		}
		_, id, _, _, err := readFrame(nc)
		if err != nil {
			return
		}
		if i == 0 {
			return // reset before answering
		}
		w := &wbuf{}
		w.u8(statusOK)
		w.bool(true)
		writeFrame(nc, kindResponse, id, 0, w.b)
		readFrame(nc) // hold the conn open until the client closes
	})
	c, err := Dial(fake.addr(), ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	got, err := c.Contains(tuple.Tuple{1, 2})
	if err != nil || !got {
		t.Fatalf("Contains over reset = %v, %v; want true, nil", got, err)
	}
	if c.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", c.Reconnects())
	}
}

// TestClientReadGivesUpAfterSecondReset: both connections reset, so the
// single retry is spent and the error surfaces.
func TestClientReadGivesUpAfterSecondReset(t *testing.T) {
	fake := startFake(t, func(i int, nc net.Conn) {
		defer nc.Close()
		if !fakeHello(t, nc) {
			return
		}
		readFrame(nc) // swallow the request, then reset
	})
	c, err := Dial(fake.addr(), ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Contains(tuple.Tuple{1, 2}); err == nil {
		t.Fatal("Contains succeeded over two resets")
	}
	if c.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1 (exactly one retry)", c.Reconnects())
	}
}

// TestClientNeverRetriesInsert: an insert whose connection resets
// surfaces the error without any transparent retry — its fate is the
// caller's decision.
func TestClientNeverRetriesInsert(t *testing.T) {
	requests := make(chan struct{}, 8)
	fake := startFake(t, func(i int, nc net.Conn) {
		defer nc.Close()
		if !fakeHello(t, nc) {
			return
		}
		if _, _, _, _, err := readFrame(nc); err == nil {
			requests <- struct{}{}
		}
	})
	c, err := Dial(fake.addr(), ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Insert([]tuple.Tuple{{1, 2}}); err == nil {
		t.Fatal("Insert succeeded over a reset")
	}
	if c.Reconnects() != 0 {
		t.Fatalf("reconnects = %d, want 0 (insert must not retry)", c.Reconnects())
	}
	if len(requests) != 1 {
		t.Fatalf("server saw %d insert requests, want exactly 1", len(requests))
	}
}

// TestClientTimeout: a server that never answers trips the per-request
// timeout, and the stale response id is discarded on arrival.
func TestClientTimeout(t *testing.T) {
	release := make(chan struct{})
	fake := startFake(t, func(i int, nc net.Conn) {
		defer nc.Close()
		if !fakeHello(t, nc) {
			return
		}
		_, id, _, _, err := readFrame(nc)
		if err != nil {
			return
		}
		<-release // answer only after the client timed out
		w := &wbuf{}
		w.u8(statusOK)
		w.bool(true)
		writeFrame(nc, kindResponse, id, 0, w.b)
		readFrame(nc)
	})
	c, err := Dial(fake.addr(), ClientOptions{Timeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Contains(tuple.Tuple{1, 2}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Contains = %v, want ErrTimeout", err)
	}
	close(release)
	// The late response must not poison the next call on the same
	// connection: it is dropped by id lookup, and the next request gets a
	// fresh id.
	time.Sleep(20 * time.Millisecond)
}

// TestClientReconnectsAfterServerRestart: the client re-establishes its
// connection on the next call after the server came back.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	s := startServer(t, Options{Arity: 2})
	c := dialClient(t, s, ClientOptions{Timeout: 2 * time.Second})
	if _, err := c.Insert([]tuple.Tuple{{1, 2}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Restart on the same port. The old conn is dead; the idempotent read
	// redials transparently.
	s2, err := Start(addr, Options{Arity: 2})
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer s2.Close()
	got, err := c.Contains(tuple.Tuple{1, 2})
	if err != nil {
		t.Fatalf("Contains after restart: %v", err)
	}
	if got {
		t.Fatal("fresh server claims to contain the old tuple")
	}
	if c.Reconnects() == 0 {
		t.Fatal("no reconnect recorded")
	}
}

func TestClientClosedErrors(t *testing.T) {
	s := startServer(t, Options{Arity: 2})
	c := dialClient(t, s, ClientOptions{})
	c.Close()
	if _, err := c.Contains(tuple.Tuple{1, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Contains after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Insert([]tuple.Tuple{{1, 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
}

// scanResponder answers the handshake and then every request frame with
// the same scripted scan response body.
func scanResponder(t *testing.T, body func(w *wbuf)) *fakeServer {
	t.Helper()
	return startFake(t, func(i int, nc net.Conn) {
		defer nc.Close()
		if !fakeHello(t, nc) {
			return
		}
		for {
			_, id, _, _, err := readFrame(nc)
			if err != nil {
				return
			}
			w := &wbuf{}
			body(w)
			if writeFrame(nc, kindResponse, id, 0, w.b) != nil {
				return
			}
		}
	})
}

// TestClientScanAllEmptyTruncatedPage: a malicious or buggy server
// claiming "truncated" on a page with zero tuples gives ScanAll nothing
// to resume after. The pre-fix client indexed page[len(page)-1] and
// panicked; it must surface a protocol error instead (and must not spin
// re-issuing the same scan forever).
func TestClientScanAllEmptyTruncatedPage(t *testing.T) {
	fake := scanResponder(t, func(w *wbuf) {
		w.u8(statusOK)
		w.u32(0)     // zero tuples...
		w.bool(true) // ...yet truncated
	})
	c, err := Dial(fake.addr(), ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	err = c.ScanAll(nil, nil, func(tuple.Tuple) bool { return true })
	if !errors.Is(err, errProtocol) {
		t.Fatalf("ScanAll on empty truncated page = %v, want errProtocol", err)
	}
}

// TestClientScanHostileCount: a scan response claiming 2^29 tuples in a
// near-empty payload must be rejected by the bounds check. The pre-fix
// product form (off + 8*arity*count) wraps negative on 32-bit ints for
// this count (8*2*2^29 = 2^33), slipping past the check and sending the
// decode loop chasing half a billion phantom tuples; the division form
// rejects it on every platform.
func TestClientScanHostileCount(t *testing.T) {
	fake := scanResponder(t, func(w *wbuf) {
		w.u8(statusOK)
		w.u32(1 << 29)
		w.bool(false)
	})
	c, err := Dial(fake.addr(), ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, _, err := c.Scan(nil, nil, 0); !errors.Is(err, errProtocol) {
		t.Fatalf("Scan with hostile count = %v, want errProtocol", err)
	}
}

// TestClientScanNegativeLimit: limit travels as u32, so -1 would reach
// the server as 4294967295. The client must refuse it locally — the
// server never sees a request.
func TestClientScanNegativeLimit(t *testing.T) {
	requests := make(chan struct{}, 8)
	fake := startFake(t, func(i int, nc net.Conn) {
		defer nc.Close()
		if !fakeHello(t, nc) {
			return
		}
		if _, _, _, _, err := readFrame(nc); err == nil {
			requests <- struct{}{}
		}
	})
	c, err := Dial(fake.addr(), ClientOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, _, err := c.Scan(nil, nil, -1); err == nil {
		t.Fatal("Scan(limit=-1) succeeded, want local rejection")
	}
	if len(requests) != 0 {
		t.Fatalf("server saw %d requests for a rejected scan, want 0", len(requests))
	}
}

// TestClientRejectsZeroArityHello: a hello advertising arity 0 must fail
// the dial. The pre-fix client accepted it, poisoning every later scan
// bounds computation (division by 8*arity) and tuple decode.
func TestClientRejectsZeroArityHello(t *testing.T) {
	fake := startFake(t, func(i int, nc net.Conn) {
		defer nc.Close()
		kind, id, _, _, err := readFrame(nc)
		if err != nil || kind != kindHello {
			return
		}
		w := &wbuf{}
		w.u8(statusOK)
		w.u16(0)
		writeFrame(nc, kindHello, id, 0, w.b)
		readFrame(nc)
	})
	if _, err := Dial(fake.addr(), ClientOptions{Timeout: 2 * time.Second}); !errors.Is(err, errProtocol) {
		t.Fatalf("Dial against arity-0 hello = %v, want errProtocol", err)
	}
}
