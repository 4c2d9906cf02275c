package optlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReadValidWithoutWriter(t *testing.T) {
	var l Lock
	lease := l.StartRead()
	if !l.Valid(lease) {
		t.Error("fresh lease invalid")
	}
	if !l.EndRead(lease) {
		t.Error("EndRead failed without concurrent writer")
	}
	if l.Version() != 0 {
		t.Errorf("reads must not modify the version, got %d", l.Version())
	}
}

func TestWriteInvalidatesLease(t *testing.T) {
	var l Lock
	lease := l.StartRead()
	if !l.TryStartWrite() {
		t.Fatal("TryStartWrite failed on unlocked lock")
	}
	if l.Valid(lease) {
		t.Error("lease valid while writer active")
	}
	l.EndWrite()
	if l.Valid(lease) {
		t.Error("lease valid after completed write")
	}
	if l.EndRead(lease) {
		t.Error("EndRead succeeded across a write")
	}
}

func TestAbortWritePreservesLeases(t *testing.T) {
	var l Lock
	lease := l.StartRead()
	if !l.TryStartWrite() {
		t.Fatal("TryStartWrite failed")
	}
	l.AbortWrite()
	if !l.Valid(lease) {
		t.Error("aborted write must not invalidate outstanding leases")
	}
	if l.Version() != 0 {
		t.Errorf("version after abort = %d, want 0", l.Version())
	}
}

func TestUpgrade(t *testing.T) {
	var l Lock
	lease := l.StartRead()
	if !l.TryUpgradeToWrite(lease) {
		t.Fatal("upgrade failed without contention")
	}
	if !l.IsWriteLocked() {
		t.Error("not write-locked after upgrade")
	}
	l.EndWrite()

	// A lease from before a write cannot upgrade.
	stale := Lease{}
	if l.TryUpgradeToWrite(stale) {
		t.Error("stale lease upgraded")
	}
}

func TestUpgradeRaceSingleWinner(t *testing.T) {
	var l Lock
	lease := l.StartRead()
	const n = 16
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l.TryUpgradeToWrite(lease) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Errorf("%d upgrades succeeded from the same lease, want exactly 1", wins.Load())
	}
	l.EndWrite()
}

func TestTryStartWriteExcludesWriters(t *testing.T) {
	var l Lock
	if !l.TryStartWrite() {
		t.Fatal("first TryStartWrite failed")
	}
	if l.TryStartWrite() {
		t.Error("second TryStartWrite succeeded while locked")
	}
	l.EndWrite()
	if !l.TryStartWrite() {
		t.Error("TryStartWrite failed after unlock")
	}
	l.EndWrite()
}

func TestStartWriteBlocksUntilUnlock(t *testing.T) {
	var l Lock
	l.StartWrite()
	acquired := make(chan struct{})
	go func() {
		l.StartWrite()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("StartWrite acquired while another writer holds the lock")
	case <-time.After(20 * time.Millisecond):
	}
	l.EndWrite()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("StartWrite never acquired after unlock")
	}
	l.EndWrite()
}

func TestStartReadSpinsDuringWrite(t *testing.T) {
	var l Lock
	l.StartWrite()
	got := make(chan Lease)
	go func() { got <- l.StartRead() }()
	select {
	case <-got:
		t.Fatal("StartRead returned during a write phase")
	case <-time.After(20 * time.Millisecond):
	}
	l.EndWrite()
	select {
	case lease := <-got:
		if !l.Valid(lease) {
			t.Error("lease obtained after write is invalid")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("StartRead never returned after unlock")
	}
}

// TestSeqlockProtectsData runs the classic seqlock correctness experiment:
// a writer repeatedly updates two words that must stay equal; readers
// that successfully validate must never observe them unequal.
func TestSeqlockProtectsData(t *testing.T) {
	var l Lock
	var a, b atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.StartWrite()
			a.Store(i)
			b.Store(i)
			l.EndWrite()
		}
	}()

	const readers = 4
	var torn atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(100 * time.Millisecond)
			for time.Now().Before(deadline) {
				lease := l.StartRead()
				x := a.Load()
				y := b.Load()
				if l.EndRead(lease) && x != y {
					torn.Add(1)
				}
			}
		}()
	}

	time.Sleep(120 * time.Millisecond)
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Errorf("%d validated reads observed torn data", torn.Load())
	}
}

// TestWritersMutualExclusion hammers the write path from many goroutines
// incrementing a plain counter; mutual exclusion makes the sum exact.
func TestWritersMutualExclusion(t *testing.T) {
	var l Lock
	var counter int // deliberately unsynchronised; protected by l
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.StartWrite()
				counter++
				l.EndWrite()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*perG {
		t.Errorf("counter = %d, want %d", counter, goroutines*perG)
	}
	if l.IsWriteLocked() {
		t.Error("lock left write-locked")
	}
}

// TestUpgradeContention exercises the read-inspect-upgrade pattern the
// B-tree insert uses, validating that failed upgrades imply a concurrent
// modification and never lose updates.
func TestUpgradeContention(t *testing.T) {
	var l Lock
	// Atomic, like every word the tree reads under a lease: an optimistic
	// read deliberately races with the writer and is validated afterwards,
	// which is defined behaviour only for atomic accesses.
	var value atomic.Int64
	const target = 4000
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lease := l.StartRead()
				v := value.Load()
				if !l.Valid(lease) {
					continue
				}
				if v >= target {
					return
				}
				if !l.TryUpgradeToWrite(lease) {
					continue // lost the race; retry
				}
				value.Store(v + 1)
				l.EndWrite()
			}
		}()
	}
	wg.Wait()
	if got := value.Load(); got != target {
		t.Errorf("value = %d, want %d (lost or duplicated updates)", got, target)
	}
}

func TestVersionParity(t *testing.T) {
	var l Lock
	for i := 0; i < 5; i++ {
		if l.Version()%2 != 0 {
			t.Fatalf("unlocked version odd at round %d", i)
		}
		l.StartWrite()
		if l.Version()%2 != 1 {
			t.Fatalf("locked version even at round %d", i)
		}
		l.EndWrite()
	}
	if l.Version() != 10 {
		t.Errorf("version = %d after 5 write phases, want 10", l.Version())
	}
}

func BenchmarkStartReadValid(b *testing.B) {
	var l Lock
	for i := 0; i < b.N; i++ {
		lease := l.StartRead()
		if !l.EndRead(lease) {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkWritePhase(b *testing.B) {
	var l Lock
	for i := 0; i < b.N; i++ {
		l.StartWrite()
		l.EndWrite()
	}
}

func BenchmarkReadersParallel(b *testing.B) {
	var l Lock
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lease := l.StartRead()
			_ = l.EndRead(lease)
		}
	})
}
