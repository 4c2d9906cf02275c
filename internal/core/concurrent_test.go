package core

import (
	"runtime"
	"sync"
	"testing"

	"specbtree/internal/tuple"
)

// TestConcurrentDisjointInserts partitions an ordered key space across
// goroutines — the paper's NUMA-friendly Figure 4c setup.
func TestConcurrentDisjointInserts(t *testing.T) {
	tr := New(2, Options{Capacity: 4})
	workers := 8
	perW := 3000
	if testing.Short() {
		perW = 500
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHints()
			base := uint64(w * perW)
			for i := 0; i < perW; i++ {
				if !tr.InsertHint(tuple.Tuple{base + uint64(i), 0}, h) {
					t.Errorf("disjoint insert reported duplicate")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != workers*perW {
		t.Fatalf("Len = %d, want %d", got, workers*perW)
	}
	for i := 0; i < workers*perW; i++ {
		if !tr.Contains(tuple.Tuple{uint64(i), 0}) {
			t.Fatalf("element %d missing", i)
		}
	}
}

// TestConcurrentOverlappingInserts has every goroutine insert the same
// values, maximising duplicate detection races and split contention.
func TestConcurrentOverlappingInserts(t *testing.T) {
	tr := New(1, Options{Capacity: 3})
	workers := 8
	n := 2000
	if testing.Short() {
		n = 400
	}
	fresh := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHints()
			for i := 0; i < n; i++ {
				if tr.InsertHint(tuple.Tuple{uint64(i)}, h) {
					fresh[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range fresh {
		total += f
	}
	if total != n {
		t.Fatalf("exactly-once insertion violated: %d fresh inserts of %d distinct values", total, n)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
}

// TestConcurrentRandomInserts mixes random tuples from all goroutines —
// the Figure 4b/4d workload — and validates against a merged model.
func TestConcurrentRandomInserts(t *testing.T) {
	tr := New(2, Options{Capacity: 8})
	workers := 8
	perW := 2500
	if testing.Short() {
		perW = 400
	}
	inputs := make([][]tuple.Tuple, workers)
	for w := range inputs {
		inputs[w] = randTuples(perW, 2, 300, int64(1000+w))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHints()
			for _, tp := range inputs[w] {
				tr.InsertHint(tp, h)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	model := map[[2]uint64]bool{}
	for _, in := range inputs {
		for _, tp := range in {
			model[[2]uint64{tp[0], tp[1]}] = true
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
	}
	for k := range model {
		if !tr.Contains(tuple.Tuple{k[0], k[1]}) {
			t.Fatalf("%v missing", k)
		}
	}
	// And nothing extra.
	count := 0
	tr.All(func(tp tuple.Tuple) bool {
		if !model[[2]uint64{tp[0], tp[1]}] {
			t.Errorf("phantom tuple %v", tp)
			return false
		}
		count++
		return true
	})
	if count != len(model) {
		t.Fatalf("scan visited %d, want %d", count, len(model))
	}
}

// TestConcurrentReadersDuringWrites exercises the read-potential-write
// protocol: reader goroutines issue Contains/bounds on a prefix of the key
// space that is already stable while writers extend the suffix.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	tr := New(1, Options{Capacity: 4})
	const stable = 2000
	for i := 0; i < stable; i++ {
		tr.Insert(tuple.Tuple{uint64(i)})
	}
	extra := 4000
	if testing.Short() {
		extra = 800
	}
	var wg sync.WaitGroup
	// Writers extend beyond the stable prefix.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHints()
			for i := w; i < extra; i += 4 {
				tr.InsertHint(tuple.Tuple{uint64(stable + i)}, h)
			}
		}(w)
	}
	// Readers must always see the stable prefix intact.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := NewHints()
			for pass := 0; pass < 4; pass++ {
				for i := r; i < stable; i += 4 {
					if !tr.ContainsHint(tuple.Tuple{uint64(i)}, h) {
						t.Errorf("stable element %d vanished during concurrent writes", i)
						return
					}
					if tr.ContainsHint(tuple.Tuple{uint64(stable + extra + i)}, h) {
						t.Errorf("phantom element appeared")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != stable+extra {
		t.Fatalf("Len = %d, want %d", tr.Len(), stable+extra)
	}
}

// TestConcurrentBoundsDuringWrites races bound queries over the stable
// prefix against writers in the suffix.
func TestConcurrentBoundsDuringWrites(t *testing.T) {
	tr := New(1, Options{Capacity: 4})
	const stable = 1000
	for i := 0; i < stable; i++ {
		tr.Insert(tuple.Tuple{uint64(2 * i)}) // evens
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Insert(tuple.Tuple{uint64(2*stable+2*i) + uint64Bit(w)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < stable-1; i++ {
					c := tr.LowerBound(tuple.Tuple{uint64(2*i + 1)})
					if !c.Valid() {
						t.Errorf("lower bound in stable region invalid")
						return
					}
					if got := c.Tuple()[0]; got != uint64(2*i+2) {
						t.Errorf("LowerBound(%d) = %d, want %d", 2*i+1, got, 2*i+2)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func uint64Bit(w int) uint64 {
	if w == 0 {
		return 0
	}
	return 1
}

// TestConcurrentRootRace makes many goroutines race to create the root of
// an empty tree.
func TestConcurrentRootRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		tr := New(1)
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0) * 2
		if workers < 4 {
			workers = 4
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tr.Insert(tuple.Tuple{uint64(w)})
			}(w)
		}
		wg.Wait()
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != workers {
			t.Fatalf("round %d: Len = %d, want %d", round, tr.Len(), workers)
		}
	}
}

// TestConcurrentMixedHintReuse keeps goroutine-local hints hot across a
// mixed insert/lookup workload with heavy locality.
func TestConcurrentMixedHintReuse(t *testing.T) {
	tr := New(2, Options{Capacity: 4})
	var wg sync.WaitGroup
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHints()
			base := uint64(w * 1000)
			for i := 0; i < iters; i++ {
				tp := tuple.Tuple{base + uint64(i%97), uint64(i % 13)}
				tr.InsertHint(tp, h)
				if !tr.ContainsHint(tp, h) {
					t.Errorf("just-inserted %v missing", tp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLeapfrogRuns is the regression test for the inner-split
// sibling race: hinted writers insert ascending runs from interleaved
// partitions (worker w takes partitions w, w+W, …), so one writer sits
// on a leaf via its hint while a neighbour's run splits that leaf's
// parent. A fresh inner sibling that is reachable through the moved
// children's parent pointers but not write-locked lets the sitting
// writer insert into it concurrently with the splitter, losing a
// separator and its subtree. The trees are small (three levels at
// capacity 16) and many, because the window is one inner split wide:
// what matters is the number of inner splits raced, not the tree size.
func TestConcurrentLeapfrogRuns(t *testing.T) {
	const keys, capacity = 600, 16
	rounds := 1500
	if testing.Short() {
		rounds = 300
	}
	for round := 0; round < rounds; round++ {
		workers := 2 + round%3
		parts := workers * 4
		per := keys / parts
		tr := New(1, Options{Capacity: capacity})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := NewHints()
				for p := w; p < parts; p += workers {
					for k := p * per; k < (p+1)*per; k++ {
						tr.InsertHint(tuple.Tuple{uint64(k)}, h)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := tr.Check(); err != nil {
			t.Fatalf("round %d (%d workers): %v", round, workers, err)
		}
		if got, want := tr.Len(), parts*per; got != want {
			t.Fatalf("round %d (%d workers): Len = %d, want %d", round, workers, got, want)
		}
		for k := 0; k < parts*per; k++ {
			if !tr.Contains(tuple.Tuple{uint64(k)}) {
				t.Fatalf("round %d (%d workers): key %d missing", round, workers, k)
			}
		}
	}
}
