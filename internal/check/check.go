// Package check is the standing concurrent-correctness harness for the
// relation providers. It has two pillars:
//
//  1. A differential oracle (oracle.go): a seeded, replayable randomized
//     workload driven against every provider in parallel phases that
//     mirror Datalog phase concurrency — a concurrent insert phase, a
//     barrier, then a concurrent contains/lower-bound/upper-bound/scan
//     phase — with every result cross-checked exactly against a
//     sequential reference model (model.go). On a mismatch the history
//     recorder captures the violation and the harness emits a minimized,
//     replayable trace (trace.go).
//
//  2. A fault-injection shim for the optimistic lock (package optlock,
//     "lockinject" build tag): probe points at lease acquisition,
//     validation, upgrade and abort let tests force validation failures,
//     delay version publication and insert scheduler yields at chosen
//     sites, so every retry/abort/restart path of the tree runs under
//     the race detector on demand instead of by scheduling luck. The
//     injection tests in this package (inject_test.go, tag-gated) assert
//     the optimistic protocol's restart machinery through the counters
//     of package obs, and prove the harness catches the PR 3
//     load-after-validate race deterministically when it is
//     reintroduced (core.LowerBoundRacy).
//
// Every future performance PR gets verified against this package: run
// `make check-harness` (short mode, both build flavours) or
// `go test ./internal/check` for the full-size oracle.
package check

import (
	"fmt"
	"strings"
	"sync"

	"specbtree/internal/tuple"
)

// Workload selects the shape of the insert streams.
type Workload int

const (
	// WorkloadRandom gives every worker an independent stream of uniform
	// random tuples over the key space — duplicate-heavy, scattered.
	WorkloadRandom Workload = iota
	// WorkloadLeapfrog is the access pattern of the Datalog engine's
	// partitioned delta merge (SplitRange(workers*4)): each round's fresh
	// block of ascending keys is cut into Workers*4 contiguous partitions
	// and worker w inserts partitions w, w+Workers, … as ascending runs.
	// Neighbouring runs meet in the same leaves and under the same inner
	// nodes, so one worker rides its insert hint on a leaf while another
	// splits that leaf's parent — an interleaving uniform random streams
	// practically never produce.
	WorkloadLeapfrog
)

// Config sizes one oracle run. The zero value of any field selects the
// default below; Short selects the seed-sized variant wholesale.
type Config struct {
	// Workload is the insert-stream shape (default WorkloadRandom).
	Workload Workload
	// Seed is the master seed. Every random choice of the run — insert
	// streams, probe values, worker interleaving-sensitive ordering —
	// derives from it deterministically, so a failure report is replayed
	// by re-running with the printed seed.
	Seed int64
	// Workers is the number of concurrent goroutines per phase.
	Workers int
	// Rounds is the number of insert-phase/read-phase cycles.
	Rounds int
	// Inserts is the number of insertions per worker per round.
	Inserts int
	// Reads is the number of read probes per worker per round.
	Reads int
	// KeySpace is the exclusive upper bound of every generated tuple
	// word. Sized near Workers*Rounds*Inserts/2 the workload is
	// duplicate-heavy, which is what Datalog evaluation produces.
	KeySpace uint64
	// Short selects the seed-sized configuration: same shape, a fraction
	// of the volume, for the 1-CPU CI host's wall-time budget.
	Short bool
}

// withDefaults fills zero fields with the standard or short sizing.
func (c Config) withDefaults() Config {
	def := Config{Workers: 4, Rounds: 2, Inserts: 800, Reads: 150, KeySpace: 1200}
	if c.Short {
		def = Config{Workers: 2, Rounds: 2, Inserts: 220, Reads: 48, KeySpace: 360}
	}
	if c.Workers == 0 {
		c.Workers = def.Workers
	}
	if c.Rounds == 0 {
		c.Rounds = def.Rounds
	}
	if c.Inserts == 0 {
		c.Inserts = def.Inserts
	}
	if c.Reads == 0 {
		c.Reads = def.Reads
	}
	if c.KeySpace == 0 {
		c.KeySpace = def.KeySpace
	}
	return c
}

// Violation is one observed divergence between a provider and the
// reference model.
type Violation struct {
	// Target is the provider name.
	Target string
	// Round and Worker locate the divergence in the phase schedule.
	// Worker is -1 for whole-structure checks (scan, len, freshness).
	Round, Worker int
	// Op names the diverging operation: "contains", "lower_bound",
	// "upper_bound", "scan", "len" or "freshness".
	Op string
	// Arg is the probe argument, nil for whole-structure checks.
	Arg tuple.Tuple
	// Got and Want describe the divergence.
	Got, Want string
}

// String formats the violation for test logs.
func (v Violation) String() string {
	return fmt.Sprintf("%s round %d worker %d: %s(%v) = %s, want %s",
		v.Target, v.Round, v.Worker, v.Op, []uint64(v.Arg), v.Got, v.Want)
}

// maxViolations bounds how many violations one run records; a broken
// provider diverges on nearly every probe and one is enough to debug.
const maxViolations = 16

// recorder is the history recorder: it collects violations from all
// concurrently probing workers and trips the run's early-exit flag.
type recorder struct {
	mu         sync.Mutex
	target     string
	violations []Violation
	stopped    bool
}

// add records one violation; recording saturates at maxViolations, after
// which the run winds down (stop reports true).
func (r *recorder) add(v Violation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v.Target = r.target
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations, v)
	}
	if len(r.violations) >= maxViolations {
		r.stopped = true
	}
}

// stop reports whether the run should wind down early.
func (r *recorder) stop() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

// take returns the recorded violations.
func (r *recorder) take() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.violations
}

// Report is the outcome of one oracle run against one provider.
type Report struct {
	// Target is the provider name, Arity the tuple width driven.
	Target string
	Arity  int
	// Config is the fully defaulted configuration, including the seed to
	// replay with.
	Config Config
	// FinalLen is the provider's element count after the last round.
	FinalLen int
	// Violations lists every recorded divergence (bounded).
	Violations []Violation
	// Trace is the minimized replayable trace for the first violation,
	// or a replay instruction when the divergence needs the concurrent
	// schedule to reproduce (see trace.go). Empty on a clean run.
	Trace string
}

// Failed reports whether the run observed any divergence.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary renders the report for test logs: the replay seed, every
// violation, and the trace.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %s arity %d: %d violations (replay: workload=%d seed=%d workers=%d rounds=%d inserts=%d reads=%d keyspace=%d)\n",
		r.Target, r.Arity, len(r.Violations), r.Config.Workload, r.Config.Seed, r.Config.Workers,
		r.Config.Rounds, r.Config.Inserts, r.Config.Reads, r.Config.KeySpace)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if r.Trace != "" {
		b.WriteString("trace:\n")
		b.WriteString(r.Trace)
	}
	return b.String()
}
