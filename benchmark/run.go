package main

import (
	"runtime"
	"time"
)

// run drives every layer once, in a fixed order. The workload's own
// stage gets the measuring window (b.budget); every other stage runs at
// its short probe size, so that each run reports all sixteen end-to-end
// metrics: the gated cell of a metric is the one on its own workload,
// the others are reference probes of the same measurement at a smaller
// size (README.md, "Cells").
func (b *bench) run() {
	stage := func(name string, fn func()) {
		start := time.Now()
		fn()
		b.set("wall."+name+"_s", time.Since(start).Seconds())
		runtime.GC() // the next stage starts from the same heap in every run
	}
	window := func(w string) (focus bool, budget time.Duration) {
		switch {
		case b.workload != w:
			return false, b.p.ProbeBudget[w]
		case b.traced():
			// A traced run also loads every served stage and adds the
			// layer stages and the ladder; its numbers are not gated, so
			// its own window gives up the time they take.
			return true, b.budget * 6 / 10
		}
		return true, b.budget
	}

	stage("tree", func() { b.stageTree(window(wTree)) })
	stage("datalog", func() { b.stageDatalog(window(wDatalog)) })

	// One served stage carries the load and reports the five shared
	// serving metrics: the workload's own, or the single server for the
	// two in-process workloads. A traced run loads all three, because
	// each has per-layer metrics only its own load can give. The other
	// two stages still run their recovery and catch-up.
	loaded := map[string]string{wDurable: stDurable, wReplicated: stReplicated}[b.workload]
	if loaded == "" {
		loaded = stServe
	}
	own := map[string]string{stServe: wServe, stDurable: wDurable, stReplicated: wReplicated}
	for _, st := range servedStages {
		focus, budget := window(own[st])
		plan := servedPlan{load: loaded == st || b.traced(), reported: loaded == st, focus: focus, budget: budget}
		switch st {
		case stServe:
			if plan.load {
				stage(st, func() { b.stageServe(plan) })
			}
		case stDurable:
			stage(st, func() { b.stageDurable(plan) })
		case stReplicated:
			stage(st, func() { b.stageReplicated(plan) })
		}
	}

	if b.traced() {
		stage("micro", b.stageMicro)
		stage("ladder", b.stageLadder)
	}

	var setup float64
	for _, s := range b.setup {
		setup += s
	}
	b.set("setup_s", setup)
}
