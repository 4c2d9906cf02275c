package main

import (
	"os"
	"path/filepath"

	"specbtree/internal/cluster"
	"specbtree/internal/core"
	"specbtree/internal/relation"
	"specbtree/internal/serve"
	"specbtree/internal/tuple"
)

// ladderPreload is the contents every rung starts from.
const ladderPreload = 100_000

// ladderTolerance is how far the top rung may sit from the same
// operation's idle median on the matching workload's own servers before
// the run fails: a factor of two, which only a ladder built over the
// wrong topology exceeds. The two medians are taken seconds apart on
// different server instances, and an idle caller's round trip on the
// shared host is set by whether the runtime's threads happen to be
// spinning or parked: they agree within 15% on most runs (the ratio is
// reported as ladder.*.top_vs_workload), not on all.
const ladderTolerance = 2.0

// stageLadder issues the same two operations, a Contains on a random key
// and a 16-tuple insert, from one idle caller at every rung, each rung
// adding one layer over the same preload: consecutive differences are a
// layer's cost and telescope to the top rung by construction.
func (b *bench) stageLadder() {
	stage := b.tr.begin("stage.ladder", 0, 0)
	defer stage.end()
	n := b.p.LadderCalls
	rng := b.stageRNG("ladder", 0)
	base := tuplesOf(sortDedupe(randomPairs(rng, ladderPreload, b.p.KeySpace)))
	keys := tuplesOf(randomPairs(rng, n, b.p.KeySpace))
	flat := tuplesOf(randomPairs(rng, n*b.p.Batch, b.p.KeySpace))
	batch := func(i int) []tuple.Tuple { return flat[i*b.p.Batch : (i+1)*b.p.Batch] }

	// rung measures both operations through one client-shaped surface.
	rung := func(name string, contains func(tuple.Tuple) error, insert func([]tuple.Tuple) error) {
		sp := b.tr.begin("ladder."+name, stage.id(), 0)
		defer sp.end()
		if contains != nil {
			b.set("ladder.read."+name+"_us", b.idleMedian("ladder "+name+" Contains", n, func(i int) error { return contains(keys[i]) }))
		}
		if insert != nil {
			b.set("ladder.insert16."+name+"_us", b.idleMedian("ladder "+name+" Insert", n, func(i int) error { return insert(batch(i)) }))
		}
	}
	viaClient := func(name string, c relClient, read, write bool) {
		var contains func(tuple.Tuple) error
		var insert func([]tuple.Tuple) error
		if read {
			contains = func(k tuple.Tuple) error { _, err := c.Contains(k); return err }
		}
		if write {
			insert = func(bt []tuple.Tuple) error { _, err := c.Insert(bt); return err }
		}
		rung(name, contains, insert)
	}

	// In process: per-call clocks would outweigh a 0.3µs lookup, so the
	// two bottom rungs are loop means.
	tree := core.New(2)
	tree.BuildFromSorted(base)
	b.set("ladder.read.core_us", perOpNs(n, func() {
		for _, k := range keys {
			if tree.Contains(k) {
				sink++
			}
		}
	})/1e3)
	b.set("ladder.insert16.core_us", perOpNs(n, func() {
		for _, t := range flat {
			tree.Insert(t)
		}
	})/1e3)
	rel := relation.MustLookup("btree").New(2)
	ops := rel.NewOps()
	for _, t := range base {
		ops.Insert(t)
	}
	b.set("ladder.read.relation_us", perOpNs(n, func() {
		for _, k := range keys {
			if ops.Contains(k) {
				sink++
			}
		}
	})/1e3)
	b.set("ladder.insert16.relation_us", perOpNs(n, func() {
		for _, t := range flat {
			ops.Insert(t)
		}
	})/1e3)
	b.attempted.Add(int64(2 * (n + len(flat))))

	// One server: in-process Apply, then over the wire.
	env, err := startServe(base, 1, serve.Options{})
	if err != nil {
		b.fail("ladder: %v", err)
		return
	}
	rung("serve_inproc", nil, func(bt []tuple.Tuple) error { _, err := env.srv.Apply(bt); return err })
	env.close()
	env, err = startServe(base, 1, serve.Options{})
	if err != nil {
		b.fail("ladder: %v", err)
		return
	}
	viaClient("serve", env.clients[0], true, true)
	env.close()

	// Routed: one shard without a log, one with, three with.
	for _, c := range []struct {
		name   string
		shards int
		logged bool
	}{{"cluster1", 1, false}, {"cluster1log", 1, true}, {"cluster3log", 3, true}} {
		dir := ""
		if c.logged {
			dir = filepath.Join(b.tmp, "ladder-"+c.name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				b.fail("ladder: %v", err)
				return
			}
		}
		cenv, err := b.openDurable(dir, c.shards, 1)
		if err == nil {
			err = preload(cenv.clients[0].Insert, base)
		}
		if err != nil {
			b.fail("ladder: %s: %v", c.name, err)
			return
		}
		viaClient(c.name, cenv.clients[0], true, true)
		if c.shards == 3 {
			b.set("cluster.scan_fanout_us", b.idleMedian("ladder fan-out Scan", n, func(i int) error {
				_, _, err := cenv.clients[0].Scan(keys[i], nil, b.p.ScanLimit)
				return err
			}))
		}
		cenv.close()
	}

	// Reads offloaded to a follower of one logged shard.
	if err := b.ladderFollower(base, viaClient); err != nil {
		b.fail("ladder: follower: %v", err)
		return
	}

	// Each layer's cost is the step from the rung below it.
	for _, l := range []struct {
		prefix string
		rungs  []string
	}{{"ladder.read.", ladderReadRungs}, {"ladder.insert16.", ladderInsertRungs}} {
		us := make([]float64, len(l.rungs))
		for i, r := range l.rungs {
			us[i] = b.values[l.prefix+r]
		}
		for i, step := range ladderSteps(us) {
			b.set(l.prefix+"step."+l.rungs[i], step)
		}
	}
	b.set("cluster.route_overhead_us", b.values["ladder.read.cluster1_us"]-b.values["ladder.read.serve_us"])
	// The ladder stands for the workloads only if its top rungs match the
	// same operations taken idle on the workloads' own servers.
	for _, c := range []struct{ metric, top, idle string }{
		{"ladder.read.top_vs_workload", "ladder.read.follower_us", "replica.idle_read_us"},
		{"ladder.insert16.top_vs_workload", "ladder.insert16.cluster3log_us", "cluster.idle_insert16_us"},
	} {
		r := ratio(b.values[c.top], b.values[c.idle])
		b.set(c.metric, r)
		if r < 1/ladderTolerance || r > ladderTolerance {
			b.fail("ladder: top rung %s is %.1fus but %s is %.1fus: more than a factor of %.0f apart",
				c.top, b.values[c.top], c.idle, b.values[c.idle], ladderTolerance)
		}
	}
}

// ladderSteps turns rung medians (bottom to top) into per-layer costs:
// the bottom rung itself, then each rung minus the one below. The steps
// sum to the top rung by construction.
func ladderSteps(rungs []float64) []float64 {
	steps := make([]float64, len(rungs))
	for i, r := range rungs {
		steps[i] = r
		if i > 0 {
			steps[i] -= rungs[i-1]
		}
	}
	return steps
}

func (b *bench) ladderFollower(base []tuple.Tuple, viaClient func(string, relClient, bool, bool)) error {
	dir := filepath.Join(b.tmp, "ladder-follower")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lenv, err := b.openDurable(dir, 1, 1)
	if err != nil {
		return err
	}
	defer lenv.close()
	if err := preload(lenv.clients[0].Insert, base); err != nil {
		return err
	}
	f, err := startFollower(lenv.shards[0], filepath.Join(dir, "follower.log"))
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := cluster.NewClient(cluster.NewStaticMap(cluster.BandMap(1, b.p.KeySpace)), lenv.addrs(), cluster.ClientOptions{
		Timeout: clientTimeout, Followers: [][]string{{f.Addr()}}, MaxStaleEpochs: b.p.MaxStale,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	viaClient("follower", c, true, false)
	return nil
}
