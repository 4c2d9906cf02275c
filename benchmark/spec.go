package main

import "time"

// This file is the benchmark's frozen definition: workload names, metric
// names with unit, direction and bound, and every size and rate. The
// root BENCHMARK.json repeats the names; benchmark_test.go keeps the two
// in step. Sizes were calibrated once on the 2-core dev host so that a
// run fits the driver's time cap (see README.md, "Calibration").

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names. Every run drives every layer once; the workload
// selects the stage that receives the long measuring window.
const (
	wTree       = "tree-phases"
	wDatalog    = "datalog-eval"
	wServe      = "serve-mixed"
	wDurable    = "cluster-durable"
	wReplicated = "cluster-replicated"
)

var workloads = []workloadDef{
	{wTree, "Paper Fig. 3/4: optlock+core only, 1M keys larger than cache; ordered vs shuffled insert splits hint path from descent, with lookup, scan and space beside them."},
	{wDatalog, "Paper Fig. 5: datalog+relation+core on three programs, insert-heavy points-to, read-heavy security, range-scan selective join; no serving code runs in the window."},
	{wServe, "One server over a 500k-tuple tree: wire, socket, phase scheduler, epochs and snapshots do the work and core little; open-loop reads and inserts at 8k req/s, a seventh of saturation."},
	{wDurable, "Three fsync-before-ack shards: adds routing, batch splitting, scan fan-out and log flush to serve-mixed's path, then crash recovery with acked-subset-of-recovered check."},
	{wReplicated, "One durable leader plus a cold-started follower: bootstrap, epoch stream, stamped reads and fallback do the marginal work; reads go to the follower, writes to the leader."},
}

// metricDef is one declared metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the sixteen gated metrics. Every run reports all of
// them; README.md says which stage each comes from on which workload.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"insert_ordered_mops", "Mops/s", higher, 0.15},
	{"insert_random_mops", "Mops/s", higher, 0.15},
	{"lookup_mops", "Mops/s", higher, 0.15},
	{"scan_mtps", "Mtuples/s", higher, 0.20},
	{"mem_bytes_per_tuple", "B", lower, 0.05},
	{"eval_pointsto_s", "s", lower, 0.15},
	{"eval_security_s", "s", lower, 0.15},
	{"eval_selective_s", "s", lower, 0.15},
	{"read_p50_us", "us", lower, 0.25},
	{"read_p90_us", "us", lower, 0.25},
	{"insert_p50_us", "us", lower, 0.25},
	{"insert_p90_us", "us", lower, 0.25},
	{"saturation_rps", "req/s", higher, 0.25},
	{"recovery_s", "s", lower, 0.20},
	{"follower_catchup_s", "s", lower, 0.20},
}

// served stage names, used as the middle part of client.* metric names.
const (
	stServe      = "serve"
	stDurable    = "durable"
	stReplicated = "replicated"
)

var servedStages = []string{stServe, stDurable, stReplicated}

// rung names of the open-loop rate ladder.
var rungNames = []string{"low", "mid", "high"}

// ladder rung names, bottom to top.
var (
	ladderReadRungs   = []string{"core_us", "relation_us", "serve_us", "cluster1_us", "cluster1log_us", "cluster3log_us", "follower_us"}
	ladderInsertRungs = []string{"core_us", "relation_us", "serve_inproc_us", "serve_us", "cluster1_us", "cluster1log_us", "cluster3log_us"}
)

// perLayer lists the traced run's metrics, layer by layer (layer =
// module name).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// optlock
	add("ns", lower, "optlock.read_pair_ns", "optlock.write_pair_ns", "optlock.upgrade_pair_ns")
	add("ratio", lower, "optlock.validate_fail_ratio", "optlock.upgrade_fail_ratio")
	add("count", lower, "optlock.write_spins_per_insert")
	// core
	add("ns", lower, "core.insert_ordered_ns", "core.insert_random_ns", "core.contains_ordered_ns",
		"core.contains_random_ns", "core.lower_bound_ns", "core.scan_ns_per_tuple")
	add("ratio", higher, "core.scaling_eff", "core.scaling_eff_random",
		"core.hint_hit_ratio.insert", "core.hint_hit_ratio.find", "core.hint_hit_ratio.lower", "core.hint_hit_ratio.upper")
	add("ratio", lower, "core.restart_ratio")
	add("count", lower, "core.splits_per_kinsert", "core.depth")
	add("ratio", higher, "core.leaf_fill_ratio")
	add("ns", lower, "core.snapshot_ns", "core.cow_insert_ns")
	add("Mtuples/s", higher, "core.build_sorted_mtps", "core.parallel_merge_mtps")
	// relation
	add("ns", lower, "relation.insert_ns", "relation.contains_ns", "relation.prefix_scan_ns_per_tuple", "relation.adapter_overhead_ns")
	add("count", lower, "relation.calls.insert.pointsto", "relation.calls.merge.pointsto",
		"relation.calls.contains.security", "relation.calls.scan.selective")
	add("s", lower, "relation.busy_cpu_s.insert.pointsto", "relation.busy_cpu_s.merge.pointsto",
		"relation.busy_cpu_s.contains.security", "relation.busy_cpu_s.scan.selective")
	// datalog
	add("us", lower, "datalog.parse_us", "datalog.compile_us", "datalog.compile_cached_us")
	add("ratio", higher, "datalog.plan_cache_hit_ratio")
	add("Mtuples/s", higher, "datalog.load_mtps")
	add("count", lower, "datalog.rounds", "datalog.rule_evals")
	add("ratio", lower, "datalog.rows_per_result")
	add("ratio", higher, "datalog.hint_hit_ratio")
	add("ratio", lower, "datalog.self_share", "datalog.merge_share")
	// serve
	add("us", lower, "serve.rtt_floor_us", "serve.contains_us", "serve.scan64_us", "serve.insert16_us",
		"serve.insert16_nosnap_us", "serve.apply16_us", "serve.snapshot_now_us", "serve.barrier_us")
	add("count", higher, "serve.tuples_per_epoch")
	add("1/s", lower, "serve.epochs_per_s")
	add("ratio", lower, "serve.snapshot_read_ratio", "serve.retry_ratio")
	add("count", lower, "serve.write_queue_depth_max")
	// cluster
	add("ns", lower, "cluster.route_ns")
	add("us", lower, "cluster.route_overhead_us")
	add("count", lower, "cluster.shards_per_insert")
	add("us", lower, "cluster.scan_fanout_us", "cluster.log_epoch_p50_us", "cluster.log_epoch_p90_us")
	add("1/s", lower, "cluster.log_flushes_per_s")
	add("count", higher, "cluster.tuples_per_flush")
	add("ratio", lower, "cluster.log_busy_share", "cluster.log_bytes_per_user_byte")
	add("Mtuples/s", higher, "cluster.recover_mtps", "cluster.tail_mtps")
	add("s", lower, "cluster.move_range_s")
	add("us", lower, "cluster.move_read_p90_us")
	// replica
	add("Mtuples/s", higher, "replica.bootstrap_mtps")
	add("count", lower, "replica.lag_epochs_p50", "replica.lag_epochs_p90", "replica.lag_epochs_max")
	add("ratio", higher, "replica.follower_read_ratio")
	add("ratio", lower, "replica.fallback_ratio")
	add("us", lower, "replica.stamped_contains_us", "replica.leader_only_read_p50_us")
	add("s", lower, "replica.catchup_from_log_s", "replica.promote_s")
	// client: the load driver itself, per served stage
	for _, st := range servedStages {
		for _, r := range rungNames {
			add("us", lower, "client."+st+".read_p99_us."+r)
		}
		add("us", lower, "client."+st+".read_p50_us.high", "client."+st+".insert_p99_us.mid", "client."+st+".gen_late_p99_us")
		add("req/s", higher, "client."+st+".max_rate_ok_rps")
	}
	add("count", higher, "client.sample_count")
	add("ratio", lower, "trace.overhead_ratio")
	// the ladder
	for _, r := range ladderReadRungs {
		add("us", lower, "ladder.read."+r)
	}
	for _, r := range ladderInsertRungs {
		add("us", lower, "ladder.insert16."+r)
	}
	add("ratio", lower, "ladder.read.top_vs_workload", "ladder.insert16.top_vs_workload")
	return out
}

// params holds every size and rate of a run. focus and probe are the
// two sizings of a stage: the workload's own stage runs at focus size,
// every other stage at probe size.
type params struct {
	TreeN      [2]int `json:"tree_n"`       // points per repetition, probe and focus
	TreeMinRep int    `json:"tree_min_rep"` // repetitions at least
	// Datalog program sizes, probe and focus.
	PointsTo   [2]int `json:"pointsto_size"`
	Security   [2]int `json:"security_size"`
	Selective  [2]int `json:"selective_size"`
	DatalogRep [2]int `json:"datalog_rep"`

	KeySpace       uint64 `json:"key_space"` // words uniform in [0, KeySpace)
	ServePreload   int    `json:"serve_preload"`
	DurablePreload int    `json:"durable_preload"`
	LeaderPreload  int    `json:"leader_preload"`
	Batch          int    `json:"insert_batch"`
	WritePct       int    `json:"write_pct"`
	ScanLimit      int    `json:"scan_limit"`
	MaxInflight    int    `json:"max_inflight"`
	SatCallers     int    `json:"saturation_callers_per_conn"`
	MaxStale       uint64 `json:"max_stale_epochs"`
	// Rates are the open-loop rungs (req/s) of each served stage; the
	// middle one is gated.
	Rates map[string][3]int `json:"rates"`
	// ProbeBudget is the measuring window of each stage, by its
	// workload's name, when another workload has the run's own window.
	ProbeBudget map[string]time.Duration `json:"probe_budget_ns"`
	SetupReps   int                      `json:"setup_reps"`
	MeasureReps int                      `json:"measure_reps"` // recovery and catch-up repetitions
	IdleCalls   int                      `json:"idle_calls"`
	LadderCalls int                      `json:"ladder_calls"`
}

var defaultParams = params{
	TreeN:      [2]int{90_000, 1_000_000},
	TreeMinRep: 3,
	PointsTo:   [2]int{2048, 8192},
	Security:   [2]int{96, 256},
	Selective:  [2]int{4096, 16384},
	DatalogRep: [2]int{8, 20},

	KeySpace:       1 << 16,
	ServePreload:   500_000,
	DurablePreload: 300_000,
	LeaderPreload:  250_000,
	Batch:          16,
	WritePct:       20,
	ScanLimit:      64,
	MaxInflight:    4096,
	SatCallers:     8,
	MaxStale:       4,
	Rates: map[string][3]int{
		stServe:      {4000, 8000, 16000},
		stDurable:    {1000, 2000, 4000},
		stReplicated: {2000, 4000, 8000},
	},
	ProbeBudget: map[string]time.Duration{
		wTree: 2000 * time.Millisecond, wDatalog: 1500 * time.Millisecond,
		wServe: 3500 * time.Millisecond, wDurable: 3500 * time.Millisecond, wReplicated: 3500 * time.Millisecond,
	},
	SetupReps:   3,
	MeasureReps: 6,
	IdleCalls:   2000,
	LadderCalls: 2000,
}
