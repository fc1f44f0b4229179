//go:build linux

package main

// The declarations below are the benchmark's vocabulary: every workload and
// metric the program can emit. BENCHMARK.json repeats them for the driver;
// TestSpecMatchesBenchmarkJSON keeps the two identical.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadSpecs = []workloadSpec{
	{"hit_replay", "closed loop, /query cycling 256 graphs held in L1: the paper's database-hit case, all time is wire + decode + graph hash; db, hwsim and the predictor stay idle"},
	{"predict_sweep", "closed loop, never-repeated graphs to /predict: the NAS-candidate case, feats + plan compile + GNN forward dominate; memo, plan cache, db and hwsim never help"},
	{"ingest_miss", "closed loop, never-seen graphs to /query on a disk store with fsync: the evolving-database write path (hwsim measure, flight, two group commits, checkpoints)"},
	{"mixed_routed", "open loop at 240 req/s through a router over 2 replicas, Zipf reads beyond L1, predicts and writes mixed: the only workload with cluster, L2 reads, memo, admission and queueing"},
}

// endToEnd metrics are what a caller of the shipped binary sees. Bound is the
// share of the parent's median by which a metric may worsen before a change
// counts as a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"throughput_rps", "1/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"latency_p90_ms", "ms", lower, 0.25},
	{"server_cpu_ms_per_req", "ms", lower, 0.25},
	{"server_rss_peak_mb", "MB", lower, 0.25},
	{"wire_bytes_per_req", "B", lower, 0.10},
}

// perLayer metrics attribute the end-to-end numbers to the repo's modules.
// "_us" metrics are median microseconds per call over the traced sample;
// counters are /stats and /cluster deltas over the timed window. A metric
// reads 0 on a workload whose requests never reach that layer.
var perLayer = []metricSpec{
	{"onnx.encode_us", "us", lower, 0},
	{"server.client_encode_us", "us", lower, 0},
	{"server.json_decode_us", "us", lower, 0},
	{"server.base64_decode_us", "us", lower, 0},
	{"onnx.decode_us", "us", lower, 0},
	{"onnx.validate_us", "us", lower, 0},
	{"onnx.infer_shapes_us", "us", lower, 0},
	{"graphhash.key_us", "us", lower, 0},
	{"server.response_encode_us", "us", lower, 0},
	{"server.http_residual_us", "us", lower, 0},
	{"server.admit_shed", "count", lower, 0},

	{"query.cache_get_us", "us", lower, 0},
	{"query.l1_hit_us", "us", lower, 0},
	{"query.l2_hit_us", "us", lower, 0},
	{"query.miss_us", "us", lower, 0},
	{"query.l1_hit_ratio", "ratio", higher, 0},
	{"query.l2_hits", "count", lower, 0},
	{"query.misses", "count", lower, 0},
	{"query.coalesced", "count", higher, 0},
	{"query.failures", "count", lower, 0},

	{"db.point_read_us", "us", lower, 0},
	{"db.record_measurement_us", "us", lower, 0},
	{"db.fsyncs_per_miss", "ratio", lower, 0},
	{"db.commit_batch_mean", "ratio", higher, 0},
	{"db.checkpoints", "count", lower, 0},
	{"db.checkpoint_s", "s", lower, 0},
	{"db.wal_bytes_per_record", "B", lower, 0},
	{"db.disk_bytes_per_record", "B", lower, 0},
	{"db.reopen_s", "s", lower, 0},

	{"hwsim.execute_us", "us", lower, 0},
	{"hwsim.measure_us", "us", lower, 0},
	{"hwsim.device_wait_s", "s", lower, 0},
	{"hwsim.hedges", "count", lower, 0},
	{"hwsim.retries", "count", lower, 0},

	{"feats.extract_us", "us", lower, 0},
	{"core.predict_cold_us", "us", lower, 0},
	{"core.predict_warm_us", "us", lower, 0},
	{"core.memo_get_us", "us", lower, 0},
	{"core.memo_hit_ratio", "ratio", higher, 0},
	{"core.predict_batch8_us_per_graph", "us", lower, 0},
	{"gnn.forward_us", "us", lower, 0},
	{"tensor.matmul_us", "us", lower, 0},
	{"tensor.madds_per_predict", "count", lower, 0},

	{"cluster.router_tax_us", "us", lower, 0},
	{"cluster.affinity_l1_hit_ratio", "ratio", higher, 0},
	{"cluster.coalesced", "count", higher, 0},
	{"cluster.retries", "count", lower, 0},
	{"cluster.ejections", "count", lower, 0},

	{"bench.round_trip_us", "us", lower, 0},
	{"bench.samples", "count", higher, 0},
	{"bench.latency_p99_ms", "ms", lower, 0},
	{"bench.prep_s", "s", lower, 0},
	{"bench.gen_late_p99_ms", "ms", lower, 0},
	{"bench.client_cpu_frac", "ratio", lower, 0},
	{"bench.trace_overhead_frac", "ratio", lower, 0},
}
