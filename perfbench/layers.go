package main

// layers.go: the per-layer metrics of the traced run, each named after
// the module it measures, with the end-to-end metric and workload it
// should move and the workloads where the prediction is no change.
// BENCHMARK.json lists the same names; a test keeps the two in step.

type layerMetric struct {
	name, unit, better string
	// moves is the end-to-end metric and workload the layer should
	// move; still lists the workloads where it should not move them.
	moves, still string
}

var perLayer = []layerMetric{
	{"graphio.decode_us", "us", "lower", "read_cpu_mean_ms, loaded_cpu_ms on reweight-warm", "approx-hard (sampling dominates)"},
	{"graphio.keys_us", "us", "lower", "read_cpu_mean_ms, loaded_cpu_ms on reweight-warm", "approx-hard"},
	{"graphio.request_bytes", "bytes", "lower", "read_cpu_mean_ms on reweight-warm", "all: a count fixed by the inputs"},
	{"graph.route_us", "us", "lower", "read_cpu_mean_ms on reweight-warm and compile-cold", "approx-hard"},
	{"lineage.build_us", "us", "lower", "read metrics on compile-cold; write_cpu_tail_ms on every workload (structural writes migrate plans); setup_s on reweight-warm", "reweight-warm and approx-hard reads (plans hit)"},
	{"lineage.clauses", "count", "lower", "lineage.build_us wherever it runs", "all: a count fixed by the inputs"},
	{"lineage.us_per_edge.n256", "us", "lower", "read metrics on compile-cold (⊔2WP scaling probe; 0 elsewhere)", "reweight-warm, live-delta, approx-hard"},
	{"lineage.us_per_edge.n2048", "us", "lower", "read_cpu_tail_ms, loaded_cpu_ms on compile-cold (⊔2WP scaling probe; 0 elsewhere)", "reweight-warm, live-delta, approx-hard"},
	{"plan.build_us", "us", "lower", "read metrics and loaded_cpu_ms on compile-cold", "reweight-warm and approx-hard reads"},
	{"plan.lower_us", "us", "lower", "read metrics and loaded_cpu_ms on compile-cold", "reweight-warm and approx-hard reads"},
	{"plan.ops", "count", "lower", "plan.exec_*, rss_mb on compile-cold", "approx-hard (opaque plans have no program)"},
	{"plan.exec_exact_us", "us", "lower", "read_cpu_tail_ms on reweight-warm", "compile-cold, live-delta, approx-hard (no exact requests)"},
	{"plan.exec_float_us", "us", "lower", "read_cpu_mean_ms on reweight-warm and live-delta", "approx-hard; compile-cold (compile dominates)"},
	{"plan.exec_ns_per_op", "ns", "lower", "read_cpu_mean_ms on reweight-warm and live-delta", "approx-hard"},
	{"core.compile_us", "us", "lower", "read metrics on compile-cold; setup_s on reweight-warm, live-delta", "reweight-warm and approx-hard reads (plan_hit_ratio about 1)"},
	{"core.compile_us_per_edge.n256", "us", "lower", "read_cpu_mean_ms on compile-cold (⊔2WP scaling probe; 0 elsewhere)", "reweight-warm, live-delta, approx-hard"},
	{"core.compile_us_per_edge.n2048", "us", "lower", "read_cpu_tail_ms, loaded_cpu_ms on compile-cold (⊔2WP scaling probe; 0 elsewhere)", "reweight-warm, live-delta, approx-hard"},
	{"core.evaluate_us", "us", "lower", "read_cpu_mean_ms on reweight-warm, live-delta, approx-hard", "compile-cold (compile dominates)"},
	{"core.patch_us", "us", "lower", "write_cpu_tail_ms, write_cpu_mean_ms on every workload (traced on live-delta; 0 elsewhere)", "read metrics on every workload"},
	{"approx.samples", "count", "lower", "read metrics and loaded_cpu_ms on approx-hard (0 elsewhere)", "reweight-warm, compile-cold, live-delta"},
	{"approx.evaluate_us", "us", "lower", "read metrics and loaded_cpu_ms on approx-hard (0 elsewhere)", "reweight-warm, compile-cold, live-delta"},
	{"approx.ns_per_sample", "ns", "lower", "read metrics and loaded_cpu_ms on approx-hard (0 elsewhere)", "reweight-warm, compile-cold, live-delta"},
	{"instance.apply_us", "us", "lower", "write_cpu_mean_ms on every workload (traced on live-delta; 0 elsewhere)", "read metrics on every workload"},
	{"instance.deltas", "count", "higher", "write metrics on live-delta (0 elsewhere)", "all: a count fixed by the inputs"},
	{"engine.do_us", "us", "lower", "read_cpu_mean_ms on every workload", "none"},
	{"engine.wait_us", "us", "lower", "none of the CPU metrics: queueing is wall time (the open-loop read tail on standard error)", "all"},
	{"engine.plan_hit_ratio", "ratio", "higher", "loaded_cpu_ms on reweight-warm (about 1; 0 on compile-cold)", "compile-cold"},
	{"engine.result_hit_ratio", "ratio", "higher", "loaded_cpu_ms on reweight-warm (repeats)", "compile-cold, approx-hard"},
	{"engine.compiles", "count", "lower", "read metrics on compile-cold", "reweight-warm, approx-hard (compiled during set-up)"},
	{"engine.batch_lanes_per_run", "count", "higher", "loaded_cpu_ms on reweight-warm (0 elsewhere)", "compile-cold, live-delta, approx-hard"},
	{"engine.incremental_ratio", "ratio", "higher", "write metrics on every workload (traced on live-delta; 0 elsewhere)", "read metrics on every workload"},
	{"engine.full_recompiles", "count", "lower", "write_cpu_tail_ms on every workload (traced on live-delta)", "read metrics on every workload"},
	{"engine.errors", "count", "lower", "ok_share on every workload (0 on the seed)", "all"},
	{"serve.overhead_us", "us", "lower", "read_cpu_mean_ms on reweight-warm", "approx-hard, compile-cold (work dominates)"},
	{"serve.encode_us", "us", "lower", "read_cpu_mean_ms on reweight-warm", "approx-hard, compile-cold"},
	{"serve.response_bytes", "bytes", "lower", "read_cpu_mean_ms on reweight-warm", "all: fixed by the answers"},
	{"gateway.hop_us", "us", "lower", "read_cpu_mean_ms, loaded_cpu_ms on reweight-warm (0 elsewhere: no gate)", "compile-cold, live-delta, approx-hard"},
	{"gateway.shed", "count", "lower", "ok_share on reweight-warm (0: no admission budget)", "compile-cold, live-delta, approx-hard"},
	{"gateway.retries", "count", "lower", "ok_share on reweight-warm (0: no backend failures)", "compile-cold, live-delta, approx-hard"},
	{"loadgen.late_p99_ms", "ms", "lower", "validity of the run, not a performance target", "all"},
	{"trace.overhead_share", "ratio", "lower", "validity of the run, not a performance target", "all"},
}
