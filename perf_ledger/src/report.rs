//! What a run reports: the declared metric names (the single list
//! `BENCHMARK.json` mirrors), the result line the driver parses, and the
//! files a traced run leaves under `perf_ledger/out/`.

use std::fmt::Write as _;

use crate::spans::Recorder;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("speedup_vs_padded", "x"),
    ("peak_rss_mb", "MB"),
];

/// The 21 encoder stages, in pipeline order.
pub const STAGES: [&str; 21] = [
    "qkv_proj",
    "qkv_bias",
    "scores",
    "scale",
    "row_max",
    "row_exp",
    "row_sum",
    "row_softmax",
    "attnv",
    "out_proj",
    "attn_bias_residual",
    "ln1_sum",
    "ln1_var",
    "ln1_norm",
    "ff1",
    "ff1_bias_gelu",
    "ff2",
    "ff_bias_residual",
    "ln2_sum",
    "ln2_var",
    "ln2_norm",
];

/// Per-layer metrics other than the per-stage ones, printed by every
/// workload with `--trace 1`.
const PER_LAYER: [(&str, &str); 57] = [
    ("datasets.rows", "rows"),
    ("datasets.padded_rows_ratio", "x"),
    ("core.lower.ms", "ms"),
    ("core.lower.stmt_nodes", "count"),
    ("core.compile.ms", "ms"),
    ("core.compile.instrs", "count"),
    ("core.compile.fused_instrs", "count"),
    ("core.prelude.ms", "ms"),
    ("core.prelude.bytes", "B"),
    ("core.verify.ms", "ms"),
    ("core.verify.blocks", "count"),
    ("core.verify.share_of_cold", "share"),
    ("core.cold.accounted_share", "share"),
    ("core.pipeline.prepare_ms", "ms"),
    ("core.pipeline.session_with_us", "us"),
    ("core.pipeline.arena_elems", "count"),
    ("core.pipeline.arena_share", "share"),
    ("transformer.encoder_compiled.build_ms", "ms"),
    ("transformer.encoder_compiled.forward_ms", "ms"),
    ("transformer.encoder_compiled.forward_serial_ms", "ms"),
    ("transformer.encoder_compiled.fast_forward_ms", "ms"),
    ("transformer.encoder_compiled.vs_ragged_ref", "x"),
    ("transformer.autotune.tune_ms", "ms"),
    ("transformer.autotune.trials", "count"),
    ("transformer.autotune.cache_hit_ms", "ms"),
    ("exec.vm.gflops", "Gflop/s"),
    ("exec.vm.aux_loads_per_run", "count"),
    ("exec.vm.stores_per_run", "count"),
    ("exec.microkernel.dot_panel_gflops", "Gflop/s"),
    ("exec.microkernel.saxpy_panel_gflops", "Gflop/s"),
    ("exec.microkernel.exp_ns_per_elem", "ns"),
    ("exec.runtime.par2_forward_ms", "ms"),
    ("exec.runtime.par2_speedup", "x"),
    ("exec.runtime.proven_dispatch_overhead", "x"),
    ("kernels.padded_ms", "ms"),
    ("kernels.ragged_ref_ms", "ms"),
    ("serve.queue.admit_ns", "ns"),
    ("serve.policy.select_ns", "ns"),
    ("serve.policy.batch_seqs_mean", "count"),
    ("serve.policy.batch_rows_mean", "rows"),
    ("serve.request.pack_us", "us"),
    ("serve.request.unpack_us", "us"),
    ("serve.pool.hit_share", "share"),
    ("serve.pool.checkout_hit_us", "us"),
    ("serve.pool.checkout_miss_ms", "ms"),
    ("serve.pool.evictions", "count"),
    ("serve.pool.distinct_shapes", "count"),
    ("serve.server.queue_wait_p50_ms", "ms"),
    ("serve.server.service_p50_ms", "ms"),
    ("serve.server.engine_busy_share", "share"),
    ("serve.server.latency_p99_ms", "ms"),
    ("serve.server.latency_tail_ms", "ms"),
    ("serve.server.latency_tail_pct", "%"),
    ("serve.server.generator_lag_p99_ms", "ms"),
    ("serve.server.overhead_share", "share"),
    ("serve.server.requests_per_s", "1/s"),
    ("trace_overhead_share", "share"),
];

/// Every per-layer metric name with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for stage in STAGES {
        all.push((format!("exec.vm.stage_ms.{stage}"), "ms"));
        all.push((format!("exec.vm.stage_flops.{stage}"), "flop"));
    }
    all
}

/// Metric values of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| n == name),
            "metric `{name}` reported twice"
        );
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Of those: errors, rejections and output mismatches.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Checks the run reported exactly the declared metrics, prints them by
/// name with their unit, and returns the result line.
///
/// # Panics
///
/// Panics when a declared metric is missing, an undeclared one was
/// reported, or a value is not finite — a bug in the benchmark.
pub fn render(outcome: &Outcome, declared: &[(String, &'static str)]) -> String {
    for (name, _) in &outcome.metrics.0 {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric `{name}` is not declared in report.rs"
        );
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("declared metric `{name}` was not reported"));
        assert!(value.is_finite(), "metric `{name}` is {value}");
        println!("{name:<52} {value:>16.6} {unit}");
        if i > 0 {
            line.push_str(", ");
        }
        write!(
            line,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        )
        .expect("string write");
    }
    line.push_str("}}");
    line
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Writes the traced run's files next to the benchmark and prints the
/// self-time table.
pub fn write_trace(workload: &str, rec: &Recorder) -> std::io::Result<()> {
    let dir = std::path::Path::new("perf_ledger/out");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{workload}.json")),
        rec.chrome_trace(),
    )?;
    let mut table = format!(
        "{:<28} {:>8} {:>14} {:>14}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in rec.self_times() {
        writeln!(
            table,
            "{name:<28} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )
        .expect("string write");
    }
    print!("{table}");
    std::fs::write(dir.join(format!("selftime-{workload}.txt")), table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_fit_the_benchmark_contract() {
        let all = per_layer();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metrics.put("b", 2.5);
        o.metrics.put("a", 1.0);
        let line = render(&o, &[("a".to_string(), "ms"), ("b".to_string(), "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"1/s\"}}}"
        );
    }
}
