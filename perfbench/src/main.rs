//! `perfbench` — the vtjoin end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli-join|serve-mix|disk-paper --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from `--seed`, sets the workload up three
//! to fifteen times (reporting the median set-up time), warms up, then
//! runs ops for `--seconds` seconds of op time and checks every result
//! against the `vtjoin-core` algebra oracles outside the timed window.
//! With `--trace 0` it reports the end-to-end metrics; with `--trace 1` every
//! second op records a span around each layer call and the run reports
//! per-layer self times, report counters and the tracing overhead, and
//! writes the spans as Chrome trace-event JSON under `.perfbench/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! See `perfbench/README.md` for the workloads and every metric.

mod check;
mod cli_join;
mod disk_paper;
mod host;
mod serve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-up repetitions per run: at least the first, and more until they
/// have taken [`SETUP_BUDGET_S`] in all, up to the second. `setup_s` is
/// their median, so quick set-ups are repeated more to steady it.
pub const SETUP_REPEATS: (usize, usize) = (3, 15);

/// Set-up time, seconds, after which no further set-up is started once
/// the minimum number has run.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Whether a workload has set up often enough, given the times of the
/// set-ups so far.
pub fn setup_done(setup_s: &[f64]) -> bool {
    let (min, max) = SETUP_REPEATS;
    setup_s.len() >= max || (setup_s.len() >= min && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S)
}

/// Directory, relative to the working directory, for generated files and
/// traces.
pub const WORK_DIR: &str = ".perfbench";

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run; layers a workload
/// leaves idle read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Span self times, ms per traced op.
    ("workload.io.parse_ms", "ms"),
    ("join.partition.plan_grid_ms", "ms"),
    ("engine.parallel.execute_ms", "ms"),
    ("obs.report.encode_ms", "ms"),
    ("workload.io.serialize_ms", "ms"),
    ("engine.service.submit_ms", "ms"),
    ("engine.operator.submit_ms", "ms"),
    ("join.partition.execute_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.op_mean_ms", "ms"),
    ("trace.untraced_op_mean_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    // cli-join: text I/O and the grid executor's report.
    ("workload.io.output_mb", "MiB"),
    ("engine.parallel.replicate_ms", "ms"),
    ("engine.parallel.join_ms", "ms"),
    ("engine.parallel.coordinator_wait_ms", "ms"),
    ("engine.parallel.worker_busy_ms", "ms"),
    ("engine.parallel.effective_parallelism", "cores"),
    ("engine.parallel.effective_parallelism_min", "cores"),
    ("engine.parallel.minor_faults", "count"),
    ("join.columnar.encode_ms", "ms"),
    ("join.columnar.materialized_rows", "count"),
    ("join.kernel.sweep_comparisons", "count"),
    ("join.kernel.batches_flushed", "count"),
    // serve-mix: admission, caches, operator executor.
    ("engine.service.admission_wait_p50_ms", "ms"),
    ("engine.service.admission_wait_p90_ms", "ms"),
    ("storage.reserve.pool_high_water_pages", "pages"),
    ("engine.service.exec_ms", "ms"),
    ("engine.service.plan_cache_hit_ratio", "ratio"),
    ("engine.service.invalidations", "count"),
    ("engine.service.residency_hit_ratio", "ratio"),
    ("engine.service.append_ms", "ms"),
    ("engine.service.first_batch_ms", "ms"),
    ("engine.operator.exec_ms", "ms"),
    ("engine.operator.pairs_logged", "count"),
    ("engine.operator.dangling", "count"),
    ("engine.operator.stitched", "count"),
    // disk-paper: the partition join's phases and the paper's I/O metric.
    ("io_cost", "count"),
    ("join.partition.plan_ms", "ms"),
    ("join.partition.partition_ms", "ms"),
    ("join.partition.join_ms", "ms"),
    ("join.partition.plan.io_random", "count"),
    ("join.partition.plan.io_sequential", "count"),
    ("join.partition.partition.io_random", "count"),
    ("join.partition.partition.io_sequential", "count"),
    ("join.partition.join.io_random", "count"),
    ("join.partition.join.io_sequential", "count"),
    ("join.partition.plan.predicted_cost", "count"),
    ("join.partition.join.predicted_cost", "count"),
    ("join.partition.predicted_io_deviation", "count"),
    ("join.partition.cache_pages_written", "count"),
    ("join.sort_merge.io_cost", "count"),
    ("join.sort_merge.cost_ratio", "ratio"),
    // Set-up.
    ("storage.heap.bulk_load_ms", "ms"),
    // Host.
    ("host.cores", "count"),
    ("host.calibration_ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Op time to measure.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload cli-join|serve-mix|disk-paper \
--seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cli-join", "serve-mix", "disk-paper"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase (serve-mix: and in its warm-up,
    /// whose requests are checked too).
    pub attempted: u64,
    /// Ops that failed, were rejected, or mismatched the oracle.
    pub failed: u64,
    /// Run-level checks that are not per-op (service balance, exact I/O
    /// repetition, trace arithmetic); any message here fails the run.
    pub problems: Vec<String>,
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every measured op, ms.
    pub latencies_ms: Vec<f64>,
    /// When each measured op completed, seconds from the start of the
    /// measured phase, in the order of `latencies_ms` (serve-mix only).
    pub done_s: Vec<f64>,
    /// Width in seconds and number of the windows over which `op_p90_ms`
    /// and `ops_per_s` are taken as medians (serve-mix only); `None` takes
    /// them over the whole run.
    pub windows: Option<(f64, usize)>,
    /// Wall time of the measured phase, seconds.
    pub wall_s: f64,
    /// Process CPU attributed to the measured ops, ms.
    pub cpu_ms: f64,
    /// Resident-set high-water mark at the end of the measured phase, MiB
    /// (before the post-run checks allocate).
    pub peak_rss_mb: f64,
    /// Per-layer values by name (see [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced ops.
    pub spans: Vec<trace::Span>,
    /// Latencies of the traced ops, ms (trace runs only).
    pub traced_ms: Vec<f64>,
    /// Latencies of the untraced ops, ms (trace runs only).
    pub untraced_ms: Vec<f64>,
}

impl Outcome {
    /// Records a per-layer value; the name must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric `{name}` is not declared"
        );
        self.layers.insert(name, value);
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let ops = self.latencies_ms.len().max(1) as f64;
        let (p90, per_s) = match self.windows {
            // Medians over windows: a stretch in which the host starved the
            // process moves a minority of windows, not the figure.
            Some((width, count)) => {
                let ws = stats::windows(&self.done_s, &self.latencies_ms, width, count);
                let p90: Vec<f64> = ws
                    .iter()
                    .filter_map(|w| stats::percentile(w, 90.0))
                    .collect();
                let per_s: Vec<f64> = stats::windows(&self.done_s, &self.done_s, width, count)
                    .iter()
                    .filter_map(|w| stats::rate(w))
                    .collect();
                (stats::median(&p90), stats::median(&per_s).unwrap_or(0.0))
            }
            None => (
                stats::percentile(&self.latencies_ms, 90.0),
                self.latencies_ms.len() as f64 / self.wall_s.max(1e-9),
            ),
        };
        BTreeMap::from([
            ("setup_s", stats::median(&self.setup_s).unwrap_or(0.0)),
            (
                "op_p50_ms",
                stats::percentile(&self.latencies_ms, 50.0).unwrap_or(0.0),
            ),
            ("op_p90_ms", p90.unwrap_or(0.0)),
            ("ops_per_s", per_s),
            ("cpu_ms_per_op", self.cpu_ms / ops),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }

    /// Folds the traced ops' spans into per-layer self times and the
    /// tracing overhead, and checks that self times add up to op time.
    fn fold_trace(&mut self) {
        let traced = self.traced_ms.len().max(1) as f64;
        let selfs = trace::self_times(&self.spans);
        let total_self: u64 = selfs.values().sum();
        let root_total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == trace::ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if total_self != root_total {
            self.problems.push(format!(
                "trace: layer self times sum to {total_self} ns, ops took {root_total} ns"
            ));
        }
        for (name, ns) in selfs {
            let ms = ns as f64 / 1e6 / traced;
            if name == trace::ROOT {
                self.layer("unattributed_ms", ms);
            } else {
                let metric = PER_LAYER
                    .iter()
                    .map(|(n, _)| *n)
                    .find(|n| n.strip_suffix("_ms") == Some(name))
                    .unwrap_or_else(|| panic!("span `{name}` has no `{name}_ms` metric"));
                self.layer(metric, ms);
            }
        }
        self.layer("trace.op_mean_ms", root_total as f64 / 1e6 / traced);
        let (t, u) = (stats::mean(&self.traced_ms), stats::mean(&self.untraced_ms));
        self.layer("trace.untraced_op_mean_ms", u);
        self.layer("trace.overhead_ms", t - u);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = host::cores();
    let load_before = host::loadavg();
    let calibration_before = host::calibration_ms();
    let steal_before = host::steal_ticks();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    if cores < 2 {
        println!("host: WARNING only {cores} core(s): multi-thread figures are not comparable");
    }

    let work = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let mut out = match args.workload.as_str() {
        "cli-join" => cli_join::run(&args, &work),
        "serve-mix" => serve_mix::run(&args),
        "disk-paper" => disk_paper::run(&args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    out.layer("host.cores", cores as f64);
    let load_after = host::loadavg();
    let steal_after = host::steal_ticks();
    let steal_pct = 100.0 * steal_after.0.saturating_sub(steal_before.0) as f64
        / steal_after.1.saturating_sub(steal_before.1).max(1) as f64;
    let calibration_after = host::calibration_ms();
    out.layer(
        "host.calibration_ms",
        (calibration_before + calibration_after) / 2.0,
    );
    println!(
        "host: cores={cores} loadavg_before={load_before} loadavg_after={load_after} \
         steal_pct={steal_pct:.2} calibration_ms_before={calibration_before:.2} \
         calibration_ms_after={calibration_after:.2}"
    );

    let attempted = out.attempted;
    let failed = out.failed;
    println!(
        "fail_ratio = {} ({failed} of {attempted} ops failed)",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        out.fold_trace();
        let path = work.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, trace::chrome_json(&out.spans)) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                out.spans.len(),
                path.display()
            ),
            Err(e) => out
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, out.layers.get(n).copied().unwrap_or(0.0), *u))
            .collect()
    } else {
        let e2e = out.end_to_end();
        END_TO_END.iter().map(|(n, u)| (*n, e2e[n], *u)).collect()
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value:.4} {unit}");
    }
    for p in &out.problems {
        println!("check failed: {p}");
    }
    let correct = failed == 0 && attempted > 0 && out.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-mix --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("serve-mix", 7, 3, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload cli-join --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload cli-join --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload cli-join --seconds 1").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn setup_repeats_until_the_budget_is_spent() {
        assert!(!setup_done(&[]));
        assert!(!setup_done(&[5.0, 5.0]));
        assert!(setup_done(&[5.0, 5.0, 5.0]));
        assert!(!setup_done(&[0.1; 9]));
        assert!(setup_done(&[0.125; 8]));
        assert!(setup_done(&[0.01; 15]));
    }

    #[test]
    fn folded_self_times_add_up_to_op_time() {
        use trace::{Span, ROOT};
        let span = |id, parent, name, start, end| Span {
            id,
            parent,
            op: 0,
            tid: 0,
            name,
            start_ns: start,
            end_ns: end,
        };
        let mut out = Outcome {
            spans: vec![
                span(1, None, ROOT, 0, 4_000_000),
                span(2, Some(1), "workload.io.parse", 0, 1_000_000),
                span(3, Some(1), "engine.parallel.execute", 1_000_000, 3_000_000),
                span(4, None, ROOT, 10_000_000, 12_000_000),
                span(5, Some(4), "workload.io.parse", 10_500_000, 11_500_000),
            ],
            traced_ms: vec![4.0, 2.0],
            untraced_ms: vec![2.5, 2.5],
            ..Outcome::default()
        };
        out.fold_trace();
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        let l = &out.layers;
        assert_eq!(l["workload.io.parse_ms"], 1.0);
        assert_eq!(l["engine.parallel.execute_ms"], 1.0);
        assert_eq!(l["unattributed_ms"], 1.0);
        assert_eq!(l["trace.op_mean_ms"], 3.0);
        assert_eq!(l["trace.overhead_ms"], 0.5);
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics declared"
        );
    }
}
