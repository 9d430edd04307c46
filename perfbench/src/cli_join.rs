//! `cli-join`: what `vtjoin join OUTER INNER --threads 2 -o OUT` does,
//! file to file.
//!
//! Set-up writes two text relations with Zipf-skewed keys, long-lived
//! tuples and short tuples of up to 195 chronons. Each op parses both
//! files (`from_text`), plans the grid (`plan_grid`), runs the grid
//! executor on two threads, encodes the execution report
//! (`to_json_string`) and writes the result as text (`to_text` plus the
//! file write). The op is timed from the first file read to the last byte
//! written. The written file is checked against the `natural_join` oracle
//! outside the timed window.

use crate::check::Digest;
use crate::host::{self, ProcStat};
use crate::stats;
use crate::trace::{OpScope, Tracer};
use crate::{setup_done, Args, Outcome};
use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vtjoin_core::algebra::natural_join;
use vtjoin_core::{Interval, JoinPredicate, Relation};
use vtjoin_engine::grid_execution_report_layout;
use vtjoin_join::common::JoinSpec;
use vtjoin_join::partition::intervals::equal_width;
use vtjoin_join::partition::{plan_grid, GridChoice};
use vtjoin_join::{KernelChoice, Layout};
use vtjoin_obs::ExecutionReport;
use vtjoin_workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
};
use vtjoin_workload::{from_text, to_text};

/// Tuples per side.
pub const TUPLES: u64 = 100_000;
/// Long-lived tuples per side (half the lifespan each).
pub const LONG_LIVED: u64 = 100;
/// Distinct join keys.
pub const KEYS: u64 = 512;
/// Zipf exponent of the key distribution.
pub const ZIPF: f64 = 1.0;
/// Lifespan in chronons.
pub const LIFESPAN: i64 = 100_000;
/// Longest short-lived tuple, in chronons (`LIFESPAN / KEYS`).
pub const MAX_DURATION: i64 = LIFESPAN / KEYS as i64;
/// Grid executor threads, as `--threads 2`.
pub const THREADS: usize = 2;
/// Time partitions, the CLI's default for two threads.
pub const PARTITIONS: u64 = 16;

/// splitmix64: decorrelates the per-side seeds derived from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn generate_pair(seed: u64) -> (Relation, Relation) {
    let cfg = |seed| GeneratorConfig {
        tuples: TUPLES,
        long_lived: LONG_LIVED,
        lifespan: LIFESPAN,
        keys: KEYS,
        key_dist: KeyDistribution::Zipf(ZIPF),
        time_dist: TimeDistribution::Uniform,
        duration_dist: DurationDistribution::UniformUpTo(MAX_DURATION),
        pad_bytes: 0,
        seed,
    };
    (
        generate(outer_schema(0), &cfg(mix(seed, 1))),
        generate(inner_schema(0), &cfg(mix(seed, 2))),
    )
}

struct Paths {
    outer: PathBuf,
    inner: PathBuf,
    result: PathBuf,
}

/// What one op measured.
struct OpRecord {
    latency_ms: f64,
    cpu_ms: f64,
    exec_ms: f64,
    exec_cpu_ms: f64,
    exec_minor_faults: u64,
    output_bytes: usize,
    report: ExecutionReport,
}

fn load(path: &Path) -> Result<Relation, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    from_text(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// One file-to-file join, spanning each layer call when `tracer` is set.
/// The inputs and the result are freed after the op's window closes, as
/// the CLI leaves them to process exit.
fn one_op(paths: &Paths, tracer: Option<&Tracer>, op: u64) -> Result<OpRecord, String> {
    let scope = OpScope::begin(tracer, op, 0);
    let stat0 = ProcStat::now();
    let t0 = Instant::now();
    let (r, s) = scope.layer("workload.io.parse", || {
        Ok::<_, String>((load(&paths.outer)?, load(&paths.inner)?))
    })?;
    let plan = scope.layer("join.partition.plan_grid", || {
        let hull = match (r.lifespan(), s.lifespan()) {
            (Some(a), Some(b)) => {
                Interval::new(a.start().min(b.start()), a.end().max(b.end())).expect("ordered hull")
            }
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => Interval::ALL,
        };
        let intervals = equal_width(hull, PARTITIONS);
        let spec = JoinSpec::natural(r.schema(), s.schema()).map_err(|e| e.to_string())?;
        Ok::<_, String>(plan_grid(&spec, &r, &s, &intervals, THREADS, GridChoice::Auto).plan)
    })?;
    let exec_stat0 = ProcStat::now();
    let exec_t0 = Instant::now();
    let (result, report) = scope
        .layer("engine.parallel.execute", || {
            grid_execution_report_layout(
                &r,
                &s,
                &plan,
                THREADS,
                KernelChoice::Auto,
                &JoinPredicate::intersects(),
                Layout::default(),
            )
        })
        .map_err(|e| format!("grid join: {e}"))?;
    let exec_ms = exec_t0.elapsed().as_secs_f64() * 1e3;
    let exec_stat1 = ProcStat::now();
    let json = scope.layer("obs.report.encode", || report.to_json_string());
    std::hint::black_box(&json);
    let output_bytes = scope.layer("workload.io.serialize", || {
        let text = to_text(&result);
        fs::write(&paths.result, &text)
            .map(|()| text.len())
            .map_err(|e| format!("writing {}: {e}", paths.result.display()))
    })?;
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stat1 = ProcStat::now();
    scope.end();
    Ok(OpRecord {
        latency_ms,
        cpu_ms: stat1.cpu_ms - stat0.cpu_ms,
        exec_ms,
        exec_cpu_ms: exec_stat1.cpu_ms - exec_stat0.cpu_ms,
        exec_minor_faults: exec_stat1.minor_faults - exec_stat0.minor_faults,
        output_bytes,
        report,
    })
}

fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Checks a written result file against the oracle digest. The file is
/// parsed back and compared as a multiset; a file byte-identical to one
/// already verified this run is accepted by content hash.
pub fn verify_output(
    bytes: &[u8],
    want: &Digest,
    verified: &mut Option<u64>,
) -> Result<(), String> {
    let h = content_hash(bytes);
    if *verified == Some(h) {
        return Ok(());
    }
    let text = std::str::from_utf8(bytes).map_err(|e| format!("result is not text: {e}"))?;
    let rel = from_text(text).map_err(|e| format!("result does not parse: {e}"))?;
    let got = Digest::of(&rel);
    if got != *want {
        return Err(format!(
            "result differs from the natural_join oracle ({} tuples, oracle {})",
            got.tuples, want.tuples
        ));
    }
    *verified = Some(h);
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let dir = work.join(format!("cli-join-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&dir) {
        out.problems
            .push(format!("creating {}: {e}", dir.display()));
        return out;
    }
    let paths = Paths {
        outer: dir.join("outer.vt"),
        inner: dir.join("inner.vt"),
        result: dir.join("result.vt"),
    };
    println!(
        "workload cli-join: {TUPLES} tuples/side, {LONG_LIVED} long-lived, {KEYS} keys Zipf({ZIPF}), \
         lifespan {LIFESPAN}, durations 1..={MAX_DURATION}, uniform starts, seeds mix(seed,1|2); \
         grid auto, {PARTITIONS} time partitions, {THREADS} threads"
    );

    // Set-up: generate and write both relations, several times.
    let mut pair = None;
    while !setup_done(&out.setup_s) {
        let t0 = Instant::now();
        let (r, s) = generate_pair(args.seed);
        let written = fs::write(&paths.outer, to_text(&r))
            .and_then(|()| fs::write(&paths.inner, to_text(&s)));
        if let Err(e) = written {
            out.problems.push(format!("writing inputs: {e}"));
            return out;
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        pair = Some((r, s));
    }
    let (r, s) = pair.expect("at least one set-up");
    let want = Digest::of(&natural_join(&r, &s).expect("generated schemas join"));
    drop((r, s));
    println!("oracle: natural_join gives {} tuples", want.tuples);

    let tracer = Tracer::new();
    let mut verified = None;
    let mut check = |what: &str| -> bool {
        let checked = fs::read(&paths.result)
            .map_err(|e| format!("reading back {}: {e}", paths.result.display()))
            .and_then(|bytes| verify_output(&bytes, &want, &mut verified));
        match checked {
            Ok(()) => true,
            Err(e) => {
                println!("{what}: {e}");
                false
            }
        }
    };

    // Warm-up op: page in the binary, fill the allocator.
    match one_op(&paths, None, 0) {
        Ok(_) if check("warm-up") => {}
        Ok(_) => out
            .problems
            .push("warm-up result mismatched the oracle".into()),
        Err(e) => out.problems.push(format!("warm-up failed: {e}")),
    }

    let mut records = Vec::new();
    let mut op_time = Duration::ZERO;
    let mut op = 0u64;
    while op_time < args.seconds {
        let traced = args.trace && op % 2 == 1;
        let started = Instant::now();
        let rec = one_op(&paths, traced.then_some(&tracer), op);
        op_time += started.elapsed();
        out.attempted += 1;
        match rec {
            Ok(rec) => {
                println!(
                    "op {op}: {:.1} ms, execute {:.1} ms at effective parallelism {:.2}",
                    rec.latency_ms,
                    rec.exec_ms,
                    rec.exec_cpu_ms / rec.exec_ms.max(1e-9)
                );
                if !check(&format!("op {op}")) {
                    out.failed += 1;
                }
                out.latencies_ms.push(rec.latency_ms);
                out.cpu_ms += rec.cpu_ms;
                if args.trace {
                    if traced {
                        &mut out.traced_ms
                    } else {
                        &mut out.untraced_ms
                    }
                    .push(rec.latency_ms);
                }
                records.push(rec);
            }
            Err(e) => {
                println!("op {op}: failed: {e}");
                out.failed += 1;
            }
        }
        op += 1;
    }
    out.wall_s = op_time.as_secs_f64();
    out.peak_rss_mb = host::peak_rss_mb();
    let _ = fs::remove_dir_all(&dir);
    out.spans = tracer.into_spans();
    layers(&mut out, &records);
    out
}

fn layers(out: &mut Outcome, records: &[OpRecord]) {
    let avg =
        |f: &dyn Fn(&OpRecord) -> f64| stats::mean(&records.iter().map(f).collect::<Vec<_>>());
    let phase_ms = |r: &OpRecord, name: &str| {
        r.report
            .phase(name)
            .map_or(0.0, |p| p.wall_micros as f64 / 1e3)
    };
    let parallelism: Vec<f64> = records
        .iter()
        .map(|r| r.exec_cpu_ms / r.exec_ms.max(1e-9))
        .collect();
    out.layer(
        "workload.io.output_mb",
        avg(&|r| r.output_bytes as f64 / (1 << 20) as f64),
    );
    out.layer(
        "engine.parallel.replicate_ms",
        avg(&|r| phase_ms(r, "replicate")),
    );
    out.layer("engine.parallel.join_ms", avg(&|r| phase_ms(r, "join")));
    out.layer(
        "engine.parallel.coordinator_wait_ms",
        avg(&|r| {
            r.report
                .grid
                .as_ref()
                .map_or(0.0, |g| g.coordinator_wait_micros as f64 / 1e3)
        }),
    );
    out.layer(
        "engine.parallel.worker_busy_ms",
        avg(&|r| {
            r.report
                .workers
                .iter()
                .map(|w| w.busy_micros as f64 / 1e3)
                .sum()
        }),
    );
    out.layer(
        "engine.parallel.effective_parallelism",
        stats::mean(&parallelism),
    );
    out.layer(
        "engine.parallel.effective_parallelism_min",
        parallelism
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX),
    );
    out.layer(
        "engine.parallel.minor_faults",
        avg(&|r| r.exec_minor_faults as f64),
    );
    out.layer(
        "join.columnar.encode_ms",
        avg(&|r| {
            r.report
                .columnar
                .as_ref()
                .map_or(0.0, |c| c.encode_micros as f64 / 1e3)
        }),
    );
    out.layer(
        "join.columnar.materialized_rows",
        avg(&|r| {
            r.report
                .columnar
                .as_ref()
                .map_or(0.0, |c| c.materialized_rows as f64)
        }),
    );
    out.layer(
        "join.kernel.sweep_comparisons",
        avg(&|r| {
            r.report
                .kernel
                .as_ref()
                .map_or(0.0, |k| k.sweep_comparisons as f64)
        }),
    );
    out.layer(
        "join.kernel.batches_flushed",
        avg(&|r| {
            r.report
                .kernel
                .as_ref()
                .map_or(0.0, |k| k.batches_flushed as f64)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_workload::generate::GeneratorConfig;

    fn small_pair() -> (Relation, Relation) {
        let cfg = |seed| GeneratorConfig {
            tuples: 400,
            long_lived: 5,
            lifespan: 2_000,
            keys: 16,
            key_dist: KeyDistribution::Zipf(ZIPF),
            time_dist: TimeDistribution::Uniform,
            duration_dist: DurationDistribution::UniformUpTo(40),
            pad_bytes: 0,
            seed,
        };
        (
            generate(outer_schema(0), &cfg(1)),
            generate(inner_schema(0), &cfg(2)),
        )
    }

    #[test]
    fn a_correct_file_passes_and_is_then_accepted_by_hash() {
        let (r, s) = small_pair();
        let joined = natural_join(&r, &s).unwrap();
        let want = Digest::of(&joined);
        let mut verified = None;
        let text = to_text(&joined);
        verify_output(text.as_bytes(), &want, &mut verified).unwrap();
        assert!(verified.is_some());
        verify_output(text.as_bytes(), &want, &mut verified).unwrap();
    }

    #[test]
    fn a_corrupted_file_fails_even_after_a_verified_one() {
        let (r, s) = small_pair();
        let joined = natural_join(&r, &s).unwrap();
        let want = Digest::of(&joined);
        let mut verified = None;
        let text = to_text(&joined);
        verify_output(text.as_bytes(), &want, &mut verified).unwrap();

        // Drop the last result row.
        let trimmed = text.trim_end_matches('\n');
        let cut = &trimmed[..trimmed.rfind('\n').unwrap() + 1];
        assert!(verify_output(cut.as_bytes(), &want, &mut verified).is_err());
        // Change one end chronon ("…|17\n" → "…|18\n").
        let mut bytes = text.clone().into_bytes();
        let last_digit = bytes.len() - 2;
        bytes[last_digit] = if bytes[last_digit] == b'9' {
            b'8'
        } else {
            bytes[last_digit] + 1
        };
        assert!(verify_output(&bytes, &want, &mut verified).is_err());
        // Not text at all.
        assert!(verify_output(&[0xff, 0xfe], &want, &mut verified).is_err());
    }

    #[test]
    fn seeds_change_the_inputs_and_repeat_them() {
        assert_ne!(mix(1, 1), mix(1, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_eq!(mix(5, 1), mix(5, 1));
    }
}
