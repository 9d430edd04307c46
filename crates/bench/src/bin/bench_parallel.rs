//! `bench_parallel` — wall-clock benchmark of the parallel partition
//! executor, emitting the repo's perf baseline `BENCH_parallel.json`.
//!
//! Run with `--help` (or `-h`) for the flags.
//!
//! `--zipf` sets the key distribution's Zipf exponent fixed-point ×100
//! (`--zipf 120` = Zipf(1.2); 0 = uniform keys, the default). The run
//! always includes the grid-vs-time-only comparison; its structural
//! outcome (byte-identity, max cell share) is validated on emit.
//!
//! `--smoke` selects the tiny CI geometry; `--validate` checks an emitted
//! document against the benchmark schema and exits non-zero on mismatch.
//! With `--baseline`, the document's deterministic counters must also stay
//! within `--tolerance-permille` (default 0 = exact) of the checked-in
//! baseline — the CI bench-regression gate.

use std::process::ExitCode;
use vtjoin_bench::parallel::{run, smoke_config, validate, ParallelBenchConfig};
use vtjoin_bench::regress::validate_with_baseline;
use vtjoin_obs::Json;

/// Printed by `--help` / `-h`.
const USAGE: &str = "\
usage:
  bench_parallel [--out FILE] [--tuples N] [--long-lived N] [--keys N]
                 [--lifespan N] [--partitions N] [--threads 1,2,4]
                 [--repeats N] [--seed N] [--zipf X100] [--no-baseline]
                 [--smoke]
  bench_parallel --validate FILE [--baseline FILE] [--tolerance-permille N]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let mut cfg = ParallelBenchConfig::default();
    let mut out = "BENCH_parallel.json".to_owned();
    let mut validate_path: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance_permille = 0_u64;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |name: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "--validate" => validate_path = Some(value(arg)?),
            "--baseline" => baseline = Some(value(arg)?),
            "--tolerance-permille" => tolerance_permille = parse(arg, &value(arg)?)?,
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            "--smoke" => {
                cfg = smoke_config();
                i += 1;
                continue;
            }
            "--no-baseline" => {
                cfg.baseline_threads = None;
                i += 1;
                continue;
            }
            "--out" => out = value(arg)?,
            "--tuples" => cfg.tuples = parse(arg, &value(arg)?)?,
            "--long-lived" => cfg.long_lived = parse(arg, &value(arg)?)?,
            "--keys" => cfg.keys = parse(arg, &value(arg)?)?,
            "--lifespan" => cfg.lifespan = parse(arg, &value(arg)?)?,
            "--partitions" => cfg.partitions = parse(arg, &value(arg)?)?,
            "--repeats" => cfg.repeats = parse(arg, &value(arg)?)?,
            "--seed" => cfg.seed = parse(arg, &value(arg)?)?,
            "--zipf" => cfg.zipf_x100 = parse(arg, &value(arg)?)?,
            "--threads" => {
                cfg.threads = value(arg)?
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--threads: bad list entry `{t}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if cfg.threads.is_empty() {
                    return Err("--threads: empty list".into());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }

    if let Some(path) = validate_path {
        validate_with_baseline(&path, baseline.as_deref(), tolerance_permille, validate)?;
        match baseline {
            Some(base) => println!("{path}: valid, no counter drift vs {base}"),
            None => println!("{path}: valid parallel benchmark document"),
        }
        return Ok(());
    }
    if baseline.is_some() {
        return Err("--baseline only applies with --validate".into());
    }

    let doc = run(&cfg);
    validate(&doc).expect("emitted document must satisfy its own schema");
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    if let Some(base) = doc.get("baseline") {
        let x100 = base.get("speedup_x100").and_then(Json::as_i64).unwrap_or(0);
        println!(
            "  vs naive executor at {} threads: {}.{:02}x",
            base.get("threads").and_then(Json::as_i64).unwrap_or(0),
            x100 / 100,
            x100 % 100,
        );
    }
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        println!(
            "  {} thread(s): {} µs, utilization {}%",
            run.get("threads").and_then(Json::as_i64).unwrap_or(0),
            run.get("wall_micros").and_then(Json::as_i64).unwrap_or(0),
            run.get("utilization_percent")
                .and_then(Json::as_i64)
                .unwrap_or(0),
        );
    }
    if let Some(grid) = doc.get("grid") {
        println!(
            "  grid {}x{}: max cell share {}% (time-only {}%), identical to serial: {}",
            grid.get("key_buckets").and_then(Json::as_i64).unwrap_or(0),
            grid.get("time_partitions")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            grid.get("max_cell_share_percent")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            grid.get("time_only_max_share_percent")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            grid.get("grid_identical_to_serial")
                .and_then(Json::as_i64)
                .unwrap_or(0),
        );
        for run in grid.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            println!(
                "    {} thread(s): grid {} µs vs time-only {} µs",
                run.get("threads").and_then(Json::as_i64).unwrap_or(0),
                run.get("grid_wall_micros")
                    .and_then(Json::as_i64)
                    .unwrap_or(0),
                run.get("time_only_wall_micros")
                    .and_then(Json::as_i64)
                    .unwrap_or(0),
            );
        }
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("{flag}: bad number `{v}`"))
}
