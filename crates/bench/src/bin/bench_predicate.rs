//! `bench_predicate` — the Allen-predicate grid (duplicate-ratio ×
//! predicate) over the parallel executor, emitting `BENCH_predicate.json`.
//! Every cell is checked byte-identical against the predicate-
//! parameterized nested-loop oracle.
//!
//! Run with `--help` (or `-h`) for the flags.
//!
//! `--smoke` selects the tiny CI geometry; `--validate` checks an emitted
//! document against the benchmark schema (including per-cell oracle
//! identity and all-three-templates coverage) and exits non-zero on
//! mismatch. With `--baseline`, deterministic counters must also stay
//! within `--tolerance-permille` (default 0 = exact) of the checked-in
//! baseline.

use std::process::ExitCode;
use vtjoin_bench::predicate::{run, smoke_config, validate, PredicateBenchConfig};
use vtjoin_bench::regress::validate_with_baseline;
use vtjoin_obs::Json;

/// Printed by `--help` / `-h`.
const USAGE: &str = "\
usage:
  bench_predicate [--out FILE] [--tuples N] [--long-lived N] [--lifespan N]
                  [--max-duration N] [--ratios N,N,...] [--partitions N]
                  [--threads N] [--repeats N] [--seed N] [--smoke]
  bench_predicate --validate FILE [--baseline FILE] [--tolerance-permille N]
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
    let mut cfg = PredicateBenchConfig::default();
    let mut out = "BENCH_predicate.json".to_owned();
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
            "--out" => out = value(arg)?,
            "--tuples" => cfg.tuples = parse(arg, &value(arg)?)?,
            "--long-lived" => cfg.long_lived = parse(arg, &value(arg)?)?,
            "--lifespan" => cfg.lifespan = parse(arg, &value(arg)?)?,
            "--max-duration" => cfg.max_duration = parse(arg, &value(arg)?)?,
            "--ratios" => {
                cfg.duplicate_ratios = value(arg)?
                    .split(',')
                    .map(|v| parse(arg, v.trim()))
                    .collect::<Result<Vec<u64>, String>>()?;
                if cfg.duplicate_ratios.is_empty() {
                    return Err("--ratios needs at least one value".into());
                }
            }
            "--partitions" => cfg.partitions = parse(arg, &value(arg)?)?,
            "--threads" => cfg.threads = parse(arg, &value(arg)?)?,
            "--repeats" => cfg.repeats = parse(arg, &value(arg)?)?,
            "--seed" => cfg.seed = parse(arg, &value(arg)?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }

    if let Some(path) = validate_path {
        validate_with_baseline(&path, baseline.as_deref(), tolerance_permille, validate)?;
        match baseline {
            Some(base) => println!("{path}: valid, no counter drift vs {base}"),
            None => println!("{path}: valid predicate benchmark document"),
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
    for c in doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
        let get = |k: &str| c.get(k).and_then(Json::as_i64).unwrap_or(0);
        println!(
            "  {:<20} ({:<12} dup {}): {} tuples, {} µs, {} filter checks, {} merge pairs",
            c.get("predicate").and_then(Json::as_str).unwrap_or("?"),
            c.get("template").and_then(Json::as_str).unwrap_or("?"),
            get("duplicates_per_key"),
            get("result_tuples"),
            get("wall_micros"),
            get("filter_checks"),
            get("merge_pairs_scanned"),
        );
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("{flag}: bad number `{v}`"))
}
