//! `bench_kernel` — wall-clock comparison of the forced-hash and
//! forced-sweep intra-partition join kernels on the duplicate-heavy
//! clustered workload, emitting `BENCH_kernel.json`.
//!
//! Run with `--help` (or `-h`) for the flags.
//!
//! `--smoke` selects the tiny CI geometry; `--validate` checks an emitted
//! document against the benchmark schema (including the byte-identity and
//! equal-cardinality requirements) and exits non-zero on mismatch. With
//! `--baseline`, deterministic counters must also stay within
//! `--tolerance-permille` (default 0 = exact) of the checked-in baseline.

use std::process::ExitCode;
use vtjoin_bench::kernel::{run, smoke_config, validate, KernelBenchConfig};
use vtjoin_bench::regress::validate_with_baseline;
use vtjoin_obs::Json;

/// Printed by `--help` / `-h`.
const USAGE: &str = "\
usage:
  bench_kernel [--out FILE] [--tuples N] [--long-lived N] [--keys N]
               [--lifespan N] [--max-duration N] [--partitions N]
               [--threads N] [--repeats N] [--seed N] [--smoke]
  bench_kernel --validate FILE [--baseline FILE] [--tolerance-permille N]
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
    let mut cfg = KernelBenchConfig::default();
    let mut out = "BENCH_kernel.json".to_owned();
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
            "--keys" => cfg.keys = parse(arg, &value(arg)?)?,
            "--lifespan" => cfg.lifespan = parse(arg, &value(arg)?)?,
            "--max-duration" => cfg.max_duration = parse(arg, &value(arg)?)?,
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
            None => println!("{path}: valid kernel benchmark document"),
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
    let x100 = doc
        .get("speedup_x100_sweep_vs_hash")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    println!("  sweep vs hash: {}.{:02}x", x100 / 100, x100 % 100);
    for k in doc.get("kernels").and_then(Json::as_arr).unwrap_or(&[]) {
        println!(
            "  {}: {} µs, {} result tuples",
            k.get("kernel").and_then(Json::as_str).unwrap_or("?"),
            k.get("wall_micros").and_then(Json::as_i64).unwrap_or(0),
            k.get("result_tuples").and_then(Json::as_i64).unwrap_or(0),
        );
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("{flag}: bad number `{v}`"))
}
