//! `bench_service` — plan-cache reuse and concurrent throughput of the
//! multi-query join service, emitting `BENCH_service.json`.
//!
//! Run with `--help` (or `-h`) for the flags.
//!
//! `--smoke` selects the tiny CI geometry; `--validate` checks an emitted
//! document against the benchmark schema (exact hit/miss split, positive
//! planner I/O savings, byte-identity vs the oracle join) and exits
//! non-zero on mismatch. With `--baseline`, deterministic counters must
//! also stay within `--tolerance-permille` (default 0 = exact) of the
//! checked-in baseline.

use std::process::ExitCode;
use vtjoin_bench::regress::validate_with_baseline;
use vtjoin_bench::service::{run, smoke_config, validate, ServiceBenchConfig};
use vtjoin_obs::Json;

/// Printed by `--help` / `-h`.
const USAGE: &str = "\
usage:
  bench_service [--out FILE] [--tuples N] [--long-lived N] [--keys N]
                [--lifespan N] [--buffer PAGES] [--pool-pages N]
                [--threads-per-query N] [--concurrency N] [--repeats N]
                [--arrivals N] [--mean-interarrival-micros N]
                [--seed N] [--smoke]
  bench_service --validate FILE [--baseline FILE] [--tolerance-permille N]
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
    let mut cfg = ServiceBenchConfig::default();
    let mut out = "BENCH_service.json".to_owned();
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
            "--buffer" => cfg.buffer_pages = parse(arg, &value(arg)?)?,
            "--pool-pages" => cfg.pool_pages = parse(arg, &value(arg)?)?,
            "--threads-per-query" => cfg.threads_per_query = parse(arg, &value(arg)?)?,
            "--concurrency" => cfg.concurrency = parse(arg, &value(arg)?)?,
            "--repeats" => cfg.repeats = parse(arg, &value(arg)?)?,
            "--arrivals" => cfg.arrivals = parse(arg, &value(arg)?)?,
            "--mean-interarrival-micros" => {
                cfg.mean_interarrival_micros = parse(arg, &value(arg)?)?
            }
            "--seed" => cfg.seed = parse(arg, &value(arg)?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }

    if let Some(path) = validate_path {
        validate_with_baseline(&path, baseline.as_deref(), tolerance_permille, validate)?;
        match baseline {
            Some(base) => println!("{path}: valid, no counter drift vs {base}"),
            None => println!("{path}: valid service benchmark document"),
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
    let get = |section: &str, key: &str| -> i64 {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_i64)
            .unwrap_or(0)
    };
    println!(
        "  repeated: {} requests, {} cache hits, {} I/Os",
        get("repeated", "requests"),
        get("repeated", "cache_hits"),
        get("repeated", "io_total"),
    );
    println!(
        "  cold:     {} requests, all replanned, {} I/Os",
        get("cold", "requests"),
        get("cold", "io_total"),
    );
    println!(
        "  planner I/O saved by cache: {}",
        doc.get("planner_io_saved")
            .and_then(Json::as_i64)
            .unwrap_or(0),
    );
    let x100 = doc
        .get("speedup_x100_warm_vs_cold")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    println!("  warm vs cold: {}.{:02}x", x100 / 100, x100 % 100);
    let x100 = doc
        .get("concurrent")
        .and_then(|c| c.get("speedup_x100_vs_serial"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    println!(
        "  concurrent ({} submitters): {}.{:02}x vs serial",
        get("workload", "concurrency"),
        x100 / 100,
        x100 % 100,
    );
    let cl = |section: &str, key: &str| -> i64 {
        doc.get("closed_loop")
            .and_then(|c| c.get(section))
            .and_then(|s| s.get(key))
            .and_then(Json::as_i64)
            .unwrap_or(0)
    };
    println!(
        "  saturation: {} background shed (RetryAfter), {} deadline shed, {} drained",
        cl("saturation", "shed_retry_after"),
        cl("saturation", "shed_deadline"),
        cl("saturation", "drain_completed"),
    );
    let class_p = |class: &str, key: &str| -> i64 {
        doc.get("closed_loop")
            .and_then(|c| c.get("poisson"))
            .and_then(|p| p.get(class))
            .and_then(|s| s.get(key))
            .and_then(Json::as_i64)
            .unwrap_or(0)
    };
    println!(
        "  poisson ({} arrivals): interactive p50/p99/p999 {}/{}/{} µs, \
         batch p99 {} µs, {} shed with RetryAfter",
        cl("poisson", "arrivals"),
        class_p("interactive", "p50_micros"),
        class_p("interactive", "p99_micros"),
        class_p("interactive", "p999_micros"),
        class_p("batch", "p99_micros"),
        cl("poisson", "queue_shed_retry_after"),
    );
    Ok(())
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("{flag}: bad number `{v}`"))
}
