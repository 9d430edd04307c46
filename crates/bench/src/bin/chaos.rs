//! `chaos` — fault-injection smoke harness for CI.
//!
//! Sweeps injected-fault rates against the disk-based join algorithms and
//! checks the storage layer's core promise: under any fault rate, a join
//! either returns the exact oracle result (multiset-equal to the
//! in-memory `natural_join`) or surfaces a typed
//! [`JoinError`](vtjoin_join::JoinError) — never a panic, never a
//! silently wrong or truncated result.
//!
//! Run with `--help` (or `-h`) for the flags.
//!
//! Exits 0 when every run upholds the invariant, 1 otherwise. The default
//! seed is fixed so CI runs are reproducible; pass `--seed` to explore.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use vtjoin_core::algebra::natural_join;
use vtjoin_core::Relation;
use vtjoin_join::{JoinAlgorithm, JoinConfig, NestedLoopJoin, PartitionJoin, SortMergeJoin};
use vtjoin_storage::{FaultConfig, HeapFile, RetryPolicy, SharedDisk};
use vtjoin_workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
};

/// Printed by `--help` / `-h`.
const USAGE: &str = "\
usage:
  chaos [--seed N] [--runs N] [--tuples N] [--max-rate PERMILLE]
";

fn flag(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn workload(tuples: u64, seed: u64) -> (Relation, Relation) {
    let cfg = GeneratorConfig {
        tuples,
        long_lived: tuples / 8,
        lifespan: 10_000,
        keys: (tuples / 10).max(1),
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Uniform,
        duration_dist: DurationDistribution::UniformUpTo(40),
        pad_bytes: 8,
        seed,
    };
    let r = generate(outer_schema(cfg.pad_bytes), &cfg);
    let s = generate(
        inner_schema(cfg.pad_bytes),
        &cfg.clone().seed(seed ^ 0xabcd_ef01),
    );
    (r, s)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let seed = flag(&args, "--seed", 0xC405);
    let runs = flag(&args, "--runs", 2);
    let tuples = flag(&args, "--tuples", 1200);
    let max_rate = flag(&args, "--max-rate", 50);

    let rates: Vec<u64> = [0u64, 2, 5, 10, 20, 50]
        .into_iter()
        .filter(|&r| r <= max_rate)
        .collect();
    let algos: Vec<(&str, Box<dyn JoinAlgorithm>)> = vec![
        ("partition", Box::new(PartitionJoin::default())),
        ("sort-merge", Box::new(SortMergeJoin)),
        ("nested-loop", Box::new(NestedLoopJoin)),
    ];

    let (r, s) = workload(tuples, seed);
    let oracle = natural_join(&r, &s).expect("oracle join");

    let (mut ok, mut degraded, mut typed_errors, mut violations) = (0u64, 0u64, 0u64, 0u64);
    for rate in &rates {
        for run in 0..runs {
            for (name, algo) in &algos {
                let disk = SharedDisk::new(1024);
                let hr = HeapFile::bulk_load(&disk, &r).expect("load outer");
                let hs = HeapFile::bulk_load(&disk, &s).expect("load inner");
                if *rate > 0 {
                    disk.set_retry_policy(RetryPolicy::default());
                    disk.set_fault_config(Some(FaultConfig {
                        seed: seed ^ (rate << 8) ^ run,
                        read_fail_permille: *rate as u32,
                        write_fail_permille: *rate as u32,
                        torn_write_permille: (*rate / 4) as u32,
                    }));
                }
                let cfg = JoinConfig::with_buffer(24).collecting();
                let outcome = catch_unwind(AssertUnwindSafe(|| algo.execute(&hr, &hs, &cfg)));
                match outcome {
                    Ok(Ok(report)) => {
                        let got = report.result.as_ref().expect("collected");
                        if got.multiset_eq(&oracle) {
                            ok += 1;
                            if report.note("planner_degraded") == Some(1) {
                                degraded += 1;
                            }
                        } else {
                            violations += 1;
                            eprintln!(
                                "VIOLATION: {name} @ {rate}‰ run {run}: silent wrong \
                                 result ({} tuples, oracle {})",
                                got.len(),
                                oracle.len()
                            );
                        }
                    }
                    Ok(Err(e)) => {
                        if *rate == 0 {
                            violations += 1;
                            eprintln!("VIOLATION: {name} errored with faults off: {e}");
                        } else {
                            typed_errors += 1;
                        }
                    }
                    Err(_) => {
                        violations += 1;
                        eprintln!("VIOLATION: {name} @ {rate}‰ run {run}: panicked");
                    }
                }
            }
        }
    }

    let total = ok + typed_errors + violations;
    println!(
        "chaos: {total} runs over rates {rates:?}‰ — {ok} oracle-exact \
         ({degraded} via degraded plans), {typed_errors} typed errors, {violations} violations"
    );
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
