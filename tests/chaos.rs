//! Chaos suite: joins under injected storage faults.
//!
//! The acceptance property of the fault-injection layer: under any fault
//! rate, a join either returns a result multiset-equal to the in-memory
//! `natural_join` oracle or surfaces a typed [`JoinError`] — never a
//! panic, never a silently wrong or truncated result. Torn writes are the
//! sharpest case: the write reports success and the damage only surfaces
//! later as a page-checksum mismatch, which must still come back as a
//! typed error.
//!
//! The rate sweep runs all three disk algorithms (partition, sort-merge,
//! nested loop); with faults off every one of them must be oracle-exact.
//!
//! Also covers the observability contract: runs with faults armed attach
//! a `faults` section to the execution report and that section survives
//! the JSON round trip exactly; clean runs attach nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use vtjoin::prelude::*;
use vtjoin::storage::{FaultConfig, RetryPolicy};
use vtjoin::workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
};

fn workload(tuples: u64, long_lived: u64, seed: u64) -> (Relation, Relation) {
    let cfg = GeneratorConfig {
        tuples,
        long_lived,
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

/// Loads the pair onto a fresh disk of `page_size`-byte pages and arms the
/// given fault rate (reads, writes, and a quarter-rate of torn writes)
/// after the load, so the inputs themselves start intact.
fn faulty_disk(
    r: &Relation,
    s: &Relation,
    page_size: usize,
    rate: u32,
    seed: u64,
    retry: RetryPolicy,
) -> (SharedDisk, HeapFile, HeapFile) {
    let disk = SharedDisk::new(page_size);
    let hr = HeapFile::bulk_load(&disk, r).unwrap();
    let hs = HeapFile::bulk_load(&disk, s).unwrap();
    if rate > 0 {
        disk.set_retry_policy(retry);
        disk.set_fault_config(Some(FaultConfig {
            seed,
            read_fail_permille: rate,
            write_fail_permille: rate,
            torn_write_permille: rate / 4,
        }));
    }
    (disk, hr, hs)
}

#[test]
fn sweep_is_oracle_exact_or_typed_error() {
    let mut exact = 0u64;
    let mut typed = 0u64;
    let mut degraded = 0u64;
    for long_lived in [0u64, 128] {
        let (r, s) = workload(800, long_lived, 7);
        let oracle = natural_join(&r, &s).unwrap();
        for fault_seed in [1u64, 2, 3] {
            for buffer in [16u64, 24, 40] {
                // Rates up to 5% (the acceptance ceiling); retry budget on.
                for rate in [5u32, 20, 50] {
                    let (_disk, hr, hs) =
                        faulty_disk(&r, &s, 512, rate, fault_seed, RetryPolicy::default());
                    let cfg = JoinConfig::with_buffer(buffer).collecting();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        PartitionJoin::default().execute(&hr, &hs, &cfg)
                    }))
                    .unwrap_or_else(|_| {
                        panic!(
                            "join panicked at rate {rate}‰, seed {fault_seed}, \
                             buffer {buffer}, long_lived {long_lived}"
                        )
                    });
                    match outcome {
                        Ok(report) => {
                            let got = report.result.as_ref().unwrap();
                            assert!(
                                got.multiset_eq(&oracle),
                                "silent wrong result at rate {rate}‰, seed {fault_seed}, \
                                 buffer {buffer}: {} tuples, oracle {}",
                                got.len(),
                                oracle.len()
                            );
                            exact += 1;
                            if report.note("planner_degraded") == Some(1) {
                                degraded += 1;
                            }
                        }
                        Err(_) => typed += 1,
                    }
                }
            }
        }
    }
    // The sweep must actually exercise both sides of the invariant: with
    // retries on, most runs recover to the exact result, and high rates
    // force at least some typed errors overall.
    assert!(exact > 0, "no run survived to an exact result");
    assert!(
        exact + typed == 2 * 3 * 3 * 3,
        "accounting mismatch: {exact} exact + {typed} typed"
    );
    let _ = degraded; // degradation is opportunistic, not guaranteed per sweep
}

#[test]
fn every_disk_algorithm_is_oracle_exact_or_typed_error_across_rates() {
    // Fixed fault seed; each run arms `SEED ^ (rate << 8) ^ run`.
    const SEED: u64 = 50181;
    let (r, s) = workload(1200, 1200 / 8, SEED);
    let oracle = natural_join(&r, &s).unwrap();
    let algos: [(&str, &dyn JoinAlgorithm); 3] = [
        ("partition", &PartitionJoin::default()),
        ("sort-merge", &SortMergeJoin),
        ("nested-loop", &NestedLoopJoin),
    ];
    let (mut exact, mut typed) = (0u64, 0u64);
    for rate in [0u64, 2, 5, 10, 20, 50] {
        for run in 0..2u64 {
            for (name, algo) in algos {
                let seed = SEED ^ (rate << 8) ^ run;
                let (_disk, hr, hs) =
                    faulty_disk(&r, &s, 1024, rate as u32, seed, RetryPolicy::default());
                let cfg = JoinConfig::with_buffer(24).collecting();
                let outcome = catch_unwind(AssertUnwindSafe(|| algo.execute(&hr, &hs, &cfg)))
                    .unwrap_or_else(|_| panic!("{name} panicked at {rate}‰, run {run}"));
                match outcome {
                    Ok(report) => {
                        let got = report.result.as_ref().unwrap();
                        assert!(
                            got.multiset_eq(&oracle),
                            "{name} @ {rate}‰ run {run}: silent wrong result \
                             ({} tuples, oracle {})",
                            got.len(),
                            oracle.len()
                        );
                        exact += 1;
                    }
                    Err(e) => {
                        assert!(rate > 0, "{name} errored with faults off: {e}");
                        typed += 1;
                    }
                }
            }
        }
    }
    assert_eq!(exact + typed, 6 * 2 * 3, "accounting mismatch");
}

#[test]
fn no_retries_still_never_silently_wrong() {
    // With the retry budget off, the first injected fault surfaces; the
    // invariant must hold on the error path alone.
    let (r, s) = workload(600, 64, 11);
    let oracle = natural_join(&r, &s).unwrap();
    for fault_seed in [5u64, 6, 7, 8] {
        let (_disk, hr, hs) = faulty_disk(&r, &s, 512, 30, fault_seed, RetryPolicy::NONE);
        let cfg = JoinConfig::with_buffer(24).collecting();
        match PartitionJoin::default().execute(&hr, &hs, &cfg) {
            Ok(report) => {
                assert!(report.result.as_ref().unwrap().multiset_eq(&oracle));
            }
            Err(e) => {
                // Typed error is acceptable; its Display must be non-empty
                // (it reaches CLI users verbatim).
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

#[test]
fn faults_section_attaches_and_round_trips_exactly() {
    let (r, s) = workload(800, 64, 13);
    // Transient faults only (no torn writes): with the default retry
    // budget, per-operation failure after four attempts is ~0.04⁴, so the
    // run completes while still guaranteeing fault-path activity.
    let disk = SharedDisk::new(512);
    let hr = HeapFile::bulk_load(&disk, &r).unwrap();
    let hs = HeapFile::bulk_load(&disk, &s).unwrap();
    disk.set_retry_policy(RetryPolicy::default());
    disk.set_fault_config(Some(FaultConfig {
        seed: 99,
        read_fail_permille: 40,
        write_fail_permille: 40,
        torn_write_permille: 0,
    }));
    let cfg = JoinConfig::with_buffer(32).collecting();
    // A few attempts hedge against retry exhaustion; this test is about
    // reporting, not the oracle (covered above).
    let mut report = None;
    for _ in 0..20 {
        if let Ok(rep) = PartitionJoin::default().execute(&hr, &hs, &cfg) {
            report = Some(rep);
            break;
        }
    }
    let report = report.expect("no run completed in 20 attempts at 4% transient faults");
    let summary = report.faults.expect("faults armed ⇒ summary attached");
    assert!(
        summary.stats.injected() > 0 || disk.fault_stats().injected() > 0,
        "a 4% rate over a full join must inject something"
    );

    let er = execution_report(&report, &cfg);
    let fs = er
        .faults
        .expect("execution report carries the faults section");
    assert_eq!(fs.injected_read_faults, summary.stats.injected_read_faults);
    assert_eq!(fs.retries, summary.stats.retries);
    assert_eq!(fs.recovered, summary.stats.recovered);

    let text = er.to_json_string();
    assert!(text.contains("\"faults\":"));
    let back = vtjoin::obs::ExecutionReport::from_json_str(&text).unwrap();
    assert_eq!(back, er, "faults JSON round trip must be lossless");
}

#[test]
fn clean_runs_attach_no_faults_section() {
    let (r, s) = workload(400, 0, 17);
    let (_disk, hr, hs) = faulty_disk(&r, &s, 512, 0, 0, RetryPolicy::default());
    let cfg = JoinConfig::with_buffer(12).collecting();
    let report = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
    assert!(
        report.faults.is_none(),
        "fault-free runs must not change shape"
    );
    let er = execution_report(&report, &cfg);
    assert!(er.faults.is_none());
    assert!(!er.to_json_string().contains("\"faults\":"));
}

#[test]
fn torn_writes_surface_as_typed_corruption_not_panic() {
    // Certain torn writes, no read/write failures: every spilled page is
    // corrupted in place while the write itself reports success. Any later
    // read of such a page must fail the checksum as a typed error.
    let (r, s) = workload(800, 128, 19);
    let oracle = natural_join(&r, &s).unwrap();
    let cfg = JoinConfig::with_buffer(24).collecting();
    // The buffer must admit a clean run, so a faulty-run error below can
    // only come from the injected corruption.
    {
        let disk = SharedDisk::new(512);
        let hr = HeapFile::bulk_load(&disk, &r).unwrap();
        let hs = HeapFile::bulk_load(&disk, &s).unwrap();
        let clean = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
        assert!(clean.result.as_ref().unwrap().multiset_eq(&oracle));
    }
    let disk = SharedDisk::new(512);
    let hr = HeapFile::bulk_load(&disk, &r).unwrap();
    let hs = HeapFile::bulk_load(&disk, &s).unwrap();
    disk.set_fault_config(Some(FaultConfig {
        seed: 23,
        read_fail_permille: 0,
        write_fail_permille: 0,
        torn_write_permille: 1000,
    }));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        PartitionJoin::default().execute(&hr, &hs, &cfg)
    }))
    .expect("torn writes must never panic");
    match outcome {
        Ok(report) => {
            // Possible only if the run never re-read a torn page.
            assert!(report.result.as_ref().unwrap().multiset_eq(&oracle));
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("checksum") || msg.contains("corrupt"),
                "torn write surfaced as unexpected error: {msg}"
            );
        }
    }
    assert!(
        disk.fault_stats().torn_writes > 0,
        "torn writes were injected"
    );
}
