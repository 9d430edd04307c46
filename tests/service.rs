//! Concurrency + plan-cache correctness of the multi-query join service.
//!
//! * many submitter threads issuing overlapping join requests must each
//!   receive a result byte-identical to the serial in-memory oracle;
//! * a repeated identical workload (sequential, so the hit/miss split is
//!   deterministic) must report exactly one plan-cache miss and identical
//!   output on every hit;
//! * statistics drift past the `errorSize`-derived tolerance must force a
//!   replan, with hit/miss/invalidation counters asserted exactly under
//!   the fixed seed; a version bump with *unchanged* statistics (an empty
//!   append) must stay a hit through the drift check.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;
use vtjoin::engine::{
    Database, JoinService, PlanOutcome, Priority, Rejected, ServiceConfig, ServiceError,
    SubmitOptions,
};
use vtjoin::model::algebra::natural_join;
use vtjoin::prelude::*;
use vtjoin::workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
};

fn workload(tuples: u64, seed: u64, outer: bool) -> Relation {
    let g = GeneratorConfig {
        tuples,
        long_lived: tuples / 20,
        lifespan: 20_000,
        keys: 128,
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Uniform,
        duration_dist: DurationDistribution::UniformUpTo(300),
        pad_bytes: 0,
        seed,
    };
    let schema = if outer {
        outer_schema(0)
    } else {
        inner_schema(0)
    };
    generate(schema, &g)
}

/// The order-independent byte image acceptance compares on.
fn sorted_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = rel.iter().map(vtjoin::storage::codec::encode).collect();
    bytes.sort_unstable();
    bytes
}

fn service_with(pairs: &[(&str, u64, bool)]) -> JoinService {
    service_with_threads(pairs, 2)
}

fn service_with_threads(pairs: &[(&str, u64, bool)], threads_per_query: usize) -> JoinService {
    let mut db = Database::new(1024);
    for (name, tuples, outer) in pairs {
        let seed = 0x5EED ^ (*tuples << 1) ^ u64::from(*outer);
        db.create_table(name, &workload(*tuples, seed, *outer))
            .unwrap();
    }
    let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(16).seed(7), 16_384);
    cfg.threads_per_query = threads_per_query;
    JoinService::new(db, cfg)
}

#[test]
fn concurrent_overlapping_joins_match_the_serial_oracle() {
    let svc = service_with(&[
        ("r1", 2_000, true),
        ("s1", 2_000, false),
        ("r2", 1_200, true),
        ("s2", 1_500, false),
    ]);
    // Every distinct pair's oracle, computed serially up front.
    let oracle = |o: &str, i: &str| {
        let db = svc.database().read().unwrap();
        let (r, s) = (db.scan(o).unwrap(), db.scan(i).unwrap());
        sorted_encoding(&natural_join(&r, &s).unwrap())
    };
    let jobs = [("r1", "s1"), ("r2", "s2"), ("r1", "s2"), ("r2", "s1")];
    let oracles: Vec<_> = jobs.iter().map(|(o, i)| oracle(o, i)).collect();

    // 8 submitter threads draining a 32-request queue that cycles through
    // the four overlapping pairs.
    let next = AtomicUsize::new(0);
    let total = 32;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut checked = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break checked;
                        }
                        let (o, inn) = jobs[i % jobs.len()];
                        let resp = svc.submit(o, inn).unwrap();
                        assert_eq!(
                            sorted_encoding(&resp.result),
                            oracles[i % jobs.len()],
                            "{o} ⋈ {inn} diverged from the oracle under concurrency"
                        );
                        checked += 1;
                    }
                })
            })
            .collect();
        let checked: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(checked, total);
    });

    let sec = svc.service_section();
    assert_eq!(sec.requests, total as u64);
    assert_eq!(sec.completed, total as u64);
    assert_eq!(sec.failed + sec.rejected, 0);
    // Hit/miss split is scheduling-dependent, but totals must balance and
    // at least the steady state (every pair planned once) must hit.
    assert_eq!(sec.cache_hits + sec.cache_misses, total as u64);
    assert!(sec.cache_hits >= (total - 2 * jobs.len()) as u64);
}

/// Satellite pin: admission charges both input relations *and* the
/// configured join buffer — the pages the kernels actually consume — not
/// just the inputs.
#[test]
fn reserved_pages_charge_inputs_plus_join_buffer() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let (r_pages, s_pages) = {
        let db = svc.database().read().unwrap();
        (
            db.table_stats("r").unwrap().pages,
            db.table_stats("s").unwrap().pages,
        )
    };
    let resp = svc.submit("r", "s").unwrap();
    // service_with configures JoinConfig::with_buffer(16).
    assert_eq!(resp.reserved_pages, r_pages + s_pages + 16);
}

/// Streaming delivers the same bytes as materialized execution: the
/// concatenated batches are the response, in deterministic order — at 1
/// and 2 threads, for an intersection predicate on the grid path and a
/// sequence predicate (`before`) on the merge fallback.
#[test]
fn streamed_submission_concatenates_to_the_materialized_result() {
    for threads in [1usize, 2] {
        let svc = service_with_threads(&[("r", 2_000, true), ("s", 2_000, false)], threads);
        for pred in ["intersects", "during", "before"] {
            let pred: JoinPredicate = pred.parse().unwrap();
            let opts = SubmitOptions::default();
            let materialized = svc.submit_opts("r", "s", &pred, &opts).unwrap();
            let mut streamed_tuples = Vec::new();
            let mut sink = |batch: Vec<Tuple>| streamed_tuples.extend(batch);
            let resp = svc
                .submit_streamed("r", "s", &pred, &opts, &mut sink)
                .unwrap();
            assert_eq!(resp.tuples as usize, streamed_tuples.len());
            assert_eq!(
                materialized.result.tuples(),
                &streamed_tuples[..],
                "{pred} at {threads} threads"
            );
        }
    }
}

/// Typed shedding outcomes: a held pool sheds background requests with
/// `RetryAfter` (positive hint) and deadline-carrying requests with
/// `DeadlineExceeded`, never an untyped failure.
#[test]
fn saturated_pool_sheds_with_typed_outcomes() {
    let svc = service_with(&[("r", 1_200, true), ("s", 1_200, false)]);
    let hold = svc.reserve_maintenance(16_384).expect("idle pool");

    let bg = SubmitOptions {
        priority: Priority::Background,
        ..SubmitOptions::default()
    };
    match svc.submit_opts("r", "s", &JoinPredicate::intersects(), &bg) {
        Err(ServiceError::Rejected(Rejected::RetryAfter { millis })) => assert!(millis >= 1),
        other => panic!("expected RetryAfter, got {other:?}"),
    }

    let hurried = SubmitOptions {
        priority: Priority::Interactive,
        deadline: Some(Duration::from_millis(10)),
        ..SubmitOptions::default()
    };
    match svc.submit_opts("r", "s", &JoinPredicate::intersects(), &hurried) {
        Err(ServiceError::Rejected(Rejected::DeadlineExceeded { .. })) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    drop(hold);
    let resp = svc.submit("r", "s").unwrap();
    let sec = svc.service_section();
    assert_eq!((sec.shed_retry_after, sec.shed_deadline), (1, 1));
    assert_eq!(sec.completed, 1);
    assert!(!resp.result.is_empty());
}

/// The starvation regression at the service level, at every concurrency
/// level: a large join queued behind a pool sized exactly for it must
/// complete while streams of small joins keep arriving. Under the old
/// barging fast path this spins forever; the ticket queue bounds it.
#[test]
fn queued_large_join_survives_streams_of_small_joins_at_every_concurrency() {
    for concurrency in [1usize, 2, 4] {
        let mut db = Database::new(1024);
        db.create_table("big_r", &workload(2_500, 11, true))
            .unwrap();
        db.create_table("big_s", &workload(2_500, 12, false))
            .unwrap();
        db.create_table("small_r", &workload(250, 13, true))
            .unwrap();
        db.create_table("small_s", &workload(250, 14, false))
            .unwrap();
        let (big_pages, buffer) = {
            let r = db.table_stats("big_r").unwrap().pages;
            let s = db.table_stats("big_s").unwrap().pages;
            (r + s, 16u64)
        };
        // The big join fits only in an otherwise-empty pool.
        let mut cfg =
            ServiceConfig::new(JoinConfig::with_buffer(buffer).seed(7), big_pages + buffer);
        cfg.threads_per_query = 1;
        cfg.max_queue = 64;
        let svc = JoinService::new(db, cfg);

        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..concurrency {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        svc.submit("small_r", "small_s").expect("small join");
                    }
                });
            }
            let resp = svc
                .submit("big_r", "big_s")
                .expect("large join must not starve");
            done.store(true, Ordering::Relaxed);
            assert!(
                !resp.result.is_empty(),
                "concurrency {concurrency}: large join returned nothing"
            );
        });
    }
}

#[test]
fn repeated_workload_hits_the_cache_with_identical_output() {
    let svc = service_with(&[("r", 2_500, true), ("s", 2_500, false)]);
    let first = svc.submit("r", "s").unwrap();
    assert_eq!(first.plan, PlanOutcome::Miss);
    let want = sorted_encoding(&first.result);
    for round in 0..4 {
        let resp = svc.submit("r", "s").unwrap();
        assert_eq!(resp.plan, PlanOutcome::CacheHit, "round {round}");
        assert_eq!(sorted_encoding(&resp.result), want, "round {round}");
    }
    let sec = svc.service_section();
    assert_eq!(
        (sec.cache_hits, sec.cache_misses, sec.cache_invalidations),
        (4, 1, 0)
    );
    assert!(
        sec.cache_hits > 0,
        "repeated workload must report a positive hit ratio"
    );
}

#[test]
fn version_bump_with_unchanged_stats_stays_a_hit() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::Miss);
    // An empty append rewrites the table and bumps its catalog version —
    // the fingerprint's fast path (version equality) no longer applies,
    // so this exercises the drift-tolerance comparison with zero drift.
    svc.append("r", &[]).unwrap();
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::CacheHit);
    let sec = svc.service_section();
    assert_eq!(
        (sec.cache_hits, sec.cache_misses, sec.cache_invalidations),
        (1, 1, 0)
    );
}

#[test]
fn drift_past_tolerance_forces_a_replan() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::Miss);
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::CacheHit);

    // Double the outer relation: cardinality drift far beyond any
    // errorSize-derived tolerance, so the cached plan must be dropped.
    let extra = workload(2_000, 0xD01F, true).into_tuples();
    svc.append("r", &extra).unwrap();
    let resp = svc.submit("r", "s").unwrap();
    assert_eq!(resp.plan, PlanOutcome::Invalidated);

    // The replanned entry is cached in turn.
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::CacheHit);

    let sec = svc.service_section();
    assert_eq!(
        (sec.cache_hits, sec.cache_misses, sec.cache_invalidations),
        (2, 2, 1)
    );
    assert_eq!(sec.requests, 4);
    assert_eq!(sec.completed, 4);

    // And the post-drift result matches the post-drift oracle.
    let want = {
        let db = svc.database().read().unwrap();
        let (r, s) = (db.scan("r").unwrap(), db.scan("s").unwrap());
        sorted_encoding(&natural_join(&r, &s).unwrap())
    };
    assert_eq!(sorted_encoding(&resp.result), want);
}
