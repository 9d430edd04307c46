//! `serve-mix`: a closed loop of two client threads against one
//! in-process `JoinService` with one worker thread per query, as
//! `vtjoin serve --concurrency 2` is used.
//!
//! Two table pairs: a small pair whose outer table each client owns and
//! appends to, and a large pair shared by both. The pool holds one large
//! and one small request at once but never two large ones. Each client
//! cycles through [`MIX`] and, every [`APPEND_INTERVAL`] of wall time,
//! appends [`APPEND_TUPLES`] tuples to its own small outer table with
//! `JoinService::append`, which drops that table's resident copy and
//! revalidates its cached plans. Appends keep a fixed rate, like writers
//! independent of the readers, so table growth and the simulated disk's
//! footprint do not depend on how fast the requests run.
//!
//! An op is one join request, timed from the submit call to the response,
//! admission wait included. The clients run for [`WARMUP`] before the
//! measured phase, so plans and resident copies are in place when it
//! starts; `op_p90_ms` and `ops_per_s` are medians over [`WINDOW`]-long
//! windows of the measured phase. Each client digests its result right after
//! the response (outside the op's window); the digests are compared with
//! the algebra oracles after the measured phase, one oracle per table
//! version, predicate and operator.

use crate::check::{self, Digest};
use crate::cli_join::mix;
use crate::host::{self, ProcStat};
use crate::stats;
use crate::trace::{OpScope, Tracer};
use crate::{setup_done, Args, Outcome};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vtjoin_core::{JoinPredicate, Operator, Relation, Tuple};
use vtjoin_engine::{Database, JoinService, ServiceConfig, SubmitOptions};
use vtjoin_join::JoinConfig;
use vtjoin_workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
};

/// Client threads.
pub const CLIENTS: usize = 2;
/// Tuples per side of the small pair.
pub const SMALL_TUPLES: u64 = 5_000;
/// Tuples per side of the large pair.
pub const LARGE_TUPLES: u64 = 50_000;
/// Tuples per distinct key on both pairs.
pub const TUPLES_PER_KEY: u64 = 10;
/// Long-lived tuples: one in a hundred.
pub const LONG_LIVED_PER_MILLE: u64 = 10;
/// Lifespan in chronons.
pub const LIFESPAN: i64 = 50_000;
/// Longest short-lived tuple, in chronons.
pub const MAX_DURATION: i64 = 100;
/// Padding bytes per tuple.
pub const PAD: usize = 16;
/// Join buffer pages per request.
pub const BUFFER_PAGES: u64 = 32;
/// Each client appends once per this much wall time.
pub const APPEND_INTERVAL: Duration = Duration::from_millis(500);
/// Tuples per append.
pub const APPEND_TUPLES: u64 = 20;
/// Unmeasured requests before the measured phase.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Width of the windows `op_p90_ms` and `ops_per_s` are taken over (one
/// window when the measured phase is shorter).
pub const WINDOW: Duration = Duration::from_secs(2);

/// Which table pair a request joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pair {
    Small,
    Large,
}

/// One request shape of the mix.
#[derive(Debug, Clone, Copy)]
struct Kind {
    pair: Pair,
    pred: &'static str,
    op: &'static str,
    streamed: bool,
}

const fn kind(pair: Pair, pred: &'static str, op: &'static str, streamed: bool) -> Kind {
    Kind {
        pair,
        pred,
        op,
        streamed,
    }
}

/// The requests of one cycle; each client runs the cycle over and over,
/// in a fresh seeded order each time (see [`cycle_order`]). Ordered by
/// latency on the seed code, the cycle's slots
/// are: small `during`, small `aggregate:count`, small inner, small `left`,
/// small `before` twice, large inner, large streamed inner, large `anti`
/// twice. Doubling the fifth and the last kind puts the median and the
/// 90th percentile in the middle of one kind's latencies rather than on
/// the step between two kinds, where they would jump from run to run.
const MIX: [Kind; 10] = [
    kind(Pair::Small, "intersects", "inner", false),
    kind(Pair::Large, "intersects", "inner", false),
    kind(Pair::Small, "during", "inner", false),
    kind(Pair::Small, "before", "inner", false),
    kind(Pair::Large, "intersects", "anti", false),
    kind(Pair::Small, "intersects", "left", false),
    kind(Pair::Large, "intersects", "inner", true),
    kind(Pair::Small, "before", "inner", false),
    kind(Pair::Small, "intersects", "aggregate:count", false),
    kind(Pair::Large, "intersects", "anti", false),
];

fn gen_cfg(tuples: u64, long_lived: bool, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        tuples,
        long_lived: if long_lived {
            tuples * LONG_LIVED_PER_MILLE / 1000
        } else {
            0
        },
        lifespan: LIFESPAN,
        keys: (tuples / TUPLES_PER_KEY).max(1),
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Uniform,
        duration_dist: DurationDistribution::UniformUpTo(MAX_DURATION),
        pad_bytes: PAD,
        seed,
    }
}

/// The generated tables of one run.
struct Tables {
    small_outer: Vec<Relation>,
    small_inner: Relation,
    large_outer: Relation,
    large_inner: Relation,
}

fn small_outer_name(client: usize) -> String {
    format!("small_outer_c{client}")
}

impl Tables {
    fn generate(seed: u64) -> Tables {
        let small_keys = GeneratorConfig {
            keys: SMALL_TUPLES / TUPLES_PER_KEY,
            ..gen_cfg(SMALL_TUPLES, true, 0)
        };
        Tables {
            small_outer: (0..CLIENTS)
                .map(|c| {
                    generate(
                        outer_schema(PAD),
                        &small_keys.clone().seed(mix(seed, 10 + c as u64)),
                    )
                })
                .collect(),
            small_inner: generate(inner_schema(PAD), &small_keys.seed(mix(seed, 20))),
            large_outer: generate(
                outer_schema(PAD),
                &gen_cfg(LARGE_TUPLES, true, mix(seed, 30)),
            ),
            large_inner: generate(
                inner_schema(PAD),
                &gen_cfg(LARGE_TUPLES, true, mix(seed, 31)),
            ),
        }
    }

    /// The `k`-th batch client `client` appends to its small outer table.
    fn append_batch(seed: u64, client: usize, k: u64) -> Vec<Tuple> {
        let cfg = GeneratorConfig {
            keys: SMALL_TUPLES / TUPLES_PER_KEY,
            ..gen_cfg(
                APPEND_TUPLES,
                false,
                mix(seed, ((1_000 + client as u64) << 32) | k),
            )
        };
        generate(outer_schema(PAD), &cfg).into_tuples()
    }

    /// Client `client`'s small outer table after `version` appends.
    fn small_outer_at(&self, seed: u64, client: usize, version: u64) -> Relation {
        let mut tuples = self.small_outer[client].tuples().to_vec();
        for k in 0..version {
            tuples.extend(Tables::append_batch(seed, client, k));
        }
        Relation::from_parts_unchecked(self.small_outer[client].schema().clone(), tuples)
    }
}

/// Builds the catalog and the service; returns the bulk-load time in ms.
fn build_service(t: &Tables) -> (JoinService, f64) {
    let mut db = Database::new(4096);
    let t0 = Instant::now();
    for (c, rel) in t.small_outer.iter().enumerate() {
        db.create_table(&small_outer_name(c), rel)
            .expect("fresh catalog");
    }
    db.create_table("small_inner", &t.small_inner)
        .expect("fresh catalog");
    db.create_table("large_outer", &t.large_outer)
        .expect("fresh catalog");
    db.create_table("large_inner", &t.large_inner)
        .expect("fresh catalog");
    let bulk_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pages = |name: &str| db.table_stats(name).expect("table just created").pages;
    let large = pages("large_outer") + pages("large_inner") + BUFFER_PAGES;
    let all: u64 = db.table_names().iter().map(|n| pages(n)).sum();
    // One large request plus one small one fit; two large ones never do.
    let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(BUFFER_PAGES), large + large / 2);
    cfg.threads_per_query = 1;
    // Every table stays resident until an append replaces it.
    cfg.residency_pages = all * 4;
    (JoinService::new(db, cfg), bulk_ms)
}

/// One finished request.
struct Req {
    client: usize,
    version: u64,
    /// Position of the request's kind in [`MIX`].
    kind_index: usize,
    traced: bool,
    /// Submitted after the warm-up.
    measured: bool,
    /// Completion, seconds from the start of the measured phase.
    done_s: f64,
    latency_ms: f64,
    wait_ms: f64,
    first_batch_ms: Option<f64>,
    /// `(pairs_logged, dangling, stitched)` of an operator request.
    operator: Option<(u64, u64, u64)>,
    /// `None` when the request failed.
    digest: Option<Digest>,
}

/// What a request returned, kept only until it is digested.
enum Payload {
    Failed,
    Materialized(Relation),
    Streamed(Vec<Vec<Tuple>>),
}

#[derive(Default)]
struct ClientLog {
    reqs: Vec<Req>,
    append_ms: Vec<f64>,
    check_cpu_ms: f64,
    finished: Option<Instant>,
}

fn digest_batches(batches: &[Vec<Tuple>], empty: Digest) -> Digest {
    let mut d = empty;
    batches.iter().flatten().for_each(|t| d.add(t));
    d
}

/// One request of kind `MIX[kind_index]` against client `client`'s outer
/// table at `version`, timed from the submit call to the response.
fn request(
    svc: &JoinService,
    client: usize,
    kind_index: usize,
    version: u64,
    measure_from: Instant,
    scope: &OpScope<'_>,
) -> (Req, Payload) {
    let k = MIX[kind_index];
    let (outer, inner) = match k.pair {
        Pair::Small => (small_outer_name(client), "small_inner"),
        Pair::Large => ("large_outer".to_owned(), "large_inner"),
    };
    let pred: JoinPredicate = k.pred.parse().expect("mix predicates parse");
    let opts = SubmitOptions {
        op: k.op.parse::<Operator>().expect("mix operators parse"),
        ..SubmitOptions::default()
    };
    let layer = if opts.op.is_inner() {
        "engine.service.submit"
    } else {
        "engine.operator.submit"
    };
    let mut req = Req {
        client,
        version,
        kind_index,
        traced: scope.is_traced(),
        measured: false,
        done_s: 0.0,
        latency_ms: 0.0,
        wait_ms: 0.0,
        first_batch_ms: None,
        operator: None,
        digest: None,
    };
    let mut payload = Payload::Failed;
    let t0 = Instant::now();
    if k.streamed {
        let mut batches: Vec<Vec<Tuple>> = Vec::new();
        let mut first = None;
        let res = scope.layer(layer, || {
            svc.submit_streamed(&outer, inner, &pred, &opts, &mut |b| {
                first.get_or_insert_with(|| t0.elapsed());
                batches.push(b);
            })
        });
        req.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        req.done_s = secs_since(measure_from);
        match res {
            Ok(r) => {
                req.wait_ms = r.wait_micros as f64 / 1e3;
                req.first_batch_ms = first.map(|d| d.as_secs_f64() * 1e3);
                payload = Payload::Streamed(batches);
            }
            Err(e) => println!("client {client}: streamed {outer} ⋈ {inner} failed: {e}"),
        }
    } else {
        let res = scope.layer(layer, || svc.submit_opts(&outer, inner, &pred, &opts));
        req.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        req.done_s = secs_since(measure_from);
        match res {
            Ok(r) => {
                req.wait_ms = r.wait_micros as f64 / 1e3;
                req.operator = r.operator.map(|o| {
                    (
                        o.pairs_logged,
                        o.outer_dangling + o.inner_dangling,
                        o.stitched_outer + o.stitched_inner,
                    )
                });
                payload = Payload::Materialized(r.result);
            }
            Err(e) => println!(
                "client {client}: {} {outer} ⋈ {inner} op={} failed: {e}",
                k.pred, k.op
            ),
        }
    }
    (req, payload)
}

/// Seconds from `t` to now, negative while `t` is ahead.
fn secs_since(t: Instant) -> f64 {
    let now = Instant::now();
    if now >= t {
        now.duration_since(t).as_secs_f64()
    } else {
        -t.duration_since(now).as_secs_f64()
    }
}

/// The order in which client `client` runs the requests of its `cycle`-th
/// cycle: a seeded shuffle of [`MIX`]. Fixed orders let the two clients'
/// large requests settle into a fixed pairing whose admission waits then
/// differ from run to run; shuffling averages the pairings within a run.
fn cycle_order(seed: u64, client: usize, cycle: u64) -> [usize; MIX.len()] {
    let mut order: [usize; MIX.len()] = std::array::from_fn(|i| i);
    let mut state = mix(seed, ((2_000 + client as u64) << 32) | cycle);
    for i in (1..order.len()).rev() {
        state = mix(state, 0);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

fn client(
    svc: &JoinService,
    c: usize,
    seed: u64,
    measure_from: Instant,
    deadline: Instant,
    tracer: Option<&Tracer>,
    empty: &HashMap<Pair, Digest>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut order = [0; MIX.len()];
    let mut version = 0;
    let mut i = 0u64;
    let mut next_append = Instant::now() + APPEND_INTERVAL;
    while Instant::now() < deadline {
        let slot = (i % MIX.len() as u64) as usize;
        if slot == 0 {
            order = cycle_order(seed, c, i / MIX.len() as u64);
        }
        let kind_index = order[slot];
        let measured = Instant::now() >= measure_from;
        // Whole cycles alternate, so traced and untraced ops share the mix.
        let traced = measured && (i / MIX.len() as u64) % 2 == 1;
        let scope = OpScope::begin(tracer.filter(|_| traced), ((c as u64) << 32) | i, c as u64);
        let (mut req, payload) = request(svc, c, kind_index, version, measure_from, &scope);
        scope.end();
        req.measured = measured;
        // The check runs between this client's requests; its CPU is not
        // charged to the ops.
        let cpu0 = host::thread_cpu_ms();
        req.digest = match payload {
            Payload::Failed => None,
            Payload::Materialized(rel) => Some(Digest::of(&rel)),
            Payload::Streamed(batches) => {
                Some(digest_batches(&batches, empty[&MIX[req.kind_index].pair]))
            }
        };
        if req.measured {
            log.check_cpu_ms += host::thread_cpu_ms() - cpu0;
        }
        log.reqs.push(req);
        i += 1;
        if Instant::now() >= next_append {
            next_append += APPEND_INTERVAL;
            let batch = Tables::append_batch(seed, c, version);
            let t0 = Instant::now();
            match svc.append(&small_outer_name(c), &batch) {
                Ok(()) => version += 1,
                Err(e) => println!("client {c}: append failed: {e}"),
            }
            if measured {
                log.append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    log.finished = Some(Instant::now());
    log
}

/// The digest of an empty result over each pair's join schema.
fn empty_digests(t: &Tables) -> HashMap<Pair, Digest> {
    let inner = JoinPredicate::intersects();
    let empty = |r: &Relation, s: &Relation| {
        let none = |rel: &Relation| Relation::empty(rel.schema().clone());
        Digest::empty_of(&check::oracle(&none(r), &none(s), &Operator::Inner, &inner))
    };
    HashMap::from([
        (Pair::Small, empty(&t.small_outer[0], &t.small_inner)),
        (Pair::Large, empty(&t.large_outer, &t.large_inner)),
    ])
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    println!(
        "workload serve-mix: {CLIENTS} closed-loop clients, threads_per_query 1; small pair \
         {SMALL_TUPLES} tuples/side (one outer per client), large pair {LARGE_TUPLES} tuples/side; \
         {TUPLES_PER_KEY} tuples/key uniform, {LONG_LIVED_PER_MILLE}‰ long-lived, lifespan {LIFESPAN}, \
         durations 1..={MAX_DURATION}, pad {PAD} B; buffer {BUFFER_PAGES} pages; append \
         {APPEND_TUPLES} tuples every {APPEND_INTERVAL:?} per client; mix {:?}",
        MIX.iter().map(|k| format!("{:?}/{}/{}{}", k.pair, k.pred, k.op, if k.streamed { "/streamed" } else { "" })).collect::<Vec<_>>()
    );

    let mut built = None;
    let mut bulk_ms = Vec::new();
    while !setup_done(&out.setup_s) {
        let t0 = Instant::now();
        let tables = Tables::generate(args.seed);
        let (svc, ms) = build_service(&tables);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        bulk_ms.push(ms);
        built = Some((tables, svc));
    }
    out.layer(
        "storage.heap.bulk_load_ms",
        stats::median(&bulk_ms).unwrap_or(0.0),
    );
    let (tables, svc) = built.expect("at least one set-up");
    let empty = empty_digests(&tables);

    let tracer = Tracer::new();
    // The clients start now; the measured phase starts after the warm-up.
    let start = Instant::now() + WARMUP;
    let deadline = start + args.seconds;
    let (logs, before, stat0) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (svc, empty, tracer) = (&svc, &empty, args.trace.then_some(&tracer));
                scope.spawn(move || client(svc, c, args.seed, start, deadline, tracer, empty))
            })
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let marks = (svc.service_section(), ProcStat::now());
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, marks.0, marks.1)
    });
    let stat1 = ProcStat::now();
    out.peak_rss_mb = host::peak_rss_mb();
    let after = svc.service_section();
    let end = logs
        .iter()
        .filter_map(|l| l.finished)
        .max()
        .unwrap_or(start);
    out.wall_s = end.duration_since(start).as_secs_f64();
    let count = (args.seconds.as_secs_f64() / WINDOW.as_secs_f64())
        .floor()
        .max(1.0);
    out.windows = Some((args.seconds.as_secs_f64() / count, count as usize));
    let check_cpu: f64 = logs.iter().map(|l| l.check_cpu_ms).sum();
    out.cpu_ms = (stat1.cpu_ms - stat0.cpu_ms - check_cpu).max(0.0);
    out.spans = tracer.into_spans();

    verify(&mut out, &tables, args.seed, &logs);
    check_stream_order(&mut out, &svc);
    let sec = svc.service_section();
    if sec.completed + sec.failed + sec.rejected != sec.requests {
        out.problems.push(format!(
            "service does not balance: {} completed + {} failed + {} rejected != {} requests",
            sec.completed, sec.failed, sec.rejected, sec.requests
        ));
    }

    let reqs: Vec<&Req> = logs
        .iter()
        .flat_map(|l| &l.reqs)
        .filter(|r| r.measured)
        .collect();
    for (i, k) in MIX.iter().enumerate() {
        let of_kind = |f: fn(&Req) -> f64| {
            let v: Vec<f64> = reqs
                .iter()
                .filter(|r| r.kind_index == i)
                .map(|r| f(r))
                .collect();
            stats::median(&v).unwrap_or(0.0)
        };
        println!(
            "kind {:?}/{}/{}{}: p50 {:.2} ms, admission wait p50 {:.2} ms",
            k.pair,
            k.pred,
            k.op,
            if k.streamed { "/streamed" } else { "" },
            of_kind(|r| r.latency_ms),
            of_kind(|r| r.wait_ms),
        );
    }
    for r in &reqs {
        out.latencies_ms.push(r.latency_ms);
        out.done_s.push(r.done_s);
        if args.trace {
            if r.traced {
                &mut out.traced_ms
            } else {
                &mut out.untraced_ms
            }
            .push(r.latency_ms);
        }
    }
    if let Some((width, count)) = out.windows {
        let ws = stats::windows(&out.done_s, &out.latencies_ms, width, count);
        let p90: Vec<String> = ws
            .iter()
            .map(|w| format!("{:.1}", stats::percentile(w, 90.0).unwrap_or(0.0)))
            .collect();
        let n: Vec<String> = ws.iter().map(|w| w.len().to_string()).collect();
        println!(
            "windows of {width} s: requests [{}], p90 ms [{}]; whole run: p90 {:.2} ms, {:.2} requests/s",
            n.join(" "),
            p90.join(" "),
            stats::percentile(&out.latencies_ms, 90.0).unwrap_or(0.0),
            out.latencies_ms.len() as f64 / out.wall_s.max(1e-9),
        );
    }
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let lookups = d(after.cache_hits, before.cache_hits)
        + d(after.cache_misses, before.cache_misses)
        + d(after.cache_invalidations, before.cache_invalidations);
    let residency = d(after.residency_hits, before.residency_hits)
        + d(after.residency_misses, before.residency_misses);
    println!(
        "service: {} requests, plan cache {} hits / {} misses / {} invalidated, residency {} hits / {} misses, \
         pool high water {} of {} pages, {} queued",
        reqs.len(),
        d(after.cache_hits, before.cache_hits),
        d(after.cache_misses, before.cache_misses),
        d(after.cache_invalidations, before.cache_invalidations),
        d(after.residency_hits, before.residency_hits),
        d(after.residency_misses, before.residency_misses),
        after.pool_pages_high_water,
        after.pool_pages,
        d(after.queued, before.queued),
    );

    let waits: Vec<f64> = reqs.iter().map(|r| r.wait_ms).collect();
    let exec = |operator: bool| {
        stats::mean(
            &reqs
                .iter()
                .filter(|r| {
                    MIX[r.kind_index]
                        .op
                        .parse::<Operator>()
                        .is_ok_and(|o| o.is_inner())
                        != operator
                })
                .map(|r| r.latency_ms - r.wait_ms)
                .collect::<Vec<_>>(),
        )
    };
    let ops: Vec<(u64, u64, u64)> = reqs.iter().filter_map(|r| r.operator).collect();
    let op_mean = |f: fn(&(u64, u64, u64)) -> u64| {
        stats::mean(&ops.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
    };
    out.layer(
        "engine.service.admission_wait_p50_ms",
        stats::percentile(&waits, 50.0).unwrap_or(0.0),
    );
    out.layer(
        "engine.service.admission_wait_p90_ms",
        stats::percentile(&waits, 90.0).unwrap_or(0.0),
    );
    out.layer(
        "storage.reserve.pool_high_water_pages",
        after.pool_pages_high_water as f64,
    );
    out.layer("engine.service.exec_ms", exec(false));
    out.layer("engine.operator.exec_ms", exec(true));
    out.layer(
        "engine.service.plan_cache_hit_ratio",
        d(after.cache_hits, before.cache_hits) / lookups.max(1.0),
    );
    out.layer(
        "engine.service.invalidations",
        d(after.cache_invalidations, before.cache_invalidations),
    );
    out.layer(
        "engine.service.residency_hit_ratio",
        d(after.residency_hits, before.residency_hits) / residency.max(1.0),
    );
    out.layer(
        "engine.service.append_ms",
        stats::mean(
            &logs
                .iter()
                .flat_map(|l| l.append_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    out.layer(
        "engine.service.first_batch_ms",
        stats::mean(
            &reqs
                .iter()
                .filter_map(|r| r.first_batch_ms)
                .collect::<Vec<_>>(),
        ),
    );
    out.layer("engine.operator.pairs_logged", op_mean(|o| o.0));
    out.layer("engine.operator.dangling", op_mean(|o| o.1));
    out.layer("engine.operator.stitched", op_mean(|o| o.2));
    out
}

/// Compares every request's digest with its oracle, computing each oracle
/// once per (outer table version, predicate, operator).
fn verify(out: &mut Outcome, t: &Tables, seed: u64, logs: &[ClientLog]) {
    type Key = (Pair, usize, u64, &'static str, &'static str);
    let mut want: HashMap<Key, Digest> = HashMap::new();
    let mut outers: HashMap<(usize, u64), Relation> = HashMap::new();
    for r in logs.iter().flat_map(|l| &l.reqs) {
        out.attempted += 1;
        let Some(got) = r.digest else {
            out.failed += 1;
            continue;
        };
        let k = MIX[r.kind_index];
        let (client, version) = match k.pair {
            Pair::Small => (r.client, r.version),
            Pair::Large => (0, 0),
        };
        let key = (k.pair, client, version, k.pred, k.op);
        let expected = *want.entry(key).or_insert_with(|| {
            let pred: JoinPredicate = k.pred.parse().expect("mix predicates parse");
            let op: Operator = k.op.parse().expect("mix operators parse");
            match k.pair {
                Pair::Small => {
                    let outer = outers
                        .entry((client, version))
                        .or_insert_with(|| t.small_outer_at(seed, client, version));
                    Digest::of(&check::oracle(outer, &t.small_inner, &op, &pred))
                }
                Pair::Large => {
                    Digest::of(&check::oracle(&t.large_outer, &t.large_inner, &op, &pred))
                }
            }
        });
        if got != expected {
            println!(
                "client {}: {:?} {} op={} at version {} mismatched the oracle ({} tuples, oracle {})",
                r.client, k.pair, k.pred, k.op, r.version, got.tuples, expected.tuples
            );
            out.failed += 1;
        }
    }
    println!(
        "oracles: {} computed for {} requests",
        want.len(),
        out.attempted
    );
}

/// Checks, once per run, that a streamed request's concatenated batches
/// equal the materialized result of the same request, in order.
fn check_stream_order(out: &mut Outcome, svc: &JoinService) {
    let pred = JoinPredicate::intersects();
    let opts = SubmitOptions::default();
    let mut streamed: Vec<Tuple> = Vec::new();
    let res = svc.submit_streamed("large_outer", "large_inner", &pred, &opts, &mut |b| {
        streamed.extend(b)
    });
    let materialized = svc.submit_opts("large_outer", "large_inner", &pred, &opts);
    match (res, materialized) {
        (Ok(_), Ok(m)) if m.result.tuples() == streamed.as_slice() => {}
        (Ok(_), Ok(_)) => out
            .problems
            .push("streamed batches differ from the materialized result".into()),
        (Err(e), _) | (_, Err(e)) => out.problems.push(format!("stream-order check failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_orders_are_seeded_permutations() {
        let a = cycle_order(1, 0, 5);
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, std::array::from_fn(|i| i));
        assert_eq!(a, cycle_order(1, 0, 5));
        let others = [
            cycle_order(1, 1, 5),
            cycle_order(1, 0, 6),
            cycle_order(2, 0, 5),
        ];
        assert!(others.iter().any(|o| *o != a));
    }

    #[test]
    fn append_batches_repeat_per_seed_client_and_index() {
        let a = Tables::append_batch(1, 0, 3);
        assert_eq!(a.len() as u64, APPEND_TUPLES);
        assert_eq!(a, Tables::append_batch(1, 0, 3));
        assert_ne!(a, Tables::append_batch(1, 1, 3));
        assert_ne!(a, Tables::append_batch(1, 0, 4));
    }

    #[test]
    fn pool_admits_one_large_request_at_a_time() {
        let t = Tables::generate(9);
        let (svc, _) = build_service(&t);
        let db = svc.database().read().unwrap();
        let pages = |n: &str| db.table_stats(n).unwrap().pages;
        let large = pages("large_outer") + pages("large_inner") + BUFFER_PAGES;
        let small = pages("small_outer_c0") + pages("small_inner") + BUFFER_PAGES;
        let pool = svc.service_section().pool_pages;
        assert!(2 * large > pool, "two large requests must not fit");
        assert!(
            large + small <= pool,
            "one large and one small request must fit"
        );
    }
}
