//! `disk-paper`: the paper's experiment. Each op is one `PartitionJoin`
//! (sampling planner, Grace partitioning, tuple cache) over heap files on
//! the simulated disk at `IO_ran` = 5, with a buffer of 1/16 of a
//! relation. Once per run, `SortMergeJoin` runs on the same inputs for
//! the Figure 6 comparison.
//!
//! The simulated disk never frees pages, so every op loads the relations
//! onto a fresh disk first, outside the timed window. The op is timed
//! from the execute call until the collected result is complete.

use crate::check::Digest;
use crate::cli_join::mix;
use crate::host::{self, ProcStat};
use crate::stats;
use crate::trace::{OpScope, Tracer};
use crate::{setup_done, Args, Outcome};
use std::time::{Duration, Instant};
use vtjoin_core::algebra::natural_join;
use vtjoin_core::Relation;
use vtjoin_join::{
    partition_execution_report, JoinAlgorithm, JoinConfig, PartitionJoin, SortMergeJoin,
};
use vtjoin_obs::ExecutionReport;
use vtjoin_storage::{CostRatio, HeapFile, SharedDisk};
use vtjoin_workload::generate::{generate, inner_schema, outer_schema, GeneratorConfig};
use vtjoin_workload::PaperParams;

/// The paper's geometry at 1/4 scale: 65,536 tuples of 128 bytes per
/// relation (2,048 pages), lifespan 250,000, 6,553 objects.
pub const PARAMS: PaperParams = PaperParams::SMALL;
/// Long-lived tuples per relation (the paper's 8,000 at 1/4 scale).
pub const LONG_LIVED: u64 = 2_000;
/// Buffer pages: the paper's 2 MB point at 1/4 scale.
pub const BUFFER_PAGES: u64 = 128;
/// The random:sequential cost ratio.
pub const RATIO: CostRatio = CostRatio::R5;

fn generate_pair(seed: u64) -> (Relation, Relation) {
    let cfg = GeneratorConfig::paper(&PARAMS, mix(seed, 1)).long_lived(LONG_LIVED);
    let s_cfg = cfg.clone().seed(mix(seed, 2));
    (
        generate(outer_schema(cfg.pad_bytes), &cfg),
        generate(inner_schema(cfg.pad_bytes), &s_cfg),
    )
}

fn load(r: &Relation, s: &Relation) -> (SharedDisk, HeapFile, HeapFile) {
    let disk = SharedDisk::new(PARAMS.page_size);
    let hr = HeapFile::bulk_load(&disk, r).expect("bulk load onto an empty disk");
    let hs = HeapFile::bulk_load(&disk, s).expect("bulk load onto an empty disk");
    (disk, hr, hs)
}

fn config() -> JoinConfig {
    JoinConfig::with_buffer(BUFFER_PAGES)
        .ratio(RATIO)
        .collecting()
}

struct OpRecord {
    latency_ms: f64,
    report: ExecutionReport,
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    println!(
        "workload disk-paper: {} tuples/side ({} pages, {} B tuples), {LONG_LIVED} long-lived, \
         {} objects, lifespan {}, seeds mix(seed,1|2); partition join, buffer {BUFFER_PAGES} pages, \
         IO_ran {}",
        PARAMS.relation_tuples,
        PARAMS.relation_pages(),
        PARAMS.tuple_bytes,
        PARAMS.objects,
        PARAMS.lifespan,
        RATIO.random
    );

    // Set-up: generate the relations and bulk-load them, several times.
    let mut pair = None;
    let mut bulk_ms = Vec::new();
    while !setup_done(&out.setup_s) {
        let t0 = Instant::now();
        let (r, s) = generate_pair(args.seed);
        let t1 = Instant::now();
        let loaded = load(&r, &s);
        bulk_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        drop(loaded);
        pair = Some((r, s));
    }
    out.layer(
        "storage.heap.bulk_load_ms",
        stats::median(&bulk_ms).unwrap_or(0.0),
    );
    let (r, s) = pair.expect("at least one set-up");
    let want = Digest::of(&natural_join(&r, &s).expect("generated schemas join"));
    println!("oracle: natural_join gives {} tuples", want.tuples);
    let cfg = config();

    let check = |result: Option<&Relation>| result.is_some_and(|rel| Digest::of(rel) == want);

    // The Figure 6 comparison: sort-merge on the same inputs, once.
    let (_disk, hr, hs) = load(&r, &s);
    match SortMergeJoin.execute(&hr, &hs, &cfg) {
        Ok(rep) => {
            if !check(rep.result.as_ref()) {
                out.problems
                    .push("sort-merge result mismatched the oracle".into());
            }
            out.layer("join.sort_merge.io_cost", rep.cost(RATIO) as f64);
            println!(
                "figure 6: sort-merge {} random + {} sequential I/Os, cost {}",
                rep.io.random(),
                rep.io.sequential(),
                rep.cost(RATIO)
            );
        }
        Err(e) => out.problems.push(format!("sort-merge failed: {e}")),
    }
    drop((_disk, hr, hs));

    let tracer = Tracer::new();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut op_time = Duration::ZERO;
    let mut op = 0u64;
    let mut warmed = false;
    while op_time < args.seconds {
        let (disk, hr, hs) = load(&r, &s);
        let traced = args.trace && op % 2 == 1;
        let scope = OpScope::begin(traced.then_some(&tracer), op, 0);
        let stat0 = ProcStat::now();
        let started = Instant::now();
        let run = scope.layer("join.partition.execute", || {
            PartitionJoin::default().execute_with_plan(&hr, &hs, &cfg)
        });
        let elapsed = started.elapsed();
        let stat1 = ProcStat::now();
        scope.end();
        drop(disk);
        let (report, planner) = match run {
            Ok(x) => x,
            Err(e) => {
                println!("op {op}: failed: {e}");
                out.attempted += 1;
                out.failed += 1;
                op_time += elapsed;
                op += 1;
                continue;
            }
        };
        let ok = check(report.result.as_ref());
        let er = partition_execution_report(&report, &cfg, &planner, hr.pages());
        if !warmed {
            // The first op warms caches and the allocator; it is checked
            // but not measured.
            warmed = true;
            if !ok {
                out.problems
                    .push("warm-up result mismatched the oracle".into());
            }
            continue;
        }
        out.attempted += 1;
        op_time += elapsed;
        let latency_ms = elapsed.as_secs_f64() * 1e3;
        if !ok {
            println!("op {op}: result mismatched the natural_join oracle");
            out.failed += 1;
        }
        out.latencies_ms.push(latency_ms);
        out.cpu_ms += stat1.cpu_ms - stat0.cpu_ms;
        if args.trace {
            if traced {
                &mut out.traced_ms
            } else {
                &mut out.untraced_ms
            }
            .push(latency_ms);
        }
        records.push(OpRecord {
            latency_ms,
            report: er,
        });
        op += 1;
    }
    out.wall_s = op_time.as_secs_f64();
    out.peak_rss_mb = host::peak_rss_mb();
    out.spans = tracer.into_spans();

    let costs: Vec<u64> = records.iter().map(|r| r.report.io.cost).collect();
    if costs.windows(2).any(|w| w[0] != w[1]) {
        out.problems
            .push(format!("io_cost did not repeat exactly: {costs:?}"));
    }
    if let Some(first) = records.first() {
        print_figure(&first.report);
    }
    println!(
        "op latencies ms: {:?}",
        records
            .iter()
            .map(|r| (r.latency_ms * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    layers(&mut out, &records);
    out
}

fn print_figure(er: &ExecutionReport) {
    for ph in &er.phases {
        println!(
            "partition phase {:<9} {:>5} random + {:>5} sequential I/Os, cost {:>6}, predicted {}",
            ph.name,
            ph.io.random_reads + ph.io.random_writes,
            ph.io.seq_reads + ph.io.seq_writes,
            ph.io.cost,
            ph.predicted_cost.map_or("-".to_owned(), |c| c.to_string())
        );
    }
    println!("figure 6: partition cost {}", er.io.cost);
}

fn layers(out: &mut Outcome, records: &[OpRecord]) {
    let Some(first) = records.first().map(|r| &r.report) else {
        return;
    };
    let avg = |f: &dyn Fn(&ExecutionReport) -> f64| {
        stats::mean(&records.iter().map(|r| f(&r.report)).collect::<Vec<_>>())
    };
    out.layer("io_cost", first.io.cost as f64);
    for (phase, ms, random, sequential) in [
        (
            "plan",
            "join.partition.plan_ms",
            "join.partition.plan.io_random",
            "join.partition.plan.io_sequential",
        ),
        (
            "partition",
            "join.partition.partition_ms",
            "join.partition.partition.io_random",
            "join.partition.partition.io_sequential",
        ),
        (
            "join",
            "join.partition.join_ms",
            "join.partition.join.io_random",
            "join.partition.join.io_sequential",
        ),
    ] {
        out.layer(
            ms,
            avg(&|er| er.phase(phase).map_or(0.0, |p| p.wall_micros as f64 / 1e3)),
        );
        if let Some(p) = first.phase(phase) {
            out.layer(random, (p.io.random_reads + p.io.random_writes) as f64);
            out.layer(sequential, (p.io.seq_reads + p.io.seq_writes) as f64);
        }
    }
    let predicted = |phase: &str| {
        first
            .phase(phase)
            .and_then(|p| p.predicted_cost)
            .unwrap_or(0) as f64
    };
    out.layer("join.partition.plan.predicted_cost", predicted("plan"));
    out.layer("join.partition.join.predicted_cost", predicted("join"));
    out.layer(
        "join.partition.predicted_io_deviation",
        first.deviation.as_ref().map_or(0.0, |d| d.error as f64),
    );
    out.layer(
        "join.partition.cache_pages_written",
        first.counter("cache_pages_written").unwrap_or(0) as f64,
    );
    if let Some(sm) = out.layers.get("join.sort_merge.io_cost").copied() {
        out.layer(
            "join.sort_merge.cost_ratio",
            sm / first.io.cost.max(1) as f64,
        );
    }
}
