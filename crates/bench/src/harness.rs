//! Shared experiment plumbing.

use vtjoin_core::Relation;
use vtjoin_engine::{run, ExecPlan, MaterializeSink};
use vtjoin_join::{
    execution_report, partition_execution_report, JoinAlgorithm, JoinConfig, JoinReport,
    NestedLoopJoin, PartitionJoin, ReplicatedPartitionJoin, SortMergeJoin, TimeIndexJoin,
};
use vtjoin_obs::json::obj;
use vtjoin_obs::{ExecutionReport, Json};
use vtjoin_storage::{CostRatio, HeapFile, SharedDisk};
use vtjoin_workload::generate::{
    generate, generate_heap, inner_schema, outer_schema, DurationDistribution, GeneratorConfig,
    KeyDistribution, TimeDistribution,
};
use vtjoin_workload::PaperParams;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's geometry: 32 MB relations, 1–32 MB buffers.
    Full,
    /// 1/4 geometry for quick runs: 8 MB relations, 256 KB–8 MB buffers.
    Small,
}

impl Scale {
    /// The matching parameter set.
    pub fn params(self) -> PaperParams {
        match self {
            Scale::Full => PaperParams::FULL,
            Scale::Small => PaperParams::SMALL,
        }
    }

    /// Buffer pages corresponding to the paper's `megabytes` label at this
    /// scale (the small scale divides the memory axis by 4 as well, so
    /// every memory:relation ratio is preserved).
    pub fn buffer_pages(self, paper_mb: u64) -> u64 {
        let params = self.params();
        let bytes = match self {
            Scale::Full => paper_mb * 1024 * 1024,
            Scale::Small => paper_mb * 1024 * 1024 / 4,
        };
        (bytes / params.page_size as u64).max(8)
    }

    /// Scales a paper long-lived-tuple count to this scale.
    pub fn long_lived(self, paper_count: u64) -> u64 {
        match self {
            Scale::Full => paper_count,
            Scale::Small => paper_count / 4,
        }
    }

    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }
}

/// The algorithms under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Block nested loop.
    NestedLoop,
    /// External sort + backing-up merge.
    SortMerge,
    /// The paper's partition join.
    Partition,
    /// Leung–Muntz replication ablation.
    Replicated,
    /// Gunadhi–Segev append-only-tree index join (one-shot: sorts and
    /// builds the index as part of the run).
    TimeIndex,
    /// The same, with the inputs assumed append-only (pre-sorted): only
    /// index build + probe are charged.
    TimeIndexAppendOnly,
}

impl Algo {
    /// Every implemented algorithm.
    pub const ALL: [Algo; 6] = [
        Algo::NestedLoop,
        Algo::SortMerge,
        Algo::Partition,
        Algo::Replicated,
        Algo::TimeIndex,
        Algo::TimeIndexAppendOnly,
    ];

    /// The paper's three (Figures 6 and 7).
    pub const PAPER: [Algo; 3] = [Algo::NestedLoop, Algo::SortMerge, Algo::Partition];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::NestedLoop => "nested-loop",
            Algo::SortMerge => "sort-merge",
            Algo::Partition => "partition",
            Algo::Replicated => "partition-replicated",
            Algo::TimeIndex => "time-index",
            Algo::TimeIndexAppendOnly => "time-index-appendonly",
        }
    }

    /// Whether the algorithm's physical run depends on the cost ratio
    /// (only the partition join plans with it; the other runs can be
    /// priced at any ratio after the fact).
    pub fn ratio_sensitive(self) -> bool {
        matches!(self, Algo::Partition | Algo::Replicated)
    }
}

/// The `host` section stamped into every `BENCH_*.json` document:
/// `host_cores` is the machine's available parallelism at run time,
/// `host_parallelism` the worker-thread (or submitter) count the
/// benchmark actually exercised. Both describe the machine, not the
/// algorithm, so the `"host"` marker in
/// [`crate::regress::NONDETERMINISTIC_KEY_MARKERS`] keeps them out of
/// the regression gate.
pub fn host_section(threads_used: u64) -> Json {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as i64)
        .unwrap_or(1);
    obj(vec![
        ("host_cores", Json::Int(cores)),
        ("host_parallelism", Json::Int(threads_used as i64)),
    ])
}

/// Builds the experiment relation pair on a fresh disk: both relations
/// have `params.relation_tuples` tuples, `long_lived` of them long-lived
/// (§4.3 construction), independent seeds.
pub fn build_pair(
    params: &PaperParams,
    long_lived: u64,
    seed: u64,
) -> (SharedDisk, HeapFile, HeapFile) {
    let disk = SharedDisk::new(params.page_size);
    let cfg = GeneratorConfig::paper(params, seed).long_lived(long_lived);
    let pad = cfg.pad_bytes;
    let hr = generate_heap(&disk, outer_schema(pad), &cfg).expect("load outer");
    let cfg_s = cfg.seed(seed ^ 0xabcd_ef01);
    let hs = generate_heap(&disk, inner_schema(pad), &cfg_s).expect("load inner");
    (disk, hr, hs)
}

/// The generator the in-memory benchmarks start from: uniform keys,
/// start chronons in three clustered bursts (very unequal partition
/// populations under equal-width partitioning), short-lived durations
/// uniform in `[1, max_duration]`, no padding. Benchmarks override a
/// field with struct-update syntax where their workload differs.
pub fn clustered_generator(
    tuples: u64,
    long_lived: u64,
    keys: u64,
    lifespan: i64,
    max_duration: i64,
    seed: u64,
) -> GeneratorConfig {
    GeneratorConfig {
        tuples,
        long_lived,
        lifespan,
        keys,
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Clustered(3),
        duration_dist: DurationDistribution::UniformUpTo(max_duration.max(1)),
        pad_bytes: 0,
        seed,
    }
}

/// The outer/inner relation pair of an in-memory benchmark: the outer
/// side generated from `g`, the inner side from `g` reseeded with
/// `g.seed ^ 0xabcd`.
pub fn generated_pair(g: &GeneratorConfig) -> (Relation, Relation) {
    let inner = g.clone().seed(g.seed ^ 0xabcd);
    (
        generate(outer_schema(g.pad_bytes), g),
        generate(inner_schema(g.pad_bytes), &inner),
    )
}

/// The order-independent byte image of a result relation: every tuple's
/// storage-codec encoding, sorted. Two relations are byte-identical in
/// the benchmarks' acceptance sense iff these compare equal.
pub fn sorted_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = rel.iter().map(vtjoin_storage::codec::encode).collect();
    bytes.sort_unstable();
    bytes
}

/// Runs the in-memory executor on `plan`, materialized; panics on a join
/// error (benchmarks run fixed, valid workloads).
pub fn run_materialized(
    plan: &ExecPlan,
    r: &Relation,
    s: &Relation,
) -> (Relation, ExecutionReport) {
    let mut out = MaterializeSink::default();
    let report = run(plan, r, s, &mut out).expect("benchmark join failed");
    (out.into_relation(), report)
}

/// Runs one algorithm on a prepared pair, measuring only the join's I/O.
pub fn run_algorithm(
    algo: Algo,
    hr: &HeapFile,
    hs: &HeapFile,
    buffer_pages: u64,
    ratio: CostRatio,
) -> JoinReport {
    run_algorithm_reported(algo, hr, hs, buffer_pages, ratio).0
}

/// As [`run_algorithm`], but also lifts the run into the unified
/// [`ExecutionReport`]. Partition-join runs go through the planner-exposing
/// entry point so the report carries the plan and predicted-vs-actual
/// deviation sections; the other algorithms get the base report.
pub fn run_algorithm_reported(
    algo: Algo,
    hr: &HeapFile,
    hs: &HeapFile,
    buffer_pages: u64,
    ratio: CostRatio,
) -> (JoinReport, ExecutionReport) {
    let cfg = JoinConfig::with_buffer(buffer_pages).ratio(ratio);
    let fail = |e| -> ! { panic!("{} failed: {e}", algo.name()) };
    if algo == Algo::Partition {
        let (report, planner) = PartitionJoin::default()
            .execute_with_plan(hr, hs, &cfg)
            .unwrap_or_else(|e| fail(e));
        let er = partition_execution_report(&report, &cfg, &planner, hr.pages());
        return (report, er);
    }
    let report = match algo {
        Algo::NestedLoop => NestedLoopJoin.execute(hr, hs, &cfg),
        Algo::SortMerge => SortMergeJoin.execute(hr, hs, &cfg),
        Algo::Partition => unreachable!("handled above"),
        Algo::Replicated => ReplicatedPartitionJoin.execute(hr, hs, &cfg),
        Algo::TimeIndex => TimeIndexJoin {
            assume_sorted: false,
        }
        .execute(hr, hs, &cfg),
        Algo::TimeIndexAppendOnly => TimeIndexJoin {
            assume_sorted: true,
        }
        .execute(hr, hs, &cfg),
    }
    .unwrap_or_else(|e| fail(e));
    let er = execution_report(&report, &cfg);
    (report, er)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_arithmetic() {
        assert_eq!(Scale::Full.buffer_pages(1), 256);
        assert_eq!(Scale::Full.buffer_pages(32), 8192);
        assert_eq!(Scale::Small.buffer_pages(1), 64);
        assert_eq!(Scale::Small.buffer_pages(32), 2048);
        assert_eq!(Scale::Small.long_lived(128_000), 32_000);
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("weird"), None);
    }

    #[test]
    fn relation_to_memory_ratios_preserved() {
        // At both scales, "8 MB of memory" is 1/4 of the relation.
        for scale in [Scale::Full, Scale::Small] {
            let params = scale.params();
            assert_eq!(
                params.relation_pages() / scale.buffer_pages(8),
                4,
                "{scale:?}"
            );
        }
    }

    #[test]
    fn build_pair_geometry() {
        let mut params = PaperParams::SMALL;
        params.relation_tuples = 2048;
        let (_, hr, hs) = build_pair(&params, 100, 7);
        assert_eq!(hr.tuples(), 2048);
        assert_eq!(hs.tuples(), 2048);
        assert_eq!(hr.pages(), 64); // 32 tuples per page
        assert_ne!(
            hr.read_page(0).unwrap()[0],
            hs.read_page(0).unwrap()[0],
            "independent seeds"
        );
    }

    #[test]
    fn reported_runs_carry_plan_sections_for_partition() {
        let mut params = PaperParams::SMALL;
        params.relation_tuples = 2048;
        params.lifespan = 4000;
        params.objects = 100;
        let (_, hr, hs) = build_pair(&params, 64, 3);
        let (rep, er) = run_algorithm_reported(Algo::Partition, &hr, &hs, 16, CostRatio::R5);
        assert_eq!(er.algorithm, "partition");
        assert_eq!(er.io.total_ios, rep.io.total_ios());
        assert!(
            er.plan.is_some(),
            "non-degenerate partition run must carry a plan"
        );
        assert!(er.deviation.is_some());
        let (_, er) = run_algorithm_reported(Algo::SortMerge, &hr, &hs, 16, CostRatio::R5);
        assert!(er.plan.is_none());
    }

    #[test]
    fn run_algorithm_smoke_all() {
        let mut params = PaperParams::SMALL;
        params.relation_tuples = 1024;
        params.lifespan = 4000;
        params.objects = 100;
        let (_, hr, hs) = build_pair(&params, 64, 3);
        let mut cards = Vec::new();
        for algo in Algo::ALL {
            if algo == Algo::TimeIndexAppendOnly {
                continue; // requires pre-sorted inputs
            }
            let rep = run_algorithm(algo, &hr, &hs, 12, CostRatio::R5);
            cards.push(rep.result_tuples);
        }
        // All algorithms agree on cardinality.
        assert!(cards.windows(2).all(|w| w[0] == w[1]), "{cards:?}");
        assert!(cards[0] > 0);
    }
}
