//! Operator benchmark: the operator-family grid (duplicate-ratio ×
//! operator) over the dangling-tracking executor, emitting
//! `BENCH_operator.json`. Each cell evaluates one member of the §4.1
//! operator family — LEFT/FULL outer join, semijoin, antijoin, and two
//! temporal aggregates — and checks the result **byte-identical** (same
//! tuples, same order) against the corresponding nested-loop oracle in
//! `vtjoin_core::algebra`.
//!
//! The deterministic per-cell counters (result cardinality, logged
//! pairs, dangling fragments before and after boundary stitching,
//! timeline events/checkpoints/segments) ride under the
//! [`crate::regress`] comparator exactly like the other benchmarks;
//! wall-clock fields are denylisted there as usual.

use crate::harness::{clustered_generator, generated_pair};
use crate::regress::{check_envelope, require_ints};
use std::time::Instant;
use vtjoin_core::algebra::{
    antijoin_pred, count_over_time, extremum_over_time, full_outerjoin_pred, outerjoin_pred,
    segments_to_relation, semijoin_pred, Extremum, JoinSide,
};
use vtjoin_core::{AggFunc, Interval, JoinPredicate, Operator, Relation};
use vtjoin_engine::{run as run_plan, ExecPlan, MaterializeSink};
use vtjoin_join::partition::intervals::equal_width;
use vtjoin_join::partition::GridPlan;
use vtjoin_obs::json::obj;
use vtjoin_obs::{Json, OperatorSection};

/// Version stamped into `BENCH_operator.json` as `schema_version`;
/// [`validate`] rejects other versions.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// The fixed operator axis of the grid: the four non-inner join
/// operators plus two temporal aggregates (one count, one attribute
/// aggregate), so every materialization path and the TimelineIndex both
/// run in every row.
pub const GRID_OPERATORS: &[&str] = &[
    "left",
    "full",
    "semi",
    "anti",
    "aggregate:count",
    "aggregate:max:key",
];

/// Workload configuration for the operator benchmark.
#[derive(Debug, Clone)]
pub struct OperatorBenchConfig {
    /// Tuples per side.
    pub tuples: u64,
    /// Long-lived tuples per side.
    pub long_lived: u64,
    /// Lifespan in chronons.
    pub lifespan: i64,
    /// Maximum interval duration for the short-lived tuples.
    pub max_duration: i64,
    /// The duplicate-ratio axis: average tuples per distinct key, per
    /// side (`keys = tuples / ratio`). One grid row per entry.
    pub duplicate_ratios: Vec<u64>,
    /// Equal-width time partitions for the executor's grid.
    pub partitions: u64,
    /// Key buckets for the executor's grid.
    pub key_buckets: usize,
    /// Worker threads.
    pub threads: usize,
    /// Timed repetitions per cell; the minimum is reported.
    pub repeats: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for OperatorBenchConfig {
    /// Sized so the nested-loop oracles (quadratic in `tuples`) stay
    /// tractable per cell while multiple partitions still force real
    /// boundary stitching.
    fn default() -> OperatorBenchConfig {
        OperatorBenchConfig {
            tuples: 4_000,
            long_lived: 200,
            lifespan: 20_000,
            max_duration: 200,
            duplicate_ratios: vec![4, 64],
            partitions: 8,
            key_buckets: 4,
            threads: 2,
            repeats: 2,
            seed: 0x1994_0214,
        }
    }
}

/// A tiny geometry for CI smoke runs: one duplicate ratio, a few hundred
/// tuples, still one cell per grid operator.
pub fn smoke_config() -> OperatorBenchConfig {
    OperatorBenchConfig {
        tuples: 600,
        long_lived: 30,
        lifespan: 5_000,
        max_duration: 100,
        duplicate_ratios: vec![8],
        partitions: 4,
        key_buckets: 2,
        threads: 1,
        repeats: 1,
        seed: 0x1994_0214,
    }
}

/// The relation pair for one duplicate ratio: uniform keys at
/// `tuples / ratio` distinct values, clustered start chronons so
/// same-key pairs produce matched windows, partial overlaps, and fully
/// dangling tuples alike.
pub fn workload_pair(cfg: &OperatorBenchConfig, ratio: u64) -> (Relation, Relation) {
    generated_pair(&clustered_generator(
        cfg.tuples,
        cfg.long_lived,
        (cfg.tuples / ratio.max(1)).max(1),
        cfg.lifespan,
        cfg.max_duration,
        cfg.seed ^ ratio,
    ))
}

/// The **ordered** byte image of a result relation: the operator
/// executor's contract is byte-identity to the oracle including emission
/// order, so the comparison never sorts.
fn ordered_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    rel.iter().map(vtjoin_storage::codec::encode).collect()
}

/// The oracle result for one grid operator.
fn oracle(r: &Relation, s: &Relation, op: &Operator, pred: &JoinPredicate) -> Relation {
    match op {
        Operator::Inner => vtjoin_core::algebra::predicate_join(r, s, pred),
        Operator::Left => outerjoin_pred(r, s, JoinSide::Left, pred),
        Operator::Full => full_outerjoin_pred(r, s, pred),
        Operator::Semi => semijoin_pred(r, s, pred),
        Operator::Anti => antijoin_pred(r, s, pred),
        Operator::Aggregate(f) => {
            let joined =
                vtjoin_core::algebra::predicate_join(r, s, pred).expect("oracle join failed");
            let segs = match f {
                AggFunc::Count => count_over_time(&joined),
                AggFunc::Sum(a) => {
                    vtjoin_core::algebra::sum_over_time(&joined, a).expect("oracle sum failed")
                }
                AggFunc::Min(a) => {
                    extremum_over_time(&joined, a, Extremum::Min).expect("oracle min failed")
                }
                AggFunc::Max(a) => {
                    extremum_over_time(&joined, a, Extremum::Max).expect("oracle max failed")
                }
            };
            return segments_to_relation(&segs);
        }
    }
    .expect("oracle join failed")
}

/// One executor run of `op` over `plan`: the result and its operator
/// section.
fn op_run(plan: &ExecPlan, r: &Relation, s: &Relation) -> (Relation, OperatorSection) {
    let mut out = MaterializeSink::default();
    let report = run_plan(plan, r, s, &mut out).expect("benchmark operator run failed");
    let section = report
        .operator
        .expect("non-inner runs carry an operator section");
    (out.into_relation(), section)
}

/// Runs the grid and returns the `BENCH_operator.json` document.
pub fn run(cfg: &OperatorBenchConfig) -> Json {
    let pred = JoinPredicate::intersects();
    let lifespan_iv = Interval::from_raw(0, cfg.lifespan).expect("positive lifespan");
    let grid = GridPlan {
        key_buckets: cfg.key_buckets as u64,
        intervals: equal_width(lifespan_iv, cfg.partitions),
    };

    let mut cells = Vec::new();
    let mut all_identical = 1_i64;
    for &ratio in &cfg.duplicate_ratios {
        let (r, s) = workload_pair(cfg, ratio);
        for name in GRID_OPERATORS {
            let op: Operator = name.parse().expect("grid operator parses");
            let want = ordered_encoding(&oracle(&r, &s, &op, &pred));
            let plan = ExecPlan {
                predicate: pred,
                op,
                ..ExecPlan::new(grid.clone(), cfg.threads)
            };
            let mut wall = u64::MAX;
            for _ in 0..cfg.repeats.max(1) {
                let t0 = Instant::now();
                op_run(&plan, &r, &s);
                wall = wall.min(t0.elapsed().as_micros() as u64);
            }
            let (result, c) = op_run(&plan, &r, &s);
            let op = &plan.op;
            let identical = i64::from(ordered_encoding(&result) == want);
            all_identical &= identical;
            cells.push(obj(vec![
                ("op", Json::Str(op.to_string())),
                ("duplicates_per_key", Json::Int(ratio as i64)),
                ("keys", Json::Int((cfg.tuples / ratio.max(1)).max(1) as i64)),
                ("result_tuples", Json::Int(result.len() as i64)),
                ("oracle_identical", Json::Int(identical)),
                ("wall_micros", Json::Int(wall as i64)),
                ("cells_run", Json::Int(c.cells as i64)),
                ("pairs_logged", Json::Int(c.pairs_logged as i64)),
                ("outer_fragments", Json::Int(c.outer_fragments as i64)),
                ("inner_fragments", Json::Int(c.inner_fragments as i64)),
                ("stitched_outer", Json::Int(c.stitched_outer as i64)),
                ("stitched_inner", Json::Int(c.stitched_inner as i64)),
                ("outer_dangling", Json::Int(c.outer_dangling as i64)),
                ("inner_dangling", Json::Int(c.inner_dangling as i64)),
                ("timeline_events", Json::Int(c.timeline_events as i64)),
                (
                    "timeline_checkpoints",
                    Json::Int(c.timeline_checkpoints as i64),
                ),
                ("agg_segments", Json::Int(c.agg_segments as i64)),
                ("fallback_nested", Json::Int(i64::from(c.fallback_nested))),
            ]));
        }
    }

    obj(vec![
        ("schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
        ("benchmark", Json::Str("operator-grid".into())),
        ("host", crate::harness::host_section(cfg.threads as u64)),
        (
            "workload",
            obj(vec![
                ("tuples_per_side", Json::Int(cfg.tuples as i64)),
                ("long_lived_per_side", Json::Int(cfg.long_lived as i64)),
                ("lifespan", Json::Int(cfg.lifespan)),
                ("max_duration", Json::Int(cfg.max_duration)),
                (
                    "duplicate_ratios",
                    Json::Arr(
                        cfg.duplicate_ratios
                            .iter()
                            .map(|r| Json::Int(*r as i64))
                            .collect(),
                    ),
                ),
                ("partitions", Json::Int(cfg.partitions as i64)),
                ("key_buckets", Json::Int(cfg.key_buckets as i64)),
                ("threads", Json::Int(cfg.threads as i64)),
                ("seed", Json::Int(cfg.seed as i64)),
                ("time_distribution", Json::Str("clustered-3".into())),
            ]),
        ),
        ("all_oracle_identical", Json::Int(all_identical)),
        ("cells", Json::Arr(cells)),
    ])
}

/// Validates a `BENCH_operator.json` document: the shared envelope, a
/// non-empty cell grid whose cells each carry the full counter set, every
/// operator a parseable [`Operator`] with all four non-inner joins and at
/// least one aggregate represented, and a passing oracle byte-identity
/// check in **every** cell.
pub fn validate(doc: &Json) -> Result<(), String> {
    check_envelope(
        doc,
        BENCH_SCHEMA_VERSION,
        "operator-grid",
        &[
            "tuples_per_side",
            "lifespan",
            "max_duration",
            "partitions",
            "key_buckets",
            "threads",
            "seed",
        ],
    )?;
    match doc.get("all_oracle_identical").and_then(Json::as_i64) {
        Some(1) => {}
        Some(_) => return Err("some cell diverged from the algebra oracle".into()),
        None => return Err("missing all_oracle_identical".into()),
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing cells array")?;
    if cells.is_empty() {
        return Err("empty cell grid".into());
    }
    let mut ops_seen = std::collections::BTreeSet::new();
    let mut aggregates_seen = 0_u64;
    for (i, c) in cells.iter().enumerate() {
        let name = c
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing cells[{i}].op"))?;
        let op: Operator = name
            .parse()
            .map_err(|e| format!("cells[{i}].op `{name}`: {e}"))?;
        if matches!(op, Operator::Aggregate(_)) {
            aggregates_seen += 1;
        } else {
            ops_seen.insert(name.to_owned());
        }
        require_ints(
            c,
            &format!("cells[{i}]"),
            &[
                "duplicates_per_key",
                "keys",
                "result_tuples",
                "wall_micros",
                "cells_run",
                "pairs_logged",
                "outer_fragments",
                "inner_fragments",
                "stitched_outer",
                "stitched_inner",
                "outer_dangling",
                "inner_dangling",
                "timeline_events",
                "timeline_checkpoints",
                "agg_segments",
                "fallback_nested",
            ],
        )?;
        match c.get("oracle_identical").and_then(Json::as_i64) {
            Some(1) => {}
            Some(_) => {
                return Err(format!(
                    "cells[{i}] ({name}) diverged from the algebra oracle"
                ))
            }
            None => return Err(format!("missing cells[{i}].oracle_identical")),
        }
    }
    for required in ["left", "full", "semi", "anti"] {
        if !ops_seen.contains(required) {
            return Err(format!("grid must include the `{required}` operator"));
        }
    }
    if aggregates_seen == 0 {
        return Err("grid must include at least one aggregate cell".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_emits_a_valid_document() {
        let doc = run(&smoke_config());
        validate(&doc).unwrap();
        // Round-trips through the JSON text form.
        let back = Json::parse(&doc.to_pretty()).unwrap();
        validate(&back).unwrap();
        let cells = back.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), GRID_OPERATORS.len());
        let cell = |name: &str| {
            cells
                .iter()
                .find(|c| c.get("op").and_then(Json::as_str) == Some(name))
                .unwrap()
        };
        let get = |c: &Json, k: &str| c.get(k).and_then(Json::as_i64).unwrap();
        // Outer-tracking operators found dangling windows; the FULL join
        // tracked both sides; the aggregates drove the timeline.
        assert!(get(cell("left"), "outer_dangling") > 0);
        assert!(get(cell("full"), "inner_dangling") > 0);
        assert!(get(cell("semi"), "outer_fragments") > 0);
        assert_eq!(get(cell("anti"), "pairs_logged"), 0);
        assert!(get(cell("aggregate:count"), "timeline_events") > 0);
        assert!(get(cell("aggregate:max:key"), "agg_segments") > 0);
        // Multi-partition smoke geometry must exercise the stitch.
        assert!(get(cell("left"), "stitched_outer") > 0);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let doc = run(&smoke_config());
        validate(&doc).unwrap();
        let text = doc
            .to_pretty()
            .replacen("\"schema_version\": 1", "\"schema_version\": 9", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        let text = doc.to_pretty().replacen("\"cells\"", "\"shells\"", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        let text = doc.to_pretty().replacen(
            "\"all_oracle_identical\": 1",
            "\"all_oracle_identical\": 0",
            1,
        );
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        // One diverged cell fails even with the aggregate flag intact.
        let text =
            doc.to_pretty()
                .replacen("\"oracle_identical\": 1", "\"oracle_identical\": 0", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        // A grid missing a required operator fails.
        let text = doc
            .to_pretty()
            .replacen("\"op\": \"anti\"", "\"op\": \"semi\"", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
    }
}
