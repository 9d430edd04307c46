//! Columnar round-trip against the algebra oracles: the struct-of-arrays
//! encode → columnar kernel → late-materialization pipeline must
//! reproduce the nested-loop oracles of `vtjoin::model::algebra` across
//! every grammar-nameable predicate and all three executors that run it —
//! the grid executor, the operator executor, and the serial partition
//! join — and the partition join's per-phase page I/O is pinned on a
//! fixed fixture. This is the pin for the `ColumnarSide` contract in
//! `crates/join/src/columnar.rs`.

use proptest::prelude::*;
use std::sync::Arc;
use vtjoin::engine::{run, ExecPlan, MaterializeSink};
use vtjoin::join::common::JoinSpec;
use vtjoin::join::kernel::KernelChoice;
use vtjoin::join::partition::intervals::equal_width;
use vtjoin::join::partition::{plan_grid, GridChoice, GridPlan};
use vtjoin::model::algebra::{
    antijoin_pred, count_over_time, full_outerjoin_pred, outerjoin_pred, segments_to_relation,
    semijoin_pred, sum_over_time, JoinSide,
};
use vtjoin::model::{AggFunc, Operator};
use vtjoin::prelude::*;
use vtjoin::storage::codec::encode;

const T_MAX: i64 = 120;

/// Every predicate the `--predicate` grammar can name: the natural
/// alias, all thirteen Allen relations, gap-bounded before/after, and a
/// sample of `-or-` unions covering the intersection, sequence, and
/// mixed templates.
const GRAMMAR_PREDICATES: &[&str] = &[
    "intersects",
    "before",
    "meets",
    "overlaps",
    "starts",
    "during",
    "finishes",
    "equals",
    "finished-by",
    "contains",
    "started-by",
    "overlapped-by",
    "met-by",
    "after",
    "before-within-7",
    "after-within-3",
    "overlaps-or-overlapped-by",
    "during-or-contains-or-equals",
    "before-or-after",
    "meets-or-met-by",
    "starts-or-during-or-finishes",
];

fn r_schema() -> Arc<Schema> {
    Schema::new(vec![
        AttrDef::new("k", AttrType::Str),
        AttrDef::new("b", AttrType::Int),
    ])
    .unwrap()
    .into_shared()
}

fn s_schema() -> Arc<Schema> {
    Schema::new(vec![
        AttrDef::new("k", AttrType::Str),
        AttrDef::new("c", AttrType::Int),
    ])
    .unwrap()
    .into_shared()
}

prop_compose! {
    /// String keys from a small pool (duplicate-heavy, exercising the key
    /// dictionary and hash tie-breaks) with clustered starts so radix
    /// passes see both constant and varying bytes, plus interval ties.
    fn arb_tuple(keys: i64)(k in 0..keys, v in 0..1000i64, a in 0..T_MAX, len in 0..40i64)
        -> (String, i64, Interval)
    {
        (format!("key{k}"), v, Interval::from_raw(a, (a + len).min(T_MAX + 40)).unwrap())
    }
}

fn arb_rel(schema: Arc<Schema>, keys: i64, n: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_tuple(keys), 0..n).prop_map(move |ts| {
        Relation::from_parts_unchecked(
            Arc::clone(&schema),
            ts.into_iter()
                .map(|(k, v, iv)| Tuple::new(vec![Value::from(k), Value::Int(v)], iv))
                .collect(),
        )
    })
}

/// The ordered byte image of a result: every tuple's storage-codec
/// encoding, *in emission order* — byte-identical means identical bytes
/// in identical order, not just multiset equality.
fn ordered_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    rel.iter().map(encode).collect()
}

/// The byte image with emission order factored out (the grid executor
/// emits in cell order, the oracle in nested-loop order).
fn sorted_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    let mut bytes = ordered_encoding(rel);
    bytes.sort();
    bytes
}

/// The algebra oracle for one member of the operator family.
fn operator_oracle(r: &Relation, s: &Relation, op: &Operator, pred: &JoinPredicate) -> Relation {
    match op {
        Operator::Left => outerjoin_pred(r, s, JoinSide::Left, pred).unwrap(),
        Operator::Full => full_outerjoin_pred(r, s, pred).unwrap(),
        Operator::Semi => semijoin_pred(r, s, pred).unwrap(),
        Operator::Anti => antijoin_pred(r, s, pred).unwrap(),
        Operator::Aggregate(AggFunc::Count) => {
            segments_to_relation(&count_over_time(&predicate_join(r, s, pred).unwrap()))
        }
        Operator::Aggregate(AggFunc::Sum(a)) => {
            segments_to_relation(&sum_over_time(&predicate_join(r, s, pred).unwrap(), a).unwrap())
        }
        other => unreachable!("no oracle wired for {other}"),
    }
}

/// A fixed duplicate-heavy fixture with long-lived tuples: `n` tuples
/// over 4 string keys, starts spread over `[0, T_MAX)`, every fifth tuple
/// long-lived.
fn fixture(schema: Arc<Schema>, n: i64, salt: i64) -> Relation {
    let tuples = (0..n)
        .map(|i| {
            let start = (i * 37 + salt * 11) % T_MAX;
            let len = if i % 5 == 0 { 60 } else { (i * salt) % 7 };
            Tuple::new(
                vec![Value::from(format!("key{}", (i * salt) % 4)), Value::Int(i)],
                Interval::from_raw(start, start + len).unwrap(),
            )
        })
        .collect();
    Relation::from_parts_unchecked(schema, tuples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Grid executor: for every grammar predicate and forced kernel, the
    /// result is the oracle multiset, and every partitioned run accounts
    /// each materialized row in its columnar section.
    #[test]
    fn grid_executor_matches_the_oracle(
        r in arb_rel(r_schema(), 4, 60),
        s in arb_rel(s_schema(), 4, 60),
        parts in 1u64..5,
        threads in 1usize..3,
    ) {
        let lifespan = Interval::from_raw(0, T_MAX + 40).unwrap();
        let intervals = equal_width(lifespan, parts);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let grid = plan_grid(&spec, &r, &s, &intervals, threads, GridChoice::Fixed(2)).plan;
        for pred_text in GRAMMAR_PREDICATES {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            let want = sorted_encoding(&predicate_join(&r, &s, &pred).unwrap());
            for kernel in [KernelChoice::Auto, KernelChoice::Sweep, KernelChoice::Hash] {
                let plan = ExecPlan {
                    kernel,
                    predicate: pred,
                    ..ExecPlan::new(grid.clone(), threads)
                };
                let mut out = MaterializeSink::default();
                let report = run(&plan, &r, &s, &mut out).unwrap();
                let got = out.into_relation();
                prop_assert_eq!(
                    sorted_encoding(&got),
                    want.clone(),
                    "{pred_text} ({kernel:?}): diverged from the oracle",
                );
                prop_assert_eq!(
                    report.columnar.map(|c| c.materialized_rows),
                    pred.partitioning_eligible().then_some(got.len() as u64),
                    "{pred_text} ({kernel:?}): columnar accounting",
                );
            }
        }
    }

    /// Operator executor: for every non-inner member of the operator
    /// family (outer/semi/anti joins and temporal aggregation) and every
    /// grammar predicate, key equality through the encoded key dictionary
    /// reproduces the algebra oracle byte-identically.
    #[test]
    fn operator_executor_matches_the_oracle(
        r in arb_rel(r_schema(), 4, 60),
        s in arb_rel(s_schema(), 4, 60),
        parts in 1u64..5,
        threads in 1usize..3,
    ) {
        let lifespan = Interval::from_raw(0, T_MAX + 40).unwrap();
        let intervals = equal_width(lifespan, parts);
        let ops = [
            Operator::Left,
            Operator::Full,
            Operator::Semi,
            Operator::Anti,
            Operator::Aggregate(AggFunc::Count),
            Operator::Aggregate(AggFunc::Sum("c".into())),
        ];
        for pred_text in GRAMMAR_PREDICATES {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            for op in &ops {
                let plan = ExecPlan {
                    predicate: pred,
                    op: op.clone(),
                    ..ExecPlan::new(GridPlan::with_buckets(2, intervals.clone()), threads)
                };
                let mut out = MaterializeSink::default();
                run(&plan, &r, &s, &mut out).unwrap();
                let got = out.into_relation();
                prop_assert_eq!(
                    ordered_encoding(&got),
                    ordered_encoding(&operator_oracle(&r, &s, op, &pred)),
                    "{} under {pred_text}: diverged from the oracle", op,
                );
            }
        }
    }

    /// Serial partition join: for every partitioning-eligible grammar
    /// predicate, the columnar intra-partition path (including the paged
    /// tuple-cache chunks) reproduces the oracle multiset.
    #[test]
    fn partition_join_matches_the_oracle(
        r in arb_rel(r_schema(), 4, 60),
        s in arb_rel(s_schema(), 4, 60),
        buffer in 8u64..24,
    ) {
        let disk = SharedDisk::new(256);
        let hr = HeapFile::bulk_load(&disk, &r).unwrap();
        let hs = HeapFile::bulk_load(&disk, &s).unwrap();
        for pred_text in GRAMMAR_PREDICATES {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            if !pred.partitioning_eligible() {
                continue; // served by the merge fallback, pinned above
            }
            let mut cfg = JoinConfig::with_buffer(buffer).collecting();
            cfg.predicate = pred;
            let report = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
            prop_assert_eq!(
                sorted_encoding(report.result.as_ref().unwrap()),
                sorted_encoding(&predicate_join(&r, &s, &pred).unwrap()),
                "{pred_text}: partition join diverged from the oracle",
            );
        }
    }
}

/// The paper's metric on a fixed disk fixture: the partition join's
/// per-phase `(random, sequential)` page I/O, pinned as literals for a
/// partitioned run under a tight buffer, a roomier one, and the
/// degenerate one-partition case — plus the oracle result.
#[test]
fn partition_join_phase_io_is_pinned() {
    let r = fixture(r_schema(), 150, 3);
    let s = fixture(s_schema(), 150, 5);
    let disk = SharedDisk::new(256);
    let hr = HeapFile::bulk_load(&disk, &r).unwrap();
    let hs = HeapFile::bulk_load(&disk, &s).unwrap();
    assert_eq!((hr.pages(), hs.pages()), (22, 22));
    type Phases = [(&'static str, u64, u64); 3];
    let cases: [(u64, &str, Phases); 6] = [
        (
            12,
            "intersects",
            [("plan", 1, 21), ("partition", 51, 45), ("join", 40, 44)],
        ),
        (
            12,
            "during",
            [("plan", 1, 21), ("partition", 52, 44), ("join", 40, 44)],
        ),
        (
            24,
            "intersects",
            [("plan", 1, 21), ("partition", 14, 77), ("join", 14, 45)],
        ),
        (
            24,
            "during",
            [("plan", 1, 21), ("partition", 14, 77), ("join", 14, 45)],
        ),
        (
            64,
            "intersects",
            [("plan", 1, 21), ("partition", 0, 0), ("join", 0, 22)],
        ),
        (
            64,
            "during",
            [("plan", 1, 21), ("partition", 0, 0), ("join", 0, 22)],
        ),
    ];
    for (buffer, pred_text, want) in cases {
        let mut cfg = JoinConfig::with_buffer(buffer).collecting();
        cfg.predicate = pred_text.parse().unwrap();
        let report = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
        let got: Vec<(&str, u64, u64)> = report
            .phases
            .iter()
            .map(|p| (p.name, p.io.random(), p.io.sequential()))
            .collect();
        assert_eq!(got, want, "buffer {buffer}, {pred_text}");
        let oracle = predicate_join(&r, &s, &cfg.predicate).unwrap();
        assert!(report.result.unwrap().multiset_eq(&oracle));
        assert_eq!(
            report.result_tuples,
            if pred_text == "during" { 363 } else { 1128 }
        );
    }
}
