//! The temporal operator family on the one in-memory executor.
//!
//! The disk algorithms and the inner-join path of [`crate::parallel`]
//! evaluate the paper's **inner** valid-time natural join. An
//! [`ExecPlan`] whose `op` is not [`Operator::Inner`] evaluates the rest
//! of the §4.1 operator family — temporal LEFT/FULL outer join,
//! semijoin, antijoin, and temporal aggregation over the join result —
//! through the same [`crate::run`], byte-identical to the nested-loop
//! oracles of `vtjoin_core::algebra`. This module holds the family's
//! per-cell jobs and its gather:
//!
//! * tuples are encoded and scattered into the same (key-bucket ×
//!   time-range) grid cells as the inner join ([`Scattered`]), and the
//!   cells are claimed through the same work loop and shard reservations
//!   ([`deliver`]);
//! * each cell runs the dangling-fragment-tracking sweep
//!   ([`vtjoin_join::kernel::tracked`]), which emits matched pairs under
//!   the canonical-partition rule and per-tuple **unmatched fragments**
//!   clipped to the cell's window;
//! * the gather sorts pairs into `(outer, inner)` order — exactly the
//!   oracle's `r`-major, `s`-candidate order — and **stitches**
//!   fragments of one tuple that abut at partition boundaries back into
//!   maximal dangling intervals ([`vtjoin_core::Period::insert`] merges
//!   adjacency), so a tuple replicated into several partitions reports
//!   its unmatched window exactly once;
//! * materialization replays the oracle's output order per operator, so
//!   results are **byte-identical** to `outerjoin_pred`,
//!   `full_outerjoin_pred`, `semijoin_pred`, and `antijoin_pred`
//!   regardless of thread count or partition count;
//! * [`Operator::Aggregate`] pipes the matched pairs through the
//!   checkpointed [`TimelineIndex`] and returns the maximal constant
//!   segments, byte-identical to `count_over_time`/`sum_over_time`/
//!   `extremum_over_time` over the materialized inner join.
//!
//! Sequence and mixed predicate templates cannot run on an overlap sweep
//! (their matches may share no partition); they run a nested scan over
//! the same contiguous outer chunks as the inner join's merge fallback
//! ([`outer_chunks`]).

use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Instant;

use crate::parallel::{chunk_detail, deliver, outer_chunks, ExecDetail, ExecPlan, Scattered, Sink};
use vtjoin_core::algebra::{segments_to_relation, Extremum};
use vtjoin_core::{
    AggFunc, AttrType, Chronon, Interval, JoinPredicate, Operator, Period, Relation, TemporalError,
    Tuple, Value,
};
use vtjoin_join::columnar::ColumnarSide;
use vtjoin_join::{
    tracked_sweep, Fragment, JoinError, JoinSpec, OperatorLog, TimelineIndex, TrackedInput,
    TrackedScratch, TrackedStats,
};
use vtjoin_obs::{OperatorSection, WorkerSection};

/// One side's columns for the cell being swept, gathered from the
/// encoded [`ColumnarSide`] so the tracked sweep reads contiguous slices.
/// One per worker and side, reused across every cell the worker claims.
#[derive(Debug, Default)]
struct CellCols {
    ids: Vec<u32>,
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
}

impl CellCols {
    fn gather(&mut self, side: &ColumnarSide<'_>, rows: &[u32]) {
        self.ids.clear();
        self.starts.clear();
        self.ends.clear();
        self.hashes.clear();
        self.ids.extend_from_slice(rows);
        for &row in rows {
            self.starts.push(side.start(row));
            self.ends.push(side.end(row));
            self.hashes.push(side.hash(row));
        }
    }

    fn input(&self) -> TrackedInput<'_> {
        TrackedInput {
            ids: &self.ids,
            starts: &self.starts,
            ends: &self.ends,
            hashes: &self.hashes,
        }
    }
}

/// One worker's state across the cells (or chunks) it claims: the log
/// the gather reads, its counters, and the tracked sweep's reusable
/// buffers.
#[derive(Default)]
struct OpWorker {
    log: OperatorLog,
    stats: TrackedStats,
    scratch: TrackedScratch,
    rc: CellCols,
    sc: CellCols,
}

/// What the work loop hands the gather: each worker's section and state.
type Ran = Vec<(WorkerSection, OpWorker)>;

/// Merges per-cell fragments into one maximal-interval [`Period`] per
/// tuple. Cell windows are disjoint, so fragments never overlap; abutting
/// fragments (one tuple split across a partition boundary with no match
/// on either side of it) merge here — the stitch. Returns the periods
/// and the number of fragments merged away.
fn stitch(frags: &[Fragment], n: usize) -> (Vec<Period>, u64) {
    let mut periods: Vec<Period> = std::iter::repeat_with(Period::new).take(n).collect();
    for f in frags {
        periods[f.id as usize].insert(f.iv);
    }
    let finals = intervals_in(&periods);
    (periods, frags.len() as u64 - finals)
}

/// Maximal intervals across `periods`.
fn intervals_in(periods: &[Period]) -> u64 {
    periods.iter().map(|p| p.intervals().len() as u64).sum()
}

/// [`crate::run`] for a non-inner `plan.op`: the tracked sweep per grid
/// cell (or the nested scan per outer chunk for sequence/mixed
/// templates), then the gather, which delivers the whole result to
/// `sink` as one batch. The returned detail carries the operator
/// section.
pub(crate) fn run_operator(
    plan: &ExecPlan,
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    sink: &mut dyn Sink,
) -> Result<ExecDetail, JoinError> {
    assert!(
        r.len() <= u32::MAX as usize && s.len() <= u32::MAX as usize,
        "operator tuple ids are u32"
    );
    let (op, pred) = (&plan.op, &plan.predicate);
    let nested = !pred.partitioning_eligible();
    let (mut detail, ran, cells) = if nested {
        nested_scan(plan, spec, r, s, sink)?
    } else {
        tracked_cells(plan, spec, r, s, sink)?
    };

    // Gather: the workers' logs are unordered (cells are claimed
    // dynamically); the sort and the stitch below restore the oracle's
    // deterministic order independent of scheduling.
    let gather_started = Instant::now();
    let mut log = OperatorLog::default();
    let mut stats = TrackedStats::default();
    for (section, w) in ran {
        detail.workers.push(section);
        log.pairs.extend(w.log.pairs);
        log.outer_frags.extend(w.log.outer_frags);
        log.inner_frags.extend(w.log.inner_frags);
        stats.merge(&w.stats);
    }
    log.pairs.sort_unstable();
    let (outer_dangling, stitched_outer) = stitch(&log.outer_frags, r.len());
    let (inner_dangling, stitched_inner) = if nested && op.tracks_inner() {
        // The nested scan logs inner *coverage* (the inner side is shared
        // across chunks), so the dangling period is its complement.
        let (matched, _) = stitch(&log.inner_frags, s.len());
        let dangling = s
            .iter()
            .zip(&matched)
            .map(|(y, m)| Period::from_interval(y.valid()).difference(m))
            .collect();
        (dangling, 0)
    } else {
        stitch(&log.inner_frags, s.len())
    };
    let mut section = OperatorSection {
        op: op.to_string(),
        cells,
        // One worker even with no cell to run, so the count never reads 0.
        workers: detail.workers.len().max(1) as u64,
        key_buckets: detail.key_buckets,
        pairs_logged: log.pairs.len() as u64,
        outer_fragments: log.outer_frags.len() as u64,
        inner_fragments: if nested {
            intervals_in(&inner_dangling)
        } else {
            log.inner_frags.len() as u64
        },
        stitched_outer,
        stitched_inner,
        outer_dangling: intervals_in(&outer_dangling),
        inner_dangling: intervals_in(&inner_dangling),
        timeline_events: 0,
        timeline_checkpoints: 0,
        agg_segments: 0,
        fallback_nested: nested,
    };
    let rel = materialize(
        r,
        s,
        spec,
        op,
        pred,
        &log.pairs,
        &outer_dangling,
        &inner_dangling,
        &mut section,
    )?;
    detail.join_micros += gather_started.elapsed().as_micros() as u64;
    detail.tuples = rel.len() as u64;
    detail.comparisons = stats.comparisons;
    detail.predicate.filter_checks = stats.filter_checks;
    detail.predicate.filter_hits = stats.filter_hits;
    detail.operator = Some(section);
    sink.open(rel.schema());
    let tuples = rel.into_tuples();
    if !tuples.is_empty() {
        sink.push(tuples);
    }
    Ok(detail)
}

/// The partitioned path: every cell that can produce pairs or dangling
/// fragments runs the tracked sweep, heaviest first. Returns the run
/// detail, the workers, and the number of cells that ran.
fn tracked_cells(
    plan: &ExecPlan,
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    sink: &mut dyn Sink,
) -> Result<(ExecDetail, Ran, u64), JoinError> {
    let g = Scattered::new(plan, spec, r, s);
    let (op, pred, intervals) = (&plan.op, &plan.predicate, &plan.grid.intervals);
    // A cell must run when it can produce pairs (both sides present) or
    // dangling fragments for a tracked side — a tuple with no partners in
    // its cell is exactly the dangling case, so one-sided cells of a
    // tracked side cannot be skipped.
    let (track_outer, track_inner) = (op.tracks_outer(), op.tracks_inner());
    let runs = |c: &usize| {
        let (nr, ns) = (g.r_cells[*c].len(), g.s_cells[*c].len());
        (nr > 0 && (ns > 0 || track_outer)) || (ns > 0 && track_inner)
    };
    let mut cells: Vec<usize> = (0..g.est_costs.len()).filter(runs).collect();
    cells.sort_by_key(|&c| {
        let (nr, ns) = (g.r_cells[c].len() as u64, g.s_cells[c].len() as u64);
        (Reverse(nr * ns + nr + ns), c)
    });

    let (outer, inner) = (&g.enc.outer, &g.enc.inner);
    let sweep_cell = |w: &mut OpWorker, i: usize| -> Vec<Tuple> {
        let c = cells[i];
        w.rc.gather(outer, &g.r_cells[c]);
        w.sc.gather(inner, &g.s_cells[c]);
        let (rc, sc) = (&w.rc, &w.sc);
        let st = tracked_sweep(
            op,
            Some(pred),
            rc.input(),
            sc.input(),
            intervals[c / g.k],
            |xi, yi| outer.key_id(rc.ids[xi]) == inner.key_id(sc.ids[yi]),
            &mut w.scratch,
            &mut w.log,
        );
        w.stats.merge(&st);
        Vec::new()
    };
    let order: Vec<usize> = (0..cells.len()).collect();
    let join_started = Instant::now();
    let (ran, wait) = deliver(plan, &order, sink, OpWorker::default, sweep_cell)?;
    let detail = g.detail(join_started.elapsed().as_micros() as u64, wait);
    Ok((detail, ran, cells.len() as u64))
}

/// The matched window a partner grants one operand: the predicate stamp
/// clipped to the operand's own interval (always non-empty for a match).
/// Mirrors the oracle's identical helper.
fn matched_window(pred: &JoinPredicate, mine: Interval, theirs: Interval) -> Interval {
    pred.stamp(mine, theirs)
        .overlap(mine)
        .expect("a match's stamp always intersects the operand's interval")
}

/// Sequence/mixed-template path: a nested scan over `r`, one contiguous
/// chunk per work item. Each chunk owns its `r` tuples outright (matched
/// windows accumulate locally and dangling is computed whole — no
/// cross-chunk stitching); inner-side coverage windows are merged at
/// gather. Deterministic across thread counts for the same reason the
/// merge fallback is: outputs are keyed by tuple index, not by
/// scheduling.
fn nested_scan(
    plan: &ExecPlan,
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    sink: &mut dyn Sink,
) -> Result<(ExecDetail, Ran, u64), JoinError> {
    let (op, pred) = (&plan.op, &plan.predicate);
    let hash_started = Instant::now();
    let r_hashes: Vec<u64> = r.iter().map(|t| spec.outer_key_hash(t)).collect();
    let s_hashes: Vec<u64> = s.iter().map(|t| spec.inner_key_hash(t)).collect();
    let replicate_micros = hash_started.elapsed().as_micros() as u64;
    let (need_pairs, track_outer, track_inner) =
        (op.needs_pairs(), op.tracks_outer(), op.tracks_inner());

    let chunks = outer_chunks(plan.threads, r.len());
    let scan_chunk = |w: &mut OpWorker, c: usize| -> Vec<Tuple> {
        for xi in chunks[c].clone() {
            let x = &r.tuples()[xi];
            let mut matched = Period::new();
            for (yi, y) in s.iter().enumerate() {
                if r_hashes[xi] != s_hashes[yi] || !spec.keys_equal(x, y) {
                    continue;
                }
                w.stats.comparisons += 1;
                w.stats.filter_checks += 1;
                if !pred.matches(x.valid(), y.valid()) {
                    continue;
                }
                w.stats.filter_hits += 1;
                if need_pairs {
                    w.log.pairs.push((xi as u32, yi as u32));
                }
                if track_outer {
                    matched.insert(matched_window(pred, x.valid(), y.valid()));
                }
                if track_inner {
                    // Coverage, not dangling: the inner side is shared
                    // across chunks, so its dangling is computed at
                    // gather from merged coverage.
                    w.log.inner_frags.push(Fragment {
                        id: yi as u32,
                        iv: matched_window(pred, y.valid(), x.valid()),
                    });
                }
            }
            if track_outer {
                for iv in Period::from_interval(x.valid())
                    .difference(&matched)
                    .intervals()
                {
                    w.log.outer_frags.push(Fragment {
                        id: xi as u32,
                        iv: *iv,
                    });
                }
            }
        }
        Vec::new()
    };
    let order: Vec<usize> = (0..chunks.len()).collect();
    let join_started = Instant::now();
    let (ran, _) = deliver(plan, &order, sink, OpWorker::default, scan_chunk)?;
    let join_micros = join_started.elapsed().as_micros() as u64;
    let detail = chunk_detail(r, s, &chunks, replicate_micros, join_micros);
    Ok((detail, ran, 0))
}

/// Replays the oracle's output order from the gathered pairs and stitched
/// dangling periods:
///
/// * pairs are `(outer, inner)`-sorted, which is exactly the oracle's
///   `r`-major, `s`-candidate order (candidate lists hold `s` indices
///   ascending);
/// * each `r` tuple's dangling fragments follow its pairs, ascending,
///   `Null`-padded on `s`'s non-shared attributes (LEFT/FULL);
/// * FULL appends each `s` tuple's dangling fragments in `s` order,
///   permuted into `r`-major attribute positions;
/// * SEMI/ANTI emit `r` tuples clipped to the complement/the dangling
///   period itself, under `r`'s own schema;
/// * AGGREGATE feeds the pairs' stamped windows through the
///   [`TimelineIndex`] and materializes the maximal constant segments.
#[allow(clippy::too_many_arguments)]
fn materialize(
    r: &Relation,
    s: &Relation,
    spec: &JoinSpec,
    op: &Operator,
    pred: &JoinPredicate,
    pairs: &[(u32, u32)],
    outer_dangling: &[Period],
    inner_dangling: &[Period],
    section: &mut OperatorSection,
) -> Result<Relation, JoinError> {
    match op {
        Operator::Inner | Operator::Left | Operator::Full => {
            let arity = spec.out_schema().arity();
            let mut out: Vec<Tuple> = Vec::new();
            let mut pi = 0usize;
            for (xid, x) in r.iter().enumerate() {
                while pi < pairs.len() && pairs[pi].0 == xid as u32 {
                    let y = &s.tuples()[pairs[pi].1 as usize];
                    out.push(spec.splice(x, y, pred.stamp(x.valid(), y.valid())));
                    pi += 1;
                }
                // Empty unless the operator tracks the outer side.
                if let Some((last, rest)) = outer_dangling[xid].intervals().split_last() {
                    let mut vals = Vec::with_capacity(arity);
                    vals.extend_from_slice(x.values());
                    vals.resize(arity, Value::Null);
                    let padded = Tuple::new(vals, *last);
                    for iv in rest {
                        out.push(padded.with_valid(*iv));
                    }
                    out.push(padded.into_with_valid(*last));
                }
            }
            if matches!(op, Operator::Full) {
                let (shared_r, shared_s) = r.schema().join_attributes(s.schema())?;
                for (yid, y) in s.iter().enumerate() {
                    if let Some((last, rest)) = inner_dangling[yid].intervals().split_last() {
                        let mut vals = vec![Value::Null; arity];
                        // Shared attributes take s's values (they sit at
                        // r's positions in the output schema); non-shared
                        // s attributes follow r's block.
                        for (&j, &i) in shared_s.iter().zip(&shared_r) {
                            vals[i] = y.value(j).clone();
                        }
                        let mut out_pos = r.schema().arity();
                        for (j, v) in y.values().iter().enumerate() {
                            if !shared_s.contains(&j) {
                                vals[out_pos] = v.clone();
                                out_pos += 1;
                            }
                        }
                        let padded = Tuple::new(vals, *last);
                        for iv in rest {
                            out.push(padded.with_valid(*iv));
                        }
                        out.push(padded.into_with_valid(*last));
                    }
                }
            }
            Ok(Relation::from_parts_unchecked(
                Arc::clone(spec.out_schema()),
                out,
            ))
        }
        Operator::Semi | Operator::Anti => {
            let mut out: Vec<Tuple> = Vec::new();
            for (xid, x) in r.iter().enumerate() {
                if matches!(op, Operator::Semi) {
                    // Coverage never leaves the tuple's own interval, so
                    // the complement of the dangling period within it is
                    // exactly the oracle's matched period.
                    let keep = Period::from_interval(x.valid()).difference(&outer_dangling[xid]);
                    for iv in keep.intervals() {
                        out.push(x.with_valid(*iv));
                    }
                } else {
                    for iv in outer_dangling[xid].intervals() {
                        out.push(x.with_valid(*iv));
                    }
                }
            }
            Ok(Relation::from_parts_unchecked(Arc::clone(r.schema()), out))
        }
        Operator::Aggregate(f) => {
            let out_schema = spec.out_schema();
            let r_arity = r.schema().arity();
            // Resolve the aggregated attribute against the join output
            // schema with the oracle's exact errors; map its position
            // back to the source tuple so no pair is ever spliced.
            let source = match f {
                AggFunc::Count => None,
                AggFunc::Sum(a) | AggFunc::Min(a) | AggFunc::Max(a) => {
                    let idx = out_schema
                        .index_of(a)
                        .ok_or_else(|| TemporalError::UnknownAttribute(a.clone()))?;
                    if out_schema.attr(idx).ty != AttrType::Int {
                        return Err(TemporalError::TypeMismatch {
                            attr: a.clone(),
                            expected: "int",
                            actual: out_schema.attr(idx).ty.name(),
                        }
                        .into());
                    }
                    if idx < r_arity {
                        Some((true, idx))
                    } else {
                        let (_, shared_s) = r.schema().join_attributes(s.schema())?;
                        let s_extra: Vec<usize> = (0..s.schema().arity())
                            .filter(|j| !shared_s.contains(j))
                            .collect();
                        Some((false, s_extra[idx - r_arity]))
                    }
                }
            };
            let rows: Vec<(Interval, i64)> = pairs
                .iter()
                .map(|&(xid, yid)| {
                    let x = &r.tuples()[xid as usize];
                    let y = &s.tuples()[yid as usize];
                    let stamp = pred.stamp(x.valid(), y.valid());
                    let w = match source {
                        None => 1,
                        Some((true, i)) => x.value(i).as_int().unwrap_or(0),
                        Some((false, j)) => y.value(j).as_int().unwrap_or(0),
                    };
                    (stamp, w)
                })
                .collect();
            let ti = TimelineIndex::build(rows);
            section.timeline_events = ti.events() as u64;
            section.timeline_checkpoints = ti.checkpoints() as u64;
            let segs = match f {
                AggFunc::Count | AggFunc::Sum(_) => ti.segments_sum(),
                AggFunc::Min(_) => ti.segments_extremum(Extremum::Min),
                AggFunc::Max(_) => ti.segments_extremum(Extremum::Max),
            };
            section.agg_segments = segs.len() as u64;
            Ok(segments_to_relation(&segs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{run, MaterializeSink, StreamSink};
    use vtjoin_core::algebra::{
        antijoin_pred, count_over_time, extremum_over_time, full_outerjoin_pred, outerjoin_pred,
        predicate_join, semijoin_pred, sum_over_time, JoinSide,
    };
    use vtjoin_core::{AttrDef, Schema};
    use vtjoin_join::partition::intervals::equal_width;
    use vtjoin_join::partition::GridPlan;
    use vtjoin_obs::ExecutionReport;
    use vtjoin_storage::PagePool;

    /// [`run`] with `op` over a `key_buckets` × `intervals` grid: the
    /// result and, for a non-inner operator, its operator section.
    fn op_run(
        r: &Relation,
        s: &Relation,
        op: &Operator,
        pred: &JoinPredicate,
        intervals: &[Interval],
        key_buckets: u64,
        threads: usize,
    ) -> Result<(Relation, Option<OperatorSection>), JoinError> {
        let grid = GridPlan {
            key_buckets,
            intervals: intervals.to_vec(),
        };
        let plan = ExecPlan {
            predicate: *pred,
            op: op.clone(),
            ..ExecPlan::new(grid, threads)
        };
        let mut out = MaterializeSink::default();
        let report = run(&plan, r, s, &mut out)?;
        Ok((out.into_relation(), report.operator))
    }

    /// As [`op_run`] for a non-inner operator, unwrapping both.
    fn op_join(
        r: &Relation,
        s: &Relation,
        op: &Operator,
        pred: &JoinPredicate,
        intervals: &[Interval],
        key_buckets: u64,
        threads: usize,
    ) -> (Relation, OperatorSection) {
        let (got, section) = op_run(r, s, op, pred, intervals, key_buckets, threads).unwrap();
        (
            got,
            section.expect("non-inner runs carry an operator section"),
        )
    }

    fn emp() -> Arc<Schema> {
        Schema::new(vec![
            AttrDef::new("name", AttrType::Int),
            AttrDef::new("dept", AttrType::Int),
        ])
        .unwrap()
        .into_shared()
    }

    fn mgr() -> Arc<Schema> {
        Schema::new(vec![
            AttrDef::new("dept", AttrType::Int),
            AttrDef::new("pay", AttrType::Int),
        ])
        .unwrap()
        .into_shared()
    }

    /// A deterministic duplicate-heavy workload with long-lived tuples,
    /// boundary-abutting intervals, and key-dangling tuples on both
    /// sides.
    fn workload() -> (Relation, Relation) {
        let mut rt = Vec::new();
        let mut st = Vec::new();
        for i in 0..60i64 {
            let dept = i % 7;
            let start = (i * 13) % 97;
            let end = start + 1 + (i * i) % 40;
            rt.push(Tuple::new(
                vec![Value::Int(i), Value::Int(dept)],
                Interval::from_raw(start, end).unwrap(),
            ));
        }
        for i in 0..50i64 {
            let dept = i % 9; // depts 7,8 dangle on s's side
            let start = (i * 17) % 89;
            let end = start + 1 + (i * 3) % 55;
            st.push(Tuple::new(
                vec![Value::Int(dept), Value::Int(100 + i)],
                Interval::from_raw(start, end).unwrap(),
            ));
        }
        (
            Relation::new(emp(), rt).unwrap(),
            Relation::new(mgr(), st).unwrap(),
        )
    }

    fn assert_identical(got: &Relation, want: &Relation, ctx: &str) {
        assert_eq!(got.schema().attrs(), want.schema().attrs(), "{ctx}: schema");
        assert_eq!(got.tuples(), want.tuples(), "{ctx}: tuples");
    }

    #[test]
    fn operators_match_oracles_across_partitions_and_threads() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let lifespan = Interval::from_raw(0, 140).unwrap();
        for parts in [1u64, 4] {
            let intervals = equal_width(lifespan, parts);
            for threads in [1usize, 3] {
                let ctx = |name: &str| format!("{name} parts={parts} threads={threads}");
                let cases: Vec<(Operator, Relation)> = vec![
                    (
                        Operator::Left,
                        outerjoin_pred(&r, &s, JoinSide::Left, &pred).unwrap(),
                    ),
                    (Operator::Full, full_outerjoin_pred(&r, &s, &pred).unwrap()),
                    (Operator::Semi, semijoin_pred(&r, &s, &pred).unwrap()),
                    (Operator::Anti, antijoin_pred(&r, &s, &pred).unwrap()),
                ];
                for (op, want) in cases {
                    let (got, section) = op_join(&r, &s, &op, &pred, &intervals, 4, threads);
                    assert_identical(&got, &want, &ctx(&op.to_string()));
                    assert!(!section.fallback_nested);
                }
            }
            // The inner join runs the columnar kernels: the oracle
            // multiset, byte-identical at every thread count, with no
            // operator section.
            let want = predicate_join(&r, &s, &pred).unwrap();
            let inner = |threads| op_run(&r, &s, &Operator::Inner, &pred, &intervals, 4, threads);
            let (serial, section) = inner(1).unwrap();
            assert!(serial.multiset_eq(&want), "inner parts={parts}");
            assert!(section.is_none());
            for threads in [2usize, 4] {
                let (got, _) = inner(threads).unwrap();
                assert_eq!(got.tuples(), serial.tuples(), "inner threads={threads}");
            }
        }
    }

    #[test]
    fn aggregate_matches_oracle_over_materialized_join() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let joined = predicate_join(&r, &s, &pred).unwrap();
        let intervals = equal_width(Interval::from_raw(0, 140).unwrap(), 4);
        let cases: Vec<(AggFunc, Vec<vtjoin_core::algebra::AggSegment>)> = vec![
            (AggFunc::Count, count_over_time(&joined)),
            (
                AggFunc::Sum("pay".into()),
                sum_over_time(&joined, "pay").unwrap(),
            ),
            (
                AggFunc::Min("pay".into()),
                extremum_over_time(&joined, "pay", Extremum::Min).unwrap(),
            ),
            (
                AggFunc::Max("pay".into()),
                extremum_over_time(&joined, "pay", Extremum::Max).unwrap(),
            ),
        ];
        for (f, want_segs) in cases {
            let op = Operator::Aggregate(f.clone());
            let (got, section) = op_join(&r, &s, &op, &pred, &intervals, 4, 2);
            let want = segments_to_relation(&want_segs);
            assert_identical(&got, &want, &format!("aggregate:{f}"));
            assert_eq!(section.timeline_events as usize, {
                let open_tails = joined
                    .iter()
                    .filter(|t| t.valid().end() == Chronon::MAX)
                    .count();
                joined.len() * 2 - open_tails
            });
        }
    }

    #[test]
    fn aggregate_rejects_unknown_and_mistyped_attributes() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let intervals = [Interval::ALL];
        let unknown = Operator::Aggregate(AggFunc::Sum("nope".into()));
        assert!(matches!(
            op_run(&r, &s, &unknown, &pred, &intervals, 1, 1),
            Err(JoinError::Core(TemporalError::UnknownAttribute(_)))
        ));
    }

    #[test]
    fn semi_and_anti_partition_every_input_interval() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let intervals = equal_width(Interval::from_raw(0, 140).unwrap(), 3);
        let (semi, _) = op_join(&r, &s, &Operator::Semi, &pred, &intervals, 4, 2);
        let (anti, _) = op_join(&r, &s, &Operator::Anti, &pred, &intervals, 4, 2);
        // Per r tuple: the union of its semi and anti windows is exactly
        // its own interval.
        for (xid, x) in r.iter().enumerate() {
            let mut period = Period::new();
            for t in semi.iter().chain(anti.iter()) {
                if t.values() == x.values() {
                    // Same key+name tuple: windows never overlap between
                    // semi and anti, so blind insertion is safe.
                    period.insert(t.valid());
                }
            }
            assert_eq!(period.intervals(), &[x.valid()], "tuple {xid}");
        }
    }

    #[test]
    fn sequence_predicates_take_the_nested_fallback() {
        let (r, s) = workload();
        let pred: JoinPredicate = "before".parse().unwrap();
        assert!(!pred.partitioning_eligible());
        let intervals = equal_width(Interval::from_raw(0, 140).unwrap(), 4);
        for (op, want) in [
            (
                Operator::Left,
                outerjoin_pred(&r, &s, JoinSide::Left, &pred).unwrap(),
            ),
            (Operator::Full, full_outerjoin_pred(&r, &s, &pred).unwrap()),
            (Operator::Semi, semijoin_pred(&r, &s, &pred).unwrap()),
            (Operator::Anti, antijoin_pred(&r, &s, &pred).unwrap()),
        ] {
            for threads in [1usize, 4] {
                let (got, section) = op_join(&r, &s, &op, &pred, &intervals, 4, threads);
                assert!(section.fallback_nested);
                assert_identical(&got, &want, &format!("{op} fallback threads={threads}"));
            }
        }
    }

    #[test]
    fn stitching_counts_cross_boundary_merges() {
        // One never-matching long tuple split across 4 partitions leaves
        // 4 fragments that stitch back into 1 interval (3 merges).
        let r = Relation::new(
            emp(),
            vec![Tuple::new(
                vec![Value::Int(1), Value::Int(99)],
                Interval::from_raw(0, 99).unwrap(),
            )],
        )
        .unwrap();
        let s = Relation::new(mgr(), Vec::new()).unwrap();
        let intervals = equal_width(Interval::from_raw(0, 99).unwrap(), 4);
        let (got, section) = op_join(
            &r,
            &s,
            &Operator::Anti,
            &JoinPredicate::intersects(),
            &intervals,
            1,
            2,
        );
        assert_eq!(section.outer_fragments, 4);
        assert_eq!(section.stitched_outer, 3);
        assert_eq!(section.outer_dangling, 1);
        assert_eq!(got.tuples().len(), 1);
        assert_eq!(got.tuples()[0].valid(), Interval::from_raw(0, 99).unwrap());
    }

    #[test]
    fn rejects_non_partitioning_intervals() {
        let (r, s) = workload();
        let bad = [Interval::from_raw(0, 10).unwrap()];
        assert!(matches!(
            op_run(
                &r,
                &s,
                &Operator::Left,
                &JoinPredicate::intersects(),
                &bad,
                1,
                1
            ),
            Err(JoinError::Precondition(_))
        ));
    }

    #[test]
    fn operator_reports_carry_the_run_sections_and_round_trip() {
        let (r, s) = workload();
        let grid = GridPlan::with_buckets(2, equal_width(Interval::from_raw(0, 140).unwrap(), 4));
        let plan = ExecPlan {
            op: Operator::Full,
            ..ExecPlan::new(grid, 2)
        };
        let mut out = MaterializeSink::default();
        let report = run(&plan, &r, &s, &mut out).unwrap();
        let got = out.into_relation();
        assert_eq!(report.result.tuples, got.len() as u64);
        let o = report.operator.as_ref().expect("operator section");
        assert_eq!(o.workers, report.workers.len() as u64);
        // Every claimed item is a cell that ran a tracked sweep.
        assert_eq!(
            report.workers.iter().map(|w| w.partitions).sum::<u64>(),
            o.cells
        );
        let g = report.grid.as_ref().expect("grid section");
        assert_eq!((g.key_buckets, g.cells), (2, 8));
        assert!(o.cells <= g.cells);
        assert_eq!(report.skew.as_ref().map(|sk| sk.partitions), Some(8));
        assert!(report.counter("cpu_comparisons").unwrap() > 0);
        assert!(report.kernel.is_none() && report.columnar.is_none());
        let back = ExecutionReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn operator_results_reach_either_sink_as_one_batch_and_release_shards() {
        let (r, s) = workload();
        let intervals = equal_width(Interval::from_raw(0, 140).unwrap(), 4);
        for pred in ["intersects", "before"] {
            for op in [
                Operator::Left,
                Operator::Anti,
                Operator::Aggregate(AggFunc::Count),
            ] {
                let pool = PagePool::new(64);
                let plan = ExecPlan {
                    predicate: pred.parse().unwrap(),
                    op: op.clone(),
                    shard_pool: Some((pool.clone(), 4)),
                    ..ExecPlan::new(GridPlan::with_buckets(2, intervals.clone()), 3)
                };
                let mut out = MaterializeSink::default();
                run(&plan, &r, &s, &mut out).unwrap();
                let want = out.into_relation();
                assert!(!want.is_empty(), "{op} {pred}");
                let mut batches: Vec<Vec<Tuple>> = Vec::new();
                let mut push = |b: Vec<Tuple>| batches.push(b);
                run(&plan, &r, &s, &mut StreamSink::new(&mut push)).unwrap();
                assert_eq!(batches, vec![want.tuples().to_vec()], "{op} {pred}");
                let st = pool.stats();
                assert!(st.granted > 0, "{op} {pred}");
                assert_eq!(st.granted, st.released, "{op} {pred}");
                assert_eq!(pool.in_flight(), 0, "{op} {pred}");
            }
        }
    }
}
