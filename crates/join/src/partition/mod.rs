//! The valid-time partition join (paper §3) and its ablation variant.
//!
//! Evaluation has three phases, mirroring `partitionJoin` in Figure 2:
//!
//! 1. [`planner::determine_part_intervals`] — chooses the partitioning
//!    intervals by sampling the outer relation and minimizing
//!    `C_sample + C_join` over candidate partition sizes (Figure 10).
//! 2. [`grace::do_partitioning`] — Grace-partitions both relations over
//!    those intervals, storing each tuple in its **last** overlapping
//!    partition (§3.3).
//! 3. [`exec::join_partitions`] — joins corresponding partitions from the
//!    last to the first, retaining long-lived outer tuples in memory and
//!    migrating long-lived inner tuples through the paged tuple cache
//!    (Figure 9).
//!
//! [`ReplicatedPartitionJoin`] implements the Leung–Muntz alternative the
//! paper rejects — tuples physically copied into every overlapping
//! partition — so the two strategies can be compared directly.

pub mod cache_est;
pub mod exec;
pub mod grace;
pub mod grid;
pub mod intervals;
pub mod planner;
pub mod replicated;
pub mod sampling;

pub use grid::{plan_grid, GridCandidate, GridChoice, GridPlan, GridPlanOutput};
pub use planner::{plan_error_size, CandidateCost, PartitionPlan, PlannerOutput};
pub use replicated::ReplicatedPartitionJoin;

pub(crate) use exec::chunk_by_pages as exec_chunks;

use crate::columnar::{encode_pair, ColumnarCounters, IdBatch};
use crate::common::{
    JoinAlgorithm, JoinConfig, JoinError, JoinReport, JoinSpec, PhaseTracker, Result, ResultSink,
};
use crate::kernel::{columnar_hash_join, ColumnarScratch};
use std::sync::Arc;
use vtjoin_core::{Interval, Tuple};
use vtjoin_storage::HeapFile;

/// The paper's partition-based valid-time natural join.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionJoin {
    /// §5 future-work extension: when set, the tuple-cache sizes are
    /// estimated from a sample of the *inner* relation instead of reusing
    /// the outer sample (the paper assumes similar distributions; this
    /// flag removes that assumption at the cost of a second sampling pass).
    pub sample_inner_for_cache: bool,
    /// §5 future-work extension: reserve this many buffer pages to hold the
    /// head of the tuple cache in memory, trading outer-partition space for
    /// reduced cache paging.
    pub reserved_cache_pages: u64,
}

impl PartitionJoin {
    /// Minimum buffer: outer area ≥ 1, inner page, cache page, result page
    /// (Figure 3).
    pub const MIN_BUFFER_PAGES: u64 = 4;

    /// Plans, partitions, and joins, returning both the report and the full
    /// planner output (used by the Figure 4 harness).
    pub fn execute_with_plan(
        &self,
        outer: &HeapFile,
        inner: &HeapFile,
        cfg: &JoinConfig,
    ) -> Result<(JoinReport, PlannerOutput)> {
        if cfg.buffer_pages < Self::MIN_BUFFER_PAGES {
            return Err(JoinError::InsufficientMemory {
                algorithm: "partition",
                needed: Self::MIN_BUFFER_PAGES,
                available: cfg.buffer_pages,
            });
        }
        if !cfg.predicate.partitioning_eligible() {
            return Err(JoinError::Precondition(
                "partition join serves only intersection-template predicates (every match \
                 must intersect in time); evaluate sequence/mixed predicates with \
                 nested-loop or the parallel executor's merge fallback",
            ));
        }
        cfg.require_inner()?;
        let spec = JoinSpec::natural(outer.schema(), inner.schema())?;
        let disk = outer.disk().clone();
        let mut tracker = PhaseTracker::start(&disk);
        let mut sink = ResultSink::new(
            Arc::clone(spec.out_schema()),
            disk.page_size(),
            cfg.collect_result,
        );

        // Degenerate case: the outer relation fits in the outer buffer area
        // outright — one partition covering all of time, no sampling and no
        // physical partitioning (§3.1's ideal case).
        let outer_area = cfg.buffer_pages - 3;
        if outer.pages() <= outer_area {
            let block = read_whole(outer)?;
            tracker.phase("plan");
            tracker.phase("partition");
            // Buffer the inner pages (charged reads), encode both sides
            // once, join over the id columns, and late-materialize straight
            // into the sink. `Interval::ALL` as the emit window: with one
            // partition every match is canonical.
            let mut inner_buf: Vec<Tuple> = Vec::new();
            for p in 0..inner.pages() {
                inner_buf.extend(inner.read_page(p)?);
            }
            let enc = encode_pair(&spec, block.iter(), inner_buf.iter());
            let r_rows: Vec<u32> = (0..enc.outer.len() as u32).collect();
            let s_rows: Vec<u32> = (0..enc.inner.len() as u32).collect();
            let mut scratch = ColumnarScratch::default();
            let mut id_batch = IdBatch::new();
            id_batch.begin(r_rows.len().max(16));
            let hs = columnar_hash_join(
                &cfg.predicate,
                &enc.outer,
                &r_rows,
                &enc.inner,
                &s_rows,
                Interval::ALL,
                &mut scratch,
                &mut id_batch,
            );
            let cpu = crate::common::CpuCounters {
                probes: hs.probes,
                match_tests: hs.match_tests,
            };
            let materialized =
                id_batch.materialize_each(&spec, &enc.outer, &enc.inner, |z| sink.push(z));
            let columnar = ColumnarCounters {
                encode_micros: enc.encode_micros,
                radix_passes: 0,
                dict_size: enc.dict_size,
                materialized_rows: materialized,
            };
            tracker.phase("join");
            let faults = tracker.fault_summary(0);
            let (io, phases) = tracker.finish();
            let (result_tuples, result_pages, result) = sink.finish();
            let planner_out = PlannerOutput::degenerate(outer.pages());
            let report = JoinReport {
                algorithm: "partition",
                result_tuples,
                result_pages,
                io,
                phases,
                result,
                notes: {
                    let mut notes = vec![
                        ("num_partitions".to_string(), 1),
                        ("samples_drawn".to_string(), 0),
                        ("cache_pages_written".to_string(), 0),
                        ("overflow_chunks".to_string(), 0),
                    ];
                    notes.extend(cpu.notes());
                    if !cfg.predicate.is_natural() {
                        notes.push(("filter_checks".to_string(), hs.filter_checks as i64));
                        notes.push(("filter_hits".to_string(), hs.filter_hits as i64));
                    }
                    notes.extend(columnar_notes(&columnar));
                    notes
                },
                faults,
            };
            return Ok((report, planner_out));
        }

        let inner_sample = if self.sample_inner_for_cache {
            Some(inner)
        } else {
            None
        };
        let planner_out = planner::determine_part_intervals(outer, inner, inner_sample, cfg)?;
        tracker.phase("plan");

        let plan = &planner_out.plan;
        let r_parts = grace::do_partitioning(outer, &plan.intervals, cfg.buffer_pages)?;
        let s_parts = grace::do_partitioning(inner, &plan.intervals, cfg.buffer_pages)?;
        tracker.phase("partition");

        let exec_notes = exec::join_partitions(
            &r_parts,
            &s_parts,
            &plan.intervals,
            cfg.buffer_pages,
            self.reserved_cache_pages,
            &spec,
            &cfg.predicate,
            &mut sink,
        )?;
        tracker.phase("join");

        let degraded = i64::from(planner_out.degraded);
        let faults = tracker.fault_summary(degraded);
        let (io, phases) = tracker.finish();
        let (result_tuples, result_pages, result) = sink.finish();
        let mut report = JoinReport {
            algorithm: "partition",
            result_tuples,
            result_pages,
            io,
            phases,
            result,
            notes: vec![
                ("num_partitions".into(), plan.intervals.len() as i64),
                ("part_size".into(), plan.part_size as i64),
                ("samples_drawn".into(), plan.samples_drawn as i64),
                ("cache_pages_written".into(), exec_notes.cache_pages_written),
                ("cache_page_reads".into(), exec_notes.cache_page_reads),
                ("overflow_chunks".into(), exec_notes.overflow_chunks),
                (
                    "retained_outer_tuples".into(),
                    exec_notes.retained_outer_tuples,
                ),
                ("planner_degraded".into(), degraded),
                ("cpu_probes".into(), exec_notes.cpu.probes as i64),
                ("cpu_match_tests".into(), exec_notes.cpu.match_tests as i64),
                // Lifted into the schema-v4 `kernel` section by
                // `execution_report`; the serial executor always joins with
                // the hash kernel (its inner side streams page-at-a-time).
                ("kernel_hash_partitions".into(), exec_notes.hash_tables),
                ("kernel_batches_flushed".into(), exec_notes.batches_flushed),
            ],
            faults,
        };
        if !cfg.predicate.is_natural() {
            report
                .notes
                .push(("filter_checks".into(), exec_notes.filter_checks));
            report
                .notes
                .push(("filter_hits".into(), exec_notes.filter_hits));
        }
        report.notes.extend(columnar_notes(&exec_notes.columnar));
        Ok((report, planner_out))
    }
}

/// Renders the columnar pass's accounting as report notes; lifted into
/// the schema-v9 `columnar` section by `execution_report` (keyed on the
/// `columnar_dict_size` note).
fn columnar_notes(c: &ColumnarCounters) -> Vec<(String, i64)> {
    vec![
        ("columnar_encode_micros".into(), c.encode_micros as i64),
        ("columnar_radix_passes".into(), c.radix_passes as i64),
        ("columnar_dict_size".into(), c.dict_size as i64),
        (
            "columnar_materialized_rows".into(),
            c.materialized_rows as i64,
        ),
    ]
}

fn read_whole(heap: &HeapFile) -> Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(heap.tuples() as usize);
    for p in 0..heap.pages() {
        out.extend(heap.read_page(p)?);
    }
    Ok(out)
}

impl JoinAlgorithm for PartitionJoin {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn execute(&self, outer: &HeapFile, inner: &HeapFile, cfg: &JoinConfig) -> Result<JoinReport> {
        self.execute_with_plan(outer, inner, cfg).map(|(r, _)| r)
    }
}
