//! Lifting a [`JoinReport`] into the unified [`ExecutionReport`].
//!
//! The join algorithms measure raw facts — I/O deltas, wall-clock per
//! phase, diagnostic notes. This module converts those facts into the
//! `vtjoin-obs` report schema and, for the partition join, attaches what
//! the planner *predicted* so the report can carry a predicted-vs-actual
//! deviation section (the check behind the paper's Figure 7/8 accuracy
//! claims). Field semantics are documented in `docs/OBSERVABILITY.md`.

use crate::common::{FaultSummary, JoinConfig, JoinReport};
use crate::partition::exec::buffer_layout;
use crate::partition::sampling::sample_cost;
use crate::partition::PlannerOutput;
use vtjoin_obs::{
    CandidateRow, ColumnarSection, ConfigSection, Counter, DeviationSection, ExecutionReport,
    FaultsSection, IoSection, KernelSection, PhaseSection, PlanSection, PredicateSection,
    PredictedCost, ResultSection,
};

/// Converts the join layer's fault accounting into the obs schema section.
fn faults_section(f: &FaultSummary) -> FaultsSection {
    FaultsSection {
        injected_read_faults: f.stats.injected_read_faults,
        injected_write_faults: f.stats.injected_write_faults,
        torn_writes: f.stats.torn_writes,
        checksum_failures: f.stats.checksum_failures,
        retries: f.stats.retries,
        recovered: f.stats.recovered,
        exhausted: f.stats.exhausted,
        backoff_steps: f.stats.backoff_steps,
        degraded: f.degraded,
    }
}

/// Lifts the `kernel_*` diagnostic notes an executor recorded into the
/// schema-v4 `kernel` section. Returns `None` (and leaves the notes for
/// the counter list) when the run recorded no kernel accounting, so
/// pre-kernel reports keep their exact shape.
fn kernel_section(report: &JoinReport) -> Option<KernelSection> {
    let get = |name: &str| report.note(name).map(|v| v as u64);
    let hash_partitions = get("kernel_hash_partitions");
    let sweep_partitions = get("kernel_sweep_partitions");
    if hash_partitions.is_none() && sweep_partitions.is_none() {
        return None;
    }
    Some(KernelSection {
        hash_partitions: hash_partitions.unwrap_or(0),
        sweep_partitions: sweep_partitions.unwrap_or(0),
        sweep_comparisons: get("kernel_sweep_comparisons").unwrap_or(0),
        batches_flushed: get("kernel_batches_flushed").unwrap_or(0),
    })
}

/// Lifts the predicate-filter diagnostic notes into the schema-v6
/// `predicate` section. Natural-join runs carry no section, so every
/// pre-predicate report keeps its exact shape.
fn predicate_section(report: &JoinReport, cfg: &JoinConfig) -> Option<PredicateSection> {
    if cfg.predicate.is_natural() {
        return None;
    }
    let get = |name: &str| report.note(name).map(|v| v as u64).unwrap_or(0);
    Some(PredicateSection {
        predicate: cfg.predicate.to_string(),
        template: cfg.predicate.template().as_str().to_owned(),
        filter_checks: get("filter_checks"),
        filter_hits: get("filter_hits"),
        merge_pairs_scanned: get("merge_pairs_scanned"),
        merge_pairs_emitted: get("merge_pairs_emitted"),
    })
}

/// Lifts the `columnar_*` diagnostic notes into the schema-v9 `columnar`
/// section. Algorithms without a columnar pass (every disk algorithm but
/// the partition join) record none of them and carry no section. Presence
/// is keyed on the
/// deterministic counters (`dict_size`/`materialized_rows`), not the
/// wall-clock one.
fn columnar_section(report: &JoinReport) -> Option<ColumnarSection> {
    let get = |name: &str| report.note(name).map(|v| v as u64);
    get("columnar_dict_size")?;
    Some(ColumnarSection {
        encode_micros: get("columnar_encode_micros").unwrap_or(0),
        radix_passes: get("columnar_radix_passes").unwrap_or(0),
        dict_size: get("columnar_dict_size").unwrap_or(0),
        materialized_rows: get("columnar_materialized_rows").unwrap_or(0),
    })
}

/// Converts a finished [`JoinReport`] into an [`ExecutionReport`] with no
/// planner sections — the form every algorithm can produce. Phases carry
/// their measured I/O (priced at `cfg.ratio`) and wall-clock; notes become
/// named counters (`kernel_*` notes are additionally lifted into the
/// schema-v4 `kernel` section, predicate-filter notes into the schema-v6
/// `predicate` section).
pub fn execution_report(report: &JoinReport, cfg: &JoinConfig) -> ExecutionReport {
    ExecutionReport {
        algorithm: report.algorithm.to_owned(),
        config: ConfigSection {
            buffer_pages: cfg.buffer_pages,
            random_cost: cfg.ratio.random,
            seed: cfg.seed,
        },
        result: ResultSection {
            tuples: report.result_tuples,
            pages: report.result_pages,
        },
        io: IoSection::from_stats(report.io, cfg.ratio),
        phases: report
            .phases
            .iter()
            .map(|p| PhaseSection {
                name: p.name.to_owned(),
                wall_micros: p.wall_micros,
                io: IoSection::from_stats(p.io, cfg.ratio),
                predicted_cost: None,
            })
            .collect(),
        counters: report
            .notes
            .iter()
            .map(|(name, value)| Counter {
                name: name.clone(),
                value: *value,
            })
            .collect(),
        buffer_pool: None,
        plan: None,
        deviation: None,
        workers: Vec::new(),
        skew: None,
        kernel: kernel_section(report),
        faults: report.faults.as_ref().map(faults_section),
        service: None,
        predicate: predicate_section(report, cfg),
        grid: None,
        columnar: columnar_section(report),
        operator: None,
    }
}

/// Converts a partition-join run, attaching the planner's decisions and
/// predictions and the computed deviation section.
///
/// The deviation compares the cost model against the phases it actually
/// models (§3.4): sampling (the "plan" phase) and partition joining (the
/// "join" phase). Grace partitioning is excluded — its base cost does not
/// depend on the chosen partition size. Two subtleties:
///
/// * the *planning objective* prices sampling uncapped (`m × IO_ran`,
///   Figure 10), but *physical* sampling applies the §4.2 sequential-scan
///   cap, so the predicted side here uses the capped
///   [`sample_cost`] of the samples actually drawn;
/// * the tolerance is the model's own slack: each of the `n` partitions
///   may overshoot its `partSize` target by up to `errorSize` pages (the
///   Kolmogorov guarantee), each overrun page costing at most one cache
///   write plus one re-read at random price — `n × errorSize × 2 × IO_ran`.
///
/// For degenerate plans (outer fits in memory; the planner never ran its
/// cost loop) no plan or deviation section is attached.
pub fn partition_execution_report(
    report: &JoinReport,
    cfg: &JoinConfig,
    planner: &PlannerOutput,
    outer_pages: u64,
) -> ExecutionReport {
    let mut er = execution_report(report, cfg);
    if planner.candidates.is_empty() {
        return er;
    }

    let plan = &planner.plan;
    // The executor's buffer layout: inner page + cache page + result page +
    // the cache write-combining buffer, shared with planner.rs and exec.rs.
    let buff_size = buffer_layout(cfg.buffer_pages, 0).sizing_area;
    let error_size = buff_size.saturating_sub(plan.part_size);
    let num_partitions = plan.intervals.len() as u64;

    // The chosen part_size always comes from the candidate table; if a
    // malformed PlannerOutput ever breaks that invariant, emit the report
    // without plan sections rather than panicking mid-request.
    let Some(chosen) = planner
        .candidates
        .iter()
        .find(|c| c.part_size == plan.part_size)
        .copied()
    else {
        return er;
    };

    er.plan = Some(PlanSection {
        part_size: plan.part_size,
        num_partitions,
        error_size,
        samples_drawn: plan.samples_drawn,
        est_cache_pages: plan.est_cache_pages.iter().sum(),
        predicted: PredictedCost {
            c_sample: chosen.c_sample,
            c_join: chosen.c_join,
            c_cache: chosen.c_cache,
            c_partition_seeks: chosen.c_partition_seeks,
            total: chosen.total(),
        },
        candidates: planner
            .candidates
            .iter()
            .map(|c| CandidateRow {
                part_size: c.part_size,
                num_partitions: c.num_partitions,
                samples_required: c.samples_required,
                c_sample: c.c_sample,
                c_join: c.c_join,
                c_cache: c.c_cache,
                c_partition_seeks: c.c_partition_seeks,
                total: c.total(),
                chosen: c.part_size == plan.part_size,
            })
            .collect(),
    });

    // Per-phase predictions: the capped sampling cost for "plan", the
    // chosen candidate's C_join for "join".
    let capped_sample = sample_cost(plan.samples_drawn, outer_pages, cfg.ratio);
    for ph in &mut er.phases {
        ph.predicted_cost = match ph.name.as_str() {
            "plan" => Some(capped_sample),
            "join" => Some(chosen.c_join),
            _ => None,
        };
    }

    let actual: u64 = er
        .phases
        .iter()
        .filter(|p| p.name == "plan" || p.name == "join")
        .map(|p| p.io.cost)
        .sum();
    let tolerance = num_partitions * error_size * 2 * cfg.ratio.random;
    er.deviation = Some(DeviationSection::compute(
        capped_sample + chosen.c_join,
        actual,
        tolerance,
    ));
    er
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{JoinAlgorithm, JoinConfig};
    use crate::partition::PartitionJoin;
    use vtjoin_core::{AttrDef, AttrType, Interval, Relation, Schema, Tuple, Value};
    use vtjoin_storage::{HeapFile, SharedDisk};

    fn load(disk: &SharedDisk, key_mod: i64, n: i64) -> HeapFile {
        let schema = Schema::new(vec![AttrDef::new("k", AttrType::Int)])
            .unwrap()
            .into_shared();
        let tuples = (0..n)
            .map(|i| {
                let s = (i * 31) % 1000;
                Tuple::new(
                    vec![Value::Int(i % key_mod)],
                    Interval::from_raw(s, s + i % 7).unwrap(),
                )
            })
            .collect();
        HeapFile::bulk_load(disk, &Relation::from_parts_unchecked(schema, tuples)).unwrap()
    }

    #[test]
    fn base_conversion_preserves_measurements() {
        let disk = SharedDisk::new(128);
        let hr = load(&disk, 40, 900);
        let hs = load(&disk, 40, 900);
        let cfg = JoinConfig::with_buffer(16);
        let report = crate::SortMergeJoin.execute(&hr, &hs, &cfg).unwrap();
        let er = execution_report(&report, &cfg);
        assert_eq!(er.algorithm, "sort-merge");
        assert_eq!(er.io.total_ios, report.io.total_ios());
        assert_eq!(er.phases.len(), report.phases.len());
        assert_eq!(er.result.tuples, report.result_tuples);
        assert!(er.plan.is_none() && er.deviation.is_none());
        for (note, counter) in report.notes.iter().zip(&er.counters) {
            assert_eq!(
                (note.0.as_str(), note.1),
                (counter.name.as_str(), counter.value)
            );
        }
    }

    #[test]
    fn partition_conversion_attaches_plan_and_deviation() {
        let disk = SharedDisk::new(256);
        let hr = load(&disk, 60, 2400);
        let hs = load(&disk, 60, 2400);
        let cfg = JoinConfig::with_buffer(24);
        let (report, planner) = PartitionJoin::default()
            .execute_with_plan(&hr, &hs, &cfg)
            .unwrap();
        let er = partition_execution_report(&report, &cfg, &planner, hr.pages());
        let plan = er.plan.as_ref().expect("non-degenerate run has a plan");
        assert_eq!(plan.part_size, planner.plan.part_size);
        assert_eq!(plan.candidates.iter().filter(|c| c.chosen).count(), 1);
        assert!(er.phase("plan").unwrap().predicted_cost.is_some());
        assert_eq!(er.phase("partition").unwrap().predicted_cost, None);
        let dev = er.deviation.expect("deviation computed");
        assert_eq!(
            dev.actual_cost,
            er.phase("plan").unwrap().io.cost + er.phase("join").unwrap().io.cost
        );
    }

    #[test]
    fn degenerate_partition_run_has_no_plan_section() {
        let disk = SharedDisk::new(128);
        let hr = load(&disk, 10, 40); // fits in memory
        let hs = load(&disk, 10, 40);
        let cfg = JoinConfig::with_buffer(64);
        let (report, planner) = PartitionJoin::default()
            .execute_with_plan(&hr, &hs, &cfg)
            .unwrap();
        assert!(planner.candidates.is_empty());
        let er = partition_execution_report(&report, &cfg, &planner, hr.pages());
        assert!(er.plan.is_none());
        assert!(er.deviation.is_none());
    }
}
