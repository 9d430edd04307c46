//! Multi-threaded grid-partition joining with sharded scatter/gather.
//!
//! Leung & Muntz studied partition-based temporal joins **in a
//! multiprocessor setting** with tuples replicated across processors
//! (\[LM92b\], §4.1 of the paper). Replication is precisely what makes the
//! partition joins independent — no tuple migrates between partitions, so
//! each `rᵢ ⋈ᵛ sᵢ` can run on its own thread. This module provides that
//! variant as an in-memory executor, generalized from the paper's 1×N
//! time-only partitioning to a **2D (key × time) grid**
//! ([`vtjoin_join::partition::GridPlan`]): a cell is a (key-bucket,
//! time-range) pair, tuples replicate only along the time axis (matching
//! pairs co-bucket by construction — equal keys hash identically), and
//! the canonical-partition emit rule generalizes to a *canonical-cell*
//! rule, so every result is emitted exactly once. Time-only execution is
//! the 1×N grid: cells are laid out time-major, so collapsing the key
//! axis yields the paper's partition order.
//!
//! **One executor.** An [`ExecPlan`] names the grid, the kernel policy,
//! the predicate, the worker count and an optional shard pool; [`run`]
//! executes it and hands the result to a [`Sink`] — [`MaterializeSink`]
//! collects one relation, [`StreamSink`] forwards each cell's batch as
//! soon as it is complete and next in order. Both sinks see the same
//! batches in the same order, so a stream concatenates to exactly the
//! materialized relation.
//!
//! The cell loop (claim a cell, dispatch the kernel, late-materialize) is
//! written once and combines four optimizations over the obvious
//! one-chunk-per-thread nested-loop design:
//!
//! * **columnar batch execution** — both relations are encoded
//!   struct-of-arrays once at scatter time
//!   ([`vtjoin_join::columnar::ColumnarSide`]: flat start/end chronon
//!   columns, a pre-hashed key column, and a dictionary-compressed key-id
//!   column shared across sides) and **row ids** are scattered into grid
//!   cells. Workers run the columnar kernels
//!   ([`vtjoin_join::kernel::columnar`]) over gathered column slices and
//!   emit `(row, row)` pairs, materializing result tuples once per cell;
//! * **gated intra-partition kernels** — each claimed cell is joined by
//!   whichever kernel the per-cell cost gate picks: the hash kernel on
//!   mostly-unique keys, the forward-sweep interval kernel on
//!   duplicate-heavy data. A forced [`KernelChoice`] overrides the gate
//!   (CLI `--kernel`);
//! * **cost-aware dynamic scheduling** — cells are sorted by estimated
//!   cost `|r_c|·|s_c|` descending and claimed one at a time from an
//!   atomic work queue, so one skewed cell occupies one worker while the
//!   rest drain the remainder;
//! * **private per-worker output slots** — each worker keeps its finished
//!   cells in a worker-private list and the coordinator places them after
//!   the join, so the materializing path touches no shared structure and
//!   no channel inside the join loop; the streaming path sends each cell
//!   to a reorder window on the calling thread instead;
//! * **per-shard page reservations** — a worker can pin its share of a
//!   [`PagePool`] for its whole lifetime (the service's per-query
//!   sub-pool), making shard memory accounting visible to admission
//!   control without taking a lock inside the join loop.
//!
//! Output stays deterministic regardless of scheduling: the kernel gate
//! depends only on cell data (never on thread count), and cells reach the
//! sink in time-major cell order.
//!
//! **One scheduler.** Every engine thread starts in `scoped_workers`: it
//! spawns `min(threads, work items)` scoped workers, joins them, and maps
//! a worker panic to [`JoinError::Internal`] — a bug fails one request,
//! never the process.
//!
//! **Generalized predicates.** Intersection-template predicates run the
//! grid path above with the predicate-filtering kernels (the
//! canonical-cell emit rule still de-duplicates, because every
//! intersection match is stamped with its overlap). Sequence and mixed
//! templates — whose matches may share no partition — run the
//! predicate-aware merge fallback instead: the outer relation is split
//! into contiguous chunks, one work item each, and each chunk is merged
//! against the whole inner side. Chunk outputs reach the sink in outer
//! order, so this path is also deterministic across thread counts.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use vtjoin_core::{Interval, JoinPredicate, Relation, Schema, Tuple};
use vtjoin_join::columnar::{encode_pair, ColumnarCounters, ColumnarSide, IdBatch, Layout};
use vtjoin_join::common::JoinSpec;
use vtjoin_join::kernel::{
    choose_kernel_ids, columnar_hash_join, columnar_sweep_join, merge_join_pred, ColumnarScratch,
    KernelChoice, KernelCounters, KernelKind, OutputBatch, PredicateCounters,
};
use vtjoin_join::partition::intervals::{is_partitioning, replica_range};
use vtjoin_join::partition::GridPlan;
use vtjoin_join::JoinError;
use vtjoin_obs::{
    ColumnarSection, ConfigSection, Counter, ExecutionReport, GridSection, IoSection,
    KernelSection, PhaseSection, PredicateSection, ResultSection, SkewSection, WorkerSection,
};
use vtjoin_storage::PagePool;

/// What [`run`] executes: a grid, a kernel policy, a predicate, a worker
/// count and an optional shard pool.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// `grid.key_buckets` hash buckets × `grid.intervals` time ranges
    /// (the 1×N grid is time-only execution).
    pub grid: GridPlan,
    /// Intra-cell kernel policy (ignored by the merge fallback).
    pub kernel: KernelChoice,
    /// The temporal join predicate.
    pub predicate: JoinPredicate,
    /// Requested worker threads; `min(threads, work items)` are spawned.
    pub threads: usize,
    /// Each worker pins `pages` pages of this pool for its lifetime (the
    /// service's per-query sub-pool). Best-effort: a share the pool cannot
    /// grant does not block or fail the join.
    pub shard_pool: Option<(PagePool, u64)>,
}

impl ExecPlan {
    /// The natural join over `grid` on `threads` workers, with the
    /// automatic kernel gate and no shard pool.
    pub fn new(grid: GridPlan, threads: usize) -> ExecPlan {
        ExecPlan {
            grid,
            kernel: KernelChoice::Auto,
            predicate: JoinPredicate::intersects(),
            threads,
            shard_pool: None,
        }
    }
}

/// Where [`run`] delivers the result: non-empty per-cell (or per-chunk)
/// batches, on the calling thread, in deterministic time-major order.
pub trait Sink {
    /// `true` to receive each batch as soon as it is complete and next in
    /// order (the coordinator runs a reorder window while the workers
    /// join); `false` to receive every batch after the last worker ends.
    fn streams(&self) -> bool;
    /// Called once per run, before any batch, with the result schema.
    fn open(&mut self, schema: &Arc<Schema>);
    /// Called before a non-streaming run delivers more than one batch,
    /// with the total tuple count of those batches.
    fn reserve(&mut self, tuples: usize);
    /// Receives the next batch.
    fn push(&mut self, batch: Vec<Tuple>);
}

/// Collects a run's batches into one [`Relation`].
#[derive(Debug, Default)]
pub struct MaterializeSink {
    schema: Option<Arc<Schema>>,
    tuples: Vec<Tuple>,
}

impl MaterializeSink {
    /// The collected result. Call after a successful [`run`].
    pub fn into_relation(self) -> Relation {
        let schema = self.schema.expect("run() opens its sink before any Ok");
        Relation::from_parts_unchecked(schema, self.tuples)
    }
}

impl Sink for MaterializeSink {
    fn streams(&self) -> bool {
        false
    }

    fn open(&mut self, schema: &Arc<Schema>) {
        self.schema = Some(Arc::clone(schema));
    }

    fn reserve(&mut self, tuples: usize) {
        self.tuples.reserve_exact(tuples);
    }

    fn push(&mut self, batch: Vec<Tuple>) {
        // Nothing reserved means this batch is the whole result (one merge
        // chunk or one occupied cell): adopt it instead of copying it.
        if self.tuples.capacity() == 0 {
            self.tuples = batch;
        } else {
            self.tuples.extend(batch);
        }
    }
}

/// What a streamed run delivered: how many wire batches the sink saw and
/// how many tuples they carried in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamSummary {
    /// Non-empty batches handed to the sink.
    pub batches: u64,
    /// Total tuples across all batches.
    pub tuples: u64,
}

/// Forwards each batch to a callback as soon as it is both *complete* and
/// *next in deterministic order*, so the stream is identical at every
/// thread count even though cells complete out of order.
///
/// The callback runs on the calling thread, between channel receives: a
/// slow consumer backpressures the coordinator, not the workers (cells
/// buffer in the reorder window). If [`run`] returns `Err`, the batches
/// already delivered are a truncated stream.
pub struct StreamSink<'a> {
    sink: &'a mut dyn FnMut(Vec<Tuple>),
    summary: StreamSummary,
}

impl<'a> StreamSink<'a> {
    /// A stream into `sink`.
    pub fn new(sink: &'a mut dyn FnMut(Vec<Tuple>)) -> StreamSink<'a> {
        StreamSink {
            sink,
            summary: StreamSummary::default(),
        }
    }

    /// Batches and tuples delivered so far.
    pub fn summary(&self) -> StreamSummary {
        self.summary
    }
}

impl Sink for StreamSink<'_> {
    fn streams(&self) -> bool {
        true
    }

    fn open(&mut self, _schema: &Arc<Schema>) {}

    fn reserve(&mut self, _tuples: usize) {}

    fn push(&mut self, batch: Vec<Tuple>) {
        self.summary.batches += 1;
        self.summary.tuples += batch.len() as u64;
        (self.sink)(batch);
    }
}

/// Starts every engine worker thread: spawns `min(threads, items)` scoped
/// workers (worker `w` runs the body `spawn(w)` builds on the calling
/// thread), runs `coordinate` on the calling thread while they work, and
/// joins them all. Results come back in worker order. `spawn` is dropped
/// once every worker has started, so anything it owns (a channel sender)
/// is released before `coordinate` runs.
///
/// A panicking worker (a bug, not a data error) surfaces as
/// [`JoinError::Internal`] on this one request instead of taking the
/// process down; its RAII guards (page reservations) unwind normally.
pub(crate) fn scoped_workers<F, T, C>(
    threads: usize,
    items: usize,
    mut spawn: impl FnMut(usize) -> F,
    coordinate: impl FnOnce() -> C,
) -> Result<(Vec<T>, C), JoinError>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = threads.max(1).min(items);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|w| scope.spawn(spawn(w))).collect();
        drop(spawn);
        let coordinated = coordinate();
        let mut results = Vec::with_capacity(n);
        let mut panicked = false;
        for h in handles {
            match h.join() {
                Ok(t) => results.push(t),
                Err(_) => panicked = true,
            }
        }
        if panicked {
            return Err(JoinError::Internal("engine worker panicked"));
        }
        Ok((results, coordinated))
    })
}

/// Scatters an encoded side's **row ids** over the grid: bucket = masked
/// key hash (read from the pre-hashed column), partitions = the
/// Leung–Muntz `replica_range` over the inline chronon columns — so a row
/// replicates only along the time axis, landing in `i * k + b` for each
/// overlapped time range `i`. With one bucket the hash is not read.
pub(crate) fn scatter_rows(
    side: &ColumnarSide<'_>,
    intervals: &[Interval],
    k: usize,
) -> Vec<Vec<u32>> {
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); intervals.len() * k];
    let mask = k as u64 - 1;
    for row in 0..side.len() as u32 {
        let b = if k == 1 {
            0
        } else {
            (side.hash(row) & mask) as usize
        };
        for i in replica_range(intervals, side.interval(row)) {
            cells[i * k + b].push(row);
        }
    }
    cells
}

/// Everything a run measured beyond the result itself; rendered by
/// [`build_report`].
struct ExecDetail {
    workers: Vec<WorkerSection>,
    /// Per-item estimated costs (`|r_c|·|s_c|` per cell, time-major).
    est_costs: Vec<u64>,
    /// Total tuple references after replication, per input side.
    replicated_r: u64,
    replicated_s: u64,
    /// `|r| + |s|` before replication (replication-factor denominator).
    input_tuples: u64,
    /// Grid shape the run executed (1 × N for the time-only surface).
    key_buckets: u64,
    /// Aggregated hash-kernel probe/match-test counters across all cells.
    probes: u64,
    match_tests: u64,
    /// Per-kernel accounting, merged across workers.
    kernel: KernelCounters,
    /// Predicate-filter / merge-fallback accounting, merged across
    /// workers; all-zero for the natural join.
    predicate: PredicateCounters,
    /// Wall-clock of the replicate and join phases, in microseconds.
    replicate_micros: u64,
    join_micros: u64,
    /// Wall-clock the coordinator spent gathering worker results, in
    /// microseconds.
    coordinator_wait_micros: u64,
    /// Columnar-path accounting; `None` for merge-fallback runs (the
    /// report then carries no `columnar` section).
    columnar: Option<ColumnarCounters>,
}

/// Joins `r ⋈ᵛ s` as `plan` says and delivers the result to `sink`,
/// returning the run's [`ExecutionReport`] (algorithm `"parallel"`).
///
/// The 1×N grid is time-only execution; a K×N grid orders output
/// time-major by cell but is deterministic at every thread count and
/// emits the same result multiset. Sequence/mixed predicate templates run
/// the merge fallback, which ignores the grid shape beyond validating its
/// intervals.
///
/// **Worker-count contract**: exactly `min(threads.max(1), cells)` workers
/// are spawned and reported — a worker without a cell to claim would only
/// report zeros, so none is created. Tuple counts are deterministic in
/// aggregate; which worker claims which cell, and the wall-clock figures,
/// are not.
///
/// The report is entirely in-memory: all I/O sections are zero, the
/// result page count is zero, and `buffer_pages`/`seed` in the config
/// section are zero. Counters carry the partition count, requested
/// threads, spawned workers, replicated tuple counts per side, and the
/// hash kernel's aggregated probe/match-test counters; the `kernel`
/// section carries the per-kernel cell split, sweep comparisons, and
/// batches flushed; the `grid` section the grid shape, cell occupancy and
/// share, time-axis replication factor, and coordinator gather wait; the
/// `columnar` section the encode, radix, dictionary and materialization
/// accounting. Non-natural runs add a `predicate` section; merge-fallback
/// runs carry no `kernel`, `grid` or `columnar` section, since no cell
/// kernel is invoked.
pub fn run(
    plan: &ExecPlan,
    r: &Relation,
    s: &Relation,
    sink: &mut dyn Sink,
) -> Result<ExecutionReport, JoinError> {
    // A typed error, not an assert: the intervals may arrive from a plan
    // cache or an external request, and a malformed set must fail the one
    // request instead of taking the process down.
    if !is_partitioning(&plan.grid.intervals) {
        return Err(JoinError::Precondition(
            "intervals must partition all of valid time (sorted, gapless, ending at forever)",
        ));
    }
    let spec = JoinSpec::natural(r.schema(), s.schema())?;
    sink.open(spec.out_schema());
    // Sequence/mixed templates cannot be served by time partitioning (a
    // matching pair may share no partition); they run the merge fallback.
    let detail = if plan.predicate.partitioning_eligible() {
        run_cells(plan, &spec, r, s, sink)?
    } else {
        run_merge(plan, &spec, r, s, sink)?
    };
    Ok(build_report(detail, plan))
}

/// Compatibility entry point for the `perfbench` crate: [`run`] over
/// `plan`, materialized. `Layout` selects nothing.
#[doc(hidden)]
pub fn grid_execution_report_layout(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
    pred: &JoinPredicate,
    _layout: Layout,
) -> Result<(Relation, ExecutionReport), JoinError> {
    let mut plan = ExecPlan::new(plan.clone(), threads);
    (plan.kernel, plan.predicate) = (choice, *pred);
    let mut out = MaterializeSink::default();
    let report = run(&plan, r, s, &mut out)?;
    Ok((out.into_relation(), report))
}

/// One worker's reusable cell-join state: kernel scratch, the id-pair
/// batch, and the counters it accumulates across every cell it claims.
#[derive(Default)]
struct CellWorker {
    scratch: ColumnarScratch,
    batch: IdBatch,
    probes: u64,
    match_tests: u64,
    kernel: KernelCounters,
    predicate: PredicateCounters,
    columnar: ColumnarCounters,
    /// Running emitted-pairs-per-estimated-cost ratio, used to reserve
    /// batch capacity before joining each cell.
    emitted_total: u64,
    cost_total: u64,
}

/// The grid path: encode both relations struct-of-arrays **once**
/// ([`encode_pair`]), scatter row ids into cells, and join the cells
/// heaviest-first through [`deliver`].
fn run_cells(
    plan: &ExecPlan,
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    sink: &mut dyn Sink,
) -> Result<ExecDetail, JoinError> {
    let intervals = &plan.grid.intervals;
    let k = plan.grid.key_buckets.max(1).next_power_of_two() as usize;
    let n_cells = intervals.len() * k;
    let pred = &plan.predicate;

    let replicate_started = Instant::now();
    let enc = encode_pair(spec, r.iter(), s.iter());
    let r_cells = scatter_rows(&enc.outer, intervals, k);
    let s_cells = scatter_rows(&enc.inner, intervals, k);
    let replicate_micros = replicate_started.elapsed().as_micros() as u64;

    let est_costs: Vec<u64> = (0..n_cells)
        .map(|c| r_cells[c].len() as u64 * s_cells[c].len() as u64)
        .collect();
    // Heaviest cells first, so the work-stealing tail is short.
    let mut order: Vec<usize> = (0..n_cells).collect();
    order.sort_by_key(|&c| Reverse(est_costs[c]));

    let join_cell = |w: &mut CellWorker, c: usize| -> Vec<Tuple> {
        let (rc, sc) = (&r_cells[c], &s_cells[c]);
        if rc.is_empty() || sc.is_empty() {
            return Vec::new();
        }
        // The cell's canonical emit window is its time range: a pair
        // co-resident in several cells of its bucket row is emitted only
        // where the overlap's endpoint falls (the canonical-cell rule).
        let window = intervals[c / k];
        let est = if w.cost_total > 0 {
            ((w.emitted_total as u128 * est_costs[c] as u128 / w.cost_total as u128) as usize)
                .max(16)
        } else {
            // First cell: no ratio yet; a side's size is the output floor
            // for a key-dense join.
            rc.len().max(sc.len())
        };
        w.batch.begin(est);
        let (o, i) = (&enc.outer, &enc.inner);
        match choose_kernel_ids(plan.kernel, o, rc, i, sc) {
            KernelKind::Hash => {
                let hs =
                    columnar_hash_join(pred, o, rc, i, sc, window, &mut w.scratch, &mut w.batch);
                w.probes += hs.probes;
                w.match_tests += hs.match_tests;
                w.predicate.filter_checks += hs.filter_checks;
                w.predicate.filter_hits += hs.filter_hits;
                w.kernel.hash_partitions += 1;
            }
            KernelKind::Sweep => {
                let (ss, radix_passes) =
                    columnar_sweep_join(pred, o, rc, i, sc, window, &mut w.scratch, &mut w.batch);
                w.kernel.sweep_partitions += 1;
                w.kernel.sweep_comparisons += ss.comparisons;
                w.predicate.filter_checks += ss.filter_checks;
                w.predicate.filter_hits += ss.filter_hits;
                w.columnar.radix_passes += radix_passes;
            }
        }
        w.emitted_total += w.batch.len() as u64;
        w.cost_total += est_costs[c];
        // The late-materialization pass: one splice per buffered pair,
        // once per cell, straight into the exact-sized cell vector.
        let mut out = Vec::with_capacity(w.batch.len());
        w.columnar.materialized_rows += w.batch.materialize_each(spec, o, i, |t| out.push(t));
        out
    };

    let join_started = Instant::now();
    let (ran, coordinator_wait_micros) =
        deliver(plan, &order, sink, CellWorker::default, join_cell)?;
    let join_micros = join_started.elapsed().as_micros() as u64;

    let mut detail = ExecDetail {
        workers: Vec::with_capacity(ran.len()),
        replicated_r: r_cells.iter().map(|p| p.len() as u64).sum(),
        replicated_s: s_cells.iter().map(|p| p.len() as u64).sum(),
        input_tuples: r.len() as u64 + s.len() as u64,
        key_buckets: k as u64,
        est_costs,
        probes: 0,
        match_tests: 0,
        kernel: KernelCounters::default(),
        predicate: PredicateCounters::default(),
        replicate_micros,
        join_micros,
        coordinator_wait_micros,
        columnar: None,
    };
    // Encode-time figures live on the pair, not the workers.
    let mut columnar = ColumnarCounters {
        encode_micros: enc.encode_micros,
        dict_size: enc.dict_size,
        ..ColumnarCounters::default()
    };
    for (section, mut w) in ran {
        w.kernel.batches_flushed = w.batch.batches_flushed();
        detail.workers.push(section);
        detail.probes += w.probes;
        detail.match_tests += w.match_tests;
        detail.kernel.merge(w.kernel);
        detail.predicate.merge(w.predicate);
        columnar.merge(w.columnar);
    }
    detail.columnar = Some(columnar);
    Ok(detail)
}

/// The merge fallback for sequence/mixed predicate templates: contiguous
/// outer chunks, one work item each, each merged against the whole inner
/// side by [`merge_join_pred`]. Chunks reach the sink in chunk order, so
/// the result is outer-ordered at every thread count.
fn run_merge(
    plan: &ExecPlan,
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    sink: &mut dyn Sink,
) -> Result<ExecDetail, JoinError> {
    let gather_started = Instant::now();
    let r_all: Vec<&Tuple> = r.iter().collect();
    let s_all: Vec<&Tuple> = s.iter().collect();
    let replicate_micros = gather_started.elapsed().as_micros() as u64;

    let num_workers = plan.threads.max(1).min(r_all.len()).max(1);
    let chunk_len = r_all.len().div_ceil(num_workers).max(1);
    let chunks: Vec<&[&Tuple]> = r_all.chunks(chunk_len).collect();
    let est_costs: Vec<u64> = chunks
        .iter()
        .map(|c| c.len() as u64 * s_all.len() as u64)
        .collect();
    let order: Vec<usize> = (0..chunks.len()).collect();

    let merge_chunk = |pc: &mut PredicateCounters, c: usize| -> Vec<Tuple> {
        let mut batch = OutputBatch::new();
        batch.begin(chunks[c].len().max(16));
        let stats = merge_join_pred(spec, &plan.predicate, chunks[c], &s_all, &mut batch);
        pc.merge_pairs_scanned += stats.pairs_scanned;
        pc.merge_pairs_emitted += stats.pairs_emitted;
        batch.take()
    };
    let join_started = Instant::now();
    let (ran, _) = deliver(plan, &order, sink, PredicateCounters::default, merge_chunk)?;
    let join_micros = join_started.elapsed().as_micros() as u64;

    let mut predicate = PredicateCounters::default();
    let mut workers = Vec::with_capacity(ran.len());
    for (section, pc) in ran {
        workers.push(section);
        predicate.merge(pc);
    }
    Ok(ExecDetail {
        workers,
        replicated_r: r_all.len() as u64,
        replicated_s: s_all.len() as u64,
        input_tuples: r_all.len() as u64 + s_all.len() as u64,
        key_buckets: 1,
        est_costs,
        probes: 0,
        match_tests: 0,
        kernel: KernelCounters::default(),
        predicate,
        replicate_micros,
        join_micros,
        coordinator_wait_micros: 0,
        columnar: None,
    })
}

/// Cell result on its way to the reorder window.
type Finished = (usize, Vec<Tuple>);

/// The work loop, written once for every item kind (grid cells, merge
/// chunks) and both sinks. Workers claim items in `order` from an atomic
/// queue, `job` produces each item's tuples, and the items reach `sink`
/// in item-index order: through the reorder window while the workers run
/// (streaming sinks), or from the workers' private slots after the last
/// one ends (materializing sinks — no channel, no shared path).
///
/// Returns each worker's report section with its final job state, plus
/// the coordinator's gather wait in microseconds.
fn deliver<W: Send>(
    plan: &ExecPlan,
    order: &[usize],
    sink: &mut dyn Sink,
    init: impl Fn() -> W + Sync,
    job: impl Fn(&mut W, usize) -> Vec<Tuple> + Sync,
) -> Result<(Vec<(WorkerSection, W)>, u64), JoinError> {
    let n_items = order.len();
    let next = AtomicUsize::new(0);
    let worker = |w: usize, tx: Option<mpsc::Sender<Finished>>| {
        // Pin this shard's page share for the worker's whole lifetime
        // (RAII release on return or unwind). Best-effort: a share the
        // pool cannot grant right now does not block the join, it only
        // goes unaccounted.
        let _reservation = plan
            .shard_pool
            .as_ref()
            .and_then(|(pool, pages)| pool.try_reserve(*pages));
        let started = Instant::now();
        let mut state = init();
        let (mut items, mut tuples, mut busy) = (0u64, 0u64, Duration::ZERO);
        let mut slots: Vec<Finished> = Vec::new();
        while let Some(&c) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let claimed = Instant::now();
            let out = job(&mut state, c);
            busy += claimed.elapsed();
            items += 1;
            tuples += out.len() as u64;
            match &tx {
                // Empty items still send their (empty) marker so the
                // reorder window can advance past them. A send fails only
                // if the coordinator is gone; the worker just stops.
                Some(tx) => {
                    if tx.send((c, out)).is_err() {
                        break;
                    }
                }
                None => slots.push((c, out)),
            }
        }
        let section = WorkerSection {
            worker: w as u64,
            partitions: items,
            tuples,
            wall_micros: started.elapsed().as_micros() as u64,
            busy_micros: busy.as_micros() as u64,
        };
        (section, state, slots)
    };

    let (tx, rx) = if sink.streams() {
        let (tx, rx) = mpsc::channel::<Finished>();
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    let worker = &worker;
    // The spawn closure owns the original sender, so the channel closes
    // as soon as the last worker exits.
    let spawn = move |w: usize| {
        let tx = tx.clone();
        move || worker(w, tx)
    };
    let gather_started = Instant::now();
    let (ran, released) = scoped_workers(plan.threads, n_items, spawn, || {
        rx.map(|rx| release_in_order(rx, n_items, sink))
    })?;
    let coordinator_wait_micros = gather_started.elapsed().as_micros() as u64;
    debug_assert!(released.is_none_or(|n| n == n_items));

    // Materializing sinks: place each worker's slots in item order (a
    // streamed run left every slot list empty).
    let mut placed: Vec<Vec<Tuple>> = vec![Vec::new(); n_items];
    let mut out = Vec::with_capacity(ran.len());
    for (section, state, slots) in ran {
        for (c, tuples) in slots {
            placed[c] = tuples;
        }
        out.push((section, state));
    }
    let batches: Vec<Vec<Tuple>> = placed.into_iter().filter(|b| !b.is_empty()).collect();
    if batches.len() > 1 {
        sink.reserve(batches.iter().map(Vec::len).sum());
    }
    for batch in batches {
        sink.push(batch);
    }
    Ok((out, coordinator_wait_micros))
}

/// The streaming coordinator's reorder window: receives `(item, batch)`
/// pairs in completion order and releases them to `sink` strictly in item
/// order (empty batches advance the window silently). Returns how many
/// items were released.
fn release_in_order(rx: mpsc::Receiver<Finished>, n_items: usize, sink: &mut dyn Sink) -> usize {
    let mut pending: Vec<Option<Vec<Tuple>>> = (0..n_items).map(|_| None).collect();
    let mut next_out = 0usize;
    for (c, out) in rx {
        pending[c] = Some(out);
        while let Some(out) = pending.get_mut(next_out).and_then(Option::take) {
            next_out += 1;
            if !out.is_empty() {
                sink.push(out);
            }
        }
    }
    next_out
}

/// Computes the [`SkewSection`] of a finished parallel run from the
/// per-cell cost estimates and worker sections. For grid runs the
/// "partitions" the section counts are grid cells.
fn skew_section(est_costs: &[u64], workers: &[WorkerSection]) -> SkewSection {
    let est_cost_total: u64 = est_costs.iter().sum();
    let est_cost_max = est_costs.iter().copied().max().unwrap_or(0);
    let busy_micros_total: u64 = workers.iter().map(|w| w.busy_micros).sum();
    let busy_micros_max = workers.iter().map(|w| w.busy_micros).max().unwrap_or(0);
    let wall_max = workers.iter().map(|w| w.wall_micros).max().unwrap_or(0);
    SkewSection {
        partitions: est_costs.len() as u64,
        est_cost_total,
        est_cost_max,
        max_partition_share_percent: (est_cost_max * 100)
            .checked_div(est_cost_total)
            .unwrap_or(0),
        busy_micros_total,
        busy_micros_max,
        utilization_percent: if wall_max == 0 || workers.is_empty() {
            100
        } else {
            busy_micros_total * 100 / (workers.len() as u64 * wall_max)
        },
    }
}

/// Assembles the [`ExecutionReport`] for a finished parallel run.
fn build_report(detail: ExecDetail, plan: &ExecPlan) -> ExecutionReport {
    let pred = &plan.predicate;
    let intervals = &plan.grid.intervals;
    let zero_io = IoSection {
        random_reads: 0,
        seq_reads: 0,
        random_writes: 0,
        seq_writes: 0,
        total_ios: 0,
        cost: 0,
    };
    let skew = skew_section(&detail.est_costs, &detail.workers);
    let grid = pred.partitioning_eligible().then(|| {
        let est_total: u64 = detail.est_costs.iter().sum();
        let est_max = detail.est_costs.iter().copied().max().unwrap_or(0);
        GridSection {
            key_buckets: detail.key_buckets,
            time_partitions: intervals.len() as u64,
            cells: detail.est_costs.len() as u64,
            occupied_cells: detail.est_costs.iter().filter(|&&c| c > 0).count() as u64,
            max_cell_share_percent: (est_max * 100).checked_div(est_total).unwrap_or(0),
            replication_factor_x100: ((detail.replicated_r + detail.replicated_s) * 100)
                .checked_div(detail.input_tuples)
                .unwrap_or(100),
            coordinator_wait_micros: detail.coordinator_wait_micros,
        }
    });
    let counter = |name: &str, value: u64| Counter {
        name: name.into(),
        value: value as i64,
    };
    ExecutionReport {
        algorithm: "parallel".into(),
        config: ConfigSection {
            buffer_pages: 0,
            random_cost: 1,
            seed: 0,
        },
        result: ResultSection {
            tuples: detail.workers.iter().map(|w| w.tuples).sum(),
            pages: 0,
        },
        io: zero_io,
        phases: vec![
            PhaseSection {
                name: "replicate".into(),
                wall_micros: detail.replicate_micros,
                io: zero_io,
                predicted_cost: None,
            },
            PhaseSection {
                name: "join".into(),
                wall_micros: detail.join_micros,
                io: zero_io,
                predicted_cost: None,
            },
        ],
        counters: vec![
            counter("num_partitions", intervals.len() as u64),
            counter("threads_requested", plan.threads as u64),
            counter("workers", detail.workers.len() as u64),
            counter("replicated_r_tuples", detail.replicated_r),
            counter("replicated_s_tuples", detail.replicated_s),
            counter("cpu_probes", detail.probes),
            counter("cpu_match_tests", detail.match_tests),
        ],
        buffer_pool: None,
        plan: None,
        deviation: None,
        workers: detail.workers,
        skew: Some(skew),
        kernel: pred.partitioning_eligible().then_some(KernelSection {
            hash_partitions: detail.kernel.hash_partitions,
            sweep_partitions: detail.kernel.sweep_partitions,
            sweep_comparisons: detail.kernel.sweep_comparisons,
            batches_flushed: detail.kernel.batches_flushed,
        }),
        faults: None,
        service: None,
        predicate: (!pred.is_natural()).then(|| PredicateSection {
            predicate: pred.to_string(),
            template: pred.template().as_str().to_owned(),
            filter_checks: detail.predicate.filter_checks,
            filter_hits: detail.predicate.filter_hits,
            merge_pairs_scanned: detail.predicate.merge_pairs_scanned,
            merge_pairs_emitted: detail.predicate.merge_pairs_emitted,
        }),
        grid,
        columnar: detail.columnar.map(|c| ColumnarSection {
            encode_micros: c.encode_micros,
            radix_passes: c.radix_passes,
            dict_size: c.dict_size,
            materialized_rows: c.materialized_rows,
        }),
        operator: None,
    }
}

/// Replicates a relation's tuples into one bucket per partition under the
/// shared Leung–Muntz rule (`replica_range`).
fn replicate<'a>(rel: &'a Relation, intervals: &[Interval]) -> Vec<Vec<&'a Tuple>> {
    let mut parts: Vec<Vec<&Tuple>> = vec![Vec::new(); intervals.len()];
    for t in rel.iter() {
        for i in replica_range(intervals, t.valid()) {
            parts[i].push(t);
        }
    }
    parts
}

/// The pre-optimization executor: static contiguous chunks of partitions,
/// each joined with the O(|rᵢ|·|sᵢ|) pairwise `try_match` loop. Kept as
/// the ablation baseline `bench parallel` measures [`run`] against; not
/// part of the engine's recommended surface.
pub fn parallel_partition_join_naive(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
) -> Result<Relation, JoinError> {
    if !is_partitioning(intervals) {
        return Err(JoinError::Precondition(
            "intervals must partition all of valid time (sorted, gapless, ending at forever)",
        ));
    }
    let spec = JoinSpec::natural(r.schema(), s.schema())?;
    let n = intervals.len();
    let r_parts = replicate(r, intervals);
    let s_parts = replicate(s, intervals);

    let chunk = n.div_ceil(threads.max(1));
    let spawn = |w: usize| {
        let (spec, r_parts, s_parts) = (&spec, &r_parts, &s_parts);
        move || {
            let mut out: Vec<Tuple> = Vec::new();
            for i in w * chunk..((w + 1) * chunk).min(n) {
                let p_i = intervals[i];
                for x in &r_parts[i] {
                    for y in &s_parts[i] {
                        if let Some(z) = spec.try_match(x, y) {
                            if p_i.contains_chronon(z.valid().end()) {
                                out.push(z);
                            }
                        }
                    }
                }
            }
            out
        }
    };
    let (outputs, ()) = scoped_workers(threads, n.div_ceil(chunk), spawn, || ())?;
    let tuples: Vec<Tuple> = outputs.into_iter().flatten().collect();
    Ok(Relation::from_parts_unchecked(
        Arc::clone(spec.out_schema()),
        tuples,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::algebra::{natural_join, predicate_join};
    use vtjoin_core::{AttrDef, AttrType, Value};
    use vtjoin_join::partition::intervals::equal_width;

    fn rel(attr: &str, n: i64, long_every: i64) -> Relation {
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new(attr, AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let tuples = (0..n)
            .map(|i| {
                let start = (i * 23) % 400;
                let iv = if long_every > 0 && i % long_every == 0 {
                    Interval::from_raw(start % 200, start % 200 + 200).unwrap()
                } else {
                    Interval::from_raw(start, start).unwrap()
                };
                Tuple::new(vec![Value::Int(i % 6), Value::Int(i)], iv)
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    fn parts(n: u64) -> Vec<Interval> {
        equal_width(Interval::from_raw(0, 400).unwrap(), n)
    }

    /// A time-only (1×N) plan.
    fn time_only(intervals: Vec<Interval>, threads: usize) -> ExecPlan {
        ExecPlan::new(GridPlan::time_only(intervals), threads)
    }

    fn with_pred(plan: ExecPlan, pred: &str) -> ExecPlan {
        ExecPlan {
            predicate: pred.parse().unwrap(),
            ..plan
        }
    }

    fn join(plan: &ExecPlan, r: &Relation, s: &Relation) -> (Relation, ExecutionReport) {
        let mut out = MaterializeSink::default();
        let report = run(plan, r, s, &mut out).unwrap();
        (out.into_relation(), report)
    }

    /// Streams `plan`, returning the concatenated batches and the summary.
    fn stream(plan: &ExecPlan, r: &Relation, s: &Relation) -> (Vec<Tuple>, StreamSummary) {
        let mut streamed: Vec<Tuple> = Vec::new();
        let mut batches = 0u64;
        let mut push = |b: Vec<Tuple>| {
            assert!(!b.is_empty(), "sink only sees non-empty batches");
            batches += 1;
            streamed.extend(b);
        };
        let mut sink = StreamSink::new(&mut push);
        run(plan, r, s, &mut sink).unwrap();
        let summary = sink.summary();
        assert_eq!(summary.batches, batches);
        assert_eq!(summary.tuples, streamed.len() as u64);
        (streamed, summary)
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let want = natural_join(&r, &s).unwrap();
        for threads in [1usize, 2, 4, 16] {
            let (got, _) = join(&time_only(parts(6), threads), &r, &s);
            assert!(got.multiset_eq(&want), "threads = {threads}");
        }
    }

    #[test]
    fn naive_baseline_matches_oracle() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let want = natural_join(&r, &s).unwrap();
        for threads in [1usize, 3] {
            let got = parallel_partition_join_naive(&r, &s, &parts(6), threads).unwrap();
            assert!(got.multiset_eq(&want), "threads = {threads}");
        }
    }

    #[test]
    fn forced_kernels_agree_with_auto_and_the_oracle() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let want = natural_join(&r, &s).unwrap();
        for choice in [KernelChoice::Auto, KernelChoice::Hash, KernelChoice::Sweep] {
            for threads in [1usize, 3] {
                let plan = ExecPlan {
                    kernel: choice,
                    ..time_only(parts(6), threads)
                };
                let (got, _) = join(&plan, &r, &s);
                assert!(
                    got.multiset_eq(&want),
                    "choice = {choice:?}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn report_kernel_section_accounts_every_partition() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        for (choice, all_hash, all_sweep) in [
            (KernelChoice::Hash, true, false),
            (KernelChoice::Sweep, false, true),
            (KernelChoice::Auto, false, false),
        ] {
            let plan = ExecPlan {
                kernel: choice,
                ..time_only(parts(6), 2)
            };
            let (_, er) = join(&plan, &r, &s);
            let k = er.kernel.expect("parallel report has a kernel section");
            // Empty partitions are skipped without invoking a kernel, so
            // the split covers at most every partition.
            assert!(k.hash_partitions + k.sweep_partitions <= 6);
            // One batch hand-over per kernel invocation, never per tuple.
            assert_eq!(k.batches_flushed, k.hash_partitions + k.sweep_partitions);
            if all_hash {
                assert_eq!(k.sweep_partitions, 0);
                assert_eq!(k.sweep_comparisons, 0);
            }
            if all_sweep {
                assert_eq!(k.hash_partitions, 0);
                assert_eq!(er.counter("cpu_probes"), Some(0));
            }
        }
    }

    #[test]
    fn output_is_deterministic() {
        let r = rel("b", 150, 5);
        let s = rel("c", 150, 5);
        let (a, _) = join(&time_only(parts(4), 4), &r, &s);
        let (b, _) = join(&time_only(parts(4), 2), &r, &s);
        assert_eq!(a.tuples(), b.tuples(), "order independent of thread count");
    }

    #[test]
    fn streamed_batches_concatenate_to_the_materialized_output() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        for key_buckets in [1u64, 4] {
            let grid = GridPlan {
                key_buckets,
                intervals: parts(6),
            };
            let (want, _) = join(&ExecPlan::new(grid.clone(), 1), &r, &s);
            for threads in [1usize, 2, 4] {
                let pool = PagePool::new(64);
                let plan = ExecPlan {
                    shard_pool: Some((pool.clone(), 4)),
                    ..ExecPlan::new(grid.clone(), threads)
                };
                let (streamed, _) = stream(&plan, &r, &s);
                assert_eq!(
                    streamed,
                    want.tuples(),
                    "key_buckets = {key_buckets}, threads = {threads}"
                );
                assert_eq!(pool.in_flight(), 0, "shard reservations released");
            }
        }
    }

    #[test]
    fn streamed_merge_fallback_matches_materialized_order() {
        let r = rel("b", 120, 4);
        let s = rel("c", 120, 3);
        let plan = |threads| with_pred(time_only(vec![Interval::ALL], threads), "before");
        assert!(!plan(1).predicate.partitioning_eligible());
        let (want, _) = join(&plan(1), &r, &s);
        for threads in [1usize, 3] {
            let (streamed, _) = stream(&plan(threads), &r, &s);
            assert_eq!(streamed, want.tuples(), "threads = {threads}");
        }
    }

    #[test]
    fn single_partition_degenerates_to_plain_join() {
        let r = rel("b", 80, 4);
        let s = rel("c", 80, 4);
        let (got, _) = join(&time_only(vec![Interval::ALL], 3), &r, &s);
        assert!(got.multiset_eq(&natural_join(&r, &s).unwrap()));
    }

    #[test]
    fn worker_sections_account_for_all_tuples() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let (got, er) = join(&time_only(parts(6), 3), &r, &s);
        let workers = er.workers;
        assert_eq!(workers.len(), 3);
        assert_eq!(workers.iter().map(|w| w.partitions).sum::<u64>(), 6);
        assert_eq!(
            workers.iter().map(|w| w.tuples).sum::<u64>(),
            got.len() as u64
        );
        for (i, w) in workers.iter().enumerate() {
            assert_eq!(w.worker, i as u64);
            assert!(
                w.busy_micros <= w.wall_micros + 1000,
                "busy beyond wall: {w:?}"
            );
        }
    }

    #[test]
    fn spawns_min_of_threads_and_partitions() {
        let r = rel("b", 100, 4);
        let s = rel("c", 100, 3);
        // 2 partitions, 8 threads requested → exactly 2 workers.
        let (got, er) = join(&time_only(parts(2), 8), &r, &s);
        assert_eq!(er.workers.len(), 2);
        assert_eq!(er.workers.iter().map(|w| w.partitions).sum::<u64>(), 2);
        assert!(got.multiset_eq(&natural_join(&r, &s).unwrap()));
    }

    #[test]
    fn execution_report_carries_workers_and_skew() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let (got, er) = join(&time_only(parts(6), 3), &r, &s);
        assert_eq!(er.algorithm, "parallel");
        assert_eq!(er.result.tuples, got.len() as u64);
        assert_eq!(er.counter("num_partitions"), Some(6));
        assert_eq!(er.counter("workers"), Some(er.workers.len() as i64));
        // This workload is duplicate-heavy (6 keys), so the auto gate
        // routes its partitions to the sweep kernel: the work shows up as
        // sweep comparisons, not hash probes.
        let k = er.kernel.expect("kernel section");
        assert!(er.counter("cpu_probes").unwrap() > 0 || k.sweep_comparisons > 0);
        let sk = er.skew.expect("parallel report has a skew section");
        assert_eq!(sk.partitions, 6);
        assert!(sk.est_cost_max <= sk.est_cost_total);
        assert_eq!(
            sk.busy_micros_total,
            er.workers.iter().map(|w| w.busy_micros).sum::<u64>()
        );
        assert!(sk.utilization_percent <= 100);
        // The time-only surface reports a degenerate 1×N grid with
        // time-axis replication ≥ 1×.
        let g = er.grid.expect("parallel report has a grid section");
        assert_eq!(g.key_buckets, 1);
        assert_eq!(g.time_partitions, 6);
        assert_eq!(g.cells, 6);
        assert!(g.occupied_cells <= g.cells);
        assert!(g.replication_factor_x100 >= 100);
        assert_eq!(g.max_cell_share_percent, sk.max_partition_share_percent);
        // Round-trips through the documented JSON schema.
        let back = ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn grid_shapes_match_the_oracle_at_every_thread_count() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let want = natural_join(&r, &s).unwrap();
        // 1×N, K×1 and K×N shapes all emit the oracle multiset, and each
        // shape's output is byte-identical at every thread count.
        for grid in [
            GridPlan::time_only(parts(6)),
            GridPlan::with_buckets(4, vec![Interval::ALL]),
            GridPlan::with_buckets(4, parts(6)),
            GridPlan::with_buckets(8, parts(6)),
        ] {
            let ctx = format!("K={} N={}", grid.key_buckets, grid.intervals.len());
            let (serial, _) = join(&ExecPlan::new(grid.clone(), 1), &r, &s);
            assert!(serial.multiset_eq(&want), "{ctx}");
            for threads in [2usize, 4, 16] {
                let (got, _) = join(&ExecPlan::new(grid.clone(), threads), &r, &s);
                assert_eq!(got.tuples(), serial.tuples(), "{ctx} threads={threads}");
            }
        }
    }

    #[test]
    fn canonical_cell_emits_each_pair_exactly_once() {
        // Every tuple spans all of [0, 400), so every pair co-resides in
        // every cell of its bucket row across all 5 time partitions; only
        // the canonical cell (overlap endpoint) may emit it.
        let mk = |attr: &str, n: i64| {
            let schema = Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new(attr, AttrType::Int),
            ])
            .unwrap()
            .into_shared();
            let tuples = (0..n)
                .map(|i| {
                    Tuple::new(
                        vec![Value::Int(i % 3), Value::Int(i)],
                        Interval::from_raw(0, 400).unwrap(),
                    )
                })
                .collect();
            Relation::from_parts_unchecked(schema, tuples)
        };
        let r = mk("b", 30);
        let s = mk("c", 30);
        let want = natural_join(&r, &s).unwrap();
        // 30×30 with 3 keys → exactly 300 pairs; any double emission from
        // a non-canonical cell would inflate the count.
        assert_eq!(want.len(), 300);
        for k in [1, 4, 8] {
            for threads in [1usize, 3] {
                let plan = ExecPlan::new(GridPlan::with_buckets(k, parts(5)), threads);
                let (got, _) = join(&plan, &r, &s);
                assert_eq!(got.len(), 300, "K={k} threads={threads}");
                assert!(got.multiset_eq(&want), "K={k} threads={threads}");
            }
        }
    }

    #[test]
    fn grid_predicate_path_matches_the_oracle() {
        let r = rel("b", 180, 4);
        let s = rel("c", 180, 3);
        for p in ["overlaps", "during", "before"] {
            let want = predicate_join(&r, &s, &p.parse().unwrap()).unwrap();
            for threads in [1usize, 3] {
                let grid = GridPlan::with_buckets(4, parts(6));
                let (got, _) = join(&with_pred(ExecPlan::new(grid, threads), p), &r, &s);
                assert!(got.multiset_eq(&want), "{p}, threads = {threads}");
            }
        }
    }

    #[test]
    fn grid_report_reflects_the_shape() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let grid = GridPlan::with_buckets(4, parts(6));
        let (got, er) = join(&ExecPlan::new(grid, 2), &r, &s);
        assert_eq!(er.result.tuples, got.len() as u64);
        let g = er.grid.expect("grid section");
        assert_eq!(g.key_buckets, 4);
        assert_eq!(g.time_partitions, 6);
        assert_eq!(g.cells, 24);
        assert!(g.occupied_cells > 0 && g.occupied_cells <= 24);
        assert!(g.max_cell_share_percent <= 100);
        // Tuples replicate only along the time axis: the replication
        // factor of the 4×6 grid equals the 1×6 grid's.
        let (_, er1) = join(&time_only(parts(6), 2), &r, &s);
        assert_eq!(
            g.replication_factor_x100,
            er1.grid.unwrap().replication_factor_x100
        );
        // The skew section counts cells for grid runs.
        assert_eq!(er.skew.unwrap().partitions, 24);
        // Round-trips through the documented v7 JSON schema.
        let back = ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn sharded_run_reserves_and_releases_worker_pages() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let want = natural_join(&r, &s).unwrap();
        let sharded = |pool: &PagePool| ExecPlan {
            shard_pool: Some((pool.clone(), 8)),
            ..ExecPlan::new(GridPlan::with_buckets(2, parts(6)), 3)
        };
        let pool = PagePool::new(64);
        let (got, _) = join(&sharded(&pool), &r, &s);
        assert!(got.multiset_eq(&want));
        // Every worker's reservation was granted and released.
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.stats().granted, 3);
        assert_eq!(pool.stats().released, 3);
        // A pool too small for any share still completes the join.
        let tiny = PagePool::new(4);
        let (got, _) = join(&sharded(&tiny), &r, &s);
        assert!(got.multiset_eq(&want));
        assert_eq!(tiny.in_flight(), 0);
    }

    #[test]
    fn predicate_paths_match_the_oracle() {
        let r = rel("b", 180, 4);
        let s = rel("c", 180, 3);
        // One predicate per template: intersection (filtered kernels),
        // sequence and mixed (merge fallback), plus a gap bound.
        for p in [
            "overlaps",
            "during",
            "equals",
            "intersects",
            "before",
            "meets",
            "after",
            "meets-or-overlaps",
            "before-within-3",
        ] {
            let want = predicate_join(&r, &s, &p.parse().unwrap()).unwrap();
            for threads in [1usize, 3] {
                let (got, _) = join(&with_pred(time_only(parts(6), threads), p), &r, &s);
                assert!(
                    got.multiset_eq(&want),
                    "{p}, threads = {threads}: got {} want {}",
                    got.len(),
                    want.len()
                );
            }
        }
    }

    #[test]
    fn predicate_fallback_is_deterministic_across_thread_counts() {
        let r = rel("b", 150, 5);
        let s = rel("c", 150, 5);
        let (a, _) = join(&with_pred(time_only(parts(4), 4), "before"), &r, &s);
        let (b, _) = join(&with_pred(time_only(parts(4), 1), "before"), &r, &s);
        assert_eq!(a.tuples(), b.tuples(), "order independent of thread count");
    }

    #[test]
    fn predicate_report_sections_reflect_the_template() {
        let r = rel("b", 180, 4);
        let s = rel("c", 180, 3);

        // Natural runs carry no predicate section (pre-v6 shape).
        let (_, er) = join(&time_only(parts(6), 2), &r, &s);
        assert!(er.predicate.is_none());

        // Intersection template: filtered kernels, no merge fallback.
        let (got, er) = join(&with_pred(time_only(parts(6), 2), "overlaps"), &r, &s);
        let pd = er.predicate.as_ref().expect("predicate section");
        assert_eq!(pd.predicate, "overlaps");
        assert_eq!(pd.template, "intersection");
        assert!(pd.filter_checks >= pd.filter_hits);
        assert_eq!(pd.merge_pairs_scanned, 0);
        assert!(er.kernel.is_some());
        assert!(er.grid.is_some());
        assert_eq!(er.result.tuples, got.len() as u64);

        // Sequence template: merge fallback, no kernel or grid section.
        let (got, er) = join(&with_pred(time_only(parts(6), 2), "before"), &r, &s);
        let pd = er.predicate.as_ref().expect("predicate section");
        assert_eq!(pd.template, "sequence");
        assert_eq!(pd.filter_checks, 0);
        assert_eq!(pd.merge_pairs_emitted, got.len() as u64);
        assert!(pd.merge_pairs_scanned >= pd.merge_pairs_emitted);
        assert!(er.kernel.is_none());
        assert!(er.grid.is_none());
        assert_eq!(
            er.workers.iter().map(|w| w.tuples).sum::<u64>(),
            got.len() as u64
        );
        // Round-trips through the documented v6 JSON schema.
        let back = ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn empty_inputs() {
        let r = rel("b", 0, 0);
        let s = rel("c", 50, 3);
        assert!(join(&time_only(parts(4), 2), &r, &s).0.is_empty());
        assert!(join(&with_pred(time_only(parts(4), 2), "before"), &r, &s)
            .0
            .is_empty());
    }

    #[test]
    fn rejects_non_partitioning_intervals() {
        let r = rel("b", 10, 0);
        let bad = time_only(vec![Interval::from_raw(0, 10).unwrap()], 2);
        let mut out = MaterializeSink::default();
        assert!(matches!(
            run(&bad, &r, &r, &mut out),
            Err(JoinError::Precondition(_))
        ));
    }

    #[test]
    fn kernel_choices_and_predicates_match_the_oracle_on_every_shape() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        for grid in [
            GridPlan::time_only(parts(6)),
            GridPlan::with_buckets(4, parts(6)),
            GridPlan::time_only(vec![Interval::ALL]),
        ] {
            for p in ["intersects", "overlaps", "during", "meets-or-overlaps"] {
                let want = predicate_join(&r, &s, &p.parse().unwrap()).unwrap();
                for kernel in [KernelChoice::Auto, KernelChoice::Hash, KernelChoice::Sweep] {
                    let plan = |threads| ExecPlan {
                        kernel,
                        ..with_pred(ExecPlan::new(grid.clone(), threads), p)
                    };
                    let (serial, er) = join(&plan(1), &r, &s);
                    let ctx = format!(
                        "K={} N={} pred={p} kernel={kernel:?}",
                        grid.key_buckets,
                        grid.intervals.len()
                    );
                    assert!(serial.multiset_eq(&want), "{ctx}");
                    // Every partitioned run carries the columnar section;
                    // the merge fallback (`meets-or-overlaps`) none.
                    let rows = er.columnar.map(|c| c.materialized_rows);
                    let partitioned = plan(1).predicate.partitioning_eligible();
                    assert_eq!(rows, partitioned.then_some(serial.len() as u64), "{ctx}");
                    let (par, _) = join(&plan(3), &r, &s);
                    assert_eq!(par.tuples(), serial.tuples(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn columnar_report_section_accounts_the_run() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        // Every partitioned run accounts each materialized tuple and the
        // shared dictionary, and round-trips through the v9 JSON schema.
        let plan = ExecPlan {
            kernel: KernelChoice::Sweep,
            ..ExecPlan::new(GridPlan::with_buckets(2, parts(6)), 2)
        };
        let (got, er) = join(&plan, &r, &s);
        let c = er.columnar.expect("columnar section");
        assert_eq!(c.materialized_rows, got.len() as u64);
        // 6 join keys on each side → 6 interned entries.
        assert_eq!(c.dict_size, 6);
        // Forced sweep on a non-trivial workload sorts at least one cell.
        assert!(c.radix_passes > 0);
        let back = ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
        // The merge fallback invokes no cell kernel and carries no section.
        let (_, er) = join(&with_pred(time_only(parts(6), 2), "before"), &r, &s);
        assert!(er.columnar.is_none());
    }

    #[test]
    fn scoped_workers_maps_a_worker_panic_to_internal() {
        let spawn = |w: usize| move || assert!(w != 1, "worker {w} fails");
        let got = scoped_workers(3, 8, spawn, || ());
        assert!(matches!(got, Err(JoinError::Internal(_))), "{got:?}");
        // Only min(threads, items) workers start.
        let (ids, ()) = scoped_workers(8, 3, |w: usize| move || w, || ()).unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn a_panicking_job_leaks_no_shard_reservation_under_either_sink() {
        for streams in [false, true] {
            let pool = PagePool::new(64);
            let plan = ExecPlan {
                shard_pool: Some((pool.clone(), 4)),
                ..time_only(parts(4), 2)
            };
            let order: Vec<usize> = (0..4).collect();
            let job = |_: &mut (), c: usize| -> Vec<Tuple> {
                assert!(c != 2, "cell {c} fails");
                Vec::new()
            };
            let mut materialize = MaterializeSink::default();
            let mut ignore = |_: Vec<Tuple>| {};
            let mut streamed = StreamSink::new(&mut ignore);
            let sink: &mut dyn Sink = if streams {
                &mut streamed
            } else {
                &mut materialize
            };
            let got = deliver(&plan, &order, sink, || (), job);
            assert!(
                matches!(got, Err(JoinError::Internal(_))),
                "streams = {streams}"
            );
            let st = pool.stats();
            assert!(st.granted > 0, "streams = {streams}");
            assert_eq!(st.granted, st.released, "streams = {streams}");
            assert_eq!(pool.in_flight(), 0, "streams = {streams}");
        }
    }
}
