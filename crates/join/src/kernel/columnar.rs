//! The columnar sweep and hash kernels.
//!
//! These kernels run on [`ColumnarSide`] column slices and emit
//! `(outer row, inner row)` pairs into an [`IdBatch`] — no tuple is
//! dereferenced and no `Vec<Value>` is compared or cloned anywhere on
//! the hot path. Key equality is a `u32` compare against the `key_id`
//! column: the encode pass interned every key in a shared dictionary, so
//! hash collisions are rejected without touching tuple storage.
//!
//! **The sweep** ([`columnar_sweep_join`], after Piatov, Helmer & Dignös,
//! *Cache-Efficient Sweeping-Based Interval Joins*) sorts both sides by
//! interval start — a stable LSD radix sort on biased start chronons —
//! and consumes them in merge order. When a row arrives, it (1) probes
//! the **other** side's active list for its key hash — every live entry
//! there started no later and has not ended, so the overlap is exactly
//! `[arrival.start, min(ends)]` — and (2) enters its own side's active
//! list. Expired entries (interval end before the arrival's start) are
//! swap-removed lazily during the probe, keeping the per-bucket lists
//! gapless and the amortized cost per discovered pair O(1).
//!
//! Ties: when both sides have an arrival at the same start chronon, the
//! outer side is processed first, so equal-start pairs are discovered
//! exactly once — by the inner arrival probing the outer active list.
//! Closed-interval semantics fall out of the `end < start` expiry test:
//! boundary-touching intervals (`[0,5]` and `[5,9]`) share chronon 5 and
//! match; abutting-but-disjoint ones (`[0,4]` and `[5,9]`) do not.
//!
//! **The hash kernel** ([`columnar_hash_join`]) builds a bucket table
//! over the outer slice and probes every inner row through it, testing
//! the overlap on inline chronons before the key id.
//!
//! Counter semantics (`comparisons`/`match_tests` count hash-equal
//! candidates, `filter_checks` counts key-equal pairs) are what the bench
//! regression gate pins. The gate estimator
//! [`estimate_dups_per_key_x100_ids`] reads a strided hash sample off
//! the hash column; it depends only on the cell's data, so
//! `KernelChoice::Auto` resolves identically at every thread count.

use super::{HashStats, KernelChoice, KernelKind, SWEEP_DUP_THRESHOLD_X100};
use crate::columnar::{biased_chronon, radix_sort_pairs, ColumnarSide, IdBatch};
use vtjoin_core::{Chronon, Interval, JoinPredicate};

/// What one sweep measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Hash-equal candidate pairs inspected (every one already overlaps
    /// in time — compare with the hash kernel's `match_tests`, most of
    /// which fail the temporal predicate on duplicate-heavy data).
    pub comparisons: u64,
    /// Result tuples emitted.
    pub pairs_emitted: u64,
    /// Key-equal pairs tested against a generalized predicate filter
    /// (zero for the natural join, which has no filter to run).
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
}

/// One side's cell-local column slice, gathered contiguously from the
/// relation-wide [`ColumnarSide`] so the kernel loops stream over dense
/// arrays. Position `i` in the slice corresponds to global row
/// `rows[i]`; the gather copies chronons and ids, never tuples.
#[derive(Debug, Default)]
struct SideSlice {
    rows: Vec<u32>,
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
    key_ids: Vec<u32>,
}

impl SideSlice {
    fn gather(&mut self, side: &ColumnarSide<'_>, rows: &[u32]) {
        self.rows.clear();
        self.starts.clear();
        self.ends.clear();
        self.hashes.clear();
        self.key_ids.clear();
        self.rows.extend_from_slice(rows);
        for &r in rows {
            self.starts.push(side.start(r));
            self.ends.push(side.end(r));
            self.hashes.push(side.hash(r));
            self.key_ids.push(side.key_id(r));
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn interval(&self, i: usize) -> Interval {
        Interval::new(self.starts[i], self.ends[i]).expect("slice columns encode an interval")
    }
}

/// A currently-open row in one side's active list: its join-key hash,
/// inline interval end, dictionary key id, and slice index.
#[derive(Debug, Clone, Copy)]
struct ActiveEntry {
    hash: u64,
    end: Chronon,
    key_id: u32,
    idx: u32,
}

/// Gapless active lists keyed by join-key hash: power-of-two buckets of
/// open rows, compacted by swap-remove as entries expire.
#[derive(Debug, Default)]
struct ActiveLists {
    buckets: Vec<Vec<ActiveEntry>>,
    mask: usize,
}

impl ActiveLists {
    /// Clears the lists for a new partition, growing (never shrinking)
    /// the bucket table to cover `expected` entries, so the allocation is
    /// reused across stolen partitions.
    fn reset(&mut self, expected: usize) {
        let want = expected.max(1).next_power_of_two();
        if want > self.buckets.len() {
            self.buckets.resize_with(want, Vec::new);
        }
        for b in &mut self.buckets {
            b.clear();
        }
        // Mask over exactly `want` buckets, not the (grow-only) table
        // length: bucket co-residency — and with it the swap-remove order
        // of hash-equal entries — must be a pure function of *this*
        // partition, never of which partitions this scratch served
        // before, or output order would vary with thread scheduling.
        self.mask = want - 1;
    }

    #[inline]
    fn insert(&mut self, hash: u64, end: Chronon, key_id: u32, idx: u32) {
        self.buckets[(hash as usize) & self.mask].push(ActiveEntry {
            hash,
            end,
            key_id,
            idx,
        });
    }

    /// Visits every live hash-equal entry, swap-removing expired ones;
    /// returns the number of hash-equal candidates inspected (the
    /// `comparisons` counter).
    #[inline]
    fn probe(
        &mut self,
        hash: u64,
        alive_from: Chronon,
        mut f: impl FnMut(u32, Chronon, u32),
    ) -> u64 {
        let bucket = &mut self.buckets[(hash as usize) & self.mask];
        let mut inspected = 0u64;
        let mut k = 0;
        while k < bucket.len() {
            let e = bucket[k];
            if e.end < alive_from {
                bucket.swap_remove(k);
                continue;
            }
            if e.hash == hash {
                inspected += 1;
                f(e.idx, e.end, e.key_id);
            }
            k += 1;
        }
        inspected
    }
}

/// Reusable per-worker columnar-kernel state: gathered column slices,
/// radix order/scratch buffers, active lists, and the hash kernel's
/// bucket table. One per worker, reused across every stolen cell.
#[derive(Debug, Default)]
pub struct ColumnarScratch {
    r_slice: SideSlice,
    s_slice: SideSlice,
    r_order: Vec<(u64, u32)>,
    s_order: Vec<(u64, u32)>,
    radix_tmp: Vec<(u64, u32)>,
    r_active: ActiveLists,
    s_active: ActiveLists,
    hash_buckets: Vec<Vec<(u64, u32)>>,
    hash_mask: usize,
}

impl ColumnarScratch {
    fn reset_hash_table(&mut self, expected: usize) {
        let want = expected.max(1).next_power_of_two();
        if want > self.hash_buckets.len() {
            self.hash_buckets.resize_with(want, Vec::new);
        }
        for b in &mut self.hash_buckets {
            b.clear();
        }
        self.hash_mask = want - 1;
    }
}

/// Estimates duplicates-per-key (×100, fixed point) over both sides of a
/// partition from a strided sample of the pre-hashed key column.
///
/// Two regimes: when the sample's distinct count is well below the sample
/// size, the key space is *saturated* — the sample has seen (nearly) all
/// keys, so dups ≈ `total / distinct` extrapolated over the full
/// partition. Otherwise keys are mostly unique in the sample and the
/// in-sample ratio `sample / distinct` (≈ 1.0) is the honest estimate —
/// extrapolating would fabricate duplication a small sample cannot see.
pub fn estimate_dups_per_key_x100_ids(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
) -> u64 {
    const GATE_SAMPLE_PER_SIDE: usize = 1024;
    let total = r_rows.len() + s_rows.len();
    if total == 0 {
        return 100;
    }
    let mut hashes: Vec<u64> = Vec::with_capacity(GATE_SAMPLE_PER_SIDE * 2);
    let r_stride = r_rows.len().div_ceil(GATE_SAMPLE_PER_SIDE).max(1);
    hashes.extend(r_rows.iter().step_by(r_stride).map(|&row| r.hash(row)));
    let s_stride = s_rows.len().div_ceil(GATE_SAMPLE_PER_SIDE).max(1);
    hashes.extend(s_rows.iter().step_by(s_stride).map(|&row| s.hash(row)));
    let m = hashes.len();
    hashes.sort_unstable();
    hashes.dedup();
    let distinct = hashes.len().max(1);
    if distinct < m * 4 / 5 {
        (100 * total as u64) / distinct as u64
    } else {
        (100 * m as u64) / distinct as u64
    }
}

/// Resolves the kernel for one partition. Deterministic: depends only on
/// the partition's data (never on thread count or scheduling), so
/// parallel output stays identical across worker counts.
pub fn choose_kernel_ids(
    choice: KernelChoice,
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
) -> KernelKind {
    match choice {
        KernelChoice::Hash => KernelKind::Hash,
        KernelChoice::Sweep => KernelKind::Sweep,
        KernelChoice::Auto => {
            if estimate_dups_per_key_x100_ids(r, r_rows, s, s_rows) > SWEEP_DUP_THRESHOLD_X100 {
                KernelKind::Sweep
            } else {
                KernelKind::Hash
            }
        }
    }
}

/// Columnar forward-sweep join over per-cell column slices, emitting
/// row-id pairs whose overlap ends inside `emit_within` (the
/// canonical-partition de-duplication rule shared with the hash kernel);
/// returns the sweep stats plus the number of radix counting passes
/// executed.
///
/// `pred` must be an **intersection-template** predicate (see
/// [`JoinPredicate::template`]): the active lists can only discover pairs
/// whose intervals intersect, and the emit rule de-duplicates by overlap
/// end. For such predicates [`JoinPredicate::stamp`] *is* the overlap.
/// The natural join runs filter-free; any other predicate filters each
/// key-equal overlapping pair. Callers route sequence and mixed templates
/// to the merge fallback (`merge_join_pred`) instead.
#[allow(clippy::too_many_arguments)]
pub fn columnar_sweep_join(
    pred: &JoinPredicate,
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> (SweepStats, u64) {
    debug_assert!(
        pred.partitioning_eligible(),
        "columnar_sweep_join requires an intersection-template predicate"
    );
    let filter = (!pred.is_natural()).then_some(pred);
    sweep_ids(r, r_rows, s, s_rows, filter, emit_within, scratch, out)
}

#[allow(clippy::too_many_arguments)]
fn sweep_ids(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    filter: Option<&JoinPredicate>,
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> (SweepStats, u64) {
    let ColumnarScratch {
        r_slice,
        s_slice,
        r_order,
        s_order,
        radix_tmp,
        r_active,
        s_active,
        ..
    } = scratch;
    r_slice.gather(r, r_rows);
    s_slice.gather(s, s_rows);

    // Event order = (start, slice index): pairs are pushed in ascending
    // index order and the radix sort is stable, so ties keep index order
    // and the sweep is deterministic.
    r_order.clear();
    r_order.extend(
        r_slice
            .starts
            .iter()
            .enumerate()
            .map(|(i, &st)| (biased_chronon(st), i as u32)),
    );
    s_order.clear();
    s_order.extend(
        s_slice
            .starts
            .iter()
            .enumerate()
            .map(|(i, &st)| (biased_chronon(st), i as u32)),
    );
    let mut radix_passes = radix_sort_pairs(r_order, radix_tmp);
    radix_passes += radix_sort_pairs(s_order, radix_tmp);

    r_active.reset(r_slice.len());
    s_active.reset(s_slice.len());

    let mut stats = SweepStats::default();
    let (rn, sn) = (r_order.len(), s_order.len());
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < rn || bi < sn {
        // Outer first on start ties; the biased-u64 compare is
        // order-isomorphic to the chronon compare.
        let take_r = bi >= sn || (ai < rn && r_order[ai].0 <= s_order[bi].0);
        if take_r {
            let i = r_order[ai].1 as usize;
            ai += 1;
            let (ev_start, ev_end) = (r_slice.starts[i], r_slice.ends[i]);
            let (ev_hash, ev_key) = (r_slice.hashes[i], r_slice.key_ids[i]);
            stats.comparisons += s_active.probe(ev_hash, ev_start, |j, y_end, y_key| {
                let end = ev_end.min(y_end);
                if emit_within.contains_chronon(end) && ev_key == y_key {
                    if let Some(p) = filter {
                        stats.filter_checks += 1;
                        if !p.matches(r_slice.interval(i), s_slice.interval(j as usize)) {
                            return;
                        }
                        stats.filter_hits += 1;
                    }
                    out.emit(r_slice.rows[i], s_slice.rows[j as usize]);
                    stats.pairs_emitted += 1;
                }
            });
            if bi < sn {
                r_active.insert(ev_hash, ev_end, ev_key, i as u32);
            }
        } else {
            let j = s_order[bi].1 as usize;
            bi += 1;
            let (ev_start, ev_end) = (s_slice.starts[j], s_slice.ends[j]);
            let (ev_hash, ev_key) = (s_slice.hashes[j], s_slice.key_ids[j]);
            stats.comparisons += r_active.probe(ev_hash, ev_start, |i, x_end, x_key| {
                let end = ev_end.min(x_end);
                if emit_within.contains_chronon(end) && ev_key == x_key {
                    if let Some(p) = filter {
                        stats.filter_checks += 1;
                        if !p.matches(r_slice.interval(i as usize), s_slice.interval(j)) {
                            return;
                        }
                        stats.filter_hits += 1;
                    }
                    out.emit(r_slice.rows[i as usize], s_slice.rows[j]);
                    stats.pairs_emitted += 1;
                }
            });
            if ai < rn {
                s_active.insert(ev_hash, ev_end, ev_key, j as u32);
            }
        }
    }
    (stats, radix_passes)
}

/// Columnar hash join over per-cell column slices, emitting row-id
/// pairs under the same emit rule and predicate contract as
/// [`columnar_sweep_join`]. The overlap test and the canonical-partition
/// emit filter run on inline chronons *before* the key test, so
/// temporally-disjoint hash-equal candidates cost one `u64` compare and
/// two chronon compares — no pointer chase, no splice.
#[allow(clippy::too_many_arguments)]
pub fn columnar_hash_join(
    pred: &JoinPredicate,
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> HashStats {
    debug_assert!(
        pred.partitioning_eligible(),
        "columnar_hash_join requires an intersection-template predicate"
    );
    let filter = (!pred.is_natural()).then_some(pred);
    hash_ids(r, r_rows, s, s_rows, filter, emit_within, scratch, out)
}

#[allow(clippy::too_many_arguments)]
fn hash_ids(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    filter: Option<&JoinPredicate>,
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> HashStats {
    let mut stats = HashStats::default();
    scratch.r_slice.gather(r, r_rows);
    scratch.s_slice.gather(s, s_rows);
    scratch.reset_hash_table(r_rows.len());
    let ColumnarScratch {
        r_slice,
        s_slice,
        hash_buckets,
        hash_mask,
        ..
    } = scratch;
    for (i, &h) in r_slice.hashes.iter().enumerate() {
        hash_buckets[(h as usize) & *hash_mask].push((h, i as u32));
    }
    for j in 0..s_slice.len() {
        stats.probes += 1;
        let h = s_slice.hashes[j];
        let (y_start, y_end) = (s_slice.starts[j], s_slice.ends[j]);
        let y_key = s_slice.key_ids[j];
        for &(hx, pos) in &hash_buckets[(h as usize) & *hash_mask] {
            if hx != h {
                continue;
            }
            stats.match_tests += 1;
            let i = pos as usize;
            match filter {
                None => {
                    // Natural join: overlap + emit filter from inline
                    // chronons, key id last (the cheapest rejects first).
                    let os = r_slice.starts[i].max(y_start);
                    let oe = r_slice.ends[i].min(y_end);
                    if os <= oe && emit_within.contains_chronon(oe) && r_slice.key_ids[i] == y_key {
                        out.emit(r_slice.rows[i], s_slice.rows[j]);
                        stats.pairs_emitted += 1;
                    }
                }
                Some(pred) => {
                    // A check per key-equal candidate, a hit per filter
                    // pass, then the canonical-partition rule on the
                    // stamp's end.
                    if r_slice.key_ids[i] != y_key {
                        continue;
                    }
                    stats.filter_checks += 1;
                    let x_iv = r_slice.interval(i);
                    let y_iv = s_slice.interval(j);
                    if !pred.matches(x_iv, y_iv) {
                        continue;
                    }
                    stats.filter_hits += 1;
                    // For intersection-template predicates the stamp IS
                    // the overlap (the only templates routed here), so
                    // materialization recomputes it from the columns.
                    let stamp = pred.stamp(x_iv, y_iv);
                    if emit_within.contains_chronon(stamp.end()) {
                        out.emit(r_slice.rows[i], s_slice.rows[j]);
                        stats.pairs_emitted += 1;
                    }
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::encode_pair;
    use crate::common::JoinSpec;
    use std::sync::Arc;
    use vtjoin_core::algebra::predicate_join;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Tuple, Value};

    fn schemas() -> (Arc<Schema>, Arc<Schema>) {
        let mk = |other: &str| {
            Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new(other, AttrType::Int),
            ])
            .unwrap()
            .into_shared()
        };
        (mk("b"), mk("c"))
    }

    fn rel(schema: Arc<Schema>, raw: &[(i64, i64, i64, i64)]) -> Relation {
        let tuples = raw
            .iter()
            .map(|&(k, v, s, e)| {
                Tuple::new(
                    vec![Value::Int(k), Value::Int(v)],
                    Interval::from_raw(s, e).unwrap(),
                )
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    fn pair(keys: i64, n: i64) -> (Relation, Relation) {
        let (rs, ss) = schemas();
        let mk = |schema: Arc<Schema>, salt: i64| {
            let raw: Vec<_> = (0..n)
                .map(|i| {
                    (
                        (i * salt) % keys,
                        i,
                        (i * 7) % 50,
                        (i * 7) % 50 + 1 + i % 13,
                    )
                })
                .collect();
            rel(schema, &raw)
        };
        (mk(rs, 1), mk(ss, 3))
    }

    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Both kernels over whole relations under one emit window: the
    /// materialized results plus each kernel's stats.
    struct Both {
        hash: Relation,
        sweep: Relation,
        hash_stats: HashStats,
        sweep_stats: SweepStats,
    }

    fn run_both(r: &Relation, s: &Relation, window: Interval, pred: &JoinPredicate) -> Both {
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let (rr, sr) = (all_rows(r.len()), all_rows(s.len()));
        let (o, i) = (&enc.outer, &enc.inner);
        let mut scratch = ColumnarScratch::default();
        let mut out = IdBatch::new();
        let materialize = |out: &mut IdBatch| {
            let mut tuples = Vec::new();
            out.materialize_each(&spec, o, i, |t| tuples.push(t));
            Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), tuples)
        };
        let hash_stats = columnar_hash_join(pred, o, &rr, i, &sr, window, &mut scratch, &mut out);
        let hash = materialize(&mut out);
        let (sweep_stats, _) =
            columnar_sweep_join(pred, o, &rr, i, &sr, window, &mut scratch, &mut out);
        let sweep = materialize(&mut out);
        Both {
            hash,
            sweep,
            hash_stats,
            sweep_stats,
        }
    }

    /// Both kernels emit exactly the oracle pairs whose stamp ends in
    /// `window`, with matching emit and filter counters.
    fn assert_oracle(keys: i64, n: i64, window: Interval, pred: &str) {
        let (r, s) = pair(keys, n);
        let pred: JoinPredicate = pred.parse().unwrap();
        let oracle = predicate_join(&r, &s, &pred).unwrap();
        let want = Relation::from_parts_unchecked(
            Arc::clone(oracle.schema()),
            oracle
                .iter()
                .filter(|t| window.contains_chronon(t.valid().end()))
                .cloned()
                .collect(),
        );
        let got = run_both(&r, &s, window, &pred);
        assert!(got.hash.multiset_eq(&want), "hash: {pred} {window}");
        assert!(got.sweep.multiset_eq(&want), "sweep: {pred} {window}");
        let (h, sw) = (got.hash_stats, got.sweep_stats);
        assert_eq!(h.pairs_emitted, want.len() as u64);
        assert_eq!(sw.pairs_emitted, want.len() as u64);
        if window == Interval::ALL {
            // Under a narrower window the sweep drops non-canonical pairs
            // before filtering, the hash kernel after.
            assert_eq!(h.filter_hits, sw.filter_hits, "{pred}");
        }
        // Every sweep comparison overlaps in time; hash match tests
        // include temporal rejects, so the sweep never inspects more.
        assert!(sw.comparisons <= h.match_tests, "{pred}");
    }

    #[test]
    fn kernels_match_the_oracle_on_duplicate_heavy_data() {
        assert_oracle(4, 300, Interval::ALL, "intersects");
    }

    #[test]
    fn kernels_match_the_oracle_on_unique_keys() {
        assert_oracle(1000, 300, Interval::ALL, "intersects");
    }

    #[test]
    fn kernels_match_the_oracle_under_emit_window() {
        assert_oracle(8, 200, Interval::from_raw(10, 40).unwrap(), "intersects");
    }

    #[test]
    fn predicate_kernels_match_the_oracle() {
        for p in ["overlaps", "contains", "during-or-equals", "intersects"] {
            assert_oracle(6, 200, Interval::ALL, p);
            assert_oracle(6, 200, Interval::from_raw(5, 45).unwrap(), p);
        }
    }

    #[test]
    fn boundary_touching_intervals_match_and_abutting_do_not() {
        let (rs, ss) = schemas();
        // [0,5] ∩ [5,9] = [5,5]: closed intervals share chronon 5.
        let r = rel(rs, &[(1, 0, 0, 5), (2, 1, 0, 4)]);
        let s = rel(ss, &[(1, 9, 5, 9), (2, 8, 5, 9)]);
        let got = run_both(&r, &s, Interval::ALL, &JoinPredicate::intersects());
        for out in [&got.hash, &got.sweep] {
            assert_eq!(out.len(), 1);
            assert_eq!(out.tuples()[0].valid(), Interval::from_raw(5, 5).unwrap());
        }
    }

    #[test]
    fn equal_start_pairs_emitted_exactly_once() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 0, 5, 10), (1, 1, 5, 7)]);
        let s = rel(ss, &[(1, 9, 5, 6), (1, 8, 5, 12)]);
        let want = predicate_join(&r, &s, &JoinPredicate::intersects()).unwrap();
        let got = run_both(&r, &s, Interval::ALL, &JoinPredicate::intersects());
        assert_eq!(got.sweep.len(), 4);
        assert!(got.sweep.multiset_eq(&want));
        assert!(got.hash.multiset_eq(&want));
    }

    #[test]
    fn emit_window_filters_by_overlap_end() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 0, 0, 10)]);
        let s = rel(ss, &[(1, 9, 2, 4), (1, 8, 3, 20)]);
        // Overlaps end at 4 and 10; the window [0,5] keeps only the first.
        let window = Interval::from_raw(0, 5).unwrap();
        let got = run_both(&r, &s, window, &JoinPredicate::intersects());
        assert_eq!(got.sweep.len(), 1);
        assert_eq!(got.sweep_stats.pairs_emitted, 1);
        assert!(got.sweep_stats.comparisons >= 2);
        assert!(got.hash.multiset_eq(&got.sweep));
    }

    #[test]
    fn predicate_filter_runs_on_key_equal_overlaps() {
        let (rs, ss) = schemas();
        // [0,10] contains [2,4] but only overlaps [5,20].
        let r = rel(rs, &[(1, 0, 0, 10)]);
        let s = rel(ss, &[(1, 9, 2, 4), (1, 8, 5, 20)]);
        let pred: JoinPredicate = "contains".parse().unwrap();
        let got = run_both(&r, &s, Interval::ALL, &pred);
        for (checks, hits, out) in [
            (
                got.sweep_stats.filter_checks,
                got.sweep_stats.filter_hits,
                &got.sweep,
            ),
            (
                got.hash_stats.filter_checks,
                got.hash_stats.filter_hits,
                &got.hash,
            ),
        ] {
            assert_eq!((checks, hits), (2, 1));
            assert_eq!(out.tuples()[0].valid(), Interval::from_raw(2, 4).unwrap());
        }
    }

    #[test]
    fn scratch_reuse_across_partitions_is_clean() {
        let (rs, ss) = schemas();
        let big_r = rel(
            rs,
            &(0..64).map(|i| (i % 4, i, i, i + 5)).collect::<Vec<_>>(),
        );
        let big_s = rel(
            ss,
            &(0..64)
                .map(|i| (i % 4, i, i + 1, i + 6))
                .collect::<Vec<_>>(),
        );
        let spec = JoinSpec::natural(big_r.schema(), big_s.schema()).unwrap();
        let enc = encode_pair(&spec, big_r.iter(), big_s.iter());
        let (o, i) = (&enc.outer, &enc.inner);
        let pred = JoinPredicate::intersects();
        let mut scratch = ColumnarScratch::default();
        let mut out = IdBatch::new();
        let (all_r, all_s) = (all_rows(o.len()), all_rows(i.len()));
        columnar_sweep_join(
            &pred,
            o,
            &all_r,
            i,
            &all_s,
            Interval::ALL,
            &mut scratch,
            &mut out,
        );
        assert!(out.materialize_each(&spec, o, i, drop) > 0);

        // A much smaller partition — outer row 4 ([4,9], key 0) against
        // inner row 4 ([5,10], key 0), one pair — through the same, now
        // oversized, scratch must see none of the previous partition's
        // state.
        let (small_r, small_s) = ([4u32], [4u32]);
        columnar_sweep_join(
            &pred,
            o,
            &small_r,
            i,
            &small_s,
            Interval::ALL,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.materialize_each(&spec, o, i, drop), 1);
        assert_eq!(out.batches_flushed(), 2);
    }

    #[test]
    fn empty_sides_are_handled() {
        let (r, s) = pair(4, 8);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let pred = JoinPredicate::intersects();
        let mut cs = ColumnarScratch::default();
        let mut out = IdBatch::new();
        let (stats, _) = columnar_sweep_join(
            &pred,
            &enc.outer,
            &all_rows(enc.outer.len()),
            &enc.inner,
            &[],
            Interval::ALL,
            &mut cs,
            &mut out,
        );
        assert_eq!(stats.pairs_emitted, 0);
        assert!(out.is_empty());
        let hstats = columnar_hash_join(
            &pred,
            &enc.outer,
            &[],
            &enc.inner,
            &all_rows(enc.inner.len()),
            Interval::ALL,
            &mut cs,
            &mut out,
        );
        assert_eq!(hstats.pairs_emitted, 0);
        assert_eq!(
            estimate_dups_per_key_x100_ids(&enc.outer, &[], &enc.inner, &[]),
            100
        );
    }
}
