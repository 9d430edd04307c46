//! Intra-partition join kernels and the cost-model gate that picks
//! between them.
//!
//! A *kernel* joins one partition's two column slices (struct-of-arrays
//! [`crate::columnar::ColumnarSide`] rows, see [`columnar`]) and emits
//! `(outer row, inner row)` pairs into an [`crate::columnar::IdBatch`].
//! Two are provided:
//!
//! * [`columnar_hash_join`] — build a hash table over the outer slice,
//!   probe every inner row through it. Each probe rescans the whole
//!   hash-equal bucket and rejects most candidates on the temporal
//!   predicate, so its cost grows with duplicates-per-key.
//! * [`columnar_sweep_join`] — the forward-sweep interval join (Piatov,
//!   Helmer & Dignös, *Cache-Efficient Sweeping-Based Interval Joins*):
//!   an endpoint-sorted merge sweep with gapless active lists, where
//!   every hash-equal candidate inspected is already known to overlap in
//!   time.
//!
//! Both filter by the canonical-partition rule (emit iff the overlap
//! *ends* inside the partition's interval), so they produce the same
//! result multiset — the `kernel_equivalence` proptest pins this against
//! the nested-loop oracle.
//!
//! [`choose_kernel_ids`] gates per partition on estimated
//! duplicates-per-key: a strided sample of join-key hashes estimates how
//! many tuples share a key, and the sweep takes over above
//! [`SWEEP_DUP_THRESHOLD_X100`] (4 duplicates per key). The CLI's
//! `--kernel hash|sweep|auto` forces either side of the gate.
//!
//! Both kernels take a [`vtjoin_core::JoinPredicate`]: the natural join
//! runs filter-free, any other intersection-template predicate filters
//! each key-equal candidate; predicates whose matches need not intersect
//! in time fall back to [`merge::merge_join_pred`].
//!
//! ```
//! use std::sync::Arc;
//! use vtjoin_core::{AttrDef, AttrType, Interval, JoinPredicate, Relation, Schema, Tuple, Value};
//! use vtjoin_join::columnar::{encode_pair, IdBatch};
//! use vtjoin_join::common::JoinSpec;
//! use vtjoin_join::kernel::{columnar_hash_join, ColumnarScratch};
//!
//! let mk = |other: &str, vals: &[(i64, i64, i64, i64)]| {
//!     let schema = Schema::new(vec![
//!         AttrDef::new("k", AttrType::Int),
//!         AttrDef::new(other, AttrType::Int),
//!     ])
//!     .unwrap()
//!     .into_shared();
//!     let tuples = vals
//!         .iter()
//!         .map(|&(k, v, s, e)| {
//!             Tuple::new(
//!                 vec![Value::Int(k), Value::Int(v)],
//!                 Interval::from_raw(s, e).unwrap(),
//!             )
//!         })
//!         .collect();
//!     Relation::from_parts_unchecked(schema, tuples)
//! };
//! let r = mk("b", &[(1, 10, 0, 5)]);
//! let s = mk("c", &[(1, 20, 3, 9), (1, 30, 1, 4)]);
//! let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
//! let enc = encode_pair(&spec, r.iter(), s.iter());
//! let (rows_r, rows_s) = ([0u32], [0u32, 1]);
//! let mut scratch = ColumnarScratch::default();
//!
//! // Natural join: both inner tuples overlap [0,5].
//! let mut out = IdBatch::new();
//! out.begin(4);
//! let natural = JoinPredicate::intersects();
//! let stats = columnar_hash_join(
//!     &natural, &enc.outer, &rows_r, &enc.inner, &rows_s, Interval::ALL, &mut scratch, &mut out,
//! );
//! assert_eq!(stats.pairs_emitted, 2);
//!
//! // Same partition under an Allen predicate: [0,5] `overlaps` [3,9]
//! // but `contains` [1,4], so the filter rejects the second pair.
//! let pred: JoinPredicate = "overlaps".parse().unwrap();
//! let mut out_p = IdBatch::new();
//! out_p.begin(4);
//! let pstats = columnar_hash_join(
//!     &pred, &enc.outer, &rows_r, &enc.inner, &rows_s, Interval::ALL, &mut scratch, &mut out_p,
//! );
//! assert_eq!((pstats.filter_checks, pstats.filter_hits), (2, 1));
//! let mut got = Vec::new();
//! out_p.materialize_each(&spec, &enc.outer, &enc.inner, |t| got.push(t));
//! assert_eq!(got[0].valid(), Interval::from_raw(3, 5).unwrap());
//! ```

pub mod batch;
pub mod columnar;
pub mod merge;
pub mod tracked;

pub use batch::OutputBatch;
pub use columnar::{
    choose_kernel_ids, columnar_hash_join, columnar_sweep_join, estimate_dups_per_key_x100_ids,
    ColumnarScratch, SweepStats,
};
pub use merge::{merge_join_pred, MergeStats};
pub use tracked::{
    tracked_sweep, Fragment, OperatorLog, TrackedInput, TrackedScratch, TrackedStats,
};

/// Which kernel actually ran on a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Bucket-table build + probe.
    Hash,
    /// Forward-sweep with active lists.
    Sweep,
}

impl KernelKind {
    /// Stable lower-case name, as rendered in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Hash => "hash",
            KernelKind::Sweep => "sweep",
        }
    }
}

/// Operator-level kernel policy: force one kernel, or let the per-
/// partition cost gate decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Gate per partition on estimated duplicates-per-key (the default).
    #[default]
    Auto,
    /// Force [`KernelKind::Hash`] everywhere.
    Hash,
    /// Force [`KernelKind::Sweep`] everywhere.
    Sweep,
}

impl KernelChoice {
    /// Parses a CLI value (`auto` | `hash` | `sweep`).
    pub fn parse(s: &str) -> Option<KernelChoice> {
        match s {
            "auto" => Some(KernelChoice::Auto),
            "hash" => Some(KernelChoice::Hash),
            "sweep" => Some(KernelChoice::Sweep),
            _ => None,
        }
    }

    /// Stable lower-case name (CLI round-trip).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Hash => "hash",
            KernelChoice::Sweep => "sweep",
        }
    }
}

/// Gate threshold, duplicates-per-key ×100: the sweep takes over when a
/// key is shared by more than 4 tuples on average. Below that, bucket
/// rescans are short and the hash kernel's lack of a sort wins; above it,
/// the sweep's "only inspect currently-open tuples" property dominates.
pub const SWEEP_DUP_THRESHOLD_X100: u64 = 400;

/// What one hash-kernel invocation measured (mirrors [`SweepStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashStats {
    /// Inner tuples probed.
    pub probes: u64,
    /// Hash-equal candidate pairs tested (most fail the temporal
    /// predicate on duplicate-heavy data — the sweep's advantage).
    pub match_tests: u64,
    /// Result tuples emitted.
    pub pairs_emitted: u64,
    /// Key-equal pairs tested against a generalized predicate filter
    /// (zero for the natural join, which has no filter to run).
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
}

/// Run-level kernel accounting, folded across partitions and workers and
/// surfaced as the obs schema-v4 `kernel` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Partitions joined by the hash kernel.
    pub hash_partitions: u64,
    /// Partitions joined by the sweep kernel.
    pub sweep_partitions: u64,
    /// Hash-equal candidates the sweep inspected (all time-overlapping).
    pub sweep_comparisons: u64,
    /// Output batches handed over (one per non-trivial partition).
    pub batches_flushed: u64,
}

impl KernelCounters {
    /// Folds another worker's counters in.
    pub fn merge(&mut self, other: KernelCounters) {
        self.hash_partitions += other.hash_partitions;
        self.sweep_partitions += other.sweep_partitions;
        self.sweep_comparisons += other.sweep_comparisons;
        self.batches_flushed += other.batches_flushed;
    }
}

/// Run-level predicate-filter accounting, folded across partitions and
/// workers and surfaced as the obs schema-v6 `predicate` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateCounters {
    /// Key-equal pairs tested against the predicate filter (hash and
    /// sweep kernels).
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
    /// Hash-equal candidate pairs the merge fallback scanned.
    pub merge_pairs_scanned: u64,
    /// Pairs the merge fallback emitted.
    pub merge_pairs_emitted: u64,
}

impl PredicateCounters {
    /// Folds another worker's counters in.
    pub fn merge(&mut self, other: PredicateCounters) {
        self.filter_checks += other.filter_checks;
        self.filter_hits += other.filter_hits;
        self.merge_pairs_scanned += other.merge_pairs_scanned;
        self.merge_pairs_emitted += other.merge_pairs_emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{encode_pair, IdBatch};
    use crate::common::JoinSpec;
    use std::sync::Arc;
    use vtjoin_core::algebra::predicate_join;
    use vtjoin_core::{AttrDef, AttrType, Interval, JoinPredicate, Relation, Schema, Tuple, Value};

    fn pair(keys: i64, n: i64) -> (Relation, Relation) {
        let rs = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("b", AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let ss = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("c", AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let mk = |schema: Arc<Schema>| {
            let tuples = (0..n)
                .map(|i| {
                    Tuple::new(
                        vec![Value::Int(i % keys), Value::Int(i)],
                        Interval::from_raw(i, i + 10).unwrap(),
                    )
                })
                .collect();
            Relation::from_parts_unchecked(schema, tuples)
        };
        (mk(rs), mk(ss))
    }

    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    fn gate(choice: KernelChoice, r: &Relation, s: &Relation) -> KernelKind {
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let (rr, sr) = (all_rows(r.len()), all_rows(s.len()));
        choose_kernel_ids(choice, &enc.outer, &rr, &enc.inner, &sr)
    }

    /// Runs one kernel over whole relations and materializes its result.
    fn run_kernel(kind: KernelKind, pred: &JoinPredicate, r: &Relation, s: &Relation) -> Relation {
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let (rr, sr) = (all_rows(r.len()), all_rows(s.len()));
        let mut scratch = ColumnarScratch::default();
        let mut out = IdBatch::new();
        let (o, i) = (&enc.outer, &enc.inner);
        match kind {
            KernelKind::Hash => {
                columnar_hash_join(pred, o, &rr, i, &sr, Interval::ALL, &mut scratch, &mut out);
            }
            KernelKind::Sweep => {
                columnar_sweep_join(pred, o, &rr, i, &sr, Interval::ALL, &mut scratch, &mut out);
            }
        }
        let mut tuples = Vec::new();
        out.materialize_each(&spec, o, i, |t| tuples.push(t));
        Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), tuples)
    }

    #[test]
    fn gate_picks_sweep_on_duplicate_heavy_and_hash_on_unique() {
        let (r, s) = pair(4, 512);
        assert_eq!(gate(KernelChoice::Auto, &r, &s), KernelKind::Sweep);
        let (ru, su) = pair(100_000, 512);
        assert_eq!(gate(KernelChoice::Auto, &ru, &su), KernelKind::Hash);
    }

    #[test]
    fn forced_choices_override_the_gate() {
        let (r, s) = pair(4, 64);
        assert_eq!(gate(KernelChoice::Hash, &r, &s), KernelKind::Hash);
        assert_eq!(gate(KernelChoice::Sweep, &r, &s), KernelKind::Sweep);
    }

    #[test]
    fn choice_parses_and_round_trips() {
        for s in ["auto", "hash", "sweep"] {
            assert_eq!(KernelChoice::parse(s).unwrap().as_str(), s);
        }
        assert_eq!(KernelChoice::parse("nested-loop"), None);
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
    }

    #[test]
    fn both_kernels_match_the_oracle() {
        let (r, s) = pair(8, 200);
        for p in [
            "intersects",
            "overlaps",
            "during-or-starts-or-equals",
            "contains",
        ] {
            let pred: JoinPredicate = p.parse().unwrap();
            let want = predicate_join(&r, &s, &pred).unwrap();
            for kind in [KernelKind::Hash, KernelKind::Sweep] {
                let got = run_kernel(kind, &pred, &r, &s);
                assert!(got.multiset_eq(&want), "{p} ({kind:?})");
            }
        }
    }

    #[test]
    fn counters_merge() {
        let mut a = KernelCounters {
            hash_partitions: 1,
            sweep_partitions: 2,
            sweep_comparisons: 10,
            batches_flushed: 3,
        };
        a.merge(KernelCounters {
            hash_partitions: 4,
            sweep_partitions: 1,
            sweep_comparisons: 5,
            batches_flushed: 2,
        });
        assert_eq!(a.hash_partitions, 5);
        assert_eq!(a.sweep_partitions, 3);
        assert_eq!(a.sweep_comparisons, 15);
        assert_eq!(a.batches_flushed, 5);
    }
}
