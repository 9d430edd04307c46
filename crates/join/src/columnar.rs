//! Columnar (struct-of-arrays) join-side layout with late materialization.
//!
//! A row-oriented kernel walks `Tuple { Vec<Value>, Interval }` values:
//! every probe chases a pointer per tuple, every key test may fall through
//! to an O(width) `Vec<Value>` compare, and every emitted pair clones whole
//! value vectors *inside* the kernel loop. Piatov et al.
//! (*Cache-Efficient Sweeping-Based Interval Joins*, PAPERS.md) attribute
//! the sweep's advantage precisely to sequential, cache-resident layouts.
//! Every in-memory join path therefore runs on this layout:
//!
//! 1. **Struct-of-arrays encoding** ([`ColumnarSide`]): one pass per join
//!    side at partition/scatter time extracts flat `start[]`/`end[]`
//!    chronon columns, a pre-hashed 64-bit join-key column, and a
//!    dictionary-compressed `key_id[]` column ([`KeyDictionary`] interns
//!    each distinct join key once, shared by both sides, so the kernels'
//!    key test collapses to a `u32` compare — `Vec<Value>` payloads are
//!    never touched on the hot path, not even on hash collisions).
//! 2. **Index-permutation LSD radix sort** ([`radix_sort_pairs`]): the
//!    sweep's endpoint sort orders `(biased start, event index)` pairs
//!    with a stable byte-wise radix — no comparator at all — skipping
//!    passes whose byte is constant across the partition (real workloads
//!    cluster starts, so most of the 8 passes are skipped).
//! 3. **Late materialization** ([`IdBatch`]): kernels emit
//!    `(left row-id, right row-id)` pairs — the result timestamp is
//!    recomputed from the chronon columns at flush time; result tuples
//!    are spliced in a single pass per batch flush, after the emit filter
//!    and the Allen predicate filter have already run on inline chronons.
//!
//! The kernels live in [`crate::kernel::columnar`];
//! `tests/columnar_roundtrip.rs` pins their results against the algebra
//! oracles across predicates and executors.

use crate::common::JoinSpec;
use std::time::Instant;
use vtjoin_core::{Chronon, Interval, Tuple};

/// Best-effort read prefetch: a hint on x86_64, a no-op elsewhere. The
/// pointer is never dereferenced, so a stale hint is harmless.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a cache hint; it performs no memory
    // access observable by the program and is defined for any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Retired layout selector: every executor runs the columnar layout, so
/// this selects nothing. Kept only because the `perfbench` crate still
/// passes it to `vtjoin_engine::grid_execution_report_layout`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Layout;

/// One join side's struct-of-arrays encoding: parallel columns indexed by
/// **row id** (the tuple's position in encode order), plus the borrowed
/// tuples themselves for the late-materialization pass.
#[derive(Debug, Default)]
pub struct ColumnarSide<'a> {
    tuples: Vec<&'a Tuple>,
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
    key_ids: Vec<u32>,
}

impl<'a> ColumnarSide<'a> {
    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the side holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The borrowed tuple behind `row` (late materialization only — the
    /// kernels never call this).
    #[inline]
    pub fn tuple(&self, row: u32) -> &'a Tuple {
        self.tuples[row as usize]
    }

    /// Inclusive valid-start chronon of `row`.
    #[inline]
    pub fn start(&self, row: u32) -> Chronon {
        self.starts[row as usize]
    }

    /// Inclusive valid-end chronon of `row`.
    #[inline]
    pub fn end(&self, row: u32) -> Chronon {
        self.ends[row as usize]
    }

    /// Pre-computed 64-bit join-key hash of `row` (identical to
    /// [`JoinSpec::outer_key_hash`]/[`JoinSpec::inner_key_hash`]).
    #[inline]
    pub fn hash(&self, row: u32) -> u64 {
        self.hashes[row as usize]
    }

    /// Dictionary key id of `row`: two rows (either side) carry the same
    /// id iff their join keys are equal.
    #[inline]
    pub fn key_id(&self, row: u32) -> u32 {
        self.key_ids[row as usize]
    }

    /// The valid-time interval of `row`, rebuilt from the inline columns.
    #[inline]
    pub fn interval(&self, row: u32) -> Interval {
        Interval::new(self.start(row), self.end(row))
            .expect("columnar columns encode a valid interval")
    }
}

/// Interns distinct join keys across **both** sides of a join, assigning
/// each a dense `u32` id. Built once per encode; the kernels then test key
/// equality by id, so hash-equal-but-key-unequal collisions cost nothing
/// per probe (the one full compare happened at intern time).
///
/// The table is flat open-addressing with linear probing, sized by the
/// number of **distinct keys seen** (growing geometrically), not by the
/// tuple count: real join sides carry orders of magnitude more rows than
/// keys, so the hot table stays L1/L2-resident and each intern is one or
/// two contiguous slot reads — no per-bucket heap `Vec`s to chase.
#[derive(Debug)]
pub struct KeyDictionary<'a> {
    /// `(key hash, key id)` slots; `id == EMPTY` marks a free slot.
    /// Power-of-two length, rebuilt at 7/8 load.
    slots: Vec<(u64, u32)>,
    mask: usize,
    /// `key id → (representative tuple, representative is outer-side)`.
    reps: Vec<(&'a Tuple, bool)>,
}

impl<'a> KeyDictionary<'a> {
    const EMPTY: u32 = u32::MAX;
    const INITIAL_SLOTS: usize = 1024;

    fn with_capacity(_expected_rows: usize) -> KeyDictionary<'a> {
        KeyDictionary {
            slots: vec![(0, Self::EMPTY); Self::INITIAL_SLOTS],
            mask: Self::INITIAL_SLOTS - 1,
            reps: Vec::new(),
        }
    }

    /// Returns the key id for `t`'s join key, interning it if new.
    fn intern(&mut self, spec: &JoinSpec, t: &'a Tuple, outer: bool, hash: u64) -> u32 {
        let mut idx = (hash as usize) & self.mask;
        loop {
            let (h, id) = self.slots[idx];
            if id == Self::EMPTY {
                break;
            }
            if h == hash {
                let (rep, rep_outer) = self.reps[id as usize];
                if spec.sided_keys_equal(rep, rep_outer, t, outer) {
                    return id;
                }
            }
            idx = (idx + 1) & self.mask;
        }
        let id = u32::try_from(self.reps.len()).expect("dictionary exceeds u32 key ids");
        assert!(id != Self::EMPTY, "dictionary exceeds u32 key ids");
        self.reps.push((t, outer));
        self.slots[idx] = (hash, id);
        if self.reps.len() * 8 >= self.slots.len() * 7 {
            self.grow();
        }
        id
    }

    /// Doubles the slot array and re-seats every `(hash, id)` pair. Ids
    /// are untouched — only the probe layout changes.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, Self::EMPTY); new_len]);
        self.mask = new_len - 1;
        for (h, id) in old {
            if id == Self::EMPTY {
                continue;
            }
            let mut idx = (h as usize) & self.mask;
            while self.slots[idx].1 != Self::EMPTY {
                idx = (idx + 1) & self.mask;
            }
            self.slots[idx] = (h, id);
        }
    }

    fn len(&self) -> usize {
        self.reps.len()
    }
}

/// Both sides of a join encoded columnar, plus what the encode measured.
#[derive(Debug)]
pub struct ColumnarPair<'a> {
    /// The outer (left / `r`) side.
    pub outer: ColumnarSide<'a>,
    /// The inner (right / `s`) side.
    pub inner: ColumnarSide<'a>,
    /// Distinct join keys interned across both sides.
    pub dict_size: u64,
    /// Wall-clock microseconds the encode pass took (profiling only —
    /// never compared by the bench regression gate).
    pub encode_micros: u64,
}

/// Encodes both join sides in one pass each: extracts the chronon and
/// key-hash columns and interns every key in a shared [`KeyDictionary`].
/// Row ids are assigned in iteration order.
pub fn encode_pair<'a, R, S>(spec: &JoinSpec, r: R, s: S) -> ColumnarPair<'a>
where
    R: IntoIterator<Item = &'a Tuple>,
    S: IntoIterator<Item = &'a Tuple>,
{
    let t0 = Instant::now();
    let r = r.into_iter();
    let s = s.into_iter();
    let mut dict = KeyDictionary::with_capacity(r.size_hint().0 + s.size_hint().0);
    let outer = encode_side(spec, r, true, &mut dict);
    let inner = encode_side(spec, s, false, &mut dict);
    ColumnarPair {
        outer,
        inner,
        dict_size: dict.len() as u64,
        encode_micros: t0.elapsed().as_micros() as u64,
    }
}

fn encode_side<'a, I>(
    spec: &JoinSpec,
    tuples: I,
    outer: bool,
    dict: &mut KeyDictionary<'a>,
) -> ColumnarSide<'a>
where
    I: IntoIterator<Item = &'a Tuple>,
{
    let tuples = tuples.into_iter();
    let n = tuples.size_hint().0;
    let mut side = ColumnarSide {
        tuples: Vec::with_capacity(n),
        starts: Vec::with_capacity(n),
        ends: Vec::with_capacity(n),
        hashes: Vec::with_capacity(n),
        key_ids: Vec::with_capacity(n),
    };
    for t in tuples {
        let hash = if outer {
            spec.outer_key_hash(t)
        } else {
            spec.inner_key_hash(t)
        };
        side.tuples.push(t);
        side.starts.push(t.valid().start());
        side.ends.push(t.valid().end());
        side.hashes.push(hash);
        side.key_ids.push(dict.intern(spec, t, outer, hash));
    }
    assert!(
        side.tuples.len() <= u32::MAX as usize,
        "columnar row ids are u32"
    );
    side
}

/// Maps a chronon to a `u64` whose unsigned byte-wise order equals the
/// signed chronon order (flip the sign bit) — the radix-sort key.
#[inline]
pub fn biased_chronon(c: Chronon) -> u64 {
    (c.value() as u64) ^ (1u64 << 63)
}

/// Stable LSD radix sort of `(biased key, payload)` pairs by key, least
/// significant byte first, ping-ponging through `tmp`. Passes whose byte
/// is constant across all keys are skipped (clustered workloads
/// concentrate starts in a narrow band, so high bytes rarely vary).
/// Returns the number of counting passes actually executed.
///
/// Stability is what makes this a drop-in replacement for the row sweep's
/// `sort_unstable_by_key(|e| (e.start, e.idx))`: pairs are pushed in
/// ascending payload order, and a stable sort preserves that order within
/// equal keys, so the result is exactly the `(start, idx)` total order.
pub fn radix_sort_pairs(pairs: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>) -> u64 {
    let n = pairs.len();
    if n <= 1 {
        return 0;
    }
    let mut passes = 0u64;
    for byte in 0..8u32 {
        let shift = byte * 8;
        let mut counts = [0usize; 256];
        for &(k, _) in pairs.iter() {
            counts[((k >> shift) & 0xff) as usize] += 1;
        }
        // All keys share this byte: the pass would be the identity.
        if counts.contains(&n) {
            continue;
        }
        passes += 1;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        tmp.clear();
        tmp.resize(n, (0, 0));
        for &(k, v) in pairs.iter() {
            let d = ((k >> shift) & 0xff) as usize;
            tmp[offsets[d]] = (k, v);
            offsets[d] += 1;
        }
        std::mem::swap(pairs, tmp);
    }
    passes
}

/// A batch of joined row-id pairs, mirroring
/// [`crate::kernel::OutputBatch`]'s begin/emit/flush life-cycle but
/// deferring tuple construction to one [`IdBatch::materialize_each`] pass
/// per flush — the kernels allocate nothing per match.
#[derive(Debug, Default)]
pub struct IdBatch {
    /// `(outer row, inner row)` pairs. The result timestamp is **not**
    /// buffered: every batched kernel emits the overlap of the pair's
    /// valid times (intersection-template predicates stamp the overlap
    /// too), so materialization recomputes it from the chronon columns —
    /// 8 bytes buffered per match instead of 24.
    pairs: Vec<(u32, u32)>,
    batches_flushed: u64,
    total_emitted: u64,
}

impl IdBatch {
    /// An empty batch; nothing is allocated until [`IdBatch::begin`].
    pub fn new() -> IdBatch {
        IdBatch::default()
    }

    /// Starts a new partition's output, reserving room for `estimate`
    /// pairs (grow-only, like `OutputBatch::begin`).
    pub fn begin(&mut self, estimate: usize) {
        debug_assert!(self.pairs.is_empty(), "begin over an unflushed batch");
        if self.pairs.capacity() < estimate {
            self.pairs.reserve_exact(estimate - self.pairs.len());
        }
    }

    /// Appends one matched pair: outer row, inner row.
    #[inline]
    pub fn emit(&mut self, outer_row: u32, inner_row: u32) {
        self.pairs.push((outer_row, inner_row));
        self.total_emitted += 1;
    }

    /// Pairs currently buffered.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the batch holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The late-materialization pass: splices one result tuple per
    /// buffered pair, in emission order, handing each to `f`; keeps the
    /// pair chunk's allocation for the next partition and counts one
    /// flush. The result timestamp is the overlap of the pair's valid
    /// times, re-read from the inline chronon columns. Returns the number
    /// of rows materialized.
    ///
    /// The kernels never touch tuple storage, so this pass visits tuples
    /// cold, in row-id order dictated by the emission stream. The batch
    /// knows every upcoming (outer, inner) pair, so it software-prefetches
    /// two stages ahead: the `Tuple` structs far out, their value arrays
    /// close in (reading the values pointer needs the struct, which the
    /// far prefetch made warm by then).
    pub fn materialize_each(
        &mut self,
        spec: &JoinSpec,
        outer: &ColumnarSide<'_>,
        inner: &ColumnarSide<'_>,
        mut f: impl FnMut(Tuple),
    ) -> u64 {
        const PF_STRUCT: usize = 16;
        const PF_VALUES: usize = 4;
        self.batches_flushed += 1;
        let n = self.pairs.len() as u64;
        for i in 0..self.pairs.len() {
            if let Some(&(l, r)) = self.pairs.get(i + PF_STRUCT) {
                prefetch_read(outer.tuple(l) as *const Tuple);
                prefetch_read(inner.tuple(r) as *const Tuple);
                prefetch_read(&outer.starts[l as usize] as *const Chronon);
                prefetch_read(&outer.ends[l as usize] as *const Chronon);
                prefetch_read(&inner.starts[r as usize] as *const Chronon);
                prefetch_read(&inner.ends[r as usize] as *const Chronon);
            }
            if let Some(&(l, r)) = self.pairs.get(i + PF_VALUES) {
                prefetch_read(outer.tuple(l).values().as_ptr());
                prefetch_read(inner.tuple(r).values().as_ptr());
            }
            let (l, r) = self.pairs[i];
            let stamp = Interval::new(
                outer.start(l).max(inner.start(r)),
                outer.end(l).min(inner.end(r)),
            )
            .expect("emitted pairs overlap in valid time");
            f(spec.splice(outer.tuple(l), inner.tuple(r), stamp));
        }
        self.pairs.clear();
        n
    }

    /// Number of times the batch was handed over (once per partition).
    pub fn batches_flushed(&self) -> u64 {
        self.batches_flushed
    }

    /// Pairs emitted over the batch's whole lifetime.
    pub fn total_emitted(&self) -> u64 {
        self.total_emitted
    }
}

/// Run-level columnar-path accounting, folded across workers and surfaced
/// as the obs schema-v9 `columnar` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnarCounters {
    /// Wall-clock microseconds spent encoding sides (profiling only).
    pub encode_micros: u64,
    /// Radix counting passes actually executed (skipped constant-byte
    /// passes are not counted).
    pub radix_passes: u64,
    /// Distinct join keys interned in the shared dictionary.
    pub dict_size: u64,
    /// Result tuples constructed by late materialization.
    pub materialized_rows: u64,
}

impl ColumnarCounters {
    /// Folds another worker's counters in. `dict_size` is a property of
    /// the shared encode, not a per-worker tally, so it takes the max.
    pub fn merge(&mut self, other: ColumnarCounters) {
        self.encode_micros += other.encode_micros;
        self.radix_passes += other.radix_passes;
        self.dict_size = self.dict_size.max(other.dict_size);
        self.materialized_rows += other.materialized_rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Value};

    fn schemas() -> (Arc<Schema>, Arc<Schema>) {
        (
            Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new("b", AttrType::Int),
            ])
            .unwrap()
            .into_shared(),
            Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new("c", AttrType::Int),
            ])
            .unwrap()
            .into_shared(),
        )
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

    #[test]
    fn encode_extracts_columns_and_shares_key_ids_across_sides() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 10, 0, 5), (2, 11, 3, 9), (1, 12, 7, 8)]);
        let s = rel(ss, &[(2, 20, 0, 1), (3, 21, 2, 4), (1, 22, 5, 6)]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let pair = encode_pair(&spec, r.iter(), s.iter());

        assert_eq!(pair.outer.len(), 3);
        assert_eq!(pair.inner.len(), 3);
        assert_eq!(pair.dict_size, 3); // keys {1, 2, 3}
        assert_eq!(pair.outer.start(0), Chronon::new(0));
        assert_eq!(pair.outer.end(1), Chronon::new(9));
        assert_eq!(pair.outer.interval(2), Interval::from_raw(7, 8).unwrap());
        // Key 1 appears at outer rows 0, 2 and inner row 2 — one id.
        assert_eq!(pair.outer.key_id(0), pair.outer.key_id(2));
        assert_eq!(pair.outer.key_id(0), pair.inner.key_id(2));
        // Key 2: outer row 1 ≡ inner row 0; distinct from key 1.
        assert_eq!(pair.outer.key_id(1), pair.inner.key_id(0));
        assert_ne!(pair.outer.key_id(0), pair.outer.key_id(1));
        // Hash column matches the spec's per-side hash.
        for (i, t) in r.iter().enumerate() {
            assert_eq!(pair.outer.hash(i as u32), spec.outer_key_hash(t));
        }
        for (i, t) in s.iter().enumerate() {
            assert_eq!(pair.inner.hash(i as u32), spec.inner_key_hash(t));
        }
    }

    #[test]
    fn key_ids_agree_with_keys_equal_exactly() {
        let (rs, ss) = schemas();
        let r = rel(rs, &(0..64).map(|i| (i % 5, i, 0, 1)).collect::<Vec<_>>());
        let s = rel(ss, &(0..64).map(|i| (i % 7, i, 0, 1)).collect::<Vec<_>>());
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let pair = encode_pair(&spec, r.iter(), s.iter());
        let rt: Vec<&Tuple> = r.iter().collect();
        let st: Vec<&Tuple> = s.iter().collect();
        for (i, x) in rt.iter().enumerate() {
            for (j, y) in st.iter().enumerate() {
                assert_eq!(
                    pair.outer.key_id(i as u32) == pair.inner.key_id(j as u32),
                    spec.keys_equal(x, y),
                    "rows {i},{j}"
                );
            }
        }
    }

    #[test]
    fn radix_sort_orders_and_is_stable() {
        let keys: Vec<i64> = vec![5, -3, 5, 0, i64::MAX, i64::MIN, 5, -3];
        let mut pairs: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (biased_chronon(Chronon::new(k)), i as u32))
            .collect();
        let mut tmp = Vec::new();
        radix_sort_pairs(&mut pairs, &mut tmp);
        let mut expect: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (biased_chronon(Chronon::new(k)), i as u32))
            .collect();
        expect.sort_by_key(|&(k, i)| (k, i)); // stable ≡ sort by (key, idx)
        assert_eq!(pairs, expect);
    }

    #[test]
    fn radix_skips_constant_byte_passes() {
        // Keys within one byte of each other: 7 of 8 passes skip.
        let mut pairs: Vec<(u64, u32)> = (0..100u32)
            .map(|i| (biased_chronon(Chronon::new((i % 17) as i64)), i))
            .collect();
        let mut tmp = Vec::new();
        let passes = radix_sort_pairs(&mut pairs, &mut tmp);
        assert_eq!(passes, 1);
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
        // Fully constant keys: zero passes, order untouched.
        let mut same: Vec<(u64, u32)> = (0..10u32).map(|i| (42, i)).collect();
        assert_eq!(radix_sort_pairs(&mut same, &mut tmp), 0);
        assert!(same.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn id_batch_materializes_in_emission_order() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 10, 0, 5), (1, 11, 2, 9)]);
        let s = rel(ss, &[(1, 20, 1, 3)]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let pair = encode_pair(&spec, r.iter(), s.iter());
        let mut b = IdBatch::new();
        b.begin(4);
        b.emit(1, 0);
        b.emit(0, 0);
        let mut got = Vec::new();
        let n = b.materialize_each(&spec, &pair.outer, &pair.inner, |t| got.push(t));
        assert_eq!(n, 2);
        assert_eq!(b.batches_flushed(), 1);
        assert_eq!(b.total_emitted(), 2);
        assert!(b.is_empty());
        assert_eq!(
            got[0].values(),
            &[Value::Int(1), Value::Int(11), Value::Int(20)]
        );
        // The stamp is recomputed as the valid-time overlap:
        // [2,9] ∩ [1,3] = [2,3], [0,5] ∩ [1,3] = [1,3].
        assert_eq!(got[0].valid(), Interval::from_raw(2, 3).unwrap());
        assert_eq!(
            got[1].values(),
            &[Value::Int(1), Value::Int(10), Value::Int(20)]
        );
        assert_eq!(got[1].valid(), Interval::from_raw(1, 3).unwrap());
    }

    #[test]
    fn counters_merge_sums_and_maxes() {
        let mut a = ColumnarCounters {
            encode_micros: 10,
            radix_passes: 2,
            dict_size: 100,
            materialized_rows: 7,
        };
        a.merge(ColumnarCounters {
            encode_micros: 5,
            radix_passes: 3,
            dict_size: 40,
            materialized_rows: 2,
        });
        assert_eq!(a.encode_micros, 15);
        assert_eq!(a.radix_passes, 5);
        assert_eq!(a.dict_size, 100);
        assert_eq!(a.materialized_rows, 9);
    }
}
