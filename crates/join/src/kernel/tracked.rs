//! Dangling-fragment-tracking extension of the forward-sweep kernel.
//!
//! The outer/semi/anti/full operators need, beyond the matched pairs,
//! each tuple's **dangling window**: the sub-intervals of its valid time
//! covered by *no* matching partner. This sweep discovers the same
//! key-equal overlapping pairs as `sweep.rs`, but keeps a per-entry
//! **coverage frontier** — the earliest chronon of the tuple's
//! (window-clipped) interval not yet known to be matched — and emits an
//! unmatched fragment whenever a match arrives strictly past the
//! frontier, when an entry expires from its active list, and for the
//! survivors at end of sweep.
//!
//! The frontier trick relies on an ordering invariant of the sweep: the
//! coverage intervals reaching one entry have **non-decreasing starts**.
//! A stored entry is only covered by later arrivals (whose starts are the
//! sweep order), and an arriving tuple's own probe covers it at
//! `max(own start, window start)` for every live partner found. So a gap
//! `[frontier, coverage.start - 1]` is maximal the moment it is
//! observed — no later match can reach back into it.
//!
//! ## Exactly-once across partitions
//!
//! Pairs follow the canonical-partition rule (emitted only where the
//! overlap *ends*, `emit_within.contains_chronon(end)`), exactly as the
//! untracked kernels. Fragments use a different rule: every cell clips
//! coverage *and* fragments to its own `emit_within` window, and a tuple
//! replicated into several cells reports fragments from each — the
//! windows are disjoint, so the fragments are exactly-once by
//! construction, and the gather phase stitches fragments that abut at a
//! partition boundary back together (`Period::insert` merges adjacent
//! intervals). See `docs/OPERATORS.md`.
//!
//! Unlike the untracked sweep, entries are inserted into their active
//! list even when the other side's events are exhausted: an entry that
//! could never match again still owes its trailing dangling fragment at
//! the end-of-sweep drain.

use vtjoin_core::{Chronon, Interval, JoinPredicate, Operator};

/// One side of a tracked sweep, as parallel columns over local rows.
/// `ids` carries caller-chosen (typically relation-global) tuple ids so
/// fragments from different cells can be stitched per tuple; the
/// remaining columns are the interval endpoints and the join-key hash.
/// The operator executor gathers them per cell from a `ColumnarSide`.
#[derive(Debug, Clone, Copy)]
pub struct TrackedInput<'a> {
    /// Caller-chosen tuple id per local row.
    pub ids: &'a [u32],
    /// Interval start per local row.
    pub starts: &'a [Chronon],
    /// Interval end per local row.
    pub ends: &'a [Chronon],
    /// Join-key hash per local row.
    pub hashes: &'a [u64],
}

impl TrackedInput<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }
}

/// An unmatched sub-interval of one tuple, clipped to the emitting
/// cell's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// The dangling tuple's caller-chosen id.
    pub id: u32,
    /// The unmatched sub-interval.
    pub iv: Interval,
}

/// Where one tracked sweep logs its discoveries. Pairs are `(outer id,
/// inner id)`; fragment vectors fill only for the sides the operator
/// tracks. The log is append-only so one worker can run many cells into
/// the same allocation.
#[derive(Debug, Default)]
pub struct OperatorLog {
    /// Matched pairs under the canonical-partition rule (empty unless
    /// [`Operator::needs_pairs`]).
    pub pairs: Vec<(u32, u32)>,
    /// Outer-side dangling fragments (filled iff [`Operator::tracks_outer`]).
    pub outer_frags: Vec<Fragment>,
    /// Inner-side dangling fragments (filled iff [`Operator::tracks_inner`]).
    pub inner_frags: Vec<Fragment>,
}

impl OperatorLog {
    /// Drops all logged output, keeping allocations.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.outer_frags.clear();
        self.inner_frags.clear();
    }
}

/// What one tracked sweep measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackedStats {
    /// Hash-equal candidates inspected.
    pub comparisons: u64,
    /// Pairs logged (canonical cells only).
    pub pairs_logged: u64,
    /// Outer-side fragments emitted (before gather-phase stitching).
    pub outer_fragments: u64,
    /// Inner-side fragments emitted (before gather-phase stitching).
    pub inner_fragments: u64,
    /// Key-equal pairs tested against a generalized predicate filter.
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
}

impl TrackedStats {
    /// Accumulates another sweep's stats (for per-worker totals).
    pub fn merge(&mut self, o: &TrackedStats) {
        self.comparisons += o.comparisons;
        self.pairs_logged += o.pairs_logged;
        self.outer_fragments += o.outer_fragments;
        self.inner_fragments += o.inner_fragments;
        self.filter_checks += o.filter_checks;
        self.filter_hits += o.filter_hits;
    }
}

/// A currently-open tuple with its coverage frontier.
#[derive(Debug, Clone, Copy)]
struct TrackedEntry {
    hash: u64,
    end: Chronon,
    idx: u32,
    /// Earliest chronon of the window-clipped interval not yet covered.
    next: Chronon,
    /// The window-clipped interval is fully covered; no fragments remain.
    done: bool,
}

/// Gapless hash-bucketed active lists, as in `sweep.rs`, but with
/// mutable entries (the frontier advances in place) and an expiry
/// callback so a removed entry can surrender its trailing fragment.
#[derive(Debug, Default)]
struct TrackedActive {
    buckets: Vec<Vec<TrackedEntry>>,
    mask: usize,
}

impl TrackedActive {
    fn reset(&mut self, expected: usize) {
        let want = expected.max(1).next_power_of_two();
        if want > self.buckets.len() {
            self.buckets.resize_with(want, Vec::new);
        }
        for b in &mut self.buckets {
            b.clear();
        }
        // Pure function of this cell's size — see sweep.rs on why the
        // mask must not depend on scratch history.
        self.mask = want - 1;
    }

    #[inline]
    fn insert(&mut self, e: TrackedEntry) {
        self.buckets[(e.hash as usize) & self.mask].push(e);
    }

    /// Visits live hash-equal entries mutably; expired entries (any hash
    /// — expiry is a property of the entry alone) are swap-removed and
    /// pushed onto `expired` so the caller can emit their trailing
    /// fragments after the probe. Returns hash-equal candidates
    /// inspected.
    #[inline]
    fn probe(
        &mut self,
        hash: u64,
        alive_from: Chronon,
        expired: &mut Vec<TrackedEntry>,
        mut on_live: impl FnMut(&mut TrackedEntry),
    ) -> u64 {
        let bucket = &mut self.buckets[(hash as usize) & self.mask];
        let mut inspected = 0u64;
        let mut k = 0;
        while k < bucket.len() {
            if bucket[k].end < alive_from {
                expired.push(bucket.swap_remove(k));
                continue;
            }
            if bucket[k].hash == hash {
                inspected += 1;
                on_live(&mut bucket[k]);
            }
            k += 1;
        }
        inspected
    }

    /// Visits every remaining entry (the end-of-sweep drain).
    fn drain(&mut self, mut f: impl FnMut(&TrackedEntry)) {
        for b in &mut self.buckets {
            for e in b.drain(..) {
                f(&e);
            }
        }
    }
}

/// Reusable per-worker tracked-sweep state.
#[derive(Debug, Default)]
pub struct TrackedScratch {
    r_order: Vec<u32>,
    s_order: Vec<u32>,
    r_active: TrackedActive,
    s_active: TrackedActive,
    expired: Vec<TrackedEntry>,
}

/// A fresh entry for an arriving tuple: frontier at the start of the
/// window-clipped interval, already done if the interval misses the
/// window entirely (possible for pairs-only cells of an untracked side).
#[inline]
fn fresh_entry(
    hash: u64,
    idx: u32,
    start: Chronon,
    end: Chronon,
    window: Interval,
) -> TrackedEntry {
    let next = start.max(window.start());
    TrackedEntry {
        hash,
        end,
        idx,
        next,
        done: next > end.min(window.end()),
    }
}

/// Advances `e`'s frontier over a coverage interval (already clipped to
/// the cell window), emitting the gap fragment it skips, if any.
#[inline]
fn cover(
    e: &mut TrackedEntry,
    cov: Interval,
    window_end: Chronon,
    id: u32,
    frags: &mut Vec<Fragment>,
    emitted: &mut u64,
) {
    if e.done {
        return;
    }
    if cov.start() > e.next {
        // Coverage starts are non-decreasing per entry (module docs), so
        // this gap is final.
        let gap = Interval::new(e.next, cov.start().pred()).expect("gap is non-empty");
        frags.push(Fragment { id, iv: gap });
        *emitted += 1;
    }
    let clip_end = e.end.min(window_end);
    if cov.end() >= clip_end {
        e.done = true;
    } else {
        e.next = e.next.max(cov.end().succ());
    }
}

/// Emits `e`'s trailing fragment `[frontier, clipped end]` on expiry or
/// drain.
#[inline]
fn finish(
    e: &TrackedEntry,
    window_end: Chronon,
    id: u32,
    frags: &mut Vec<Fragment>,
    emitted: &mut u64,
) {
    if e.done {
        return;
    }
    let clip_end = e.end.min(window_end);
    if e.next <= clip_end {
        let tail = Interval::new(e.next, clip_end).expect("tail is non-empty");
        frags.push(Fragment { id, iv: tail });
        *emitted += 1;
    }
}

/// Runs one cell's tracked sweep.
///
/// `keys_equal(outer_local, inner_local)` resolves hash collisions; only
/// intersection-template predicates may be passed (as for
/// `columnar_sweep_join` — sequence/mixed predicates cannot run on an
/// overlap sweep). Pairs obey the canonical-partition `emit_within`
/// rule; coverage and fragments are clipped to `emit_within`, which for
/// the inner (key-bucketed) dimension of a grid is sound because
/// key-equal tuples always land in the same bucket, so each cell sees
/// its window's *entire* coverage.
#[allow(clippy::too_many_arguments)]
pub fn tracked_sweep(
    op: &Operator,
    pred: Option<&JoinPredicate>,
    outer: TrackedInput<'_>,
    inner: TrackedInput<'_>,
    emit_within: Interval,
    mut keys_equal: impl FnMut(usize, usize) -> bool,
    scratch: &mut TrackedScratch,
    log: &mut OperatorLog,
) -> TrackedStats {
    debug_assert!(
        pred.is_none_or(|p| p.partitioning_eligible()),
        "tracked_sweep requires an intersection-template predicate"
    );
    let (need_pairs, track_outer, track_inner) =
        (op.needs_pairs(), op.tracks_outer(), op.tracks_inner());
    let TrackedScratch {
        r_order,
        s_order,
        r_active,
        s_active,
        expired,
    } = scratch;
    expired.clear();

    r_order.clear();
    r_order.extend(0..outer.len() as u32);
    r_order.sort_unstable_by_key(|&i| (outer.starts[i as usize], i));
    s_order.clear();
    s_order.extend(0..inner.len() as u32);
    s_order.sort_unstable_by_key(|&i| (inner.starts[i as usize], i));

    r_active.reset(outer.len());
    s_active.reset(inner.len());

    let win_end = emit_within.end();
    let mut stats = TrackedStats::default();
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < r_order.len() || bi < s_order.len() {
        // Outer first on start ties, as in the untracked sweep.
        let take_r = bi >= s_order.len()
            || (ai < r_order.len()
                && outer.starts[r_order[ai] as usize] <= inner.starts[s_order[bi] as usize]);
        if take_r {
            let xi = r_order[ai] as usize;
            ai += 1;
            let (x_start, x_end) = (outer.starts[xi], outer.ends[xi]);
            let x_iv = Interval::new(x_start, x_end).expect("input interval is valid");
            let mut me = fresh_entry(outer.hashes[xi], xi as u32, x_start, x_end, emit_within);
            stats.comparisons += s_active.probe(outer.hashes[xi], x_start, expired, |ye| {
                let yi = ye.idx as usize;
                if !keys_equal(xi, yi) {
                    return;
                }
                if let Some(p) = pred {
                    stats.filter_checks += 1;
                    let y_iv = Interval::new(inner.starts[yi], inner.ends[yi])
                        .expect("input interval is valid");
                    if !p.matches(x_iv, y_iv) {
                        return;
                    }
                    stats.filter_hits += 1;
                }
                // Live entries started no later: overlap is
                // [x_start, min(ends)].
                let end = x_end.min(ye.end);
                if need_pairs && emit_within.contains_chronon(end) {
                    log.pairs.push((outer.ids[xi], inner.ids[yi]));
                    stats.pairs_logged += 1;
                }
                if let Some(cov) = Interval::new(x_start, end)
                    .ok()
                    .and_then(|o| o.overlap(emit_within))
                {
                    if track_outer {
                        cover(
                            &mut me,
                            cov,
                            win_end,
                            outer.ids[xi],
                            &mut log.outer_frags,
                            &mut stats.outer_fragments,
                        );
                    }
                    if track_inner {
                        cover(
                            ye,
                            cov,
                            win_end,
                            inner.ids[yi],
                            &mut log.inner_frags,
                            &mut stats.inner_fragments,
                        );
                    }
                }
            });
            if track_inner {
                for gone in expired.drain(..) {
                    finish(
                        &gone,
                        win_end,
                        inner.ids[gone.idx as usize],
                        &mut log.inner_frags,
                        &mut stats.inner_fragments,
                    );
                }
            } else {
                expired.clear();
            }
            r_active.insert(me);
        } else {
            let yi = s_order[bi] as usize;
            bi += 1;
            let (y_start, y_end) = (inner.starts[yi], inner.ends[yi]);
            let y_iv = Interval::new(y_start, y_end).expect("input interval is valid");
            let mut me = fresh_entry(inner.hashes[yi], yi as u32, y_start, y_end, emit_within);
            stats.comparisons += r_active.probe(inner.hashes[yi], y_start, expired, |xe| {
                let xi = xe.idx as usize;
                if !keys_equal(xi, yi) {
                    return;
                }
                if let Some(p) = pred {
                    stats.filter_checks += 1;
                    let x_iv = Interval::new(outer.starts[xi], outer.ends[xi])
                        .expect("input interval is valid");
                    if !p.matches(x_iv, y_iv) {
                        return;
                    }
                    stats.filter_hits += 1;
                }
                let end = y_end.min(xe.end);
                if need_pairs && emit_within.contains_chronon(end) {
                    log.pairs.push((outer.ids[xi], inner.ids[yi]));
                    stats.pairs_logged += 1;
                }
                if let Some(cov) = Interval::new(y_start, end)
                    .ok()
                    .and_then(|o| o.overlap(emit_within))
                {
                    if track_outer {
                        cover(
                            xe,
                            cov,
                            win_end,
                            outer.ids[xi],
                            &mut log.outer_frags,
                            &mut stats.outer_fragments,
                        );
                    }
                    if track_inner {
                        cover(
                            &mut me,
                            cov,
                            win_end,
                            inner.ids[yi],
                            &mut log.inner_frags,
                            &mut stats.inner_fragments,
                        );
                    }
                }
            });
            if track_outer {
                for gone in expired.drain(..) {
                    finish(
                        &gone,
                        win_end,
                        outer.ids[gone.idx as usize],
                        &mut log.outer_frags,
                        &mut stats.outer_fragments,
                    );
                }
            } else {
                expired.clear();
            }
            s_active.insert(me);
        }
    }
    if track_outer {
        r_active.drain(|e| {
            finish(
                e,
                win_end,
                outer.ids[e.idx as usize],
                &mut log.outer_frags,
                &mut stats.outer_fragments,
            );
        });
    }
    if track_inner {
        s_active.drain(|e| {
            finish(
                e,
                win_end,
                inner.ids[e.idx as usize],
                &mut log.inner_frags,
                &mut stats.inner_fragments,
            );
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(rows: &[(i64, i64, u64)]) -> (Vec<u32>, Vec<Chronon>, Vec<Chronon>, Vec<u64>) {
        let ids = (0..rows.len() as u32).collect();
        let starts = rows.iter().map(|&(s, _, _)| Chronon::new(s)).collect();
        let ends = rows.iter().map(|&(_, e, _)| Chronon::new(e)).collect();
        let hashes = rows.iter().map(|&(_, _, h)| h).collect();
        (ids, starts, ends, hashes)
    }

    fn run(
        op: &Operator,
        r: &[(i64, i64, u64)],
        s: &[(i64, i64, u64)],
        window: Interval,
    ) -> OperatorLog {
        let (ri, rs, re, rh) = side(r);
        let (si, ss, se, sh) = side(s);
        let outer = TrackedInput {
            ids: &ri,
            starts: &rs,
            ends: &re,
            hashes: &rh,
        };
        let inner = TrackedInput {
            ids: &si,
            starts: &ss,
            ends: &se,
            hashes: &sh,
        };
        let mut log = OperatorLog::default();
        let mut scratch = TrackedScratch::default();
        tracked_sweep(
            op,
            None,
            outer,
            inner,
            window,
            |xi, yi| r[xi].2 == s[yi].2,
            &mut scratch,
            &mut log,
        );
        log.outer_frags.sort_by_key(|f| (f.id, f.iv.start()));
        log.inner_frags.sort_by_key(|f| (f.id, f.iv.start()));
        log.pairs.sort_unstable();
        log
    }

    fn iv(s: i64, e: i64) -> Interval {
        Interval::from_raw(s, e).unwrap()
    }

    #[test]
    fn gap_and_tail_fragments_of_a_long_tuple() {
        // x [0,20] matched on [2,4] and [10,12]: dangling [0,1], [5,9],
        // [13,20].
        let log = run(
            &Operator::Left,
            &[(0, 20, 7)],
            &[(2, 4, 7), (10, 12, 7)],
            Interval::ALL,
        );
        assert_eq!(log.pairs, vec![(0, 0), (0, 1)]);
        let frags: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(frags, vec![iv(0, 1), iv(5, 9), iv(13, 20)]);
        assert!(log.inner_frags.is_empty());
    }

    #[test]
    fn full_tracks_both_sides() {
        let log = run(&Operator::Full, &[(0, 10, 7)], &[(5, 15, 7)], Interval::ALL);
        assert_eq!(log.pairs, vec![(0, 0)]);
        let of: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        let inf: Vec<Interval> = log.inner_frags.iter().map(|f| f.iv).collect();
        assert_eq!(of, vec![iv(0, 4)]);
        assert_eq!(inf, vec![iv(11, 15)]);
    }

    #[test]
    fn semi_logs_no_pairs_but_tracks_outer() {
        let log = run(&Operator::Semi, &[(0, 10, 7)], &[(3, 5, 7)], Interval::ALL);
        assert!(log.pairs.is_empty());
        let of: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(of, vec![iv(0, 2), iv(6, 10)]);
    }

    #[test]
    fn key_mismatch_leaves_whole_tuple_dangling() {
        let log = run(&Operator::Left, &[(0, 5, 1)], &[(0, 5, 2)], Interval::ALL);
        assert!(log.pairs.is_empty());
        let of: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(of, vec![iv(0, 5)]);
    }

    #[test]
    fn window_split_fragments_are_exactly_once_and_stitchable() {
        // One tuple [0,20], match on [8,12]; split time at 10: each cell
        // clips its coverage and fragments to its own window; the union
        // of the two cells' fragments is the global dangling set, with
        // [13,20] whole in the second window and [0,7] whole in the
        // first.
        let w1 = iv(0, 10);
        let w2 = Interval::new(Chronon::new(11), Chronon::MAX).unwrap();
        let r = [(0i64, 20i64, 7u64)];
        let s = [(8i64, 12i64, 7u64)];
        let a = run(&Operator::Left, &r, &s, w1);
        let b = run(&Operator::Left, &r, &s, w2);
        // Pair overlap ends at 12 → canonical in w2 only.
        assert!(a.pairs.is_empty());
        assert_eq!(b.pairs, vec![(0, 0)]);
        let fa: Vec<Interval> = a.outer_frags.iter().map(|f| f.iv).collect();
        let fb: Vec<Interval> = b.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(fa, vec![iv(0, 7)]);
        assert_eq!(fb, vec![iv(13, 20)]);
    }

    #[test]
    fn boundary_abutting_fragments_stitch_across_windows() {
        // No matches at all: tuple [0,20] split at 10 yields [0,10] and
        // [11,20] — adjacent, so a Period::insert stitches them back.
        let w1 = iv(0, 10);
        let w2 = Interval::new(Chronon::new(11), Chronon::MAX).unwrap();
        let r = [(0i64, 20i64, 7u64)];
        let a = run(&Operator::Anti, &r, &[], w1);
        let b = run(&Operator::Anti, &r, &[], w2);
        let mut period = vtjoin_core::Period::new();
        for f in a.outer_frags.iter().chain(&b.outer_frags) {
            period.insert(f.iv);
        }
        assert_eq!(period.intervals(), &[iv(0, 20)]);
    }

    #[test]
    fn equal_start_coverage_counts_once_per_partner() {
        // Both sides arrive at 0; outer-first tie order still covers the
        // outer tuple fully (inner probes the already-inserted outer).
        let log = run(&Operator::Full, &[(0, 5, 7)], &[(0, 5, 7)], Interval::ALL);
        assert_eq!(log.pairs, vec![(0, 0)]);
        assert!(log.outer_frags.is_empty());
        assert!(log.inner_frags.is_empty());
    }
}
