//! Joining the partitioned relations (procedure `joinPartitions`,
//! Figure 9 / §3.3 and Appendix A.1).
//!
//! Partitions are processed from the **last** (`pₙ`) to the **first**
//! (`p₁`). Per partition `pᵢ`:
//!
//! 1. outer tuples that do not overlap `pᵢ` are purged from the in-memory
//!    outer buffer, and the stored partition `rᵢ` is read in;
//! 2. the outer buffer is joined against the in-memory tuple-cache page
//!    left by the previous iteration, whose still-live tuples migrate to
//!    the new cache;
//! 3. each **flushed** tuple-cache page is read back, joined, and its live
//!    tuples migrate to the new cache;
//! 4. each page of `sᵢ` is read, joined, and its tuples overlapping `pᵢ₋₁`
//!    migrate to the new cache.
//!
//! **Emission rule.** A matching pair may be co-present in *every*
//! partition their overlap spans (the outer tuple retained, the inner
//! cached). Figure 9 does not address the resulting duplicates; this
//! implementation emits a pair exactly in the partition containing the
//! **end of the overlap interval** — both tuples are provably present
//! there, and in no other partition is the rule satisfied. See DESIGN.md.
//!
//! **Overflow.** When the outer buffer exceeds its share (a sampling-error
//! event the paper tolerates: "only performance will suffer"), the outer
//! block is split into chunks and the inner inputs are re-scanned per
//! extra chunk — a block-nested-loop fallback whose extra I/O is the
//! "buffer thrashing" cost.

use super::intervals::is_partitioning;
use crate::columnar::{encode_pair, ColumnarCounters, IdBatch};
use crate::common::{CpuCounters, JoinError, JoinSpec, Result, ResultSink};
use crate::kernel::{columnar_hash_join, ColumnarScratch, OutputBatch};
use vtjoin_core::{Interval, JoinPredicate, Tuple};
use vtjoin_storage::{codec, FileHandle, HeapFile, PageBuf};

/// The Figure 3 buffer split, derived in exactly one place so the
/// executor, the planner, and the report renderer cannot drift (they
/// previously each hand-computed it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferLayout {
    /// Pages taken for the cache write-combining buffer.
    pub write_batch: u64,
    /// Pages left after the inner, cache, and result pages plus the write
    /// batch — the planner's `buffSize` (outer area before reservations).
    pub sizing_area: u64,
    /// Pages actually available to hold the outer partition, after any
    /// reserved in-memory cache pages; never below 1.
    pub outer_area: u64,
}

/// Computes the buffer layout for a total budget of `buffer_pages`:
/// outer area + inner page + cache page + result page, minus the cache
/// write-combining buffer and any pages reserved for the in-memory
/// cache extension.
pub fn buffer_layout(buffer_pages: u64, reserved_cache_pages: u64) -> BufferLayout {
    let write_batch = CACHE_WRITE_BATCH.min((buffer_pages / 4).max(1));
    let sizing_area = buffer_pages.saturating_sub(3).saturating_sub(write_batch);
    let outer_area = sizing_area.saturating_sub(reserved_cache_pages).max(1);
    BufferLayout {
        write_batch,
        sizing_area,
        outer_area,
    }
}

/// Diagnostics from the join phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecNotes {
    /// Tuple-cache pages written to disk.
    pub cache_pages_written: i64,
    /// Tuple-cache pages read back from disk.
    pub cache_page_reads: i64,
    /// Extra outer chunks caused by partition overflow (0 = estimates held).
    pub overflow_chunks: i64,
    /// Long-lived outer tuples retained across partition boundaries.
    pub retained_outer_tuples: i64,
    /// Hash-kernel tables built (one per outer chunk).
    pub hash_tables: i64,
    /// Output batches handed to the sink (one per result-producing
    /// partition, instead of one sink push per tuple).
    pub batches_flushed: i64,
    /// Key-equal pairs tested against a generalized predicate filter
    /// (zero for the natural join).
    pub filter_checks: i64,
    /// Predicate filter tests that passed.
    pub filter_hits: i64,
    /// Main-memory operation counts (§5 future-work extension).
    pub cpu: CpuCounters,
    /// Columnar-path accounting (encode, dictionary, materialization).
    pub columnar: ColumnarCounters,
}

/// The tuple cache: one in-memory accumulating page, a small
/// write-combining buffer (so cache appends are physically sequential, as
/// §4.3 describes: "additional pages appended to the tuple cache … incur
/// an inexpensive sequential I/O cost" — with a single page and a shared
/// disk head every append would seek), an optional reserved set of
/// permanently in-memory pages (§5 future-work extension), and a disk
/// file for the rest.
struct CacheStore {
    disk_file: FileHandle,
    mem_pages: Vec<Vec<Tuple>>,
    reserved: usize,
    write_buffer: Vec<Vec<Tuple>>,
    write_batch: usize,
    current: Vec<Tuple>,
    current_bytes: usize,
    page_capacity: usize,
    pages_written: i64,
}

impl CacheStore {
    fn new(
        disk: &vtjoin_storage::SharedDisk,
        capacity_pages: u64,
        reserved: usize,
        write_batch: usize,
    ) -> CacheStore {
        CacheStore {
            disk_file: FileHandle::create(disk, capacity_pages),
            mem_pages: Vec::new(),
            reserved,
            write_buffer: Vec::new(),
            write_batch: write_batch.max(1),
            current: Vec::new(),
            current_bytes: 0,
            page_capacity: PageBuf::capacity_bytes(disk.page_size()),
            pages_written: 0,
        }
    }

    /// Adds a migrated tuple, spilling a full page to the reserved area or
    /// to the write buffer (flushed to disk in sequential bursts).
    ///
    /// A tuple that cannot fit even an empty cache page is rejected here,
    /// at the door — otherwise it would poison the page accounting and
    /// fail (or worse, silently vanish) only at flush time.
    fn push(&mut self, t: Tuple) -> Result<()> {
        let n = codec::encoded_len(&t);
        if n > self.page_capacity {
            return Err(JoinError::OversizedTuple {
                tuple_bytes: n,
                page_capacity: self.page_capacity,
            });
        }
        if self.current_bytes + n > self.page_capacity && !self.current.is_empty() {
            let full = std::mem::take(&mut self.current);
            self.current_bytes = 0;
            if self.mem_pages.len() < self.reserved {
                self.mem_pages.push(full);
            } else {
                self.write_buffer.push(full);
                if self.write_buffer.len() >= self.write_batch {
                    self.flush_writes()?;
                }
            }
        }
        self.current_bytes += n;
        self.current.push(t);
        Ok(())
    }

    /// Flushes the write buffer as one contiguous burst.
    fn flush_writes(&mut self) -> Result<()> {
        for tuples in std::mem::take(&mut self.write_buffer) {
            let mut buf = PageBuf::new(self.page_capacity + vtjoin_storage::PAGE_HEADER_BYTES);
            for t in &tuples {
                // `push` sized these pages, so a non-fit means the two
                // accountings disagree. That must be a hard, *typed* error:
                // the previous `debug_assert!` let release builds drop the
                // tuple on the floor and return a silently truncated join.
                if !buf.try_push(t)? {
                    return Err(JoinError::Internal(
                        "tuple-cache page packing mismatch: a spilled page \
                         exceeds the page capacity",
                    ));
                }
            }
            self.disk_file.append(buf.take())?;
            self.pages_written += 1;
        }
        Ok(())
    }

    /// Ends the filling phase: everything except the partial current page
    /// and the reserved pages goes to disk.
    fn seal(&mut self) -> Result<()> {
        self.flush_writes()
    }

    /// Number of flushed disk pages.
    fn disk_pages(&self) -> u64 {
        self.disk_file.len()
    }

    /// Reads back a flushed page (charged).
    fn read_disk_page(&self, i: u64) -> Result<Vec<Tuple>> {
        Ok(PageBuf::decode_page(&self.disk_file.read(i)?)?)
    }
}

/// Pages taken from the outer area as the cache write-combining buffer.
pub const CACHE_WRITE_BATCH: u64 = 8;

/// Runs the Figure 9 loop. `reserved_cache_pages` > 0 activates the §5
/// extension that trades outer-buffer space for in-memory cache pages.
///
/// `pred` must be an intersection-template predicate (which the natural
/// join is): the canonical-partition emission rule below de-duplicates
/// by overlap end, which only covers matches that intersect in time.
#[allow(clippy::too_many_arguments)]
pub fn join_partitions(
    r_parts: &[HeapFile],
    s_parts: &[HeapFile],
    intervals: &[Interval],
    buffer_pages: u64,
    reserved_cache_pages: u64,
    spec: &JoinSpec,
    pred: &JoinPredicate,
    sink: &mut ResultSink,
) -> Result<ExecNotes> {
    debug_assert!(pred.partitioning_eligible());
    assert!(is_partitioning(intervals));
    assert_eq!(r_parts.len(), intervals.len());
    assert_eq!(s_parts.len(), intervals.len());
    let n = intervals.len();
    let disk = r_parts[0].disk().clone();
    let page_capacity = PageBuf::capacity_bytes(disk.page_size());

    let buffers = buffer_layout(buffer_pages, reserved_cache_pages);
    let write_batch = buffers.write_batch;
    let outer_area = buffers.outer_area;

    let s_total_pages: u64 = s_parts.iter().map(HeapFile::pages).sum();
    let cache_capacity = s_total_pages + n as u64 + 1;

    let mut notes = ExecNotes::default();
    let mut outer_part: Vec<Tuple> = Vec::new();
    // Matches accumulate here and reach the sink once per partition; the
    // chunk's allocation is reused for the whole run (`absorb` drains
    // without freeing).
    let mut batch = OutputBatch::new();
    // Kernel scratch, likewise reused across every partition and chunk.
    let mut id_batch = IdBatch::new();
    let mut col_scratch = ColumnarScratch::default();
    // Ping-pong cache stores: `old` was filled while joining p_{i+1}.
    let mut old_cache = CacheStore::new(
        &disk,
        cache_capacity,
        reserved_cache_pages as usize,
        write_batch as usize,
    );
    for i in (0..n).rev() {
        let p_i = intervals[i];
        let p_prev = (i > 0).then(|| intervals[i - 1]);
        let mut new_cache = CacheStore::new(
            &disk,
            cache_capacity,
            reserved_cache_pages as usize,
            write_batch as usize,
        );

        // 1. Purge dead outer tuples, then read the stored partition.
        outer_part.retain(|x| x.valid().overlaps(p_i));
        notes.retained_outer_tuples += outer_part.len() as i64;
        for p in 0..r_parts[i].pages() {
            outer_part.extend(r_parts[i].read_page(p)?);
        }

        // Overflow chunking (block-NL fallback on estimate error).
        let chunks = chunk_by_pages(&outer_part, page_capacity, outer_area)?;
        notes.overflow_chunks += chunks.len() as i64 - 1;

        for (ci, range) in chunks.iter().enumerate() {
            let migrate = ci == 0;
            // Chunk evaluation: gather the chunk's probe stream (cache
            // pages, then the stored inner partition), encode both sides
            // struct-of-arrays, run the hash kernel over the id columns,
            // and late-materialize the id pairs into the partition batch.
            let mut loaded: Vec<Tuple> = Vec::new();
            for cp in 0..old_cache.disk_pages() {
                loaded.extend(old_cache.read_disk_page(cp)?);
                notes.cache_page_reads += 1;
            }
            for sp in 0..s_parts[i].pages() {
                loaded.extend(s_parts[i].read_page(sp)?);
            }
            let enc = encode_pair(
                spec,
                outer_part[range.clone()].iter(),
                old_cache
                    .current
                    .iter()
                    .chain(old_cache.mem_pages.iter().flatten())
                    .chain(loaded.iter()),
            );
            notes.hash_tables += 1;
            let r_rows: Vec<u32> = (0..enc.outer.len() as u32).collect();
            let s_rows: Vec<u32> = (0..enc.inner.len() as u32).collect();
            id_batch.begin(r_rows.len().max(16));
            let hs = columnar_hash_join(
                pred,
                &enc.outer,
                &r_rows,
                &enc.inner,
                &s_rows,
                p_i,
                &mut col_scratch,
                &mut id_batch,
            );
            notes.cpu.probes += hs.probes;
            notes.cpu.match_tests += hs.match_tests;
            notes.filter_checks += hs.filter_checks as i64;
            notes.filter_hits += hs.filter_hits as i64;
            let materialized =
                id_batch.materialize_each(spec, &enc.outer, &enc.inner, |z| batch.emit(z));
            notes.columnar.encode_micros += enc.encode_micros;
            notes.columnar.dict_size = notes.columnar.dict_size.max(enc.dict_size);
            notes.columnar.materialized_rows += materialized;
            // Migration (first chunk only): flushed-cache tuples then
            // stored inner tuples overlapping the previous partition.
            if migrate {
                if let Some(prev) = p_prev {
                    for y in loaded {
                        if y.valid().overlaps(prev) {
                            new_cache.push(y)?;
                        }
                    }
                }
            }
        }

        // One batched hand-over per result-producing partition.
        if !batch.is_empty() {
            sink.absorb(&mut batch);
            notes.batches_flushed += 1;
        }

        // Migrate the previous in-memory cache contents (Figure 9 purges
        // cachePage into newCachePage; order relative to steps 3-4 only
        // affects page packing).
        if let Some(prev) = p_prev {
            for page in std::mem::take(&mut old_cache.mem_pages) {
                for y in page {
                    if y.valid().overlaps(prev) {
                        new_cache.push(y)?;
                    }
                }
            }
            for y in std::mem::take(&mut old_cache.current) {
                if y.valid().overlaps(prev) {
                    new_cache.push(y)?;
                }
            }
        }

        new_cache.seal()?;
        notes.cache_pages_written += new_cache.pages_written;
        old_cache = new_cache;
    }
    Ok(notes)
}

/// Splits `tuples` into index ranges, each packing into at most
/// `max_pages` pages of `page_capacity` usable bytes.
///
/// A single tuple larger than one page is a typed error: the old code's
/// `used_in_page > 0` guard let such a tuple stay "inside" a page and
/// overpack the chunk past its budget, silently violating the
/// outer-area memory bound.
pub(crate) fn chunk_by_pages(
    tuples: &[Tuple],
    page_capacity: usize,
    max_pages: u64,
) -> Result<Vec<std::ops::Range<usize>>> {
    if tuples.is_empty() {
        #[allow(clippy::single_range_in_vec_init)]
        return Ok(vec![0..0]);
    }
    let mut out = Vec::new();
    let mut chunk_start = 0usize;
    let mut pages_used = 1u64;
    let mut used_in_page = 0usize;
    for (i, t) in tuples.iter().enumerate() {
        let n = codec::encoded_len(t);
        if n > page_capacity {
            return Err(JoinError::OversizedTuple {
                tuple_bytes: n,
                page_capacity,
            });
        }
        if used_in_page + n > page_capacity && used_in_page > 0 {
            if pages_used == max_pages {
                out.push(chunk_start..i);
                chunk_start = i;
                pages_used = 1;
            } else {
                pages_used += 1;
            }
            used_in_page = 0;
        }
        used_in_page += n;
    }
    out.push(chunk_start..tuples.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::grace::do_partitioning;
    use crate::partition::intervals::equal_width;
    use std::sync::Arc;
    use vtjoin_core::algebra::natural_join;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Tuple, Value};
    use vtjoin_storage::SharedDisk;

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

    fn mixed(n: i64, keys: i64, long_every: i64, r_side: bool) -> Relation {
        let (rs, ss) = schemas();
        let schema = if r_side { rs } else { ss };
        let tuples = (0..n)
            .map(|i| {
                let seed = if r_side { i * 13 } else { i * 17 + 5 };
                let start = seed % 400;
                let iv = if long_every > 0 && i % long_every == 0 {
                    Interval::from_raw(start % 200, start % 200 + 200).unwrap()
                } else {
                    Interval::from_raw(start, start).unwrap()
                };
                Tuple::new(vec![Value::Int(i % keys), Value::Int(i)], iv)
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    fn run_exec(
        r: &Relation,
        s: &Relation,
        num_parts: u64,
        buffer: u64,
        reserved: u64,
    ) -> (Relation, ExecNotes, vtjoin_storage::IoStats) {
        let disk = SharedDisk::new(256);
        let hr = HeapFile::bulk_load(&disk, r).unwrap();
        let hs = HeapFile::bulk_load(&disk, s).unwrap();
        let parts_iv = equal_width(Interval::from_raw(0, 400).unwrap(), num_parts);
        let rp = do_partitioning(&hr, &parts_iv, buffer).unwrap();
        let sp = do_partitioning(&hs, &parts_iv, buffer).unwrap();
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let mut sink = ResultSink::new(Arc::clone(spec.out_schema()), 256, true);
        disk.reset_stats();
        let notes = join_partitions(
            &rp,
            &sp,
            &parts_iv,
            buffer,
            reserved,
            &spec,
            &JoinPredicate::intersects(),
            &mut sink,
        )
        .unwrap();
        let (_, _, rel) = sink.finish();
        (rel.unwrap(), notes, disk.stats())
    }

    /// Joins the fixture, checks it against the oracle, and pins the join
    /// phase's page I/O `(random reads, seq reads, random writes, seq
    /// writes)`.
    fn assert_oracle(n: i64, keys: i64, long_every: i64, parts: u64, buffer: u64, io: [u64; 4]) {
        let r = mixed(n, keys, long_every, true);
        let s = mixed(n, keys, long_every, false);
        let want = natural_join(&r, &s).unwrap();
        let (got, _, got_io) = run_exec(&r, &s, parts, buffer, 0);
        let ctx = format!("n={n} keys={keys} ll={long_every} parts={parts} buffer={buffer}");
        assert!(
            got.multiset_eq(&want),
            "{ctx}: got {} want {} (diff {} entries)",
            got.len(),
            want.len(),
            got.multiset_diff(&want).len()
        );
        let got_io = [
            got_io.random_reads,
            got_io.seq_reads,
            got_io.random_writes,
            got_io.seq_writes,
        ];
        assert_eq!(got_io, io, "{ctx}: join-phase I/O");
    }

    #[test]
    fn matches_oracle_short_tuples() {
        assert_oracle(150, 5, 0, 4, 16, [8, 38, 0, 0]);
    }

    #[test]
    fn matches_oracle_with_long_lived() {
        assert_oracle(150, 5, 6, 4, 16, [11, 39, 3, 2]);
        assert_oracle(200, 3, 3, 5, 16, [20, 98, 4, 16]);
    }

    #[test]
    fn matches_oracle_single_partition() {
        assert_oracle(80, 4, 5, 1, 16, [2, 34, 0, 0]);
    }

    #[test]
    fn matches_oracle_many_partitions() {
        assert_oracle(300, 7, 4, 8, 32, [23, 110, 7, 32]);
    }

    #[test]
    fn intersection_predicates_dedup_across_partitions() {
        use vtjoin_core::algebra::predicate_join;
        // Long-lived tuples span many partitions; every intersection-
        // template predicate must still emit each surviving pair once.
        let r = mixed(150, 5, 4, true);
        let s = mixed(150, 5, 4, false);
        let disk = SharedDisk::new(256);
        let hr = HeapFile::bulk_load(&disk, &r).unwrap();
        let hs = HeapFile::bulk_load(&disk, &s).unwrap();
        let parts_iv = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        let rp = do_partitioning(&hr, &parts_iv, 16).unwrap();
        let sp = do_partitioning(&hs, &parts_iv, 16).unwrap();
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        for p in ["during", "overlaps", "contains-or-started-by", "equals"] {
            let pred: JoinPredicate = p.parse().unwrap();
            let want = predicate_join(&r, &s, &pred).unwrap();
            let mut sink = ResultSink::new(Arc::clone(spec.out_schema()), 256, true);
            let notes =
                join_partitions(&rp, &sp, &parts_iv, 16, 0, &spec, &pred, &mut sink).unwrap();
            let (_, _, rel) = sink.finish();
            assert!(rel.unwrap().multiset_eq(&want), "{p}");
            assert!(notes.filter_checks >= notes.filter_hits, "{p}");
        }
    }

    #[test]
    fn no_duplicates_from_migration() {
        // Long-lived tuples on both sides spanning every partition: the
        // canonical-partition rule must emit each pair exactly once.
        let (rs, ss) = schemas();
        let r = Relation::from_parts_unchecked(
            rs,
            vec![
                Tuple::new(
                    vec![Value::Int(1), Value::Int(0)],
                    Interval::from_raw(0, 400).unwrap(),
                ),
                Tuple::new(
                    vec![Value::Int(1), Value::Int(1)],
                    Interval::from_raw(50, 350).unwrap(),
                ),
            ],
        );
        let s = Relation::from_parts_unchecked(
            ss,
            vec![
                Tuple::new(
                    vec![Value::Int(1), Value::Int(9)],
                    Interval::from_raw(0, 400).unwrap(),
                ),
                Tuple::new(
                    vec![Value::Int(1), Value::Int(8)],
                    Interval::from_raw(100, 300).unwrap(),
                ),
            ],
        );
        let (got, _, _) = run_exec(&r, &s, 4, 16, 0);
        let want = natural_join(&r, &s).unwrap();
        assert_eq!(got.len(), 4, "{got}");
        assert!(got.multiset_eq(&want));
    }

    #[test]
    fn long_lived_tuples_page_the_cache() {
        let r0 = mixed(400, 5, 0, true);
        let s0 = mixed(400, 5, 0, false);
        let r1 = mixed(400, 5, 2, true);
        let s1 = mixed(400, 5, 2, false);
        let (_, notes0, _) = run_exec(&r0, &s0, 8, 12, 0);
        let (_, notes1, _) = run_exec(&r1, &s1, 8, 12, 0);
        assert_eq!(notes0.cache_pages_written, 0, "no long-lived → no cache");
        assert!(
            notes1.cache_pages_written > 0,
            "long-lived inner tuples must hit the cache"
        );
        assert!(notes1.retained_outer_tuples > notes0.retained_outer_tuples);
    }

    #[test]
    fn reserved_cache_pages_reduce_cache_io() {
        let r = mixed(400, 5, 2, true);
        let s = mixed(400, 5, 2, false);
        let (got0, notes0, _) = run_exec(&r, &s, 8, 14, 0);
        let (got1, notes1, _) = run_exec(&r, &s, 8, 14, 4);
        assert!(
            got0.multiset_eq(&got1),
            "extension must not change the result"
        );
        assert!(
            notes1.cache_pages_written < notes0.cache_pages_written,
            "reserved pages should absorb cache traffic: {} !< {}",
            notes1.cache_pages_written,
            notes0.cache_pages_written
        );
    }

    #[test]
    fn counters_and_io_are_pinned_under_stress() {
        // Long-lived tuples page the cache AND a tiny outer area forces
        // overflow chunking: every CPU counter, every I/O charge, and the
        // cache accounting are pinned, plus the oracle result.
        let r = mixed(300, 4, 5, true);
        let s = mixed(300, 4, 5, false);
        let (got, notes, io) = run_exec(&r, &s, 2, 5, 0);
        assert!(got.multiset_eq(&natural_join(&r, &s).unwrap()));
        assert_eq!(
            [
                io.random_reads,
                io.seq_reads,
                io.random_writes,
                io.seq_writes
            ],
            [82, 1340, 1, 7],
            "page reads and cache writes"
        );
        assert_eq!((notes.cpu.probes, notes.cpu.match_tests), (9543, 16204));
        assert_eq!(
            (notes.cache_pages_written, notes.cache_page_reads),
            (8, 216)
        );
        assert_eq!((notes.overflow_chunks, notes.hash_tables), (51, 53));
        assert_eq!(notes.batches_flushed, 2);
        assert_eq!(notes.retained_outer_tuples, 60);
        assert_eq!(notes.columnar.materialized_rows, got.len() as u64);
        assert!(notes.columnar.dict_size > 0);
    }

    #[test]
    fn overflow_chunks_keep_correctness() {
        // Deliberately tiny outer area: partitions of the outer relation
        // cannot fit, forcing chunked (block-NL fallback) processing.
        let r = mixed(300, 4, 5, true);
        let s = mixed(300, 4, 5, false);
        // buffer 5 → write batch 1, outer area = 5 − 3 − 1 = 1 page
        // (via `buffer_layout`, which this comment previously contradicted).
        let (got, notes, _) = run_exec(&r, &s, 2, 5, 0);
        assert_eq!(buffer_layout(5, 0).outer_area, 1);
        assert!(notes.overflow_chunks > 0, "fixture must overflow");
        let want = natural_join(&r, &s).unwrap();
        assert!(got.multiset_eq(&want));
    }

    #[test]
    fn join_reads_each_partition_once_without_long_lived() {
        let r = mixed(400, 5, 0, true);
        let s = mixed(400, 5, 0, false);
        let disk = SharedDisk::new(256);
        let hr = HeapFile::bulk_load(&disk, &r).unwrap();
        let hs = HeapFile::bulk_load(&disk, &s).unwrap();
        let parts_iv = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        let rp = do_partitioning(&hr, &parts_iv, 32).unwrap();
        let sp = do_partitioning(&hs, &parts_iv, 32).unwrap();
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let mut sink = ResultSink::new(Arc::clone(spec.out_schema()), 256, false);
        disk.reset_stats();
        join_partitions(
            &rp,
            &sp,
            &parts_iv,
            32,
            0,
            &spec,
            &JoinPredicate::intersects(),
            &mut sink,
        )
        .unwrap();
        let st = disk.stats();
        let part_pages: u64 = rp.iter().map(HeapFile::pages).sum::<u64>()
            + sp.iter().map(HeapFile::pages).sum::<u64>();
        assert_eq!(st.random_reads + st.seq_reads, part_pages, "single pass");
        assert_eq!(st.random_writes + st.seq_writes, 0, "no cache traffic");
    }

    #[test]
    fn empty_relations() {
        let (rs, ss) = schemas();
        let r = Relation::empty(rs);
        let s = mixed(50, 3, 0, false);
        let (got, _, _) = run_exec(&r, &s, 3, 8, 0);
        assert!(got.is_empty());
        let (got2, _, _) = run_exec(&mixed(50, 3, 0, true), &Relation::empty(ss), 3, 8, 0);
        assert!(got2.is_empty());
    }

    #[test]
    fn chunk_by_pages_respects_budget() {
        let t = |pad: usize| {
            Tuple::new(
                vec![Value::Bytes(vec![0; pad].into_boxed_slice())],
                Interval::from_raw(0, 0).unwrap(),
            )
        };
        // each tuple 16 + 1 + 3 + 30 = 50 bytes; capacity 100 → 2 per page.
        let tuples: Vec<Tuple> = (0..10).map(|_| t(30)).collect();
        let chunks = chunk_by_pages(&tuples, 100, 2).unwrap(); // 2 pages per chunk = 4 tuples
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], 0..4);
        assert_eq!(chunks[1], 4..8);
        assert_eq!(chunks[2], 8..10);
        assert_eq!(chunk_by_pages(&tuples, 100, 100).unwrap().len(), 1);
        assert_eq!(chunk_by_pages(&[], 100, 1).unwrap(), vec![0..0]);
    }

    #[test]
    fn chunk_by_pages_rejects_oversized_tuple() {
        // Regression: a single tuple above page capacity used to stay
        // "inside" its page (the `used_in_page > 0` guard) and overpack
        // the chunk past the outer-area budget. Now it is a typed error.
        let big = Tuple::new(
            vec![Value::Bytes(vec![0; 200].into_boxed_slice())],
            Interval::from_raw(0, 0).unwrap(),
        );
        let small = Tuple::new(
            vec![Value::Bytes(vec![0; 30].into_boxed_slice())],
            Interval::from_raw(0, 0).unwrap(),
        );
        let err = chunk_by_pages(&[small, big], 100, 2).unwrap_err();
        assert!(
            matches!(err, crate::common::JoinError::OversizedTuple { tuple_bytes, page_capacity }
                if tuple_bytes > 100 && page_capacity == 100),
            "{err}"
        );
    }

    #[test]
    fn cache_push_rejects_oversized_tuple() {
        // Regression: an oversized tuple must be rejected at the cache
        // door, not discovered (or dropped) at flush time.
        let disk = SharedDisk::new(64);
        let mut cache = CacheStore::new(&disk, 4, 0, 2);
        let big = Tuple::new(
            vec![Value::Bytes(vec![0; 100].into_boxed_slice())],
            Interval::from_raw(0, 0).unwrap(),
        );
        let err = cache.push(big).unwrap_err();
        assert!(
            matches!(err, crate::common::JoinError::OversizedTuple { .. }),
            "{err}"
        );
        // The cache stays usable for sane tuples afterwards.
        cache
            .push(Tuple::new(
                vec![Value::Int(1)],
                Interval::from_raw(0, 0).unwrap(),
            ))
            .unwrap();
        cache.seal().unwrap();
    }

    #[test]
    fn flush_writes_surfaces_packing_mismatch_as_typed_error() {
        // Regression for the release-mode silent drop: force the flush
        // accounting to disagree with the page accounting by planting an
        // overfull page directly in the write buffer (as a corrupted or
        // future-buggy `push` could). A debug_assert! here vanished in
        // `--release` and the surplus tuples vanished with it; the join
        // then returned a silently truncated result. It must be an error
        // in every build profile.
        let disk = SharedDisk::new(64);
        let mut cache = CacheStore::new(&disk, 4, 0, 2);
        let t = |k: i64| Tuple::new(vec![Value::Int(k)], Interval::from_raw(0, 0).unwrap());
        // 64-byte pages hold two 26-byte records; plant three.
        cache.write_buffer.push(vec![t(1), t(2), t(3)]);
        let err = cache.flush_writes().unwrap_err();
        assert!(
            matches!(err, crate::common::JoinError::Internal(msg) if msg.contains("packing")),
            "{err}"
        );
        assert_eq!(
            cache.pages_written, 0,
            "nothing may be half-written as success"
        );
    }
}
