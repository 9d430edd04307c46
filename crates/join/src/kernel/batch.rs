//! Batched, reusable output emission.
//!
//! The serial partition join and the merge fallback emit result tuples
//! into an [`OutputBatch`] instead of pushing them one at a time into a
//! shared sink. The batch is a
//! capacity-reserved, thread-local chunk: a worker calls
//! [`OutputBatch::begin`] with a size estimate before joining a
//! partition, [`OutputBatch::emit`] per match (the only allocation per
//! match is the result tuple itself), and hands the whole chunk over
//! *once per partition* — either by moving it out with
//! [`OutputBatch::take`] (zero-copy splice into the final relation's
//! partition slot) or by draining it into a paged sink with
//! `ResultSink::absorb`, which keeps the chunk's allocation alive for the
//! next partition.
//!
//! The per-tuple path into a shared collector is what made the parallel
//! executor *degrade* under thread count (allocator and queue contention
//! on 3.2M tiny pushes); batching turns that into one splice per
//! partition.

use vtjoin_core::Tuple;

/// A reusable, capacity-reserved chunk of result tuples.
#[derive(Debug, Default)]
pub struct OutputBatch {
    tuples: Vec<Tuple>,
    batches_flushed: u64,
    total_emitted: u64,
}

impl OutputBatch {
    /// An empty batch. Nothing is allocated until [`OutputBatch::begin`]
    /// reserves capacity or the first emit lands.
    pub fn new() -> OutputBatch {
        OutputBatch::default()
    }

    /// Starts a new partition's output, reserving room for `estimate`
    /// tuples up front so emission never reallocates mid-partition when
    /// the estimate holds.
    pub fn begin(&mut self, estimate: usize) {
        debug_assert!(self.tuples.is_empty(), "begin over an unflushed batch");
        if self.tuples.capacity() < estimate {
            self.tuples.reserve_exact(estimate - self.tuples.len());
        }
    }

    /// Appends one result tuple.
    #[inline]
    pub fn emit(&mut self, t: Tuple) {
        self.tuples.push(t);
        self.total_emitted += 1;
    }

    /// Tuples currently buffered.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Moves the buffered chunk out wholesale (the zero-copy splice into
    /// a partition's output slot) and counts one flush. The batch is left
    /// empty; the next [`OutputBatch::begin`] reserves fresh capacity.
    pub fn take(&mut self) -> Vec<Tuple> {
        self.batches_flushed += 1;
        std::mem::take(&mut self.tuples)
    }

    /// Drains the buffered tuples through `f` in emission order, keeping
    /// the chunk's allocation for the next partition, and counts one
    /// flush. Used by paged sinks that account each tuple as it lands.
    pub fn drain_each(&mut self, mut f: impl FnMut(Tuple)) {
        self.batches_flushed += 1;
        for t in self.tuples.drain(..) {
            f(t);
        }
    }

    /// Number of times the batch was handed over (once per partition).
    pub fn batches_flushed(&self) -> u64 {
        self.batches_flushed
    }

    /// Tuples emitted over the batch's whole lifetime.
    pub fn total_emitted(&self) -> u64 {
        self.total_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::{Interval, Value};

    fn t(k: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k)], Interval::from_raw(0, 1).unwrap())
    }

    #[test]
    fn take_moves_the_chunk_and_counts_flushes() {
        let mut b = OutputBatch::new();
        b.begin(8);
        assert!(b.tuples.capacity() >= 8);
        b.emit(t(1));
        b.emit(t(2));
        let chunk = b.take();
        assert_eq!(chunk.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.batches_flushed(), 1);
        assert_eq!(b.total_emitted(), 2);
    }

    #[test]
    fn drain_each_keeps_capacity() {
        let mut b = OutputBatch::new();
        b.begin(16);
        let cap = b.tuples.capacity();
        for k in 0..5 {
            b.emit(t(k));
        }
        let mut got = Vec::new();
        b.drain_each(|t| got.push(t));
        assert_eq!(got.len(), 5);
        assert!(b.is_empty());
        assert_eq!(b.tuples.capacity(), cap, "drain must not free the chunk");
        assert_eq!(b.batches_flushed(), 1);
    }

    #[test]
    fn begin_never_shrinks() {
        let mut b = OutputBatch::new();
        b.begin(32);
        let cap = b.tuples.capacity();
        b.begin(4);
        assert!(b.tuples.capacity() >= cap);
    }
}
