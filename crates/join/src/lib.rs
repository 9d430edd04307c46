//! # vtjoin-join — disk-based evaluation of the valid-time natural join
//!
//! This crate is the paper's §3 and §4 made executable. It provides three
//! complete disk-based evaluation algorithms for the valid-time natural
//! join over [`vtjoin_storage::HeapFile`] relations:
//!
//! * [`partition::PartitionJoin`] — **the paper's contribution**: a
//!   sampling-planned, time-partitioned join that stores each tuple in its
//!   *last* overlapping partition and migrates long-lived tuples backwards
//!   through an in-memory outer buffer (outer relation) and a paged tuple
//!   cache (inner relation), avoiding both replication and sorting.
//! * [`sort_merge::SortMergeJoin`] — the classical alternative (\[SG89\],
//!   \[LM90\]): externally sort both relations by valid-start time, then
//!   merge with *backing up* over long-lived tuples.
//! * [`nested_loop::NestedLoopJoin`] — block nested loop, the baseline.
//!
//! Every algorithm performs real page I/O against the simulated disk and
//! reports measured [`vtjoin_storage::IoStats`]; all three produce the
//! same result multiset (validated against the in-memory oracle in
//! `vtjoin_core`). Analytic cost models for all three live in [`cost`].
//!
//! Two ablation variants widen the comparison beyond the paper's three:
//! [`partition::ReplicatedPartitionJoin`] implements the replication
//! strategy of Leung & Muntz (\[LM92b\]) that the paper argues against,
//! and [`time_index::TimeIndexJoin`] implements the append-only-tree
//! index join of Gunadhi & Segev (\[SG89\]) — the "auxiliary access
//! path with additional update costs" the partition join makes
//! unnecessary.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod columnar;
pub mod common;
pub mod cost;
pub mod kernel;
pub mod nested_loop;
pub mod partition;
pub mod report;
pub mod sort;
pub mod sort_merge;
pub mod time_index;
pub mod timeline;

pub use columnar::{ColumnarCounters, ColumnarPair, ColumnarSide, IdBatch, Layout};
pub use common::{JoinAlgorithm, JoinConfig, JoinError, JoinReport, JoinSpec, PhaseStats, Result};
pub use kernel::{
    tracked_sweep, Fragment, KernelChoice, KernelCounters, KernelKind, OperatorLog, OutputBatch,
    PredicateCounters, TrackedInput, TrackedScratch, TrackedStats,
};
pub use nested_loop::NestedLoopJoin;
pub use partition::{PartitionJoin, ReplicatedPartitionJoin};
pub use report::{execution_report, partition_execution_report};
pub use sort_merge::SortMergeJoin;
pub use time_index::{TimeIndex, TimeIndexJoin};
pub use timeline::TimelineIndex;
