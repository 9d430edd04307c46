//! Proves the `BlockTable` probe path performs **zero per-tuple heap
//! allocations**: a counting global allocator measures the allocation
//! delta across a probe loop that produces no matches (key misses and
//! key-hits without temporal overlap). The old `HashMap<Vec<Value>, _>`
//! table allocated a key vector on *every* probe; the hash-bucket table
//! must allocate only when a genuine match splices a result tuple.
//!
//! The same count pins the text reader's budget: `from_text` of an N-row
//! relation of ints and empty bytes allocates once per row (the row's
//! values) plus a bounded number of times for the tuple vector, schema
//! and header — not once more per row for its fields.
//!
//! This lives in its own integration-test binary so the global allocator
//! hook cannot interfere with any other test, and the single `#[test]`
//! keeps the process free of concurrent allocator traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vtjoin::join::common::{BlockTable, JoinSpec};
use vtjoin::prelude::*;
use vtjoin::workload::{from_text, to_text};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn schema(attr: &str) -> Arc<Schema> {
    Schema::new(vec![
        AttrDef::new("k", AttrType::Int),
        AttrDef::new(attr, AttrType::Int),
    ])
    .unwrap()
    .into_shared()
}

#[test]
fn probe_path_is_allocation_free() {
    let r_schema = schema("b");
    let s_schema = schema("c");
    let spec = JoinSpec::natural(&r_schema, &s_schema).unwrap();

    let block: Vec<Tuple> = (0..1000)
        .map(|i| {
            Tuple::new(
                vec![Value::Int(i % 64), Value::Int(i)],
                Interval::from_raw(0, 100).unwrap(),
            )
        })
        .collect();
    let table = BlockTable::build(&spec, &block);

    // Misses: keys outside the build side's [0, 64) range.
    let misses: Vec<Tuple> = (0..500)
        .map(|i| {
            Tuple::new(
                vec![Value::Int(1_000_000 + i), Value::Int(0)],
                Interval::from_raw(0, 100).unwrap(),
            )
        })
        .collect();
    // Key hits that fail the temporal predicate: hash-equal candidates are
    // walked, `try_match` rejects on overlap, nothing is spliced.
    let disjoint: Vec<Tuple> = (0..500)
        .map(|i| {
            Tuple::new(
                vec![Value::Int(i % 64), Value::Int(0)],
                Interval::from_raw(5_000, 5_001).unwrap(),
            )
        })
        .collect();

    let mut matched = 0u64;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for y in misses.iter().chain(&disjoint) {
        table.probe_each(y, |_| matched += 1);
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(matched, 0, "fixture must produce no matches");
    assert_eq!(
        delta, 0,
        "probe path allocated {delta} times over 1000 matchless probes"
    );

    // Sanity: the same table *does* find matches when they exist, and the
    // counters moved.
    let hit = Tuple::new(
        vec![Value::Int(3), Value::Int(0)],
        Interval::from_raw(50, 60).unwrap(),
    );
    table.probe_each(&hit, |_| matched += 1);
    assert!(matched > 0, "hit probe must match");
    let (probes, tests) = table.cpu_counters();
    assert_eq!(probes, 1001);
    assert!(tests > 0);

    // The text reader: one allocation per row, plus at most 64 in all.
    const ROWS: u64 = 10_000;
    let pad = Schema::new(vec![
        AttrDef::new("k", AttrType::Int),
        AttrDef::new("pad", AttrType::Bytes(0)),
    ])
    .unwrap()
    .into_shared();
    let rows = (0..ROWS as i64)
        .map(|i| {
            Tuple::new(
                vec![Value::Int(i * 7919 - 40_000), Value::Bytes(Box::default())],
                Interval::from_raw(i, i + 100).unwrap(),
            )
        })
        .collect();
    let text = to_text(&Relation::new(pad, rows).unwrap());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let parsed = from_text(&text).unwrap();
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(parsed.len() as u64, ROWS);
    assert!(
        delta <= ROWS + 64,
        "from_text made {delta} allocations for {ROWS} rows"
    );
}
