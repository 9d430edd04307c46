//! The bench regression gate: every benchmark's smoke run must satisfy
//! its own schema and match its checked-in baseline exactly.
//!
//! For each benchmark in [`BENCHMARKS`], the smoke geometry is run, the
//! document is validated and round-tripped through its text form, and it
//! is compared with `ci/baselines/BENCH_<name>_smoke.json` by
//! [`regress::compare`]. Only deterministic simulator counters are
//! compared: fields named as wall-clock, ratio or host values are
//! denylisted ([`regress::NONDETERMINISTIC_KEY_MARKERS`]), because CI
//! machines time things differently on every run. The fixed-seed
//! workloads make every other leaf exact, so the comparison has no
//! tolerance. Any unreviewed change to I/O counts, sweep comparisons or
//! result cardinalities fails here; an intended change regenerates the
//! baseline in the same commit with
//! `bench <name> --smoke --out ci/baselines/BENCH_<name>_smoke.json`.
//!
//! What each validator enforces beyond the shared envelope
//! (`schema_version`, `benchmark`, `host`, workload keys):
//!
//! * parallel — grid output byte-identical to the serial grid run, max
//!   cell share within the acceptance ceiling and under the time-only
//!   share;
//! * kernel — both kernels byte-identical, same result cardinality;
//! * predicate — every cell byte-identical to the predicate-parameterized
//!   oracle, all three compiled templates (intersection, sequence,
//!   mixed) represented;
//! * service — exact 1-miss + (N−1)-hit plan-cache split, positive
//!   sampling I/O savings, exact saturation sheds, byte-identical
//!   responses;
//! * operator — every operator-family cell (outer, semi and anti joins,
//!   temporal aggregates) byte-identical to its algebra oracle, all four
//!   non-inner joins and an aggregate cell present.
//!
//! The grid smoke reruns the parallel benchmark at 1, 2 and 4 workers.
//! Its thread sweep differs from the pinned smoke geometry, so it is
//! validated (byte-identity at every thread count, the share gates) but
//! not compared with a baseline. Last, every full-size `BENCH_*.json` at
//! the repository root and every smoke baseline must pass its own
//! benchmark's validator, which pins `schema_version` to the module's
//! constant on both sides: a schema bump that regenerates one document
//! and forgets the other fails here.

use std::path::{Path, PathBuf};
use vtjoin_bench::parallel::{self, ParallelBenchConfig};
use vtjoin_bench::{benchmark, regress, BENCHMARKS};
use vtjoin_obs::Json;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

fn smoke_matches_baseline(name: &str) {
    let bench = benchmark(name).expect("a listed benchmark");
    let doc = (bench.run)(true);
    (bench.validate)(&doc).unwrap_or_else(|e| panic!("{name} smoke document: {e}"));
    let doc = Json::parse(&doc.to_pretty()).expect("a document round-trips its text form");
    let path = repo().join(format!("ci/baselines/BENCH_{name}_smoke.json"));
    let drifts = regress::compare(&doc, &read(&path));
    assert!(
        drifts.is_empty(),
        "{name}: {} deterministic counter(s) drifted from {}:\n{}",
        drifts.len(),
        path.display(),
        drifts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

#[test]
fn parallel_smoke_matches_its_baseline() {
    smoke_matches_baseline("parallel");
}

#[test]
fn kernel_smoke_matches_its_baseline() {
    smoke_matches_baseline("kernel");
}

#[test]
fn predicate_smoke_matches_its_baseline() {
    smoke_matches_baseline("predicate");
}

#[test]
fn service_smoke_matches_its_baseline() {
    smoke_matches_baseline("service");
}

#[test]
fn operator_smoke_matches_its_baseline() {
    smoke_matches_baseline("operator");
}

#[test]
fn grid_smoke_at_one_two_and_four_workers_is_valid() {
    let doc = parallel::run(&ParallelBenchConfig {
        threads: vec![1, 2, 4],
        baseline_threads: None,
        ..parallel::smoke_config()
    });
    parallel::validate(&doc).unwrap();
    let grid_runs = doc
        .get("grid")
        .and_then(|g| g.get("runs"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(grid_runs.len(), 3);
}

/// The `BENCH_*.json` files in `dir` whose names end in `suffix`, with
/// the benchmark name between `BENCH_` and the suffix.
fn documents(dir: &Path, suffix: &str) -> Vec<(String, PathBuf)> {
    let mut docs: Vec<(String, PathBuf)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let file = path.file_name()?.to_str()?;
            let name = file.strip_prefix("BENCH_")?.strip_suffix(suffix)?;
            Some((name.to_owned(), path.clone()))
        })
        .collect();
    docs.sort();
    docs
}

#[test]
fn every_checked_in_document_passes_its_benchmarks_validator() {
    // `bench <name> --smoke` run at the root leaves `BENCH_<name>_smoke.json`
    // there (ignored by git); it is not a full-size document.
    let mut root = documents(&repo(), ".json");
    root.retain(|(name, _)| !name.ends_with("_smoke"));
    let smoke = documents(&repo().join("ci/baselines"), "_smoke.json");
    assert!(!root.is_empty(), "no BENCH_*.json at the repository root");
    let smoke_names: Vec<&str> = smoke.iter().map(|(n, _)| n.as_str()).collect();
    let mut listed: Vec<&str> = BENCHMARKS.iter().map(|b| b.name).collect();
    listed.sort_unstable();
    assert_eq!(smoke_names, listed, "one smoke baseline per benchmark");
    for (name, path) in root.iter().chain(&smoke) {
        let bench = benchmark(name)
            .unwrap_or_else(|| panic!("{}: no benchmark named `{name}`", path.display()));
        (bench.validate)(&read(path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
