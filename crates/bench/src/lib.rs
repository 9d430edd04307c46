//! # vtjoin-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4):
//!
//! | artifact | harness entry | regenerated by |
//! |---|---|---|
//! | Figure 4 (cost trade-off vs `partSize`) | [`figures::fig4`] | `figures -- fig4` |
//! | Figure 5 (global parameters) | [`figures::fig5_rows`] | `figures -- fig5` |
//! | Figure 6 (cost vs main memory, 3 ratios) | [`figures::fig6`] | `figures -- fig6` |
//! | Figure 7 (cost vs long-lived tuples) | [`figures::fig7`] | `figures -- fig7` |
//! | Figure 8 (memory × long-lived, partition join) | [`figures::fig8`] | `figures -- fig8` |
//!
//! Everything runs at two scales: `full` (the paper's 32 MB / 262,144-tuple
//! relations) and `small` (1/16 scale, for quick runs and criterion).
//!
//! Beyond the paper, [`BENCHMARKS`] lists the five in-memory benchmarks
//! the `bench` binary runs (`bench <name> [--smoke] [--out FILE]`). Each
//! emits a `BENCH_<name>.json` document of integers and checks it with
//! its own validator; `tests/smoke_gate.rs` pins their smoke documents
//! against `ci/baselines/`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod figures;
pub mod harness;
pub mod kernel;
pub mod operator;
pub mod parallel;
pub mod predicate;
pub mod regress;
pub mod render;
pub mod service;

pub use harness::{build_pair, run_algorithm, run_algorithm_reported, Algo, Scale};

use vtjoin_obs::Json;

/// One benchmark of the `bench` driver.
pub struct Benchmark {
    /// The name on the command line; the documents are `BENCH_<name>.json`
    /// and `ci/baselines/BENCH_<name>_smoke.json`.
    pub name: &'static str,
    /// Runs the benchmark at its smoke geometry (`true`) or its full one.
    pub run: fn(bool) -> Json,
    /// The benchmark's document validator.
    pub validate: fn(&Json) -> Result<(), String>,
}

/// Every benchmark the `bench` driver runs.
pub static BENCHMARKS: [Benchmark; 5] = [
    Benchmark {
        name: "parallel",
        run: |smoke| parallel::run(&geometry(smoke, parallel::smoke_config)),
        validate: parallel::validate,
    },
    Benchmark {
        name: "kernel",
        run: |smoke| kernel::run(&geometry(smoke, kernel::smoke_config)),
        validate: kernel::validate,
    },
    Benchmark {
        name: "predicate",
        run: |smoke| predicate::run(&geometry(smoke, predicate::smoke_config)),
        validate: predicate::validate,
    },
    Benchmark {
        name: "service",
        run: |smoke| service::run(&geometry(smoke, service::smoke_config)),
        validate: service::validate,
    },
    Benchmark {
        name: "operator",
        run: |smoke| operator::run(&geometry(smoke, operator::smoke_config)),
        validate: operator::validate,
    },
];

/// A benchmark's smoke configuration, or its full (default) one.
fn geometry<C: Default>(smoke: bool, smoke_config: fn() -> C) -> C {
    if smoke {
        smoke_config()
    } else {
        C::default()
    }
}

/// The benchmark called `name`, if there is one.
pub fn benchmark(name: &str) -> Option<&'static Benchmark> {
    BENCHMARKS.iter().find(|b| b.name == name)
}
