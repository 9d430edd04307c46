//! Every bench binary answers `--help` and `-h` with its usage on stdout
//! and exit status 0.

use std::process::Command;

#[test]
fn every_binary_prints_its_usage_on_help() {
    for (name, bin) in [
        ("baseline_drift", env!("CARGO_BIN_EXE_baseline_drift")),
        ("bench_kernel", env!("CARGO_BIN_EXE_bench_kernel")),
        ("bench_operator", env!("CARGO_BIN_EXE_bench_operator")),
        ("bench_parallel", env!("CARGO_BIN_EXE_bench_parallel")),
        ("bench_predicate", env!("CARGO_BIN_EXE_bench_predicate")),
        ("bench_service", env!("CARGO_BIN_EXE_bench_service")),
        ("chaos", env!("CARGO_BIN_EXE_chaos")),
        ("figures", env!("CARGO_BIN_EXE_figures")),
    ] {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin).arg(flag).output().unwrap();
            assert!(out.status.success(), "{name} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.starts_with("usage:") && stdout.contains(name),
                "{name} {flag}: {stdout}"
            );
        }
    }
}
