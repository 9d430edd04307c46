//! The command lines of the bench binaries: `--help`/`-h` prints the
//! usage and exits 0; a usage error exits 2 with the usage on stderr and
//! runs nothing.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn every_binary_prints_its_usage_on_help() {
    for (name, bin) in [
        ("bench", env!("CARGO_BIN_EXE_bench")),
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

#[test]
fn usage_errors_exit_2_before_running_anything() {
    for (args, message) in [
        (&["no-such-bench"][..], "unknown benchmark `no-such-bench`"),
        (&[][..], "missing benchmark name"),
        (&["kernel", "--bogus", "3"][..], "unknown flag `--bogus`"),
        // The retired per-benchmark flags are unknown, so a geometry flag
        // can no longer be silently overridden by `--smoke`.
        (
            &["kernel", "--tuples", "50", "--smoke"][..],
            "unknown flag `--tuples`",
        ),
        (&["kernel", "--seed", "abc"][..], "unknown flag `--seed`"),
        (&["kernel", "--smoke", "--out"][..], "--out needs a value"),
        (&["kernel", "service"][..], "unexpected argument `service`"),
    ] {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bench {args:?}: {stderr}");
        assert!(
            stderr.contains(message) && stderr.contains("usage:"),
            "bench {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "bench {args:?} ran something");
    }
}

#[test]
fn smoke_run_writes_a_valid_document_under_its_smoke_name() {
    let dir = std::env::temp_dir().join(format!("bench_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["kernel", "--smoke"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("BENCH_kernel_smoke.json")).unwrap();
    let full_size_written = dir.join("BENCH_kernel.json").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        !full_size_written,
        "a smoke run must not write the full-size name"
    );
    let doc = vtjoin_obs::Json::parse(&text).unwrap();
    vtjoin_bench::kernel::validate(&doc).unwrap();
}
