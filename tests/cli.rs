//! The `vtjoin` CLI's flag parser: every subcommand takes only the flags
//! it documents. An unknown or removed flag is a typed usage error naming
//! the flag — never a silent no-op — and every flag `vtjoin help` prints
//! still parses. Malformed input files are typed errors, not panics.
//! `join --op` runs end to end through the binary: its `-o` file holds
//! exactly the text of the algebra oracle's result.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use vtjoin::model::algebra::{antijoin_pred, count_over_time, outerjoin_pred, JoinSide};
use vtjoin::model::algebra::{predicate_join, segments_to_relation};
use vtjoin::prelude::*;
use vtjoin::workload::{from_text, to_text};

/// A scratch directory of its own for one test (tests run concurrently).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn vtjoin_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vtjoin"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

fn vtjoin(args: &[&str]) -> Output {
    vtjoin_in(&scratch("cli"), args)
}

/// Generates an outer `r.vt` and an inner `s.vt` of `tuples` each in `dir`.
fn gen_pair(dir: &Path, tuples: &str) {
    for (side, seed, name) in [("outer", "42", "r.vt"), ("inner", "7", "s.vt")] {
        let out = vtjoin_in(
            dir,
            &[
                "gen",
                "--tuples",
                tuples,
                "--long-lived",
                "80",
                "--keys",
                "60",
                "--duration",
                "40",
                "--lifespan",
                "4000",
                "--seed",
                seed,
                "--side",
                side,
                "-o",
                name,
            ],
        );
        assert!(out.status.success(), "gen: {}", stderr(&out));
    }
}

fn load(dir: &Path, name: &str) -> Relation {
    from_text(&std::fs::read_to_string(dir.join(name)).unwrap()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The retired row/columnar layout switch (spelled in pieces so a grep
/// for the flag finds only code that still parses it).
const LAYOUT: &str = concat!("--", "layout");

#[test]
fn unknown_and_removed_flags_are_usage_errors() {
    for (args, flag) in [
        (&["join", "a", "b", LAYOUT, "row"][..], LAYOUT),
        (&["join", "a", "b", "--bogus", "1"][..], "--bogus"),
        (&["serve", "--requests", "x", LAYOUT, "row"][..], LAYOUT),
        (&["gen", "--tuples", "5", "--threads", "2"][..], "--threads"),
        (&["info", "a", "-o", "b"][..], "-o"),
    ] {
        let out = vtjoin(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn every_flag_in_the_usage_parses() {
    let help = vtjoin(&["help"]);
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stdout).into_owned();
    // Each usage entry starts `vtjoin CMD`; the flags it lists belong to
    // CMD (entries wrap over several lines).
    let mut checked = 0;
    for entry in text.split("vtjoin ").skip(1) {
        let cmd = entry.split_whitespace().next().unwrap();
        for flag in entry
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|w| w.starts_with("--") || *w == "-o")
        {
            // The flag alone: whatever else goes wrong (missing inputs),
            // the parser must accept it.
            let out = vtjoin(&[cmd, flag, "1"]);
            let err = stderr(&out);
            assert!(!err.contains("unknown flag"), "vtjoin {cmd} {flag}: {err}");
            checked += 1;
        }
    }
    assert!(checked > 30, "usage parsing found only {checked} flags");
}

#[test]
fn malformed_bytes_field_is_a_parse_error_not_a_panic() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, field) in [("multibyte.vt", "€x"), ("signed.vt", "+f")] {
        std::fs::write(
            dir.join(name),
            format!("# vtjoin v1\n# schema: key:int, pad:bytes\n1|{field}|0|1\n"),
        )
        .unwrap();
        let out = vtjoin(&["join", name, name]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains("parse error"), "{name}: {err}");
    }
}

#[test]
fn operator_runs_take_the_grid_and_reject_bad_grid_and_kernel_values() {
    let dir = scratch("cli-op-flags");
    gen_pair(&dir, "1500");
    let cells = |grid: &str| {
        let out = vtjoin_in(
            &dir,
            &[
                "join", "r.vt", "s.vt", "--op", "left", "--grid", grid, "-o", grid,
            ],
        );
        assert!(out.status.success(), "--grid {grid}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = text.lines().next().unwrap().to_owned();
        let n: u64 = line
            .split(", ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        (n, std::fs::read(dir.join(grid)).unwrap())
    };
    // `--grid` reaches operator runs: 8 key buckets split the 16 time
    // partitions into more cells, and the result does not change.
    let (time_only, a) = cells("1xN");
    let (keyed, b) = cells("8xN");
    assert!(
        time_only <= 16 && keyed > 16,
        "1xN {time_only} cells, 8xN {keyed}"
    );
    assert_eq!(a, b, "the grid shape changed an operator result");

    for (args, names) in [
        (&["--op", "left", "--grid", "nonsense"][..], "--grid"),
        (&["--op", "left", "--kernel", "bogus"][..], "--kernel"),
        (&["--threads", "2", "--grid", "nonsense"][..], "--grid"),
        (&["--op", "left", "--kernel", "hash"][..], "--kernel hash"),
        (&["--op", "anti", "--kernel", "sweep"][..], "--kernel sweep"),
    ] {
        let out = vtjoin_in(&dir, &[&["join", "r.vt", "s.vt"][..], args].concat());
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(names), "{args:?}: {err}");
    }
    let auto = vtjoin_in(
        &dir,
        &["join", "r.vt", "s.vt", "--op", "left", "--kernel", "auto"],
    );
    assert!(auto.status.success(), "{}", stderr(&auto));
}

#[test]
fn operator_output_files_hold_the_oracle_text() {
    let dir = scratch("cli-op-e2e");
    gen_pair(&dir, "800");
    let (r, s) = (load(&dir, "r.vt"), load(&dir, "s.vt"));
    let natural = JoinPredicate::intersects();
    let before: JoinPredicate = "before".parse().unwrap();
    let count = segments_to_relation(&count_over_time(&predicate_join(&r, &s, &natural).unwrap()));
    let cases = [
        (
            "left",
            "intersects",
            outerjoin_pred(&r, &s, JoinSide::Left, &natural).unwrap(),
        ),
        (
            "anti",
            "intersects",
            antijoin_pred(&r, &s, &natural).unwrap(),
        ),
        ("aggregate:count", "intersects", count),
        // Sequence template: the nested fallback.
        (
            "left",
            "before",
            outerjoin_pred(&r, &s, JoinSide::Left, &before).unwrap(),
        ),
    ];
    for (op, pred, want) in &cases {
        assert!(
            !want.is_empty(),
            "{op} {pred}: an empty oracle shows nothing"
        );
        for threads in ["1", "2"] {
            let args = [
                "join",
                "r.vt",
                "s.vt",
                "--op",
                op,
                "--predicate",
                pred,
                "--threads",
                threads,
                "-o",
                "out.vt",
            ];
            let out = vtjoin_in(&dir, &args);
            assert!(out.status.success(), "{args:?}: {}", stderr(&out));
            let got = std::fs::read_to_string(dir.join("out.vt")).unwrap();
            assert!(
                got == to_text(want),
                "{op} {pred} threads={threads}: not the oracle text"
            );
        }
    }
}
