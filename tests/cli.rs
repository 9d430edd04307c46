//! The `vtjoin` CLI's flag parser: every subcommand takes only the flags
//! it documents. An unknown or removed flag is a typed usage error naming
//! the flag — never a silent no-op — and every flag `vtjoin help` prints
//! still parses. Malformed input files are typed errors, not panics.

use std::path::PathBuf;
use std::process::{Command, Output};

fn vtjoin(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_vtjoin"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
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
