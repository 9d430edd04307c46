//! `baseline_drift` — guards the benchmark document schemas against
//! silent divergence: every full-size `BENCH_*.json` checked in at the
//! repository root must agree on `schema_version` with its
//! `ci/baselines/BENCH_*_smoke.json` counterpart. A version bump that
//! touches only one of the two (the classic drift: the benchmark code
//! and its smoke baseline regenerated, the checked-in full document
//! forgotten — or vice versa) fails CI here instead of confusing the
//! next regression triage.
//!
//! Run with `--help` (or `-h`) for the flags.
//!
//! Root documents without a smoke counterpart (and smoke baselines
//! without a full-size document) are reported but not errors: not every
//! benchmark keeps a full-size document in the tree.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vtjoin_obs::Json;

/// Printed by `--help` / `-h`.
const USAGE: &str = "\
usage:
  baseline_drift [--root DIR] [--baselines DIR]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = ".".to_owned();
    let mut baselines = "ci/baselines".to_owned();
    let mut i = 0;
    while i < args.len() {
        let value = |name: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let r = match args[i].as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--root" => value("--root").map(|v| root = v),
            "--baselines" => value("--baselines").map(|v| baselines = v),
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        i += 2;
    }
    match check(Path::new(&root), Path::new(&baselines)) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("baseline drift: {e}");
            ExitCode::from(2)
        }
    }
}

/// Reads a benchmark document's `schema_version`.
fn version_of(path: &Path) -> Result<i64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    doc.get("schema_version")
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("{}: missing schema_version", path.display()))
}

/// The root-side `BENCH_*.json` documents, sorted by name.
fn root_documents(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut docs = Vec::new();
    let entries =
        std::fs::read_dir(root).map_err(|e| format!("reading {}: {e}", root.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_file() && name.starts_with("BENCH_") && name.ends_with(".json") {
            docs.push(path);
        }
    }
    docs.sort();
    Ok(docs)
}

/// Checks every root document against its smoke counterpart; returns the
/// human-readable report on success, the first drift on failure.
fn check(root: &Path, baselines: &Path) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut compared = 0_u32;
    for doc in root_documents(root)? {
        let name = doc.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let stem = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
            .unwrap_or(name);
        let smoke = baselines.join(format!("BENCH_{stem}_smoke.json"));
        if !smoke.is_file() {
            lines.push(format!("{name}: no smoke baseline, skipped"));
            continue;
        }
        let full_version = version_of(&doc)?;
        let smoke_version = version_of(&smoke)?;
        if full_version != smoke_version {
            return Err(format!(
                "{name} has schema_version {full_version} but {} has {smoke_version}; \
                 regenerate whichever document was left behind",
                smoke.display(),
            ));
        }
        compared += 1;
        lines.push(format!("{name}: schema_version {full_version} agrees"));
    }
    if compared == 0 {
        return Err(format!(
            "no root BENCH_*.json document in {} has a smoke counterpart in {} — \
             wrong directories?",
            root.display(),
            baselines.display(),
        ));
    }
    lines.push(format!("{compared} document pair(s) in agreement"));
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("baseline_drift_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("ci/baselines")).unwrap();
        dir
    }

    fn write(dir: &Path, rel: &str, version: i64) {
        std::fs::write(
            dir.join(rel),
            format!("{{\n  \"schema_version\": {version},\n  \"benchmark\": \"x\"\n}}\n"),
        )
        .unwrap();
    }

    #[test]
    fn agreeing_pairs_pass_and_orphans_are_skipped() {
        let dir = scratch("ok");
        write(&dir, "BENCH_alpha.json", 2);
        write(&dir, "ci/baselines/BENCH_alpha_smoke.json", 2);
        write(&dir, "BENCH_orphan.json", 7);
        let lines = check(&dir, &dir.join("ci/baselines")).unwrap();
        assert!(lines.iter().any(|l| l.contains("BENCH_alpha.json")));
        assert!(lines
            .iter()
            .any(|l| l.contains("orphan") && l.contains("skipped")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_drift_and_empty_overlap_fail() {
        let dir = scratch("drift");
        write(&dir, "BENCH_alpha.json", 2);
        write(&dir, "ci/baselines/BENCH_alpha_smoke.json", 3);
        let err = check(&dir, &dir.join("ci/baselines")).unwrap_err();
        assert!(err.contains("schema_version 2"), "{err}");
        assert!(err.contains("has 3"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = scratch("empty");
        write(&dir, "BENCH_alpha.json", 2);
        let err = check(&dir, &dir.join("ci/baselines")).unwrap_err();
        assert!(err.contains("wrong directories"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn real_repository_layout_is_in_agreement() {
        // The actual tree this binary gates in CI: run from the crate
        // directory, the repository root is two levels up.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if repo.join("BENCH_parallel.json").is_file() {
            check(&repo, &repo.join("ci/baselines")).unwrap();
        }
    }
}
