//! Bench-regression comparison: checked-in baseline documents vs a fresh
//! run, over **deterministic counters only**, plus the document envelope
//! every benchmark validator shares.
//!
//! CI machines have wildly variable wall-clock behaviour, so a useful
//! regression gate can never compare timings. What it *can* compare
//! exactly are the counters the simulator makes deterministic under a
//! fixed seed: I/O operation counts, sweep comparisons, result
//! cardinalities, partition counts, cache hit/miss totals. [`compare`]
//! walks a current benchmark document against a baseline and flags every
//! leaf that differs, skipping any field whose name marks it as
//! timing-derived (the [`NONDETERMINISTIC_KEY_MARKERS`] denylist). The
//! fixed-seed workloads make the baselines exact, so there is no
//! tolerance: one I/O more or less is a drift.
//!
//! The gate is `cargo test -p vtjoin-bench --test smoke_gate`: each
//! benchmark's smoke document is validated against its own schema, then
//! compared with `ci/baselines/BENCH_<name>_smoke.json`.

use vtjoin_obs::Json;

/// Field-name substrings marking values derived from wall-clock or
/// machine load — excluded from regression comparison. Matched
/// case-insensitively against each object key anywhere in the document.
pub const NONDETERMINISTIC_KEY_MARKERS: &[&str] = &[
    "wall",
    "micros",
    "speedup",
    "utilization",
    "throughput",
    "queue",
    "host",
];

fn is_nondeterministic(key: &str) -> bool {
    let lower = key.to_ascii_lowercase();
    NONDETERMINISTIC_KEY_MARKERS
        .iter()
        .any(|m| lower.contains(m))
}

/// One drifted integer leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Dotted path from the document root (array indices in brackets).
    pub path: String,
    /// The baseline value.
    pub baseline: i64,
    /// The current value.
    pub current: i64,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: baseline {} → current {}",
            self.path, self.baseline, self.current
        )
    }
}

fn walk(path: &str, current: &Json, baseline: &Json, drifts: &mut Vec<Drift>) {
    match (current, baseline) {
        (Json::Obj(_), Json::Obj(base_pairs)) => {
            for (key, base_val) in base_pairs {
                if is_nondeterministic(key) {
                    continue;
                }
                let child = format!("{path}.{key}");
                match current.get(key) {
                    Some(cur_val) => walk(&child, cur_val, base_val, drifts),
                    // A counter present in the baseline but missing from
                    // the current run is itself a regression signal.
                    None => drifts.push(Drift {
                        path: child,
                        baseline: base_val.as_i64().unwrap_or(0),
                        current: 0,
                    }),
                }
            }
        }
        (Json::Arr(cur), Json::Arr(base)) => {
            if cur.len() != base.len() {
                drifts.push(Drift {
                    path: format!("{path}.len"),
                    baseline: base.len() as i64,
                    current: cur.len() as i64,
                });
                return;
            }
            for (i, (c, b)) in cur.iter().zip(base).enumerate() {
                walk(&format!("{path}[{i}]"), c, b, drifts);
            }
        }
        // Integers, strings, bools, nulls: identity (a renamed benchmark
        // or kernel label is a schema change, not drift, but still fails).
        (c, b) => {
            if c != b {
                drifts.push(Drift {
                    path: path.to_owned(),
                    baseline: b.as_i64().unwrap_or(-1),
                    current: c.as_i64().unwrap_or(-1),
                });
            }
        }
    }
}

/// Compares a current benchmark document against a baseline. Every leaf
/// reachable through non-denylisted baseline keys must equal the
/// baseline's exactly. Returns the list of drifted leaves; empty means
/// the gate passes.
pub fn compare(current: &Json, baseline: &Json) -> Vec<Drift> {
    let mut drifts = Vec::new();
    walk("$", current, baseline, &mut drifts);
    drifts
}

/// Requires an integer under each of `keys` in `section`; `path` names
/// the section in the error (`missing cells[3].result_tuples`).
pub fn require_ints(section: &Json, path: &str, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        section
            .get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("missing {path}.{key}"))?;
    }
    Ok(())
}

/// The envelope every benchmark document shares: `schema_version` equal
/// to the module's `version`, `benchmark` equal to `name`, a `host`
/// section with `host_cores` and `host_parallelism` when one is present
/// (older smoke baselines predate it), and an integer under each of
/// `workload_keys` in the `workload` section. Returns the workload
/// section.
pub fn check_envelope<'a>(
    doc: &'a Json,
    version: i64,
    name: &str,
    workload_keys: &[&str],
) -> Result<&'a Json, String> {
    let found = doc
        .get("schema_version")
        .and_then(Json::as_i64)
        .ok_or("missing schema_version")?;
    if found != version {
        return Err(format!("schema_version {found}, expected {version}"));
    }
    match doc.get("benchmark").and_then(Json::as_str) {
        Some(b) if b == name => {}
        other => return Err(format!("unexpected benchmark field {other:?}")),
    }
    if let Some(host) = doc.get("host") {
        require_ints(host, "host", &["host_cores", "host_parallelism"])?;
    }
    let workload = doc.get("workload").ok_or("missing workload")?;
    require_ints(workload, "workload", workload_keys)?;
    Ok(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_obs::json::obj;

    fn doc(io_ops: i64, wall: i64, tuples: i64) -> Json {
        obj(vec![
            ("schema_version", Json::Int(1)),
            ("benchmark", Json::Str("demo".into())),
            ("wall_micros", Json::Int(wall)),
            (
                "runs",
                Json::Arr(vec![obj(vec![
                    ("io_ops", Json::Int(io_ops)),
                    ("result_tuples", Json::Int(tuples)),
                    ("speedup_x100", Json::Int(wall / 2)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(1000, 777, 42);
        assert_eq!(compare(&d, &d), Vec::new());
    }

    #[test]
    fn wall_clock_and_ratio_fields_are_ignored() {
        // Same counters, wildly different timings: still a pass.
        let current = doc(1000, 999_999, 42);
        let baseline = doc(1000, 3, 42);
        assert_eq!(compare(&current, &baseline), Vec::new());
    }

    #[test]
    fn injected_regression_is_rejected() {
        let baseline = doc(1000, 777, 42);
        // An extra I/O op: the comparator must flag exactly that leaf.
        let regressed = doc(1001, 777, 42);
        let drifts = compare(&regressed, &baseline);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "$.runs[0].io_ops");
        assert_eq!((drifts[0].baseline, drifts[0].current), (1000, 1001));
        // One fewer is a drift too: the comparison is exact both ways.
        let drifts = compare(&doc(999, 777, 42), &baseline);
        assert_eq!((drifts[0].baseline, drifts[0].current), (1000, 999));
    }

    #[test]
    fn cardinality_change_is_a_drift() {
        let baseline = doc(1000, 777, 42);
        let wrong = doc(1000, 777, 0);
        let drifts = compare(&wrong, &baseline);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "$.runs[0].result_tuples");
    }

    #[test]
    fn missing_and_shape_changes_are_drifts() {
        let baseline = doc(1000, 777, 42);
        // Remove the runs array entirely.
        let Json::Obj(mut pairs) = baseline.clone() else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "runs");
        let gutted = Json::Obj(pairs);
        assert!(!compare(&gutted, &baseline).is_empty());
        // Renamed benchmark string is flagged too.
        let renamed =
            Json::parse(&baseline.to_pretty().replacen("\"demo\"", "\"other\"", 1)).unwrap();
        assert_eq!(compare(&renamed, &baseline).len(), 1);
    }

    #[test]
    fn envelope_pins_version_name_host_and_workload_keys() {
        let with = |host: Json| {
            obj(vec![
                ("schema_version", Json::Int(2)),
                ("benchmark", Json::Str("demo".into())),
                ("host", host),
                ("workload", obj(vec![("seed", Json::Int(7))])),
            ])
        };
        let good = with(obj(vec![
            ("host_cores", Json::Int(2)),
            ("host_parallelism", Json::Int(1)),
        ]));
        assert!(check_envelope(&good, 2, "demo", &["seed"]).is_ok());
        let err = check_envelope(&good, 3, "demo", &["seed"]).unwrap_err();
        assert!(err.contains("schema_version 2, expected 3"), "{err}");
        assert!(check_envelope(&good, 2, "other", &["seed"]).is_err());
        let err = check_envelope(&good, 2, "demo", &["seed", "keys"]).unwrap_err();
        assert_eq!(err, "missing workload.keys");
        let bad_host = with(obj(vec![("host_cores", Json::Int(2))]));
        let err = check_envelope(&bad_host, 2, "demo", &["seed"]).unwrap_err();
        assert_eq!(err, "missing host.host_parallelism");
    }
}
