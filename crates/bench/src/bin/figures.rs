//! Regenerates the paper's evaluation artifacts.
//!
//! Run with `--help` (or `-h`) for the flags.
//!
//! Each artifact prints an aligned table (and an ASCII chart where the
//! paper has one) and writes a CSV under `--out` (default `results/`).
//! The `report` artifact instead runs one instrumented partition join and
//! emits its unified execution report (explain text + JSON).

use std::path::PathBuf;
use vtjoin_bench::figures::{self, FigureResult};
use vtjoin_bench::harness::run_algorithm_reported;
use vtjoin_bench::{build_pair, Algo, Scale};
use vtjoin_storage::CostRatio;

/// Printed by `--help` / `-h`.
const USAGE: &str = "\
usage:
  figures [fig4|fig5|fig6|fig7|fig8|ablation|report|all] [--scale small|full] [--out DIR]
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Full;
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage("bad --scale (small|full)"));
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).unwrap_or_else(|| usage("missing --out dir")));
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            other => which.push(other.to_owned()),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_owned());
    }
    let run_all = which.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || which.iter().any(|w| w == name);

    let started = std::time::Instant::now();
    let mut produced: Vec<FigureResult> = Vec::new();
    if wants("fig5") {
        produced.push(figures::fig5_rows(scale));
    }
    if wants("fig4") {
        produced.push(figures::fig4(scale));
    }
    if wants("fig6") {
        produced.push(figures::fig6(scale));
    }
    if wants("fig7") {
        produced.push(figures::fig7(scale));
    }
    if wants("fig8") {
        produced.push(figures::fig8(scale));
    }
    if wants("ablation") {
        produced.push(figures::ablation_replication(scale));
        produced.push(figures::ablation_time_index(scale));
    }
    let mut reported = false;
    if wants("report") {
        reported = true;
        execution_report_artifact(scale, &out);
    }
    if produced.is_empty() && !reported {
        usage(&format!("unknown artifact(s): {which:?}"));
    }

    for fig in &produced {
        println!("== {} ==", fig.name);
        println!("{}", fig.to_table());
        if let Some(chart) = &fig.chart {
            println!("{chart}");
        }
        match fig.write_csv(&out) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("csv write failed: {e}\n"),
        }
    }
    eprintln!("done in {:.1?}", started.elapsed());
}

/// One instrumented partition-join run: prints the explain rendering and
/// writes the machine-readable report (`docs/OBSERVABILITY.md` schema) as
/// `execution-report.json` under `--out`.
fn execution_report_artifact(scale: Scale, out: &std::path::Path) {
    let params = scale.params();
    let (_, hr, hs) = build_pair(&params, scale.long_lived(32_000), 42);
    let (_, er) = run_algorithm_reported(
        Algo::Partition,
        &hr,
        &hs,
        scale.buffer_pages(4),
        CostRatio::R5,
    );
    println!("== execution report (partition, 4 MB memory, R5) ==");
    print!("{}", er.render_explain());
    let path = out.join("execution-report.json");
    match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, er.to_json_string())) {
        Ok(()) => println!("wrote {}\n", path.display()),
        Err(e) => eprintln!("report write failed: {e}\n"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}
