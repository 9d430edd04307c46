//! `bench` — runs one of the in-memory benchmarks and writes its
//! document, by default `BENCH_<name>.json` in the working directory.
//!
//! `--smoke` selects the tiny geometry the smoke baselines under
//! `ci/baselines/` were generated from; its default output is
//! `BENCH_<name>_smoke.json`, so a smoke run never overwrites a
//! full-size document. The emitted document is checked
//! against its benchmark's validator before it is written; a document
//! that fails is not written. The baseline comparison itself runs under
//! `cargo test -p vtjoin-bench --test smoke_gate`.

use std::process::ExitCode;
use vtjoin_bench::{benchmark, Benchmark};

/// Printed by `--help` / `-h` and after a usage error.
const USAGE: &str = "\
usage:
  bench <parallel|kernel|predicate|service|operator> [--smoke] [--out FILE]
";

/// A parsed command line: the benchmark, the geometry, the output path.
struct Cli {
    bench: &'static Benchmark,
    smoke: bool,
    out: String,
}

/// Parses the arguments; `Ok(None)` means `--help` was asked for.
fn parse(args: &[String]) -> Result<Option<Cli>, String> {
    let mut bench = None;
    let mut smoke = false;
    let mut out = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().ok_or("--out needs a value")?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if bench.is_none() => {
                bench = Some(benchmark(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?);
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let bench = bench.ok_or("missing benchmark name")?;
    let suffix = if smoke { "_smoke" } else { "" };
    let out = out.unwrap_or_else(|| format!("BENCH_{}{suffix}.json", bench.name));
    Ok(Some(Cli { bench, smoke, out }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprint!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let doc = (cli.bench.run)(cli.smoke);
    if let Err(e) = (cli.bench.validate)(&doc) {
        eprintln!(
            "error: the emitted {} document fails its schema: {e}",
            cli.bench.name
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&cli.out, doc.to_pretty()) {
        eprintln!("error: writing {}: {e}", cli.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", cli.out);
    ExitCode::SUCCESS
}
