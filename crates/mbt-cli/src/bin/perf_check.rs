//! `perf-check` — diff a fresh perf report against the committed baseline.
//!
//! ```text
//! perf-check <current.json> [--baseline PATH] [--tolerance REL] [--abs-slack SECS]
//! ```
//!
//! Exit code 0 when the report is within tolerance, 1 on any violation or
//! i/o error. Counters, digests and every other exact key must match the
//! baseline exactly (they are a pure function of the deterministic event
//! stream — drift means behaviour changed); timings (phases and `_secs`
//! keys) only fail beyond `baseline * (1 + tolerance) + abs-slack`, and
//! only when both reports used the same `--jobs`. See
//! `mbt_experiments::perf::rule` for the per-key rule.
//!
//! Set `UPDATE_BASELINE=1` to overwrite the baseline with the current
//! report instead of diffing (the committed fixture refresh path, mirroring
//! `UPDATE_GOLDEN=1` for the golden figures).

use std::process::ExitCode;

use mbt_experiments::perf::{compare, BenchReport, Tolerance};

const USAGE: &str = "usage: perf-check <current.json> \
[--baseline PATH] [--tolerance REL] [--abs-slack SECS]

default baseline: tests/fixtures/bench_baseline.json
UPDATE_BASELINE=1 rewrites the baseline instead of diffing";

struct Options {
    current: String,
    baseline: String,
    tolerance: Tolerance,
}

fn parse_args<I: Iterator<Item = String>>(mut raw: I) -> Result<Options, String> {
    let mut current = None;
    let mut baseline = "tests/fixtures/bench_baseline.json".to_string();
    let mut tolerance = Tolerance::default();
    while let Some(tok) = raw.next() {
        match tok.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--baseline" => baseline = raw.next().ok_or("--baseline needs a value")?,
            "--tolerance" => {
                tolerance.rel = raw
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            "--abs-slack" => {
                tolerance.abs_secs = raw
                    .next()
                    .ok_or("--abs-slack needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --abs-slack: {e}"))?;
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => {
                if current.replace(other.to_string()).is_some() {
                    return Err("expected exactly one <current.json>".to_string());
                }
            }
        }
    }
    Ok(Options {
        current: current.ok_or(USAGE)?,
        baseline,
        tolerance,
    })
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<String, String> {
    let opts = parse_args(std::env::args().skip(1))?;
    let current = load(&opts.current)?;

    if std::env::var("UPDATE_BASELINE").as_deref() == Ok("1") {
        std::fs::write(&opts.baseline, current.to_json())
            .map_err(|e| format!("{}: {e}", opts.baseline))?;
        return Ok(format!(
            "baseline {} updated from {}",
            opts.baseline, opts.current
        ));
    }

    let baseline = load(&opts.baseline)?;
    let errors = compare(&current, &baseline, &opts.tolerance);
    if errors.is_empty() {
        Ok(format!(
            "perf-check OK: {} vs {} (every exact key identical, timings within tolerance)",
            opts.current, opts.baseline
        ))
    } else {
        Err(format!(
            "perf-check FAILED ({} violation{}):\n  {}",
            errors.len(),
            if errors.len() == 1 { "" } else { "s" },
            errors.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
