//! The MBT benchmark harness: three workloads driven only through the
//! program's public functions, each printing every metric by name and unit
//! and ending with one JSON result line.
//!
//! ```text
//! mbt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--work <dir>] [--rev <revision>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` makes the separate traced run that reports the per-layer
//! metrics. See `perfbench/README.md`.

mod city;
mod expected;
mod gateway;
mod paper;
mod report;
mod seams;
mod storm;

use std::path::PathBuf;
use std::process::ExitCode;

use dtn_sim::telemetry::{Phase, Telemetry};

use report::{Outcome, END_TO_END};

/// The workloads, in the order `run.py --all` runs them.
pub const WORKLOADS: [&str; 3] = ["paper_figures", "city_replay", "server_storm"];

/// How one run is asked to behave.
#[derive(Debug, Clone)]
pub struct Mode {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test shapes instead of the measured ones (the tests' runs).
    pub tiny: bool,
    /// Scratch directory for generated shards (created and removed here).
    pub work: PathBuf,
    pub rev: String,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut mode = Mode {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        work: PathBuf::from(".bench_build/perfbench-work"),
        rev: "unknown".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => mode.workload = value.clone(),
            "--seed" => mode.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                mode.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(mode.seconds.is_finite() && mode.seconds >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
            }
            "--trace" => {
                mode.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--work" => mode.work = PathBuf::from(value),
            "--rev" => mode.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&mode.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            mode.workload
        ));
    }
    Ok(mode)
}

/// The contact-kernel, arena and residue metrics every simulated workload
/// reads from the program's own `Telemetry`.
pub fn node_layer_metrics(out: &mut Outcome, tel: &Telemetry) {
    let c = &tel.counters;
    let contacts = c.contacts as f64;
    out.set("trace.shards_loaded", c.shards_loaded as f64);
    out.set(
        "trace.peak_resident_contacts",
        c.peak_resident_contacts as f64,
    );
    out.set("runner.nodes_instantiated", c.nodes_instantiated as f64);
    out.set("runner.peak_resident_nodes", c.peak_resident_nodes as f64);
    out.set(
        "runner.materialize_per_contact",
        report::ratio(c.nodes_instantiated as f64, contacts),
    );
    out.set("residue.peak_nodes", c.peak_residue_nodes as f64);
    out.set("residue.bytes_est", c.residue_bytes_est as f64);
    out.set(
        "node.contact_s",
        tel.phases.get(Phase::ContactProcessing).as_secs_f64(),
    );
    out.set(
        "node.discovery_s",
        tel.phases.get(Phase::Discovery).as_secs_f64(),
    );
    out.set(
        "node.download_s",
        tel.phases.get(Phase::Download).as_secs_f64(),
    );
    out.set("node.hello_exchanges", c.hello_exchanges as f64);
    out.set("node.index_lookups", c.index_lookups as f64);
    out.set(
        "node.index_lookups_per_contact",
        report::ratio(c.index_lookups as f64, contacts),
    );
    out.set("node.wanted_cache_hits", c.wanted_cache_hits as f64);
    out.set("node.frames_sent", c.frames_sent as f64);
    out.set(
        "node.frames_lost_ratio",
        report::ratio(c.frames_lost as f64, c.frames_sent as f64),
    );
    out.set("node.clique_formations", c.clique_formations as f64);
    out.set("node.metadata_transferred", c.metadata_transferred as f64);
    out.set("node.pieces_transferred", c.pieces_transferred as f64);
    let children = tel.phases.get(Phase::Discovery) + tel.phases.get(Phase::Download);
    out.check(children <= tel.phases.get(Phase::ContactProcessing), || {
        "discovery + download exceed the contact span they sit in".to_string()
    });
}

/// Runs one workload in this process and returns its outcome, with every
/// metric of the requested mode present.
pub fn run_workload(mode: &Mode) -> Outcome {
    let work = mode
        .work
        .join(format!("{}-{}", mode.workload, std::process::id()));
    let outcome = match mode.workload.as_str() {
        "paper_figures" => Ok(paper::run(mode)),
        "city_replay" => city::run(mode, &work),
        "server_storm" => Ok(storm::run(mode)),
        other => Err(format!("unknown workload {other}")),
    };
    // Best effort: the directory may never have been created.
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = outcome.unwrap_or_else(|e| {
        let mut failed = Outcome::default();
        failed.problems.push(e);
        failed
    });
    if mode.trace {
        // The traced run reports layers only.
        outcome
            .metrics
            .retain(|(name, _)| !END_TO_END.iter().any(|(e, _)| e == name));
    }
    outcome
}

/// The declared metric names of a mode, with units.
pub fn names_for(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        report::per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("mbt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {nproc} rev {}",
        mode.workload,
        mode.seed,
        mode.seconds,
        u8::from(mode.trace),
        mode.rev
    );
    let mut outcome = run_workload(&mode);
    let names = names_for(mode.trace);
    let extra = report::metric_problems(&outcome, &names);
    outcome.problems.extend(extra);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, unit) in &names {
        match outcome.get(name) {
            Some(value) => println!("{name} = {value} {unit}"),
            None => println!("{name} = 0 {unit} (not exercised by {})", mode.workload),
        }
    }
    for problem in &outcome.problems {
        println!("# FAILED CHECK: {problem}");
    }
    println!(
        "# attempted {} failed {} failed_frac {}",
        outcome.attempted,
        outcome.failed,
        report::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    println!("{}", report::result_json(&outcome, &names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
