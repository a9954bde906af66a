//! The perf-report pipeline, end to end: the bench harness, the JSON
//! round-trip, the baseline comparison, and the committed
//! `tests/fixtures/bench_baseline.json` fixture itself.
//!
//! Both fixtures use the flat `mbt-bench-v2` layout (see
//! `mbt_experiments::perf`). To refresh them after an *intentional*
//! behaviour change:
//!
//! ```text
//! cargo build --release -p mbt-cli
//! ./target/release/mbt bench --scale quick --jobs 2 --out /tmp/BENCH_sweep.json
//! UPDATE_BASELINE=1 ./target/release/perf-check /tmp/BENCH_sweep.json
//! ./target/release/mbt bench --server --jobs 2 --out /tmp/BENCH_server.json
//! UPDATE_BASELINE=1 ./target/release/perf-check /tmp/BENCH_server.json \
//!     --baseline tests/fixtures/server_bench_baseline.json
//! ```
//!
//! and commit the rewritten fixture(s) alongside the change. The rewrite
//! replaces the timings too, which moves the thresholds CI applies to them.
//! A report with a new counter or section fails against an old baseline
//! (a key on one side only is a violation) until the baseline is refreshed.

use std::time::Duration;

use dtn_sim::telemetry::Telemetry;
use mbt_experiments::perf::{
    compare, figure_cells, run_bench, run_server_bench_report, sweep_section, BenchReport,
    ServerBenchConfig, Value, BENCH_SCHEMA,
};
use mbt_experiments::{ExecConfig, Scale, Tolerance};

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/bench_baseline.json")
}

fn quick_bench() -> BenchReport {
    run_bench(Scale::Quick, &ExecConfig::default().jobs(2))
}

#[test]
fn bench_report_round_trips_and_compares_clean_against_itself() {
    let report = quick_bench();
    assert_eq!(report.schema, BENCH_SCHEMA);
    let sweep = report.section("sweep").expect("sweep section");
    let keys: Vec<&str> = sweep.iter().map(|(k, _)| k).collect();
    let want = "fig2a fig3a fault_sweep wall_secs cells_per_sec";
    assert_eq!(keys.join(" "), want, "cells per sweep, in execution order");
    assert!(sweep.real("cells_per_sec").unwrap().is_finite());
    let parsed = BenchReport::from_json(&report.to_json()).unwrap();
    assert!(
        compare(&parsed, &report, &Tolerance::default()).is_empty(),
        "a report must be within tolerance of itself after a JSON round-trip"
    );
}

#[test]
fn committed_baseline_matches_current_behaviour() {
    // The same gate CI applies via perf-check: a fresh quick bench must
    // agree with the committed baseline on every deterministic field.
    // Timings are not compared here (test machines vary); perf-check
    // thresholds them separately.
    let baseline_text = std::fs::read_to_string(baseline_path())
        .expect("missing tests/fixtures/bench_baseline.json (see module docs to regenerate)");
    let baseline = BenchReport::from_json(&baseline_text).unwrap();
    assert_eq!(baseline.schema, BENCH_SCHEMA);

    let mut fresh = quick_bench();
    // Force the timing comparisons to be skipped: only the deterministic
    // keys (counters, cells per sweep, replicates) remain.
    fresh.jobs = baseline.jobs + 1;
    let errors = compare(&fresh, &baseline, &Tolerance::default());
    assert!(
        errors.is_empty(),
        "fresh bench drifted from the committed baseline — if the change is \
         intentional, regenerate the fixture (see module docs):\n  {}",
        errors.join("\n  ")
    );
}

#[test]
fn zero_cell_report_stays_finite_and_comparable() {
    // Empty-sweep guard: a report over zero cells must carry zeroed rates
    // (never NaN or a div-by-zero panic) and still survive the JSON
    // round-trip and baseline comparison.
    let empty = BenchReport::new("empty", &ExecConfig::serial(), &Telemetry::default())
        .with_section("sweep", sweep_section(&[], Duration::ZERO));
    let sweep = empty.section("sweep").unwrap();
    assert_eq!(sweep.real("cells_per_sec"), Some(0.0));
    assert!(empty.counters.iter().all(|(_, v)| v == Value::Int(0)));
    let parsed = BenchReport::from_json(&empty.to_json()).unwrap();
    assert!(compare(&parsed, &empty, &Tolerance::default()).is_empty());
}

#[test]
fn server_bench_report_round_trips_and_compares_clean() {
    // Shrunken shape: the full 10⁶-record corpus is a release-bench matter
    // (the CI perf job gates it against the committed fixture); this checks
    // the report plumbing end to end at test speed.
    let cfg = ServerBenchConfig {
        records: 800,
        ops: 600,
        shards: 4,
        seed: 42,
    };
    let report = run_server_bench_report(&cfg, &ExecConfig::default().jobs(2));
    assert_eq!(report.scale, "server");
    assert!(report.section("sweep").is_none());
    let server = report.section("server").expect("server section");
    let n = |key| server.int(key).unwrap();
    assert_eq!((n("records"), n("shards"), n("ops")), (800, 4, 600));
    assert!(n("searches") > 0 && n("hits") > 0 && n("result_digest") != 0);
    let parsed = BenchReport::from_json(&report.to_json()).unwrap();
    assert_eq!(
        parsed.section("server").unwrap().int("result_digest"),
        Some(n("result_digest")),
        "the u64 digest must survive the JSON round-trip exactly"
    );
    assert!(compare(&parsed, &report, &Tolerance::default()).is_empty());
}

#[test]
fn committed_server_baseline_has_the_default_shape() {
    // The full-scale digest is verified by the CI perf job in release mode;
    // here we pin the fixture's *shape* so a stale or hand-edited baseline
    // fails fast in the ordinary test suite.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/server_bench_baseline.json");
    let text = std::fs::read_to_string(&path).expect(
        "missing tests/fixtures/server_bench_baseline.json (see module docs to regenerate)",
    );
    let baseline = BenchReport::from_json(&text).unwrap();
    assert_eq!(baseline.schema, BENCH_SCHEMA);
    assert_eq!(baseline.scale, "server");
    let server = baseline.section("server").expect("server section");
    let n = |key| server.int(key).unwrap();
    let defaults = ServerBenchConfig::default();
    assert_eq!(n("records"), defaults.records);
    assert_eq!(n("ops"), defaults.ops);
    assert_eq!(n("shards"), defaults.shards as u64);
    assert!(n("result_digest") != 0);
    assert!(n("searches") > 0 && n("hits") > 0 && n("expired") > 0);
    // The server bench runs no simulation: every counter is present and 0.
    let zero = BenchReport::new("server", &ExecConfig::serial(), &Telemetry::default());
    assert_eq!(baseline.counters, zero.counters);
}

#[test]
fn figure_cells_counts_the_grid() {
    let mut ctx =
        mbt_experiments::figures::RunContext::new(Scale::Quick).exec(ExecConfig::serial());
    let fig = mbt_experiments::figures::fig2a(&mut ctx);
    // Quick fig2a: 3 protocols × 3 points.
    assert_eq!(figure_cells(&fig, 1), 9);
    assert_eq!(figure_cells(&fig, 4), 36);
    assert_eq!(figure_cells(&fig, 0), 9, "replicates clamp to 1");
}
