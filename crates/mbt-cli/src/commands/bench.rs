//! `mbt bench` — run the quick-scale figure sweeps under telemetry and emit
//! a schema-versioned perf report (`BENCH_sweep.json`).
//!
//! The report carries the schema tag, `git describe`, wall-clock per phase,
//! the deterministic counter totals and one section per bench (cells per
//! sweep, the server or city results); `perf-check` diffs it against the
//! committed baseline in CI.

use std::fmt::Write as _;

use mbt_experiments::perf::{
    rule, run_bench, run_city_bench_report, run_server_bench_report, BenchReport, CityBenchConfig,
    ServerBenchConfig,
};
use mbt_experiments::{ExecConfig, Scale};

use crate::args::Args;
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt bench [--scale quick|full] [--jobs N] \
[--replicates N] [--seed N] [--out PATH]
mbt bench --server [--server-records N] [--server-ops N] \
[--server-shards N] [--seed N] [--out PATH]
mbt bench --city [--city-nodes N] [--city-days N] [--city-routes N] \
[--city-prefetch N] [--city-dir DIR] [--seed N] [--out PATH]

runs fig2a + fig3a + the fault sweep under telemetry and writes a
schema-versioned JSON perf report (default BENCH_sweep.json); with
--server, instead benches the sharded metadata server (synthetic corpus
+ mixed query storm, default 1e6 records / 1e5 ops / 8 shards); with
--city, generates a city-sized DieselNet trace into shards and
stream-simulates it with prefetch (default 1e6 nodes / 30 days /
5e5 routes / prefetch 1 — a long run; shards land in --city-dir,
default a temp directory)";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let exec = ExecConfig::default()
        .jobs(args.parse_or("jobs", 1usize, "an integer")?)
        .replicates(args.parse_or("replicates", 1u32, "an integer")?)
        .master_seed(args.parse_or("seed", 42u64, "an integer")?);
    let out_path = args.str_or("out", "BENCH_sweep.json").to_string();

    let report = if args.flag("server") {
        let defaults = ServerBenchConfig::default();
        let cfg = ServerBenchConfig {
            records: args.parse_or("server-records", defaults.records, "an integer")?,
            ops: args.parse_or("server-ops", defaults.ops, "an integer")?,
            shards: args.parse_or("server-shards", defaults.shards, "an integer")?,
            seed: args.parse_or("seed", 42u64, "an integer")?,
        };
        if cfg.records == 0 || cfg.ops == 0 {
            return Err(CliError::Usage(
                "--server-records and --server-ops must be positive".into(),
            ));
        }
        run_server_bench_report(&cfg, &exec)
    } else if args.flag("city") {
        let defaults = CityBenchConfig::default();
        let cfg = CityBenchConfig {
            nodes: args.parse_or("city-nodes", defaults.nodes, "an integer")?,
            days: args.parse_or("city-days", defaults.days, "an integer")?,
            routes: args.parse_or("city-routes", defaults.routes, "an integer")?,
            prefetch: args.parse_or("city-prefetch", defaults.prefetch, "an integer")?,
            seed: args.parse_or("seed", 42u64, "an integer")?,
        };
        if cfg.nodes == 0 || cfg.days == 0 {
            return Err(CliError::Usage(
                "--city-nodes and --city-days must be positive".into(),
            ));
        }
        let dir = args
            .opt_str("city-dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("mbt-city-bench-shards"));
        run_city_bench_report(&cfg, &exec, &dir).map_err(CliError::Usage)?
    } else {
        let scale = match args.str_or("scale", "quick") {
            "quick" => Scale::Quick,
            "full" => Scale::Full,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown scale `{other}` (expected quick or full)"
                )))
            }
        };
        run_bench(scale, &exec)
    };
    std::fs::write(&out_path, report.to_json()).map_err(|e| CliError::Io(out_path.clone(), e))?;
    Ok(render(&report, &out_path))
}

fn render(report: &BenchReport, out_path: &str) -> String {
    let mut out = format!(
        "bench {} ({}), jobs {}, replicates {}\n",
        report.scale, report.git, report.jobs, report.replicates
    );
    for (name, section) in report.all_sections() {
        for (key, value) in section.iter() {
            let path = format!("{name}.{key}");
            let _ = writeln!(out, "  {path:<36} {}", value.render(rule(name, key)));
        }
    }
    let _ = writeln!(out, "  report written to {out_path}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn out_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mbt-cli-test-bench");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}.json"))
    }

    #[test]
    fn quick_bench_writes_schema_versioned_report() {
        let path = out_path("quick");
        let out = run(&args(&format!(
            "--scale quick --jobs 1 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("sweep.fig2a"), "{out}");
        assert!(out.contains("phases.contact_processing"), "{out}");
        let report = BenchReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.schema, mbt_experiments::perf::BENCH_SCHEMA);
        let sweep = report.section("sweep").expect("sweep section");
        for id in ["fig2a", "fig3a", "fault_sweep"] {
            assert!(sweep.int(id).unwrap() > 0, "{id}");
        }
        assert!(report.counters.int("contacts").unwrap() > 0);
        assert!(report.counters.int("bytes_moved").unwrap() > 0);
    }

    #[test]
    fn rejects_unknown_scale() {
        let err = run(&args("--scale planetary")).unwrap_err();
        assert!(err.to_string().contains("planetary"));
    }

    #[test]
    fn server_bench_writes_a_server_section() {
        let path = out_path("server");
        let out = run(&args(&format!(
            "--server --server-records 400 --server-ops 300 --server-shards 4 \
             --jobs 1 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("server.records"), "{out}");
        assert!(out.contains("server.result_digest"), "{out}");
        assert!(out.contains(" 0x"), "digests render in hex: {out}");
        let report = BenchReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.scale, "server");
        assert!(report.section("sweep").is_none());
        let server = report.section("server").expect("server section");
        let n = |key| server.int(key).unwrap();
        assert_eq!((n("records"), n("shards"), n("ops")), (400, 4, 300));
        assert!(n("searches") > 0 && n("hits") > 0);
    }

    #[test]
    fn server_bench_rejects_degenerate_shapes() {
        let err = run(&args("--server --server-records 0")).unwrap_err();
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn city_bench_writes_a_city_section() {
        let path = out_path("city");
        let dir = std::env::temp_dir().join("mbt-cli-test-bench/city-shards");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&args(&format!(
            "--city --city-nodes 24 --city-days 4 --city-routes 8 --city-prefetch 1 \
             --seed 5 --jobs 1 --city-dir {} --out {}",
            dir.display(),
            path.display()
        )))
        .unwrap();
        assert!(out.contains("city.nodes"), "{out}");
        assert!(out.contains("city.result_digest"), "{out}");
        let report = BenchReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.scale, "city");
        let city = report.section("city").expect("city section");
        let n = |key| city.int(key).unwrap();
        assert_eq!((n("nodes"), n("days"), n("routes")), (24, 4, 8));
        assert!(n("contacts") > 0 && n("shards") > 1);
        assert_eq!(
            report.counters.int("shards_loaded"),
            Some(n("shards")),
            "single-decode replay"
        );
        assert!(
            dir.join("manifest.txt").exists(),
            "shards kept in --city-dir"
        );
    }

    #[test]
    fn city_bench_rejects_degenerate_shapes() {
        let err = run(&args("--city --city-nodes 0")).unwrap_err();
        assert!(err.to_string().contains("positive"));
    }
}
