//! `mbt simulate` — run the MBT file-sharing simulation over a trace file
//! or a sharded trace directory.

use std::fmt::Write as _;
use std::fs::File;
use std::time::Instant;

use dtn_sim::{FaultPlan, Telemetry};
use dtn_trace::{read_trace, ShardedTrace, SimDuration, TraceSource};
use mbt_core::{BroadcastOrdering, CooperationMode, MbtConfig, ProtocolSpec, TransportKind};
use mbt_experiments::perf::{sweep_section, BenchReport};
use mbt_experiments::runner::{run_simulation, SimParams};
use mbt_experiments::ExecConfig;

use crate::args::Args;
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt simulate <trace-file|shard-dir> \
[--protocol mbt|mbt-q|mbt-qm|popcache|diffuserep] \
[--internet 0..1] [--files-per-day N] [--ttl N] [--days N] [--seed N] \
[--metadata-per-contact N] [--files-per-contact N] [--frequent-days N] \
[--loss 0..1] [--churn 0..1] [--truncate 0..1] [--corrupt 0..1] \
[--polluters 0..1] [--fakes-per-day N] [--tft] [--rarest-first] [--verify] \
[--transport sim|bus] [--prefetch N] [--perf-report PATH]

A directory argument is opened as a sharded trace (see `mbt shard`) and
replayed shard by shard with bounded memory; a file argument is read fully
into memory. Results are identical either way. --prefetch N decodes up to
N shards ahead of the simulation on a background worker (0 = serial;
in-memory traces ignore it); results are identical at every depth.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let path = args.positional(0, "trace-file")?.to_string();
    // A directory is a sharded trace (replayed with bounded memory), a file
    // a fully resident one. The simulation cannot tell them apart.
    let source: Box<dyn TraceSource> = if std::path::Path::new(&path).is_dir() {
        Box::new(ShardedTrace::open(&path).map_err(|e| CliError::Usage(e.to_string()))?)
    } else {
        let file = File::open(&path).map_err(|e| CliError::Io(path.clone(), e))?;
        Box::new(read_trace(file).map_err(|e| CliError::Usage(e.to_string()))?)
    };

    let protocol = ProtocolSpec::by_name(args.str_or("protocol", "mbt"))
        .map_err(|e| CliError::Usage(e.to_string()))?;

    let default_days = source.span().as_days_f64().ceil().max(1.0) as u64;
    let mut config = MbtConfig::new()
        .metadata_per_contact(args.parse_or("metadata-per-contact", 20u32, "an integer")?)
        .files_per_contact(args.parse_or("files-per-contact", 4u32, "an integer")?);
    if args.flag("tft") {
        config = config.cooperation(CooperationMode::TitForTat);
    }
    if args.flag("rarest-first") {
        config = config.ordering(BroadcastOrdering::RarestFirst);
    }

    let seed = args.parse_or("seed", 42u64, "an integer")?;
    let rate = |name: &str| -> Result<f64, CliError> {
        Ok(args
            .parse_or(name, 0.0f64, "a number in [0,1]")?
            .clamp(0.0, 1.0))
    };
    let faults = FaultPlan::none()
        .loss(rate("loss")?)
        .truncate(rate("truncate")?)
        .churn(rate("churn")?)
        .corruption(rate("corrupt")?)
        .seed(seed);

    // Structured fault injection subsumes the legacy permanent-death churn:
    // `--churn` drives the plan's down intervals, not SimParams::churn.
    let params = SimParams::builder()
        .protocol(protocol)
        .config(config)
        .internet_fraction(
            args.parse_or("internet", 0.3f64, "a number in [0,1]")?
                .clamp(0.0, 1.0),
        )
        .files_per_day(args.parse_or("files-per-day", 40u32, "an integer")?)
        .ttl_days(args.parse_or("ttl", 3u64, "an integer")?)
        .days(args.parse_or("days", default_days, "an integer")?)
        .seed(seed)
        .frequent_window(SimDuration::from_days(args.parse_or(
            "frequent-days",
            1u64,
            "an integer",
        )?))
        .faults(faults)
        .polluter_fraction(
            args.parse_or("polluters", 0.0f64, "a number in [0,1]")?
                .clamp(0.0, 1.0),
        )
        .fakes_per_day(args.parse_or("fakes-per-day", 4u32, "an integer")?)
        .verify_metadata(args.flag("verify"))
        .prefetch(args.parse_or("prefetch", 0usize, "an integer")?)
        .transport(
            args.str_or("transport", "sim")
                .parse::<TransportKind>()
                .map_err(CliError::Usage)?,
        )
        .build();
    // With --perf-report the run goes through the observed path (identical
    // results — telemetry never feeds back) and the telemetry is written as
    // a schema-versioned JSON perf report.
    let perf_path = args.opt_str("perf-report").map(str::to_string);
    let started = Instant::now();
    let (r, perf_line) = match &perf_path {
        None => (run_simulation(source.as_ref(), &params, None), None),
        Some(report_path) => {
            let mut telemetry = Telemetry::default();
            let r = run_simulation(source.as_ref(), &params, Some(&mut telemetry));
            let sweep = sweep_section(&[("simulate".to_string(), 1)], started.elapsed());
            let report = BenchReport::new("simulate", &ExecConfig::serial(), &telemetry)
                .with_section("sweep", sweep);
            std::fs::write(report_path, report.to_json())
                .map_err(|e| CliError::Io(report_path.clone(), e))?;
            (r, Some(format!("  perf report written to {report_path}")))
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "protocol {protocol} over {path} ({} contacts)",
        r.contacts
    );
    let _ = writeln!(out, "  queries (measured nodes): {}", r.queries);
    let _ = writeln!(
        out,
        "  metadata delivered: {:>6}  (ratio {:.4})",
        r.metadata_delivered, r.metadata_ratio
    );
    let _ = writeln!(
        out,
        "  files delivered:    {:>6}  (ratio {:.4})",
        r.files_delivered, r.file_ratio
    );
    if let Some(d) = r.mean_metadata_delay_hours {
        let _ = writeln!(out, "  mean metadata delay: {d:.1} h");
    }
    if let Some(d) = r.mean_file_delay_hours {
        let _ = writeln!(out, "  mean file delay:     {d:.1} h");
    }
    let _ = writeln!(
        out,
        "  broadcasts: {} metadata, {} files; {} queries distributed",
        r.metadata_broadcasts, r.file_broadcasts, r.queries_distributed
    );
    if !faults.is_noop() {
        let _ = writeln!(
            out,
            "  faults: loss {:.2}, truncate {:.2}, churn {:.2}, corrupt {:.2} \
             -> {} frames lost, {} corrupt receptions",
            faults.loss_rate,
            faults.truncate_rate,
            faults.churn,
            faults.corruption_rate,
            r.frames_lost,
            r.corrupt_receptions
        );
    }
    if let Some(line) = perf_line {
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::generators::NusConfig;
    use dtn_trace::write_trace;

    fn trace_file(name: &str) -> std::path::PathBuf {
        // One file per test: tests run concurrently and must not share paths.
        let dir = std::env::temp_dir().join("mbt-cli-test-sim");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.trace"));
        let trace = NusConfig::new(20, 5).seed(3).generate();
        write_trace(std::fs::File::create(&path).unwrap(), &trace).unwrap();
        path
    }

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn runs_default_simulation() {
        let path = trace_file("default");
        let out = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        assert!(out.contains("metadata delivered"));
        assert!(out.contains("ratio"));
    }

    #[test]
    fn accepts_variant_and_flags() {
        let path = trace_file("flags");
        let out = run(&args(&format!(
            "{} --protocol mbt-qm --tft --loss 0.2 --files-per-day 8",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("MBT-QM"));
    }

    #[test]
    fn fault_flags_print_a_summary_line() {
        let path = trace_file("faults");
        let out = run(&args(&format!(
            "{} --loss 0.3 --truncate 0.4 --churn 0.2 --corrupt 0.1 --files-per-day 8",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("faults: loss 0.30"), "missing summary: {out}");
        assert!(out.contains("frames lost"));
    }

    #[test]
    fn clean_run_prints_no_fault_line() {
        let path = trace_file("clean");
        let out = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        assert!(!out.contains("faults:"), "unexpected fault line: {out}");
    }

    #[test]
    fn perf_report_flag_writes_parseable_json_without_changing_results() {
        let path = trace_file("perf");
        let report_path = std::env::temp_dir().join("mbt-cli-test-sim/perf_report.json");
        let plain = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        let observed = run(&args(&format!(
            "{} --files-per-day 8 --perf-report {}",
            path.display(),
            report_path.display()
        )))
        .unwrap();
        assert!(observed.contains("perf report written"));
        // Identical simulation output apart from the report line.
        assert_eq!(
            plain,
            observed.replace(
                &format!("  perf report written to {}\n", report_path.display()),
                ""
            )
        );
        let report =
            BenchReport::from_json(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert_eq!(report.scale, "simulate");
        assert_eq!(report.section("sweep").unwrap().int("simulate"), Some(1));
        assert!(report.counters.int("contacts").unwrap() > 0);
    }

    #[test]
    fn shard_directory_input_matches_file_input() {
        use dtn_trace::ContactSink as _;
        let path = trace_file("shard-src");
        let shard_dir = std::env::temp_dir().join("mbt-cli-test-sim/shard-src-dir");
        let _ = std::fs::remove_dir_all(&shard_dir);
        let trace = dtn_trace::read_trace(std::fs::File::open(&path).unwrap()).unwrap();
        let mut writer =
            dtn_trace::ShardWriter::create(&shard_dir, SimDuration::from_days(1)).unwrap();
        for c in trace.iter() {
            writer.push_contact(c.clone());
        }
        writer.finish().unwrap();
        let from_file = run(&args(&format!("{} --files-per-day 8", path.display()))).unwrap();
        let from_shards =
            run(&args(&format!("{} --files-per-day 8", shard_dir.display()))).unwrap();
        // The first line names the input path; everything after it must be
        // byte-identical across the two backings.
        let tail = |s: &str| s.split_once('\n').unwrap().1.to_string();
        assert_eq!(tail(&from_file), tail(&from_shards));
        // And prefetch must not change a byte either.
        for depth in [1, 3] {
            let prefetched = run(&args(&format!(
                "{} --files-per-day 8 --prefetch {depth}",
                shard_dir.display()
            )))
            .unwrap();
            assert_eq!(tail(&from_shards), tail(&prefetched), "depth {depth}");
        }
    }

    #[test]
    fn bus_transport_matches_sim_transport() {
        let path = trace_file("transport");
        let sim = run(&args(&format!(
            "{} --files-per-day 8 --transport sim",
            path.display()
        )))
        .unwrap();
        let bus = run(&args(&format!(
            "{} --files-per-day 8 --transport bus",
            path.display()
        )))
        .unwrap();
        assert_eq!(sim, bus);
    }

    #[test]
    fn rejects_unknown_transport() {
        let path = trace_file("bad-transport");
        let err = run(&args(&format!("{} --transport tcp", path.display()))).unwrap_err();
        assert!(err.to_string().contains("unknown transport"));
    }

    #[test]
    fn accepts_new_variants_by_name() {
        let path = trace_file("popcache");
        let out = run(&args(&format!(
            "{} --protocol popcache --files-per-day 8",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("PopCache"), "{out}");
    }

    #[test]
    fn unknown_protocol_suggests_closest() {
        let path = trace_file("suggest");
        let err = run(&args(&format!("{} --protocol popcash", path.display()))).unwrap_err();
        assert!(err.to_string().contains("did you mean `PopCache`"), "{err}");
    }

    #[test]
    fn rejects_unknown_protocol() {
        let path = trace_file("reject");
        let err = run(&args(&format!(
            "{} --protocol carrier-pigeon",
            path.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("carrier-pigeon"));
    }
}
