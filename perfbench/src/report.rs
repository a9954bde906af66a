//! Metric names, result assembly and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Figure panels of the `paper_figures` workload, in run order. Each gets a
/// per-layer `exec.figure_s.<id>` metric.
pub const FIGURE_IDS: [&str; 14] = [
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "fig2e",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig3e",
    "fig3f",
    "fault_sweep",
    "h2h_dieselnet",
    "h2h_nus",
];

/// Per-layer metrics, reported from the traced run. A workload that does
/// not exercise a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("trace.gen_s", "s"),
    ("trace.shard_write_s", "s"),
    ("trace.stream_wait_s", "s"),
    ("trace.frequent_map_s", "s"),
    ("trace.shards_loaded", "count"),
    ("trace.peak_resident_contacts", "count"),
    ("runner.day_tick_s", "s"),
    ("runner.unattributed_s", "s"),
    ("runner.nodes_instantiated", "count"),
    ("runner.peak_resident_nodes", "count"),
    ("runner.materialize_per_contact", "ratio"),
    ("residue.peak_nodes", "count"),
    ("residue.bytes_est", "B"),
    ("node.contact_s", "s"),
    ("node.discovery_s", "s"),
    ("node.download_s", "s"),
    ("node.hello_exchanges", "count"),
    ("node.index_lookups", "count"),
    ("node.index_lookups_per_contact", "ratio"),
    ("node.wanted_cache_hits", "count"),
    ("node.frames_sent", "count"),
    ("node.frames_lost_ratio", "ratio"),
    ("node.clique_formations", "count"),
    ("node.metadata_transferred", "count"),
    ("node.pieces_transferred", "count"),
    ("exec.cells", "count"),
    ("exec.cpu_util", "ratio"),
    ("server.search_us_p50", "us"),
    ("server.search_us_p99", "us"),
    ("server.publish_us_p50", "us"),
    ("server.record_request_us_p50", "us"),
    ("server.maintenance_ms", "ms"),
    ("server.hits_per_search", "ratio"),
    ("server.snapshot_search_us_p50", "us"),
    ("transport.overhead_us_p50", "us"),
    ("transport.encode_us", "us"),
    ("transport.decode_us", "us"),
    ("transport.bytes_per_request", "B"),
    ("transport.frames_dropped", "count"),
    ("bench.traced_run_s", "s"),
    ("bench.tracing_overhead_s", "s"),
];

/// Every per-layer metric name with its unit: [`PER_LAYER`] plus one
/// `exec.figure_s.<id>` per figure panel.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    names.extend(
        FIGURE_IDS
            .iter()
            .map(|id| (format!("exec.figure_s.{id}"), "s")),
    );
    names
}

/// True if `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one workload run produced: its metrics, how many operations it
/// attempted and failed, the correctness checks that did not hold, and
/// free-form notes (sample counts, digests) printed ahead of the result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value by name (the unit comes from the name table).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value recorded under `name`, if any (the last one wins).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// True when every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Renders the result line: exactly the metrics of `names`, in that
/// order, each taken from `outcome` (0 when the workload did not report
/// it). Non-finite values are rendered as 0 and flagged as a problem by
/// [`metric_problems`].
pub fn result_json(outcome: &Outcome, names: &[(String, &'static str)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

/// The problems a result line would hide: metrics the workload reported
/// under a name outside `names`, and non-finite values.
pub fn metric_problems(outcome: &Outcome, names: &[(String, &'static str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, value) in &outcome.metrics {
        if !valid_name(name) {
            problems.push(format!("metric name {name} is not [A-Za-z0-9_.-]+"));
        }
        if !names.iter().any(|(n, _)| n == name) {
            problems.push(format!("metric {name} is not declared for this mode"));
        }
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite ({value})"));
        }
    }
    problems
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip rendering gives it.
fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// `q`-quantile of `samples` by nearest rank (sorts a copy). 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (lower median for even counts). 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Microseconds in `d`, fractional.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat` at the Linux default of 100 ticks per second.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// FNV-1a over `bytes`, folded into `h`.
pub fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer_names().into_iter().map(|(n, _)| n));
        for name in &all {
            assert!(valid_name(name), "illegal metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in per_layer_names() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"name\": ").count();
        let workloads = text.matches("\"why\": ").count();
        assert_eq!(
            declared - workloads,
            END_TO_END.len() + per_layer_names().len(),
            "BENCHMARK.json declares metrics the harness does not report"
        );
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.set("run_s", 1.25);
        let names: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let line = result_json(&outcome, &names);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(metric_problems(&outcome, &names).is_empty());
        outcome.set("bogus", f64::NAN);
        assert_eq!(metric_problems(&outcome, &names).len(), 2);
    }
}
