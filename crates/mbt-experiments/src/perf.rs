//! Perf reports, bench harness, and baseline comparison.
//!
//! The observability layer ([`dtn_sim::telemetry`]) produces counters and
//! phase spans; this module turns them into one flat, schema-versioned JSON
//! document, runs the benches that fill it, and diffs a fresh report
//! against a committed baseline. The layout is
//!
//! ```text
//! { "schema":   "mbt-bench-v2",
//!   "meta":     { "git": …, "scale": …, "jobs": …, "replicates": … },
//!   "phases":   { "trace_load": 0.008808, … },
//!   "counters": { "contacts": 1872, … },
//!   "sections": { "sweep": { "fig2a": 9, …, "wall_secs": 0.351571 }, … } }
//! ```
//!
//! `phases` and `counters` carry the run's [`Telemetry`]; each bench fills
//! its own section (`sweep`, `server`, `city`). One writer, one parser and
//! one comparer treat every section alike, and [`rule`] decides each key's
//! treatment from its suffix:
//!
//! - **`_secs`** (and every phase) is a timing, thresholded at
//!   `base × (1 + rel) + abs` — only between runs with equal `jobs`, and
//!   never when the baseline is below [`Tolerance::min_phase_secs`];
//! - **`_digest`** is compared exactly and written as a hex string, because
//!   a `u64` digest can exceed 2⁵³, past which a JSON double is inexact;
//! - **`_per_sec`** is informational;
//! - **every other key** — each counter, cell count and shape field — is an
//!   exact count: the benches are deterministic, so drift is a behaviour
//!   change, not noise.
//!
//! A key or a section present on only one side is a violation too. No
//! serde is available in this workspace, so the writer and the
//! recursive-descent parser are hand-rolled; integers are read from their
//! digits, never through `f64`.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use dtn_sim::rng::{derive_seed, stream};
use dtn_sim::telemetry::{rate_per_sec, Phase, Telemetry};
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{NodeId, ShardWriter, SimDuration, SimTime};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};
use rand::Rng;

use crate::exec::ExecConfig;
use crate::figures::{self, Scale};
use crate::runner::{run_simulation, SimParams, SimResult};
use crate::sweep::Figure;

/// Schema tag every report carries; bumped on any incompatible layout
/// change. [`compare`] refuses to diff reports with different tags.
pub const BENCH_SCHEMA: &str = "mbt-bench-v2";

/// How [`compare`] treats one report key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Wall-clock seconds, thresholded.
    Timing,
    /// A `u64` digest: exact, written as a hex string.
    Digest,
    /// A rate, reported but never compared.
    Info,
    /// A deterministic count, compared exactly.
    Exact,
}

/// The rule for `key` of `section`: every phase is a timing; elsewhere the
/// key's suffix decides (`_secs`, `_digest`, `_per_sec`, else exact).
pub fn rule(section: &str, key: &str) -> Rule {
    if section == "phases" || key.ends_with("_secs") {
        Rule::Timing
    } else if key.ends_with("_digest") {
        Rule::Digest
    } else if key.ends_with("_per_sec") {
        Rule::Info
    } else {
        Rule::Exact
    }
}

/// One report value; [`rule`] says which kind a key holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count or a digest.
    Int(u64),
    /// Seconds or a rate.
    Real(f64),
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Real(x)
    }
}

impl Value {
    /// The value as reports show it: digests in hex, seconds and rates at
    /// microsecond precision.
    pub fn render(self, rule: Rule) -> String {
        match (rule, self) {
            (Rule::Digest, Value::Int(d)) => format!("{d:#018x}"),
            (_, Value::Int(n)) => n.to_string(),
            (_, Value::Real(x)) => format!("{x:.6}"),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Value::Int(n) => n as f64,
            Value::Real(x) => x,
        }
    }
}

/// A named group of report keys, kept in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section(Vec<(String, Value)>);

impl Section {
    /// Sets `key`, replacing an earlier value.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let value = value.into();
        match self.0.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.0.push((key.to_string(), value)),
        }
    }

    /// [`Section::set`], chained.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Section {
        self.set(key, value);
        self
    }

    /// The value at `key`.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The count or digest at `key`.
    pub fn int(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            Value::Int(n) => Some(n),
            Value::Real(_) => None,
        }
    }

    /// The seconds or rate at `key`.
    pub fn real(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Value::Real(x) => Some(x),
            Value::Int(_) => None,
        }
    }

    /// Keys and values in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// One perf report: identification, the run's telemetry, and one section
/// per bench that ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// Schema tag ([`BENCH_SCHEMA`] for reports written by this build).
    pub schema: String,
    /// `git describe --always --dirty` of the producing checkout, or
    /// `"unknown"` outside a repository.
    pub git: String,
    /// Human label for the workload ("quick", "server", "simulate", …).
    pub scale: String,
    /// Worker threads the producing run used (`0` = one per core).
    pub jobs: usize,
    /// Replicates per sweep cell.
    pub replicates: u32,
    /// Seconds per [`Phase::name`]. `discovery` and `download` are
    /// sub-spans of `contact_processing`.
    pub phases: Section,
    /// Deterministic counter totals, by [`dtn_sim::telemetry::Counters::entries`] name.
    pub counters: Section,
    /// The benches' own sections, by name.
    pub sections: Vec<(String, Section)>,
}

impl BenchReport {
    /// A report carrying `telemetry`, with no bench sections yet.
    pub fn new(scale: &str, exec: &ExecConfig, telemetry: &Telemetry) -> BenchReport {
        let phases = Phase::ALL.iter().fold(Section::default(), |s, p| {
            s.with(p.name(), telemetry.phases.get(*p).as_secs_f64())
        });
        let counters = (telemetry.counters.entries().into_iter())
            .fold(Section::default(), |s, (name, n)| s.with(name, n));
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            git: git_describe(),
            scale: scale.to_string(),
            jobs: exec.jobs,
            replicates: exec.replicates.max(1),
            phases,
            counters,
            sections: Vec::new(),
        }
    }

    /// Appends the section `name`.
    pub fn with_section(mut self, name: &str, section: Section) -> BenchReport {
        self.sections.push((name.to_string(), section));
        self
    }

    /// The bench section `name`, if the report has one.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// `phases`, `counters`, then every bench section, each with its name.
    pub fn all_sections(&self) -> impl Iterator<Item = (&str, &Section)> {
        [("phases", &self.phases), ("counters", &self.counters)]
            .into_iter()
            .chain(self.sections.iter().map(|(n, s)| (n.as_str(), s)))
    }

    /// Renders the report as pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": {},\n  \"meta\": {{\n    \"git\": {},\n    \"scale\": {},\n    \
             \"jobs\": {},\n    \"replicates\": {}\n  }},\n",
            json_str(&self.schema),
            json_str(&self.git),
            json_str(&self.scale),
            self.jobs,
            self.replicates
        );
        write_section(&mut out, 1, "phases", &self.phases);
        out.push_str(",\n");
        write_section(&mut out, 1, "counters", &self.counters);
        out.push_str(",\n  \"sections\": {");
        for (i, (name, section)) in self.sections.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            write_section(&mut out, 2, name, section);
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a report written by [`BenchReport::to_json`]. A document with
    /// another schema tag parses to that tag alone, so [`compare`] rejects
    /// it with its schema-mismatch message rather than guessing at a layout
    /// this build does not know. Unknown top-level keys are ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or type error: a missing
    /// field, non-finite or negative seconds, a count that is not a `u64`,
    /// a malformed digest, or nesting deeper than the parser accepts.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text)?;
        let top = doc.as_obj("the top level")?;
        let schema = json::field(top, "schema")?.as_str("`schema`")?.to_string();
        if schema != BENCH_SCHEMA {
            return Ok(BenchReport {
                schema,
                ..BenchReport::default()
            });
        }
        let meta = json::field(top, "meta")?.as_obj("`meta`")?;
        let text = |key: &str| -> Result<String, String> {
            Ok(json::field(meta, key)?.as_str(key)?.to_string())
        };
        let int = |key: &str| -> Result<u64, String> { json::field(meta, key)?.as_u64(key) };
        let sections = json::field(top, "sections")?.as_obj("`sections`")?;
        Ok(BenchReport {
            git: text("git")?,
            scale: text("scale")?,
            jobs: usize::try_from(int("jobs")?).map_err(|e| format!("`jobs`: {e}"))?,
            replicates: u32::try_from(int("replicates")?)
                .map_err(|e| format!("`replicates`: {e}"))?,
            phases: read_section("phases", json::field(top, "phases")?)?,
            counters: read_section("counters", json::field(top, "counters")?)?,
            sections: (sections.iter())
                .map(|(name, v)| Ok((name.clone(), read_section(name, v)?)))
                .collect::<Result<_, String>>()?,
            schema,
        })
    }
}

fn write_section(out: &mut String, depth: usize, name: &str, section: &Section) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!("{pad}{}: {{", json_str(name)));
    for (i, (key, value)) in section.iter().enumerate() {
        let text = match rule(name, key) {
            Rule::Digest => json_str(&value.render(Rule::Digest)),
            rule => value.render(rule),
        };
        let sep = if i == 0 { "\n" } else { ",\n" };
        out.push_str(&format!("{sep}{pad}  {}: {text}", json_str(key)));
    }
    out.push_str(&format!("\n{pad}}}"));
}

fn read_section(name: &str, value: &json::Json) -> Result<Section, String> {
    let mut section = Section::default();
    for (key, v) in value.as_obj(&format!("`{name}`"))? {
        let what = format!("`{name}.{key}`");
        let value = match rule(name, key) {
            Rule::Digest => {
                let text = v.as_str(&what)?;
                u64::from_str_radix(text.trim_start_matches("0x"), 16)
                    .map(Value::Int)
                    .map_err(|e| format!("{what}: bad digest `{text}`: {e}"))?
            }
            Rule::Exact => Value::Int(v.as_u64(&what)?),
            Rule::Timing | Rule::Info => {
                let x = v.as_f64(&what)?;
                if !(x.is_finite() && x >= 0.0) {
                    return Err(format!("{what} must be finite and non-negative, not {x}"));
                }
                Value::Real(x)
            }
        };
        section.set(key, value);
    }
    Ok(section)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `git describe --always --dirty` of the current checkout, or `"unknown"`
/// when git is unavailable (e.g. a source tarball).
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Comparison thresholds for [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum allowed relative wall-clock growth (0.30 = +30%).
    pub rel: f64,
    /// Absolute slack in seconds added on top of the relative allowance —
    /// keeps sub-second phases from failing on scheduler jitter.
    pub abs_secs: f64,
    /// Timings whose baseline is below this many seconds are not compared
    /// at all (too noisy to threshold meaningfully).
    pub min_phase_secs: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            rel: 0.30,
            abs_secs: 0.25,
            min_phase_secs: 0.05,
        }
    }
}

/// Diffs `current` against `baseline`, returning one message per violation
/// (empty = pass).
///
/// The schemas must match (otherwise that is the only message), the
/// replicate counts must match, both reports must have the same sections
/// and keys, and every key must pass its [`rule`]. Timings are compared
/// only when both runs used the same `jobs`.
pub fn compare(current: &BenchReport, baseline: &BenchReport, tol: &Tolerance) -> Vec<String> {
    if current.schema != baseline.schema {
        return vec![format!(
            "schema mismatch: current `{}` vs baseline `{}` (regenerate the baseline)",
            current.schema, baseline.schema
        )];
    }
    let mut errors = Vec::new();
    if current.replicates != baseline.replicates {
        errors.push(format!(
            "replicate count drift: current {} vs baseline {}",
            current.replicates, baseline.replicates
        ));
    }
    let timed = current.jobs == baseline.jobs;
    let names = |r: &BenchReport| {
        r.all_sections()
            .map(|(n, _)| format!("section `{n}`"))
            .collect::<Vec<_>>()
    };
    presence(&mut errors, &names(current), &names(baseline));
    for (name, base) in baseline.all_sections() {
        let Some((_, cur)) = current.all_sections().find(|(n, _)| *n == name) else {
            continue;
        };
        let keys = |s: &Section| -> Vec<String> {
            s.iter().map(|(k, _)| format!("`{name}.{k}`")).collect()
        };
        presence(&mut errors, &keys(cur), &keys(base));
        for (key, b) in base.iter() {
            let Some(c) = cur.get(key) else { continue };
            match rule(name, key) {
                Rule::Info => {}
                Rule::Timing => {
                    let (c, b) = (c.as_f64(), b.as_f64());
                    let limit = b * (1.0 + tol.rel) + tol.abs_secs;
                    if timed && b >= tol.min_phase_secs && c > limit {
                        errors.push(format!(
                            "`{name}.{key}` regressed: current {c:.3}s vs baseline {b:.3}s \
                             (limit {limit:.3}s)"
                        ));
                    }
                }
                rule if c != b => errors.push(format!(
                    "`{name}.{key}` drifted: current {} vs baseline {} (the bench is \
                     deterministic — this is a behaviour change)",
                    c.render(rule),
                    b.render(rule)
                )),
                _ => {}
            }
        }
    }
    errors
}

/// Flags every name that only one side has.
fn presence(errors: &mut Vec<String>, current: &[String], baseline: &[String]) {
    for (names, others, side) in [
        (current, baseline, "current"),
        (baseline, current, "baseline"),
    ] {
        for name in names.iter().filter(|n| !others.contains(n)) {
            errors.push(format!(
                "{name} presence mismatch: only the {side} report has it (regenerate the \
                 baseline or rerun the bench it came from)"
            ));
        }
    }
}

/// Number of simulation cells behind a rendered figure: series × points ×
/// replicates. Zero for an empty figure.
pub fn figure_cells(fig: &Figure, replicates: u32) -> u64 {
    let points: usize = fig.series.iter().map(|s| s.points.len()).sum();
    points as u64 * u64::from(replicates.max(1))
}

/// The `sweep` section: simulation cells per sweep id, in execution order,
/// then the wall clock and the cells-per-second rate over all of them.
pub fn sweep_section(cells: &[(String, u64)], wall: Duration) -> Section {
    let total: u64 = cells.iter().map(|(_, n)| n).sum();
    (cells.iter())
        .fold(Section::default(), |s, (id, n)| s.with(id, *n))
        .with("wall_secs", wall.as_secs_f64())
        .with("cells_per_sec", rate_per_sec(total, wall))
}

/// Runs the bench sweeps (fig 2a, fig 3a, and the fault sweep — one per
/// trace family plus the fault-injection path) under an observed
/// [`figures::RunContext`] and assembles the report. The figures themselves
/// are byte-identical to their unobserved counterparts and are discarded;
/// only the observations are kept.
pub fn run_bench(scale: Scale, exec: &ExecConfig) -> BenchReport {
    let scale_label = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let started = Instant::now();
    let mut ctx = figures::RunContext::new(scale).exec(*exec).observed();
    let runs: [fn(&mut figures::RunContext) -> Figure; 3] =
        [figures::fig2a, figures::fig3a, figures::fault_sweep];
    let cells: Vec<(String, u64)> = (runs.iter())
        .map(|run| {
            let fig = run(&mut ctx);
            let n = figure_cells(&fig, exec.replicates);
            (fig.id, n)
        })
        .collect();
    let telemetry = ctx.take_telemetry();
    BenchReport::new(scale_label, exec, &telemetry)
        .with_section("sweep", sweep_section(&cells, started.elapsed()))
}

/// Configuration for [`run_server_bench`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerBenchConfig {
    /// Metadata records to seed the server with.
    pub records: u64,
    /// Mixed operations the driver executes.
    pub ops: u64,
    /// Shard count of the server under test.
    pub shards: usize,
    /// Master seed; every random stream is derived from it.
    pub seed: u64,
}

impl Default for ServerBenchConfig {
    /// The committed-baseline shape: a 10⁶-record corpus and a 10⁵-op storm
    /// over 8 shards.
    fn default() -> Self {
        ServerBenchConfig {
            records: 1_000_000,
            ops: 100_000,
            shards: 8,
            seed: 42,
        }
    }
}

/// Keyword vocabulary ceiling for synthetic names (3 tokens per record, so
/// the expected posting list at the default scale is `3·10⁶ / 16384 ≈ 180`
/// — every search still ranks a triple-digit candidate set, but the 10⁵-op
/// driver finishes in CI-friendly time).
const SERVER_BENCH_VOCAB: u64 = 16_384;

/// Vocabulary for a corpus of `records`: the ceiling at production scale,
/// shrunk for small test corpora so posting lists keep ~24 entries and
/// searches still hit (a 16 k vocabulary over a few hundred records would
/// leave almost every query empty). Any corpus ≥ 2¹⁷ records hits the
/// ceiling, so the default shape — and its committed digest — is unaffected.
fn server_bench_vocab(records: u64) -> u64 {
    SERVER_BENCH_VOCAB.min((records / 8).max(32))
}

/// Zipf exponent for record popularity and query skew.
const SERVER_BENCH_ZIPF_S: f64 = 0.8;

fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The synthetic corpus record `idx`: three vocabulary tokens for a name,
/// Zipf popularity by rank, and a TTL on every 20th record so the driver's
/// expiry passes have real work.
fn server_bench_record(idx: u64, vocab: u64, rng: &mut impl Rng) -> (Metadata, Popularity) {
    let t1 = rng.gen_range(0..vocab);
    let t2 = rng.gen_range(0..vocab);
    let t3 = rng.gen_range(0..vocab);
    let uri = Uri::new(format!("mbt://bench/file-{idx}")).expect("static scheme");
    let mut builder = Metadata::builder(format!("kw{t1} kw{t2} kw{t3}"), "FOX", uri);
    if idx.is_multiple_of(20) {
        builder = builder.ttl(SimDuration::from_hours(1 + idx % 24));
    }
    let rank_pop = 1.0 / ((idx + 1) as f64).powf(SERVER_BENCH_ZIPF_S);
    (builder.build(), Popularity::new(rank_pop))
}

/// Cumulative Zipf weights over `n` ranks for weighted sampling by binary
/// search (`O(log n)` per draw).
fn zipf_cumulative(n: u64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n as usize);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / (rank as f64).powf(SERVER_BENCH_ZIPF_S);
        cum.push(total);
    }
    cum
}

fn sample_zipf(cum: &[f64], rng: &mut impl Rng) -> u64 {
    let total = *cum.last().expect("non-empty corpus");
    let x = rng.gen_range(0.0..total);
    cum.partition_point(|&c| c <= x) as u64
}

/// Seeds a [`MetadataServer`] with `cfg.records` synthetic records and
/// drives `cfg.ops` mixed operations through it: 70% Zipf-skewed searches,
/// 10% publishes (half fresh, half republish), 15% download-request
/// recordings, 5% point popularity updates — with a daily-style
/// `refresh_popularities` + `expire` pass every tenth of the run.
///
/// Returns the `server` section: the shape (`records`, `shards`, `ops`),
/// the operation counts (`publishes` includes the corpus seeding,
/// `searches`, `requests`, `expired`, `hits`), the `result_digest` folding
/// every search answer in order, the `build_secs`/`run_secs` wall clock and
/// `ops_per_sec`. Fully deterministic for a given config apart from the
/// timings: every stream is derived from `cfg.seed` via [`derive_seed`].
pub fn run_server_bench(cfg: &ServerBenchConfig) -> Section {
    assert!(cfg.records > 0 && cfg.ops > 0, "degenerate bench config");
    let (mut publishes, mut searches, mut requests, mut expired, mut hits) = (0u64, 0, 0, 0, 0);

    // Corpus seeding (timed separately: publish throughput).
    let vocab = server_bench_vocab(cfg.records);
    let build_started = Instant::now();
    let mut corpus_rng = stream(derive_seed(&[cfg.seed, 1]), "server-bench-corpus");
    let mut server = MetadataServer::with_shards(100, cfg.shards);
    for idx in 0..cfg.records {
        let (meta, popularity) = server_bench_record(idx, vocab, &mut corpus_rng);
        server.publish(meta, popularity);
        publishes += 1;
    }
    let build_secs = build_started.elapsed().as_secs_f64();

    // The driver: Zipf-skewed reads against the full corpus.
    let cum = zipf_cumulative(cfg.records);
    let mut driver_rng = stream(derive_seed(&[cfg.seed, 2]), "server-bench-driver");
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fresh = cfg.records;
    let maintenance_every = (cfg.ops / 10).max(1);
    // Simulated clock: the run always spans ~10⁵ simulated seconds (~28 h)
    // regardless of `ops`, so TTLs lapse and the 24 h estimator window
    // slides mid-run even in shrunken test configs.
    let sim_step = (100_000 / cfg.ops).max(1);
    let run_started = Instant::now();
    for op in 0..cfg.ops {
        let now = SimTime::from_secs(op * sim_step);
        match op % 20 {
            0 => {
                // Fresh publish.
                let (meta, popularity) = server_bench_record(fresh, vocab, &mut driver_rng);
                fresh += 1;
                server.publish(meta, popularity);
                publishes += 1;
            }
            1 => {
                // Republish of an existing (Zipf-hot) record.
                let idx = sample_zipf(&cum, &mut driver_rng);
                let (meta, popularity) = server_bench_record(idx, vocab, &mut driver_rng);
                server.publish(meta, popularity);
                publishes += 1;
            }
            2..=4 => {
                let idx = sample_zipf(&cum, &mut driver_rng);
                let node = NodeId::new(driver_rng.gen_range(0..100u32));
                server.record_request(
                    &Uri::new(format!("mbt://bench/file-{idx}")).unwrap(),
                    node,
                    now,
                );
                requests += 1;
            }
            5 => {
                let idx = sample_zipf(&cum, &mut driver_rng);
                let p = Popularity::new(driver_rng.gen_range(0.0..1.0));
                server.set_popularity(&Uri::new(format!("mbt://bench/file-{idx}")).unwrap(), p);
            }
            _ => {
                // Search: one- or two-token queries over the shared
                // vocabulary; with ~180 records per posting list the limit
                // of 10 exercises real ranking work on every hit.
                let t1 = driver_rng.gen_range(0..vocab);
                let two_tokens = driver_rng.gen_range(0..4u32) != 0;
                let text = if two_tokens {
                    let t2 = driver_rng.gen_range(0..vocab);
                    format!("kw{t1} kw{t2}")
                } else {
                    format!("kw{t1}")
                };
                let query = Query::new(text).expect("vocabulary tokens are valid");
                let results = server.search(&query, 10);
                searches += 1;
                hits += results.len() as u64;
                for meta in results {
                    digest = fnv_fold(digest, meta.uri().as_str().as_bytes());
                }
            }
        }
        if (op + 1) % maintenance_every == 0 {
            server.refresh_popularities(now);
            expired += server.expire(now) as u64;
        }
    }
    let run_elapsed = run_started.elapsed();
    digest = fnv_fold(digest, &hits.to_be_bytes());
    digest = fnv_fold(digest, &(server.len() as u64).to_be_bytes());
    Section::default()
        .with("records", cfg.records)
        .with("shards", cfg.shards.max(1) as u64)
        .with("ops", cfg.ops)
        .with("publishes", publishes)
        .with("searches", searches)
        .with("requests", requests)
        .with("expired", expired)
        .with("hits", hits)
        .with("result_digest", digest)
        .with("build_secs", build_secs)
        .with("run_secs", run_elapsed.as_secs_f64())
        .with("ops_per_sec", rate_per_sec(cfg.ops, run_elapsed))
}

/// Runs the server bench into a report (scale label `"server"`) whose only
/// section is `server`, plus the bench's total `wall_secs`.
pub fn run_server_bench_report(cfg: &ServerBenchConfig, exec: &ExecConfig) -> BenchReport {
    let started = Instant::now();
    let section = run_server_bench(cfg);
    BenchReport::new("server", exec, &Telemetry::default()).with_section(
        "server",
        section.with("wall_secs", started.elapsed().as_secs_f64()),
    )
}

/// Configuration for [`run_city_bench`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityBenchConfig {
    /// Buses in the generated DieselNet-style city trace.
    pub nodes: u32,
    /// Days to generate and simulate.
    pub days: u64,
    /// Routes to spread the buses over.
    pub routes: u32,
    /// Master seed.
    pub seed: u64,
    /// Shard prefetch depth for the replay (0 = serial).
    pub prefetch: usize,
}

impl Default for CityBenchConfig {
    /// The headline shape: a million-node, 30-day city trace spread over
    /// half a million routes, replayed with one shard of prefetch.
    fn default() -> Self {
        CityBenchConfig {
            nodes: 1_000_000,
            days: 30,
            routes: 500_000,
            seed: 42,
            prefetch: 1,
        }
    }
}

/// FNV-1a digest over the deterministic [`SimResult`] totals and the daily
/// delivery series — any behavioural drift flips it.
fn city_result_digest(result: &SimResult) -> u64 {
    let totals = [
        result.queries,
        result.metadata_delivered,
        result.files_delivered,
        result.contacts,
        result.metadata_broadcasts,
        result.file_broadcasts,
        result.queries_distributed,
    ];
    let daily = (result.daily_metadata_delivered.iter()).chain(&result.daily_files_delivered);
    (totals.iter().chain(daily)).fold(0xcbf2_9ce4_8422_2325, |h, v| fnv_fold(h, &v.to_be_bytes()))
}

/// Generates the configured city trace into one-day shards under `dir`
/// (replacing any trace already there) and stream-simulates it with the
/// parameters `mbt simulate --files-per-day 10 --ttl 2 --internet 0.001`
/// uses (the CLI's 1-day frequent-contact window included).
///
/// The replay's whole telemetry merges into `telemetry`. Returns the `city`
/// section: the shape (`nodes`, `days`, `routes`, `seed`, `prefetch`,
/// `contacts`, `shards`), the `queries` and `files_delivered` of the
/// result, a `result_digest` folding every deterministic [`SimResult`]
/// total and the daily delivery series, the `gen_secs`/`sim_secs` wall
/// clock and `contacts_per_sec`.
///
/// # Errors
///
/// Returns a description of the first shard I/O failure.
pub fn run_city_bench(
    cfg: &CityBenchConfig,
    dir: &Path,
    telemetry: &mut Telemetry,
) -> Result<Section, String> {
    let gen_started = Instant::now();
    let mut writer =
        ShardWriter::create(dir, SimDuration::from_days(1)).map_err(|e| e.to_string())?;
    DieselNetConfig::new(cfg.nodes, cfg.days)
        .seed(cfg.seed)
        .routes(cfg.routes)
        .generate_into(&mut writer);
    let sharded = writer.finish().map_err(|e| e.to_string())?;
    let gen_secs = gen_started.elapsed().as_secs_f64();
    let contacts = dtn_trace::TraceSource::len(&sharded) as u64;

    let params = SimParams::builder()
        .days(cfg.days)
        .seed(cfg.seed)
        .files_per_day(10)
        .ttl_days(2)
        .internet_fraction(0.001)
        .prefetch(cfg.prefetch)
        .build();
    let sim_started = Instant::now();
    let result = run_simulation(&sharded, &params, Some(telemetry));
    let sim_elapsed = sim_started.elapsed();
    Ok(Section::default()
        .with("nodes", u64::from(cfg.nodes))
        .with("days", cfg.days)
        .with("routes", u64::from(cfg.routes))
        .with("seed", cfg.seed)
        .with("prefetch", cfg.prefetch as u64)
        .with("contacts", contacts)
        .with("shards", sharded.shard_count() as u64)
        .with("queries", result.queries)
        .with("files_delivered", result.files_delivered)
        .with("result_digest", city_result_digest(&result))
        .with("gen_secs", gen_secs)
        .with("sim_secs", sim_elapsed.as_secs_f64())
        .with("contacts_per_sec", rate_per_sec(contacts, sim_elapsed)))
}

/// Runs the city bench into a report (scale label `"city"`) carrying the
/// replay's telemetry and the `city` section, plus the bench's total
/// `wall_secs`.
///
/// # Errors
///
/// Propagates [`run_city_bench`] failures.
pub fn run_city_bench_report(
    cfg: &CityBenchConfig,
    exec: &ExecConfig,
    dir: &Path,
) -> Result<BenchReport, String> {
    let started = Instant::now();
    let mut telemetry = Telemetry::default();
    let section = run_city_bench(cfg, dir, &mut telemetry)?;
    Ok(BenchReport::new("city", exec, &telemetry).with_section(
        "city",
        section.with("wall_secs", started.elapsed().as_secs_f64()),
    ))
}

mod json {
    //! Minimal recursive-descent parser for the JSON a report uses —
    //! objects, strings and numbers (no arrays or literals). Numbers keep
    //! their source text so integers convert exactly; nesting is capped at
    //! [`MAX_DEPTH`] so hostile input gets an error, not a stack overflow.

    /// A parsed JSON value: a number as written, a string, or an object's
    /// fields in source order.
    #[derive(Debug)]
    pub enum Json {
        Num(String),
        Str(String),
        Obj(Vec<(String, Json)>),
    }

    /// Deepest object nesting accepted; a report needs three levels.
    pub const MAX_DEPTH: usize = 32;

    impl Json {
        pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
            match self {
                Json::Obj(fields) => Ok(fields),
                _ => Err(format!("{what} is not an object")),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Json::Str(s) => Ok(s),
                _ => Err(format!("{what} is not a string")),
            }
        }

        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Json::Num(t) => t.parse().map_err(|_| format!("{what} is not a u64: {t}")),
                _ => Err(format!("{what} is not a number")),
            }
        }

        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Json::Num(t) => t
                    .parse()
                    .map_err(|_| format!("{what} is not a number: {t}")),
                _ => Err(format!("{what} is not a number")),
            }
        }
    }

    /// The value of `key` among `fields`.
    pub fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
        (fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing `{key}`"))
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.error("trailing garbage"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        text: &'a str,
        /// Byte offset; always on a char boundary.
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.text.as_bytes().get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
                self.pos += 1;
            }
        }

        /// Skips whitespace, then consumes `byte` if it comes next.
        fn eat(&mut self, byte: u8) -> bool {
            self.skip_ws();
            let hit = self.peek() == Some(byte);
            if hit {
                self.pos += 1;
            }
            hit
        }

        fn error(&self, what: &str) -> String {
            format!("{what} at byte {}", self.pos)
        }

        fn value(&mut self, depth: usize) -> Result<Json, String> {
            self.skip_ws();
            match self.peek() {
                None => Err("unexpected end of input".to_string()),
                Some(b'{') if depth == MAX_DEPTH => {
                    Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")))
                }
                Some(b'{') => self.object(depth + 1),
                Some(b'"') => self.string().map(Json::Str),
                Some(_) => self.number(),
            }
        }

        fn object(&mut self, depth: usize) -> Result<Json, String> {
            self.pos += 1; // '{'
            let mut fields = Vec::new();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return Err(self.error("expected object key"));
                }
                let key = self.string()?;
                if !self.eat(b':') {
                    return Err(self.error("expected :"));
                }
                fields.push((key, self.value(depth)?));
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                if !self.eat(b',') {
                    return Err(self.error("expected , or }"));
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            while (self.peek())
                .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                self.pos += 1;
            }
            let token = &self.text[start..self.pos];
            if token.parse::<f64>().is_err() {
                self.pos = start;
                return Err(self.error("expected a value"));
            }
            Ok(Json::Num(token.to_string()))
        }

        /// A string, undoing exactly the escapes the writer produces.
        fn string(&mut self) -> Result<String, String> {
            self.pos += 1; // opening quote
            let mut out = String::new();
            loop {
                let rest = self.text.get(self.pos..).unwrap_or("");
                let mut chars = rest.chars();
                match chars.next() {
                    None => return Err("unterminated string".to_string()),
                    Some('"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some('\\') => {
                        let escaped = match chars.next() {
                            Some(c @ ('"' | '\\')) => c,
                            Some('n') => '\n',
                            Some('t') => '\t',
                            Some('r') => '\r',
                            Some('u') => {
                                let code = (rest.get(2..6))
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| self.error("bad \\u escape"))?;
                                self.pos += 4;
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            }
                            _ => return Err(self.error("bad escape")),
                        };
                        out.push(escaped);
                        self.pos += 2;
                    }
                    Some(c) => {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::telemetry::Counters;
    use proptest::prelude::*;

    fn sample_report() -> BenchReport {
        let mut telemetry = Telemetry::default();
        telemetry.counters.contacts = 120;
        telemetry.counters.bytes_moved = 9_876_543;
        let phases = &mut telemetry.phases;
        phases.add(Phase::ContactProcessing, Duration::from_millis(1500));
        phases.add(Phase::Discovery, Duration::from_millis(600));
        let cells = [("fig2a".to_string(), 9), ("fig3a".to_string(), 18)];
        BenchReport::new("quick", &ExecConfig::default().jobs(2), &telemetry)
            .with_section("sweep", sweep_section(&cells, Duration::from_secs(3)))
    }

    fn sample_server_report() -> BenchReport {
        let server = Section::default()
            .with("records", 500u64)
            .with("hits", 1_900u64)
            // Deliberately above 2^53: the hex-string encoding must carry
            // it exactly where a JSON double could not.
            .with("result_digest", 0xdead_beef_cafe_f00d_u64)
            .with("run_secs", 1.6)
            .with("ops_per_sec", 250.0);
        sample_report().with_section("server", server)
    }

    fn sample_city_report() -> BenchReport {
        let city = Section::default()
            .with("nodes", 24u64)
            .with("contacts", 900u64)
            .with("result_digest", 0xfeed_face_dead_0001_u64)
            .with("sim_secs", 1.1)
            .with("contacts_per_sec", 818.0);
        sample_report().with_section("city", city)
    }

    fn section_mut<'a>(report: &'a mut BenchReport, name: &str) -> &'a mut Section {
        let found = report.sections.iter_mut().find(|(n, _)| n == name);
        &mut found.unwrap().1
    }

    /// A section's keys minus its timings and rates: what two runs of a
    /// deterministic bench must agree on.
    fn exact_keys(name: &str, section: &Section) -> Vec<(String, Value)> {
        (section.iter())
            .filter(|(k, _)| matches!(rule(name, k), Rule::Exact | Rule::Digest))
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    fn diff(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
        compare(current, baseline, &Tolerance::default())
    }

    /// Asserts `report` survives JSON and compares clean; returns the parse.
    fn round_trips_clean(report: &BenchReport) -> BenchReport {
        let json = report.to_json();
        let parsed = BenchReport::from_json(&json).unwrap();
        // Timings are written at µs precision, so a second pass is exact.
        assert_eq!(parsed.to_json(), json);
        assert!(diff(&parsed, report).is_empty());
        parsed
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let parsed = round_trips_clean(&report);
        assert_eq!(parsed.counters, report.counters);
        assert_eq!(parsed.section("sweep").unwrap().int("fig3a"), Some(18));
        assert_eq!(
            (parsed.scale.as_str(), parsed.jobs, parsed.replicates),
            ("quick", 2, 1)
        );
    }

    #[test]
    fn identical_reports_compare_clean() {
        let report = sample_report();
        assert!(diff(&report, &report).is_empty());
    }

    #[test]
    fn rule_follows_the_key_suffix() {
        assert_eq!(rule("server", "run_secs"), Rule::Timing);
        assert_eq!(rule("phases", "discovery"), Rule::Timing);
        assert_eq!(rule("city", "result_digest"), Rule::Digest);
        assert_eq!(rule("city", "contacts_per_sec"), Rule::Info);
        assert_eq!(rule("sweep", "fig2a"), Rule::Exact);
        for (name, _) in Counters::default().entries() {
            assert_eq!(rule("counters", name), Rule::Exact, "{name}");
        }
    }

    #[test]
    fn counter_drift_fails_exactly() {
        let baseline = sample_report();
        let mut current = baseline.clone();
        current.counters.set("contacts", 121u64);
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("counters.contacts"), "{errors:?}");
    }

    #[test]
    fn a_key_on_one_side_only_is_a_violation() {
        let baseline = sample_report();
        let mut current = baseline.clone();
        current.counters.set("from_the_future", 0u64);
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("only the current"), "{errors:?}");
        let errors = diff(&baseline, &current);
        assert!(errors[0].contains("only the baseline"), "{errors:?}");
    }

    #[test]
    fn small_timing_jitter_passes_large_regression_fails() {
        let baseline = sample_report();
        let mut current = baseline.clone();
        section_mut(&mut current, "sweep").set("wall_secs", 3.3); // within 30%
        assert!(diff(&current, &baseline).is_empty());
        section_mut(&mut current, "sweep").set("wall_secs", 6.0);
        current.phases.set("contact_processing", 15.0);
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(
            errors[0].contains("phases.contact_processing"),
            "{errors:?}"
        );
        assert!(errors[1].contains("sweep.wall_secs"), "{errors:?}");
    }

    #[test]
    fn timings_skipped_across_job_counts() {
        let baseline = sample_report();
        let mut current = baseline.clone();
        current.jobs = baseline.jobs + 2;
        section_mut(&mut current, "sweep").set("wall_secs", 30.0); // would fail same-jobs
        assert!(diff(&current, &baseline).is_empty());
    }

    #[test]
    fn schema_mismatch_is_a_hard_failure() {
        let baseline = sample_report();
        let mut current = baseline.clone();
        current.schema = "mbt-bench-v999".to_string();
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("schema"));
        // A v1 document parses to its schema tag alone and fails the same way.
        let v1 = BenchReport::from_json(r#"{"schema": "mbt-bench-v1", "cells": 27}"#).unwrap();
        let errors = diff(&baseline, &v1);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("schema mismatch"), "{errors:?}");
    }

    #[test]
    fn zero_cell_report_has_zero_rate_not_nan() {
        let report = BenchReport::new("empty", &ExecConfig::serial(), &Telemetry::default())
            .with_section("sweep", sweep_section(&[], Duration::ZERO));
        let rate = report.section("sweep").unwrap().real("cells_per_sec");
        assert_eq!(rate, Some(0.0));
        round_trips_clean(&report);
    }

    #[test]
    fn parser_ignores_unknown_keys() {
        let text = r#"{
            "schema": "mbt-bench-v2",
            "future_field": {"x": 1, "y": "z"},
            "meta": {"git": "g", "scale": "quick", "jobs": 1, "replicates": 1},
            "phases": {"discovery": 0.5},
            "counters": {"contacts": 5, "from_the_future": 9},
            "sections": {}
        }"#;
        let report = BenchReport::from_json(text).unwrap();
        assert_eq!(report.counters.int("contacts"), Some(5));
        // Unknown counters are kept: `compare` flags them, the parser does not.
        assert_eq!(report.counters.int("from_the_future"), Some(9));
        assert_eq!(report.phases.real("discovery"), Some(0.5));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(BenchReport::from_json("").is_err());
        assert!(BenchReport::from_json("{").is_err());
        assert!(BenchReport::from_json("{\"schema\": }").is_err());
        assert!(BenchReport::from_json("[1, 2").is_err());
        assert!(BenchReport::from_json("{} trailing").is_err());
        let valid = sample_server_report().to_json();
        for (from, to) in [
            ("\"discovery\": 0.600000", "\"discovery\": -1.0"),
            ("\"discovery\": 0.600000", "\"discovery\": 1e999"),
            ("\"contacts\": 120", "\"contacts\": 1.5"),
            ("\"contacts\": 120", "\"contacts\": 18446744073709551616"),
            ("\"0xdeadbeefcafef00d\"", "\"0xnothex\""),
            ("\"0xdeadbeefcafef00d\"", "17"),
            ("\"jobs\": 2", "\"jobs\": \"two\""),
            ("\"meta\"", "\"not_meta\""),
        ] {
            assert!(valid.contains(from), "{from}");
            let bad = valid.replace(from, to);
            assert!(BenchReport::from_json(&bad).is_err(), "accepted {to}");
        }
    }

    #[test]
    fn hostile_inputs_are_errors_not_panics() {
        // Once panicked in `Duration::from_secs_f64(inf)`.
        assert!(BenchReport::from_json(r#"{"phases":{"trace_load":1e999}}"#).is_err());
        let bad = (sample_report().to_json())
            .replace("\"trace_load\": 0.000000", "\"trace_load\": 1e999");
        let err = BenchReport::from_json(&bad).unwrap_err();
        assert!(err.contains("phases.trace_load"), "{err}");
        // Once aborted the process with a stack overflow.
        assert!(BenchReport::from_json(&"[".repeat(1_000_000)).is_err());
        let err = BenchReport::from_json(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let depth = json::MAX_DEPTH;
        let nested = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(json::parse(&nested).is_ok(), "MAX_DEPTH levels are fine");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn from_json_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = BenchReport::from_json(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn from_json_never_panics_on_truncated_or_mutated_reports(
            cut in any::<prop::sample::Index>(),
            edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..6),
        ) {
            let valid = sample_city_report().to_json().into_bytes();
            let truncated = &valid[..cut.index(valid.len())];
            let _ = BenchReport::from_json(&String::from_utf8_lossy(truncated));
            let mut mutated = valid.clone();
            for (at, byte) in &edits {
                let i = at.index(mutated.len());
                mutated[i] = *byte;
            }
            let _ = BenchReport::from_json(&String::from_utf8_lossy(&mutated));
        }
    }

    #[test]
    fn git_describe_never_panics() {
        let desc = git_describe();
        assert!(!desc.is_empty());
    }

    /// A shrunken server bench — big enough that searches hit, expires
    /// fire, and every op branch runs; small enough for a debug test.
    fn tiny_server_config() -> ServerBenchConfig {
        ServerBenchConfig {
            records: 500,
            ops: 400,
            shards: 3,
            seed: 7,
        }
    }

    #[test]
    fn server_report_round_trips_through_json() {
        let parsed = round_trips_clean(&sample_server_report());
        let server = parsed.section("server").unwrap();
        assert_eq!(server.int("result_digest"), Some(0xdead_beef_cafe_f00d));
        assert_eq!(server.real("run_secs"), Some(1.6));
    }

    #[test]
    fn server_digest_drift_fails_exactly() {
        let baseline = sample_server_report();
        let mut current = baseline.clone();
        section_mut(&mut current, "server").set("result_digest", 0xdead_beef_cafe_f00c_u64);
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("0xdeadbeefcafef00c"), "{errors:?}");
    }

    #[test]
    fn server_section_presence_must_match_the_baseline() {
        let baseline = sample_server_report();
        let current = sample_report();
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("`server` presence"), "{errors:?}");
        // And the other direction.
        let errors = diff(&baseline, &current);
        assert!(errors[0].contains("only the current"), "{errors:?}");
    }

    #[test]
    fn server_timings_thresholded_only_at_equal_jobs() {
        let baseline = sample_server_report();
        let mut current = baseline.clone();
        section_mut(&mut current, "server").set("run_secs", 16.0);
        section_mut(&mut current, "server").set("ops_per_sec", 1.0);
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 1, "rates are informational: {errors:?}");
        assert!(errors[0].contains("run_secs"), "{errors:?}");
        current.jobs += 1;
        assert!(diff(&current, &baseline).is_empty());
    }

    #[test]
    fn tiny_server_bench_repeats_bit_identically() {
        let cfg = tiny_server_config();
        let a = run_server_bench(&cfg);
        let b = run_server_bench(&cfg);
        // Every deterministic field matches; only wall clock may differ.
        assert_eq!(exact_keys("server", &a), exact_keys("server", &b));
        // The mix actually exercised every branch at this scale.
        let n = |key| a.int(key).unwrap();
        assert!(n("searches") > 0 && n("hits") > 0, "{a:?}");
        assert!(n("requests") > 0 && n("expired") > 0, "{a:?}");
        assert!(n("publishes") > cfg.records, "{a:?}");
    }

    #[test]
    fn tiny_server_bench_digest_is_shard_count_invariant() {
        let base = run_server_bench(&tiny_server_config());
        for shards in [1, 8] {
            let cfg = ServerBenchConfig {
                shards,
                ..tiny_server_config()
            };
            let got = run_server_bench(&cfg);
            // Every count and the digest; only the shape (`shards`) moves.
            let (got, want) = (exact_keys("server", &got), exact_keys("server", &base));
            assert_eq!(got[3..], want[3..], "{shards} shards");
        }
    }

    #[test]
    fn server_bench_report_wrapper_is_a_valid_sweepless_report() {
        let report = run_server_bench_report(&tiny_server_config(), &ExecConfig::default().jobs(2));
        assert_eq!(report.scale, "server");
        assert!(report.section("sweep").is_none());
        let server = round_trips_clean(&report).sections.remove(0);
        assert_eq!(server.0, "server");
        assert!(server.1.real("wall_secs").is_some());
    }

    /// A shrunken city bench — enough shards that prefetch has real work,
    /// small enough for a debug test.
    fn tiny_city_config() -> CityBenchConfig {
        CityBenchConfig {
            nodes: 24,
            days: 4,
            routes: 8,
            seed: 5,
            prefetch: 1,
        }
    }

    fn city_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mbt-perf-test-city/{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_city_run(cfg: &CityBenchConfig, dir: &str) -> (Section, Counters) {
        let mut telemetry = Telemetry::default();
        let section = run_city_bench(cfg, &city_dir(dir), &mut telemetry).unwrap();
        (section, telemetry.counters)
    }

    #[test]
    fn city_report_round_trips_through_json() {
        let parsed = round_trips_clean(&sample_city_report());
        let city = parsed.section("city").unwrap();
        assert_eq!(city.int("result_digest"), Some(0xfeed_face_dead_0001));
        assert_eq!(city.int("contacts"), Some(900));
    }

    #[test]
    fn city_counter_and_digest_drift_fail_exactly() {
        let baseline = sample_city_report();
        let mut current = baseline.clone();
        current.counters.set("peak_residue_nodes", 1u64);
        section_mut(&mut current, "city").set("result_digest", 1u64);
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(
            errors[0].contains("counters.peak_residue_nodes"),
            "{errors:?}"
        );
        assert!(errors[1].contains("city.result_digest"), "{errors:?}");
    }

    #[test]
    fn city_section_presence_must_match_the_baseline() {
        let baseline = sample_city_report();
        let current = sample_server_report();
        let errors = diff(&current, &baseline);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors.iter().all(|e| e.contains("presence")), "{errors:?}");
    }

    #[test]
    fn city_timings_thresholded_only_at_equal_jobs() {
        let baseline = sample_city_report();
        let mut current = baseline.clone();
        section_mut(&mut current, "city").set("sim_secs", 11.0);
        let errors = diff(&current, &baseline);
        assert!(errors.iter().any(|e| e.contains("sim_secs")), "{errors:?}");
        current.jobs += 1;
        assert!(diff(&current, &baseline).is_empty());
    }

    #[test]
    fn tiny_city_bench_repeats_bit_identically_at_any_prefetch_depth() {
        let cfg = tiny_city_config();
        let (a, a_counters) = tiny_city_run(&cfg, "a");
        let (b, b_counters) = tiny_city_run(&cfg, "b");
        assert_eq!(exact_keys("city", &a), exact_keys("city", &b));
        assert_eq!(a_counters, b_counters);
        // Prefetch depth never changes the simulation, only the shard
        // counters that describe the replay itself.
        let (serial, serial_counters) =
            tiny_city_run(&CityBenchConfig { prefetch: 0, ..cfg }, "serial");
        for key in ["result_digest", "queries", "files_delivered"] {
            assert_eq!(serial.int(key), a.int(key), "{key}");
        }
        assert_eq!(serial_counters.shards_prefetched, 0, "serial: no prefetch");
        assert!(a_counters.shards_prefetched >= a_counters.shards_loaded);
        // Single-decode replay: the manifest supplies the pre-sim stats, so
        // the one simulation pass is the only decode.
        let shards = a.int("shards").unwrap();
        assert_eq!(a_counters.shards_loaded, shards, "one decode per shard");
        assert!(a.int("contacts").unwrap() > 0 && shards > 1, "{a:?}");
    }

    #[test]
    fn city_bench_agrees_with_mbt_simulate_params() {
        // `mbt simulate --files-per-day 10 --ttl 2 --internet 0.001` over
        // the same shards, built the way the CLI builds it.
        let cfg = tiny_city_config();
        let dir = city_dir("vs-simulate");
        let mut bench_telemetry = Telemetry::default();
        let bench = run_city_bench(&cfg, &dir, &mut bench_telemetry).unwrap();
        let sharded = dtn_trace::ShardedTrace::open(&dir).unwrap();
        let params = SimParams::builder()
            .internet_fraction(0.001)
            .files_per_day(10)
            .ttl_days(2)
            .days(cfg.days)
            .seed(cfg.seed)
            .frequent_window(SimDuration::from_days(1))
            .faults(dtn_sim::FaultPlan::none().seed(cfg.seed))
            .fakes_per_day(4)
            .prefetch(cfg.prefetch)
            .build();
        let mut telemetry = Telemetry::default();
        let result = run_simulation(&sharded, &params, Some(&mut telemetry));
        assert_eq!(telemetry.counters, bench_telemetry.counters);
        let digest = city_result_digest(&result);
        assert_eq!(bench.int("result_digest"), Some(digest));
        assert_eq!(bench.int("queries"), Some(result.queries));
        assert_eq!(bench.int("files_delivered"), Some(result.files_delivered));
    }

    #[test]
    fn city_bench_report_wrapper_is_a_valid_sweepless_report() {
        let report = run_city_bench_report(
            &tiny_city_config(),
            &ExecConfig::default().jobs(2),
            &city_dir("wrapper"),
        )
        .unwrap();
        assert_eq!(report.scale, "city");
        assert!(report.section("sweep").is_none());
        assert!(report.section("city").is_some());
        // The whole replay telemetry rides along, not a hand-copied subset.
        let sim_only = ["hello_exchanges", "index_lookups", "nodes_instantiated"];
        assert!(sim_only.iter().all(|k| report.counters.int(k).unwrap() > 0));
        round_trips_clean(&report);
    }

    #[test]
    fn city_bench_overwrites_a_reused_directory_deterministically() {
        let dir = city_dir("reused");
        let mut telemetry = Telemetry::default();
        let first = run_city_bench(&tiny_city_config(), &dir, &mut telemetry).unwrap();
        let second = run_city_bench(&tiny_city_config(), &dir, &mut telemetry).unwrap();
        assert_eq!(exact_keys("city", &first), exact_keys("city", &second));
    }
}
