//! `city_replay`: a sharded DieselNet city trace with daily shards,
//! stream-simulated with one shard of prefetch and the CLI's parameters.
//!
//! Every contact is pairwise. The run exercises shard decode and prefetch,
//! node-arena and residue churn, and the daily workload events over every
//! present node — the layers the figure sweeps never reach.

use std::path::Path;
use std::time::{Duration, Instant};

use dtn_sim::telemetry::{Phase, Telemetry};
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{ShardWriter, ShardedTrace, SimDuration, TraceSource};
use mbt_experiments::{run_simulation, SimParams, SimResult};

use crate::expected;
use crate::report::{fnv_fold, median, ratio, Outcome, FNV_START};
use crate::seams::{Histogram, SeamTimes, TimedSink, TimedSource};
use crate::Mode;

/// A generated city: buses, simulated days and routes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: u32,
    pub days: u64,
    pub routes: u32,
}

/// The measured shape: ROADMAP's 100k-bus, 10-day, 50k-route city scaled
/// to a fifth of its buses and routes so one replay fits a run.
pub const FULL: Shape = Shape {
    nodes: 20_000,
    days: 10,
    routes: 10_000,
};

/// The smoke-test shape.
pub const TINY: Shape = Shape {
    nodes: 400,
    days: 3,
    routes: 200,
};

/// The pinned gate's shape (seed 42).
const GATE: Shape = Shape {
    nodes: 2_000,
    days: 3,
    routes: 1_000,
};
const GATE_SEED: u64 = 42;

/// The replay's own seed: `mbt simulate`'s default. The run's seed drives
/// the trace, the benchmark's input; the simulator keeps the CLI's seed,
/// like its other parameters. (Which 0.1% of buses get Internet access is
/// drawn from this seed; varying it moves the replay's cost by ±10%, which
/// would drown the signal in run-to-run spread.)
const SIM_SEED: u64 = 42;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// The `mbt simulate` defaults for a city: 10 files/day, 2-day TTL, 0.1%
/// Internet access, 1-day frequent window, one shard of prefetch.
pub fn params(shape: Shape, seed: u64) -> SimParams {
    SimParams {
        days: shape.days,
        seed,
        files_per_day: 10,
        ttl_days: 2,
        internet_fraction: 0.001,
        frequent_window: SimDuration::from_days(1),
        prefetch: 1,
        ..SimParams::default()
    }
}

/// One trace generation into daily shards: the trace plus the split of its
/// wall clock into generation and shard writing (the split is only
/// measured when `traced`; untraced it is all charged to generation).
pub struct Setup {
    pub trace: ShardedTrace,
    pub wall: Duration,
    pub gen: Duration,
    pub write: Duration,
}

pub fn generate(shape: Shape, seed: u64, dir: &Path, traced: bool) -> Result<Setup, String> {
    let started = Instant::now();
    let mut writer = ShardWriter::create(dir, SimDuration::from_days(1))
        .map_err(|e| e.to_string())?
        .jobs(2);
    let cfg = DieselNetConfig::new(shape.nodes, shape.days)
        .seed(seed)
        .routes(shape.routes);
    let in_sink = if traced {
        let mut sink = TimedSink::new(&mut writer);
        cfg.generate_into(&mut sink);
        sink.in_sink
    } else {
        cfg.generate_into(&mut writer);
        Duration::ZERO
    };
    let generated = started.elapsed();
    let trace = writer.finish().map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    Ok(Setup {
        trace,
        wall,
        gen: generated - in_sink,
        write: in_sink + (wall - generated),
    })
}

/// The fold `perf::run_city_bench` pins: every deterministic result
/// counter plus the daily delivery series.
pub fn result_digest(result: &SimResult) -> u64 {
    let mut digest = FNV_START;
    for value in [
        result.queries,
        result.metadata_delivered,
        result.files_delivered,
        result.contacts,
        result.metadata_broadcasts,
        result.file_broadcasts,
        result.queries_distributed,
    ] {
        digest = fnv_fold(digest, &value.to_be_bytes());
    }
    for day in result
        .daily_metadata_delivered
        .iter()
        .chain(result.daily_files_delivered.iter())
    {
        digest = fnv_fold(digest, &day.to_be_bytes());
    }
    digest
}

/// One replay of `trace` through the seam wrapper.
pub struct Replay {
    pub result: SimResult,
    pub wall: Duration,
    pub seams: SeamTimes,
    pub telemetry: Option<Telemetry>,
    pub cpu_s: f64,
}

pub fn replay(trace: &ShardedTrace, params: &SimParams, traced: bool) -> Replay {
    let source = TimedSource::new(trace, traced);
    let mut telemetry = traced.then(Telemetry::default);
    let cpu_started = crate::report::process_cpu_s();
    let started = Instant::now();
    let result = run_simulation(&source, params, telemetry.as_mut());
    let wall = started.elapsed();
    Replay {
        result: std::hint::black_box(result),
        wall,
        seams: source.times(),
        telemetry,
        cpu_s: crate::report::process_cpu_s() - cpu_started,
    }
}

/// Checks that hold for any seed: every contact of the trace was processed
/// and the daily series add up to the totals.
fn check_result(out: &mut Outcome, trace: &ShardedTrace, result: &SimResult) {
    out.check(result.contacts == trace.len() as u64, || {
        format!(
            "replay processed {} contacts of {}",
            result.contacts,
            trace.len()
        )
    });
    out.check(
        result.daily_files_delivered.iter().sum::<u64>() == result.files_delivered
            && result.daily_metadata_delivered.iter().sum::<u64>() == result.metadata_delivered,
        || "daily delivery series do not sum to the totals".to_string(),
    );
    out.check(result.queries > 0, || {
        "the replay generated no queries".to_string()
    });
}

pub fn run(mode: &Mode, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shape = if mode.tiny { TINY } else { FULL };

    // Pinned gate: a small city at the canonical seed, generated and
    // replayed exactly as the measured one.
    let gate_dir = work.join("gate");
    let gate = generate(GATE, GATE_SEED, &gate_dir, false)?;
    let gate_run = replay(&gate.trace, &params(GATE, SIM_SEED), false);
    expected::check(&mut out, "city_gate", result_digest(&gate_run.result));
    out.attempted += 1;
    drop(gate);
    std::fs::remove_dir_all(&gate_dir).map_err(|e| e.to_string())?;

    // Set-up: generate the measured trace several times; keep the last.
    let mut setups: Vec<Setup> = Vec::new();
    for i in 0..SETUPS {
        let dir = work.join(format!("trace-{i}"));
        setups.push(generate(shape, mode.seed, &dir, mode.trace)?);
        if i > 0 {
            std::fs::remove_dir_all(work.join(format!("trace-{}", i - 1)))
                .map_err(|e| e.to_string())?;
        }
    }
    let setup_walls: Vec<f64> = setups.iter().map(|s| s.wall.as_secs_f64()).collect();
    let gen_s = median(
        &setups
            .iter()
            .map(|s| s.gen.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let write_s = median(
        &setups
            .iter()
            .map(|s| s.write.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let trace = setups.pop().expect("at least one set-up").trace;
    out.set("setup_s", median(&setup_walls));
    let params = params(shape, SIM_SEED);

    if mode.trace {
        let plain = replay(&trace, &params, false);
        let traced = replay(&trace, &params, true);
        out.attempted += 2;
        check_result(&mut out, &trace, &traced.result);
        out.check(
            result_digest(&plain.result) == result_digest(&traced.result),
            || "telemetry changed the replay".to_string(),
        );
        out.set("trace.gen_s", gen_s);
        out.set("trace.shard_write_s", write_s);
        layer_metrics(&mut out, &trace, &plain, &traced);
        return Ok(out);
    }

    let budget = Duration::from_secs_f64(mode.seconds);
    let started = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    // Whole replays only: another one starts if it should end in budget.
    while replays
        .last()
        .is_none_or(|last| started.elapsed() + last.wall <= budget)
    {
        replays.push(replay(&trace, &params, false));
        out.attempted += 1;
    }
    out.set("peak_rss_mb", crate::report::peak_rss_mb());
    let digest = result_digest(&replays[0].result);
    check_result(&mut out, &trace, &replays[0].result);
    for r in &replays[1..] {
        out.check(result_digest(&r.result) == digest, || {
            "replays of one trace disagree".to_string()
        });
    }
    let walls: Vec<f64> = replays.iter().map(|r| r.wall.as_secs_f64()).collect();
    out.note(format!("replay walls (s): {walls:.3?}"));
    let mut contact_ns = Histogram::default();
    for r in &replays {
        contact_ns.merge(&r.seams.contact_ns);
    }
    let contacts = trace.len() as f64 * replays.len() as f64;
    out.set("run_s", median(&walls));
    out.set("throughput_per_s", ratio(contacts, walls.iter().sum()));
    out.set("latency_p50_us", contact_ns.quantile_us(0.5));
    out.set("latency_p99_us", contact_ns.quantile_us(0.99));
    out.note(format!(
        "city_replay: {} buses, {} days, {} routes, trace seed {}, replay seed {SIM_SEED}: \
         {} contacts in {} shards; result digest {digest:#018x}",
        shape.nodes,
        shape.days,
        shape.routes,
        mode.seed,
        trace.len(),
        trace.shard_count()
    ));
    out.note(format!(
        "samples: run_s over {} replays; latency = interval between contact pulls over {} \
         contacts; setup over {SETUPS} generations",
        replays.len(),
        contact_ns.count()
    ));
    Ok(out)
}

fn layer_metrics(out: &mut Outcome, trace: &ShardedTrace, plain: &Replay, traced: &Replay) {
    let tel = traced
        .telemetry
        .as_ref()
        .expect("traced replay has telemetry");
    let s = &traced.seams;
    crate::node_layer_metrics(out, tel);
    let wall = traced.wall.as_secs_f64();
    let wait = s.stream_wait.as_secs_f64();
    let freq = s.frequent_map.as_secs_f64();
    let tick = s.day_tick.as_secs_f64();
    let contact = tel.phases.get(Phase::ContactProcessing).as_secs_f64();
    let children = wait + freq + tick + contact;
    out.set("trace.stream_wait_s", wait);
    out.set("trace.frequent_map_s", freq);
    out.set("runner.day_tick_s", tick);
    out.set("runner.unattributed_s", wall - children);
    out.check(children <= wall, || {
        format!("city layers sum to {children:.3} s, above the replay's {wall:.3} s")
    });
    out.check(tel.counters.contacts == traced.result.contacts, || {
        "telemetry and result disagree on contacts".to_string()
    });
    out.check(
        tel.counters.shards_loaded == trace.shard_count() as u64,
        || "the replay did not decode each shard exactly once".to_string(),
    );
    out.set("exec.cells", 1.0);
    out.set("exec.cpu_util", ratio(traced.cpu_s, wall * 2.0));
    out.set("bench.traced_run_s", wall);
    out.set("bench.tracing_overhead_s", wall - plain.wall.as_secs_f64());
    out.note(format!(
        "city_replay traced split of {wall:.3} s: contact kernel {contact:.3} ({:.1}%), \
         day ticks {tick:.3} ({:.1}%), stream wait {wait:.3} ({:.1}%), frequent map {freq:.3}, \
         unattributed {:.3} ({:.1}%); {} pulls, {} tick gaps",
        100.0 * contact / wall,
        100.0 * tick / wall,
        100.0 * wait / wall,
        wall - children,
        100.0 * (wall - children) / wall,
        s.pulls,
        s.ticks
    ));
}
