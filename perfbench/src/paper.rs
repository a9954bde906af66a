//! `paper_figures`: every paper panel plus the fault and head-to-head
//! figures at `Scale::Quick` — ROADMAP's quick figure sweep — swept on two
//! worker threads, in whole passes until the run's time is spent.
//!
//! The populations are small and in memory and the NUS traces are clique
//! contacts, so the time goes to the contact kernel and the sweep
//! executor: no shards, a tiny node arena, a tiny metadata server. `Scale::Full` takes ~23 s a pass on two CPUs, so a run held one
//! pass and its ten-run spread reached the widest bound a metric may have;
//! at quick scale a run holds ~20 passes and reports their median.

use std::time::{Duration, Instant};

use dtn_sim::telemetry::{Phase, Telemetry};
use mbt_experiments::figures::{self, RunContext};
use mbt_experiments::perf::figure_cells;
use mbt_experiments::report::figure_csv;
use mbt_experiments::{ExecConfig, Figure, Scale};

use crate::expected;
use crate::report::{fnv_fold, median, micros, quantile, ratio, Outcome, FNV_START};
use crate::Mode;

/// Worker threads of the sweep executor.
const JOBS: usize = 2;

type Panel = fn(&mut RunContext) -> Figure;

/// The panels, in run order, under their [`crate::report::FIGURE_IDS`].
const PANELS: [(&str, Panel); 14] = [
    ("fig2a", figures::fig2a),
    ("fig2b", figures::fig2b),
    ("fig2c", figures::fig2c),
    ("fig2d", figures::fig2d),
    ("fig2e", figures::fig2e),
    ("fig3a", figures::fig3a),
    ("fig3b", figures::fig3b),
    ("fig3c", figures::fig3c),
    ("fig3d", figures::fig3d),
    ("fig3e", figures::fig3e),
    ("fig3f", figures::fig3f),
    ("fault_sweep", figures::fault_sweep),
    ("h2h_dieselnet", figures::head_to_head_dieselnet),
    ("h2h_nus", figures::head_to_head_nus),
];

/// The pinned gate: the quick-scale sweeps of the repository's golden
/// figure fixtures, in their configuration (master seed 42, three
/// replicates). Its digest is the FNV-1a of the three fixture CSVs
/// concatenated, so the pin can be re-derived from the fixtures.
const GATE: [Panel; 3] = [figures::fig2a, figures::fig3a, figures::fault_sweep];
const GATE_SEED: u64 = 42;
const GATE_REPLICATES: u32 = 3;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// One pass over a list of panels.
struct Pass {
    walls: Vec<Duration>,
    wall: Duration,
    digest: u64,
    contacts: u64,
    cells: u64,
    figures: Vec<Figure>,
    telemetry: Telemetry,
    cpu_s: f64,
}

fn run_pass(panels: &[Panel], scale: Scale, exec: ExecConfig, observed: bool) -> Pass {
    let exec = exec.jobs(JOBS);
    let mut ctx = RunContext::new(scale).exec(exec);
    if observed {
        ctx = ctx.observed();
    }
    let cpu_started = crate::report::process_cpu_s();
    let started = Instant::now();
    let mut walls = Vec::with_capacity(panels.len());
    let mut figures = Vec::with_capacity(panels.len());
    for panel in panels {
        let panel_started = Instant::now();
        figures.push(std::hint::black_box(panel(&mut ctx)));
        walls.push(panel_started.elapsed());
    }
    let wall = started.elapsed();
    let mut digest = FNV_START;
    let mut contacts = 0;
    let mut cells = 0;
    for fig in &figures {
        digest = fnv_fold(digest, figure_csv(fig).as_bytes());
        cells += figure_cells(fig, 1);
        contacts += fig
            .series
            .iter()
            .flat_map(|s| &s.points)
            .map(|p| p.result.contacts)
            .sum::<u64>();
    }
    Pass {
        walls,
        wall,
        digest,
        contacts,
        cells,
        figures,
        telemetry: ctx.take_telemetry(),
        cpu_s: crate::report::process_cpu_s() - cpu_started,
    }
}

/// Sanity invariants every figure must satisfy whatever the seed.
fn check_figures(out: &mut Outcome, pass: &Pass) {
    for (fig, (id, _)) in pass.figures.iter().zip(PANELS.iter()) {
        out.check(fig.id == *id, || {
            format!("panel {id} rendered as {}", fig.id)
        });
        out.check(!fig.series.is_empty(), || format!("{id}: no series"));
        for series in &fig.series {
            for p in &series.points {
                let r = &p.result;
                out.check(
                    (0.0..=1.0).contains(&p.metadata_ratio) && (0.0..=1.0).contains(&p.file_ratio),
                    || format!("{id} x={}: ratio outside [0, 1]", p.x),
                );
                out.check(
                    r.metadata_delivered <= r.queries && r.files_delivered <= r.queries,
                    || format!("{id} x={}: more deliveries than queries", p.x),
                );
            }
        }
    }
}

pub fn run(mode: &Mode) -> Outcome {
    let mut out = Outcome::default();
    let scale = Scale::Quick;
    let panels: Vec<Panel> = if mode.tiny {
        PANELS.iter().take(3).map(|&(_, p)| p).collect()
    } else {
        PANELS.iter().map(|&(_, p)| p).collect()
    };

    // Set-up: the pinned gate, several times. Its CSV digest is a pure
    // function of the program, so any behavioural drift fails the run.
    let mut setup_walls = Vec::new();
    for _ in 0..SETUPS {
        let exec = ExecConfig::default()
            .master_seed(GATE_SEED)
            .replicates(GATE_REPLICATES);
        let gate = run_pass(&GATE, scale, exec, false);
        setup_walls.push(gate.wall.as_secs_f64());
        expected::check(&mut out, "paper_gate", gate.digest);
        out.attempted += 1;
    }
    out.set("setup_s", median(&setup_walls));

    let exec = ExecConfig::default().master_seed(mode.seed);
    if mode.trace {
        let plain = run_pass(&panels, scale, exec, false);
        let traced = run_pass(&panels, scale, exec, true);
        out.attempted += 2;
        out.check(plain.digest == traced.digest, || {
            "telemetry changed the figures".to_string()
        });
        check_figures(&mut out, &traced);
        layer_metrics(&mut out, &plain, &traced);
        return out;
    }

    let budget = Duration::from_secs_f64(mode.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Whole passes only: another one starts if it should end in budget.
    while passes
        .last()
        .is_none_or(|last| started.elapsed() + last.wall <= budget)
    {
        passes.push(run_pass(&panels, scale, exec, false));
        out.attempted += 1;
    }
    out.set("peak_rss_mb", crate::report::peak_rss_mb());
    let first = &passes[0];
    check_figures(&mut out, first);
    for pass in &passes[1..] {
        out.check(pass.digest == first.digest, || {
            format!(
                "figures differ between passes: {:#018x} vs {:#018x}",
                first.digest, pass.digest
            )
        });
    }
    let unit_walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let panel_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.walls.iter().map(|&w| micros(w)))
        .collect();
    let total_wall: f64 = unit_walls.iter().sum();
    let total_contacts: u64 = passes.iter().map(|p| p.contacts).sum();
    out.set("run_s", median(&unit_walls));
    out.set("throughput_per_s", ratio(total_contacts as f64, total_wall));
    out.set("latency_p50_us", quantile(&panel_us, 0.5));
    out.set("latency_p99_us", quantile(&panel_us, 0.99));
    out.note(format!(
        "paper_figures: {} passes of {} panels, {} contacts/pass, figures digest {:#018x}",
        passes.len(),
        panels.len(),
        first.contacts,
        first.digest
    ));
    let first_walls: Vec<f64> = first.walls.iter().map(Duration::as_secs_f64).collect();
    out.note(format!(
        "panel walls of the first pass (s): {first_walls:.3?}"
    ));
    out.note(format!("pass walls (s): {unit_walls:.3?}"));
    out.note(format!(
        "samples: run_s over {} passes; latency over {} panel runs; setup over {SETUPS} gate \
         sweeps; throughput = contacts/s",
        passes.len(),
        panel_us.len()
    ));
    out
}

fn layer_metrics(out: &mut Outcome, plain: &Pass, traced: &Pass) {
    let tel = &traced.telemetry;
    let wall = traced.wall.as_secs_f64();
    crate::node_layer_metrics(out, tel);
    let trace_load = tel.phases.get(Phase::TraceLoad).as_secs_f64();
    let reduction = tel.phases.get(Phase::Reduction).as_secs_f64();
    let contact = tel.phases.get(Phase::ContactProcessing).as_secs_f64();
    // The sweep runs on JOBS threads, so the parent is thread-seconds.
    let parent = wall * JOBS as f64;
    let children = trace_load + reduction + contact;
    out.set("runner.unattributed_s", parent - children);
    out.check(children <= parent, || {
        format!("paper layers sum to {children:.3} thread-s, above the parent {parent:.3}")
    });
    out.set("exec.cells", traced.cells as f64);
    out.set("exec.cpu_util", ratio(traced.cpu_s, parent));
    for (i, (id, _)) in PANELS.iter().enumerate() {
        let secs = traced.walls.get(i).map_or(0.0, Duration::as_secs_f64);
        out.set(&format!("exec.figure_s.{id}"), secs);
    }
    out.set("bench.traced_run_s", wall);
    out.set("bench.tracing_overhead_s", wall - plain.wall.as_secs_f64());
    out.note(format!(
        "paper_figures traced: wall {wall:.3} s x {JOBS} threads; contact kernel {contact:.3} \
         thread-s, trace load {trace_load:.3}, reduction {reduction:.3}, cpu {:.2} s",
        traced.cpu_s
    ));
}
