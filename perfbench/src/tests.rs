//! The harness's own tests: a tiny-shape smoke run of every workload in
//! both modes, checking that each passes its correctness gate, reports
//! exactly its declared metrics, and that per-layer children never exceed
//! their parent.

use crate::report::{result_json, valid_name};
use crate::{names_for, run_workload, Mode, WORKLOADS};

fn tiny(workload: &str, trace: bool) -> Mode {
    let work = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../.bench_build/perfbench-tests"
    );
    Mode {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        tiny: true,
        work: std::path::Path::new(work).join(format!("{workload}-{trace}")),
        rev: "test".to_string(),
    }
}

#[test]
fn every_workload_passes_its_gates_at_tiny_shape() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run_workload(&tiny(workload, trace));
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.problems
            );
            let names = names_for(trace);
            for (name, _) in &outcome.metrics {
                assert!(valid_name(name), "{workload}: illegal name {name}");
                assert!(
                    names.iter().any(|(n, _)| n == name),
                    "{workload} trace={trace}: undeclared metric {name}"
                );
            }
            if !trace {
                for (name, _) in &names {
                    let value = outcome.get(name).unwrap_or(0.0);
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                }
            }
            let line = result_json(&outcome, &names);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
        }
    }
}

#[test]
fn per_layer_children_sum_to_at_most_their_parent() {
    let city = run_workload(&tiny("city_replay", true));
    let get = |name: &str| city.get(name).unwrap_or_else(|| panic!("missing {name}"));
    let parent = get("bench.traced_run_s");
    let children = get("trace.stream_wait_s")
        + get("trace.frequent_map_s")
        + get("runner.day_tick_s")
        + get("node.contact_s");
    assert!(children <= parent, "{children} > {parent}");
    let unattributed = get("runner.unattributed_s");
    assert!(unattributed >= 0.0);
    assert!((children + unattributed - parent).abs() < 1e-9);
    assert!(get("node.discovery_s") + get("node.download_s") <= get("node.contact_s"));
    assert!(get("trace.gen_s") > 0.0 && get("trace.shard_write_s") > 0.0);
    assert!(
        get("trace.shards_loaded") >= 3.0,
        "one shard per simulated day"
    );
}
