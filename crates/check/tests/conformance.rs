//! The debug-profile conformance smoke: replays the committed
//! regression corpus and a bounded batch of generated cases. The
//! release soak (`cargo run --release -p turnroute-check --bin
//! conformance`) covers the full 256-case budget; this keeps `cargo
//! test` fast while still exercising every invariant end to end.

use turnroute_check::invariants::compare_reports;
use turnroute_check::runner::{run, RunConfig};
use turnroute_check::Oracle;
use turnroute_core::{DimensionOrder, RoutingAlgorithm, WestFirst};
use turnroute_fault::FaultPlan;
use turnroute_sim::patterns::Uniform;
use turnroute_sim::{SimConfig, Simulation};
use turnroute_topology::{Direction, Mesh, Topology};

/// Case budget for the debug smoke, overridable via `CONFORMANCE_CASES`.
fn case_budget() -> u64 {
    std::env::var("CONFORMANCE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

#[test]
fn regression_corpus_and_generated_cases_pass() {
    let config = RunConfig {
        cases: case_budget(),
        seed: 0xCAFE_F00D,
        ..RunConfig::default()
    };
    let summary = run(&config);
    if let Some(failure) = &summary.failure {
        panic!(
            "conformance failure after {} replayed + {} generated cases\n  violation: {}\n  \
             case: {}\n  shrunk from: {}",
            summary.replayed,
            summary.executed,
            failure.message,
            failure.case,
            failure
                .shrunk_from
                .as_ref()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "(already minimal)".into()),
        );
    }
    assert_eq!(summary.executed, config.cases);
    assert!(
        summary.replayed >= 8,
        "regression corpus should be replayed"
    );
}

/// Generated cases only carry static (cycle-0) fault plans. This pins
/// the engine to the oracle on a dynamic one at a saturating load: two
/// hot channels fail and come back at different cycles while most
/// headers sit blocked — so parked headers must be woken by each fail
/// and each repair, serially and through the sharded merge.
#[test]
fn engine_matches_oracle_on_a_transient_fault_at_saturation() {
    let mesh = Mesh::new_2d(6, 6);
    let out_of = |xy: [u16; 2], dir| {
        mesh.channel_from(mesh.node_at(&xy.into()), dir)
            .expect("interior")
    };
    let schedule = FaultPlan::new()
        .channel_transient(out_of([2, 2], Direction::EAST), 200, 700)
        .channel_transient(out_of([3, 2], Direction::NORTH), 400, 500)
        .compile(&mesh)
        .expect("valid plan");
    let algos: [&dyn RoutingAlgorithm; 2] = [&DimensionOrder::new(), &WestFirst::minimal()];
    for algo in algos {
        let config = SimConfig::paper()
            .injection_rate(0.40)
            .warmup_cycles(100)
            .measure_cycles(1_000)
            .seed(0xFA17)
            .faults(schedule.clone());
        let oracle = Oracle::new(&mesh, algo, &Uniform, config.clone()).run();
        for shards in [1, 2] {
            let mut sim = Simulation::new(&mesh, algo, &Uniform, config.clone().shards(shards));
            let report = sim.run();
            assert!(sim.shard_fallback_reason().is_none());
            compare_reports(
                &oracle,
                &report,
                sim.cycle(),
                &sim.channel_utilization(),
                &format!("{} shards {shards}", algo.name()),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
