//! The VC engine's deterministic work counters: what arbitration
//! evaluates tracks what moves, not nodes x cycles, and the in-flight
//! arena tracks worms in the network, not messages ever generated.

use turnroute_sim::patterns::{TrafficPattern, Transpose, Uniform};
use turnroute_sim::SimConfig;
use turnroute_topology::{Mesh, Topology, Torus};
use turnroute_vc::{DatelineDimensionOrder, MadY, VcRoutingAlgorithm, VcSimulation};

/// Runs the `vc_grid` window at load 0.16 and checks the counters
/// against the work the run was asked to do. Header hops are counted
/// from below (messages created inside the window and delivered), which
/// only makes the per-hop bound stricter.
fn assert_work_is_proportional(
    topo: &dyn Topology,
    algo: &dyn VcRoutingAlgorithm,
    pattern: &dyn TrafficPattern,
) {
    let config = SimConfig::paper()
        .injection_rate(0.16)
        .warmup_cycles(2_000)
        .measure_cycles(40_000)
        .seed(1);
    let mut sim = VcSimulation::new(topo, algo, pattern, config);
    let report = sim.run();
    let tag = format!("{} on {}", algo.name(), topo.label());

    let evaluated = sim.requesters_evaluated();
    let node_cycles = topo.num_nodes() as u64 * sim.cycle();
    assert!(
        evaluated * 10 < node_cycles,
        "{tag}: {evaluated} requesters over {node_cycles} node-cycles"
    );
    let hops: u64 = report.metrics.hop_counts.iter().map(|&h| h as u64).sum();
    assert!(hops > 10_000, "{tag}: {report:?}");
    assert!(
        evaluated <= 4 * hops,
        "{tag}: {evaluated} requesters for {hops} header hops"
    );

    let slots = sim.slots().len() as u64;
    assert!(slots <= sim.table().num_virtual_channels() as u64);
    assert!(
        slots * 20 < report.total_generated,
        "{tag}: {slots} slots for {} messages",
        report.total_generated
    );
}

#[test]
fn saturated_mady_evaluates_what_moves_and_recycles_its_slots() {
    assert_work_is_proportional(&Mesh::new_2d(16, 16), &MadY::new(), &Transpose);
}

#[test]
fn dateline_torus_likewise() {
    assert_work_is_proportional(&Torus::new(8, 2), &DatelineDimensionOrder::new(), &Uniform);
}
