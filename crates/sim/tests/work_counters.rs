//! The engine's deterministic work counters are functions of
//! configuration and seed alone: the same serial, sharded or observed.
//! `sources_polled` in particular must track messages generated, not
//! nodes x cycles — generation wakes only the nodes with an arrival due.

use turnroute_core::WestFirst;
use turnroute_sim::obs::SimObserver;
use turnroute_sim::patterns::Uniform;
use turnroute_sim::{LengthDistribution, SimConfig, Simulation};
use turnroute_topology::{Mesh, Topology};

/// Observes nothing, but is `ENABLED`.
struct Watch;

impl SimObserver for Watch {}

#[test]
fn sources_polled_tracks_messages_not_node_cycles() {
    let mesh = Mesh::new_2d(16, 16);
    let algo = WestFirst::minimal();
    let config = SimConfig::paper()
        .injection_rate(0.01)
        .lengths(LengthDistribution::Fixed(8))
        .warmup_cycles(0)
        .measure_cycles(50_000)
        .seed(77);

    let mut serial = Simulation::new(&mesh, &algo, &Uniform, config.clone().shards(1));
    let report = serial.run();
    let nodes = mesh.num_nodes() as u64;
    assert!(report.total_generated > 10_000, "{report:?}");
    // A Poisson wake is never early: every polled node emits at least
    // one message (the slack covers wakes whose message found no
    // destination).
    assert!(
        serial.sources_polled() <= report.total_generated + nodes,
        "polled {} nodes for {} messages",
        serial.sources_polled(),
        report.total_generated
    );
    assert!(serial.sources_polled() < nodes * 50_000 / 100);

    let mut sharded = Simulation::new(&mesh, &algo, &Uniform, config.clone().shards(2));
    let sharded_report = sharded.run();
    assert!(sharded.shard_fallback_reason().is_none());
    assert_eq!(format!("{report:?}"), format!("{sharded_report:?}"));
    assert_eq!(serial.sources_polled(), sharded.sources_polled());

    let mut observed = Simulation::with_observer(&mesh, &algo, &Uniform, config, Watch);
    let observed_report = observed.run();
    assert_eq!(format!("{report:?}"), format!("{observed_report:?}"));
    assert_eq!(serial.sources_polled(), observed.sources_polled());
}
