//! The engine's deterministic work counters are functions of
//! configuration and seed alone: the same serial, sharded or observed.
//! `sources_polled` in particular must track messages generated, not
//! nodes x cycles — generation wakes only the nodes with an arrival due.

use turnroute_core::{DimensionOrder, RoutingAlgorithm, WestFirst};
use turnroute_fault::FaultPlan;
use turnroute_sim::obs::SimObserver;
use turnroute_sim::patterns::{TrafficPattern, Transpose, Uniform};
use turnroute_sim::{
    InputSelection, LengthDistribution, OutputSelection, RouteTableMode, SimConfig, Simulation,
};
use turnroute_topology::{Direction, Mesh, Topology};

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

/// `config` run serially and at two shards: the requester count of
/// each, which must agree.
fn requesters_serial_and_sharded(
    topo: &dyn Topology,
    algo: &dyn RoutingAlgorithm,
    pattern: &dyn TrafficPattern,
    config: SimConfig,
) -> u64 {
    let mut serial = Simulation::new(topo, algo, pattern, config.clone().shards(1));
    let mut sharded = Simulation::new(topo, algo, pattern, config.shards(2));
    let (rs, rn) = (serial.run(), sharded.run());
    assert!(sharded.shard_fallback_reason().is_none());
    assert_eq!(format!("{rs:?}"), format!("{rn:?}"));
    assert_eq!(
        serial.requesters_evaluated(),
        sharded.requesters_evaluated()
    );
    serial.requesters_evaluated()
}

/// Exact requester counts of saturated runs. Every report would stay
/// the same if a release woke more headers than it frees a channel for
/// (they would block again), so this count is the one thing that sees
/// an over-eager wake — or a parking mechanism that stopped parking.
#[test]
fn saturated_requester_counts_are_pinned() {
    let west_first = WestFirst::minimal();
    let xy = DimensionOrder::new();
    let mesh16 = Mesh::new_2d(16, 16);
    let uniform = SimConfig::paper()
        .injection_rate(0.18)
        .warmup_cycles(1_000)
        .measure_cycles(5_000)
        .seed(5);
    assert_eq!(
        requesters_serial_and_sharded(&mesh16, &west_first, &Uniform, uniform),
        23_383
    );

    let mesh8 = Mesh::new_2d(8, 8);
    let transpose = SimConfig::paper()
        .injection_rate(0.30)
        .warmup_cycles(500)
        .measure_cycles(3_000)
        .seed(11)
        .input_selection(InputSelection::FixedPriority)
        .output_selection(OutputSelection::HighestDimension);
    assert_eq!(
        requesters_serial_and_sharded(&mesh8, &xy, &Transpose, transpose),
        3_971
    );

    // A fail and a repair on a hot channel: each wakes every router.
    let mesh6 = Mesh::new_2d(6, 6);
    let hot = mesh6
        .channel_from(mesh6.node_at(&[2, 2].into()), Direction::EAST)
        .expect("interior");
    let schedule = FaultPlan::new()
        .channel_transient(hot, 300, 800)
        .compile(&mesh6)
        .expect("valid plan");
    let faulted = SimConfig::paper()
        .injection_rate(0.40)
        .warmup_cycles(100)
        .measure_cycles(1_200)
        .deadlock_threshold(5_000)
        .seed(31)
        .route_table(RouteTableMode::Off)
        .faults(schedule);
    assert_eq!(
        requesters_serial_and_sharded(&mesh6, &west_first, &Uniform, faulted),
        1_830
    );
}
