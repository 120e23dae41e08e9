//! Cross-crate integration: every algorithm x pattern x topology pairing
//! the paper evaluates runs end to end — packets generated, routed,
//! delivered, accounted.

use turnroute::core::{
    Abonf, Abopl, DimensionOrder, NegativeFirst, NorthLast, PCube, RoutingAlgorithm, WestFirst,
};
use turnroute::sim::patterns::{
    BitComplement, HypercubeTranspose, ReverseFlip, TrafficPattern, Transpose, Uniform,
};
use turnroute::sim::{DeliveryLog, PacketState, RunOutcome, SimConfig, Simulation};
use turnroute::topology::{Hypercube, Mesh, Topology};

fn config() -> SimConfig {
    SimConfig::paper()
        .injection_rate(0.03)
        .warmup_cycles(1_000)
        .measure_cycles(6_000)
        .deadlock_threshold(5_000)
        .seed(2024)
}

fn check(topo: &dyn Topology, algo: &dyn RoutingAlgorithm, pattern: &dyn TrafficPattern) {
    let mut sim = Simulation::with_observer(topo, algo, pattern, config(), DeliveryLog::default());
    let report = sim.run();
    let label = format!("{} / {} / {}", topo.label(), algo.name(), pattern.name());
    assert!(
        matches!(report.outcome, RunOutcome::Completed),
        "{label}: deadlocked"
    );
    assert_eq!(report.stranded_packets, 0, "{label}: stranded packets");
    assert!(
        report.total_delivered > 50,
        "{label}: only {} delivered",
        report.total_delivered
    );
    assert!(
        report.sustainable(),
        "{label}: not sustainable at light load"
    );

    // Per-packet sanity on everything that was delivered.
    let delivered = sim.observer().delivered();
    assert_eq!(delivered.len() as u64, report.total_delivered, "{label}");
    for p in delivered {
        assert_eq!(p.state(), PacketState::Delivered);
        assert!(p.hops() >= topo.distance(p.src, p.dst) as u32);
        if algo.is_minimal() {
            assert_eq!(
                p.hops(),
                topo.distance(p.src, p.dst) as u32,
                "{label}: minimal algorithm took a detour"
            );
        }
        assert!(p.latency_cycles().unwrap() >= p.hops() as u64);
    }
}

#[test]
fn mesh_algorithms_times_patterns() {
    let mesh = Mesh::new_2d(8, 8);
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(DimensionOrder::new()),
        Box::new(WestFirst::minimal()),
        Box::new(NorthLast::minimal()),
        Box::new(NegativeFirst::minimal()),
    ];
    let patterns: Vec<Box<dyn TrafficPattern>> = vec![
        Box::new(Uniform),
        Box::new(Transpose),
        Box::new(BitComplement),
    ];
    for algo in &algos {
        for pattern in &patterns {
            check(&mesh, algo.as_ref(), pattern.as_ref());
        }
    }
}

#[test]
fn hypercube_algorithms_times_patterns() {
    let cube = Hypercube::new(6);
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(DimensionOrder::new()),
        Box::new(PCube::minimal()),
        Box::new(Abonf::with_dims(6, true)),
        Box::new(Abopl::with_dims(6, true)),
        Box::new(NegativeFirst::with_dims(6, true)),
    ];
    let patterns: Vec<Box<dyn TrafficPattern>> = vec![
        Box::new(Uniform),
        Box::new(HypercubeTranspose),
        Box::new(ReverseFlip),
    ];
    for algo in &algos {
        for pattern in &patterns {
            check(&cube, algo.as_ref(), pattern.as_ref());
        }
    }
}

#[test]
fn three_dimensional_mesh_runs() {
    let mesh = Mesh::new(vec![4, 4, 4]);
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(DimensionOrder::new()),
        Box::new(NegativeFirst::with_dims(3, true)),
        Box::new(Abonf::with_dims(3, true)),
        Box::new(Abopl::with_dims(3, true)),
    ];
    for algo in &algos {
        check(&mesh, algo.as_ref(), &Uniform);
    }
}

#[test]
fn nonminimal_variants_also_deliver() {
    let mesh = Mesh::new_2d(6, 6);
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(WestFirst::nonminimal()),
        Box::new(NorthLast::nonminimal()),
        Box::new(NegativeFirst::nonminimal()),
    ];
    for algo in &algos {
        let mut sim = Simulation::new(&mesh, algo.as_ref(), &Uniform, config());
        let report = sim.run();
        assert!(
            matches!(report.outcome, RunOutcome::Completed),
            "{}",
            algo.name()
        );
        assert!(report.total_delivered > 50, "{}", algo.name());
        assert_eq!(report.stranded_packets, 0, "{}", algo.name());
    }
}

#[test]
fn torus_extensions_deliver() {
    use turnroute::core::{FirstHopWraparound, NegativeFirstTorus};
    use turnroute::topology::Torus;
    let torus = Torus::new(5, 2);
    let nft = NegativeFirstTorus::new(&torus);
    let mut sim = Simulation::new(&torus, &nft, &Uniform, config());
    let report = sim.run();
    assert!(matches!(report.outcome, RunOutcome::Completed));
    assert!(report.total_delivered > 20);

    let fhw = FirstHopWraparound::new(&torus, NegativeFirst::with_dims(2, true));
    let mut sim = Simulation::new(&torus, &fhw, &Uniform, config());
    let report = sim.run();
    assert!(matches!(report.outcome, RunOutcome::Completed));
    assert!(report.total_delivered > 20);
    assert_eq!(report.stranded_packets, 0);
}
