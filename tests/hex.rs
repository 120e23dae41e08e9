//! The turn model on hexagonal meshes, end to end: the generic
//! machinery (TwoPhase, DimensionOrder, the simulator) runs unchanged on
//! the six-direction topology, and the hex-specific theory from
//! `turnroute-analysis` predicts the dynamic outcomes.

use turnroute::analysis::{hex_deadlock_free, hex_negative_first};
use turnroute::core::{
    check_routing_contract, walk, DimensionOrder, NegativeFirst, RoutingAlgorithm, TurnSet,
    TurnSetRouting,
};
use turnroute::sim::patterns::Uniform;
use turnroute::sim::{DeliveryLog, LengthDistribution, RunOutcome, SimConfig, Simulation};
use turnroute::topology::{HexMesh, NodeId, Topology};

#[test]
fn hex_negative_first_contract_and_minimality() {
    let hex = HexMesh::new(5, 5);
    let nf = NegativeFirst::with_dims(3, true);
    check_routing_contract(&nf, &hex);
    for a in hex.nodes() {
        for b in hex.nodes() {
            if a != b {
                let path = walk(&nf, &hex, a, b);
                assert_eq!(path.len() - 1, hex.distance(a, b), "{a}->{b}");
            }
        }
    }
}

#[test]
fn hex_axis_order_contract_and_minimality() {
    let hex = HexMesh::new(5, 4);
    let dor = DimensionOrder::new();
    check_routing_contract(&dor, &hex);
    for a in hex.nodes() {
        for b in hex.nodes() {
            if a != b {
                let path = walk(&dor, &hex, a, b);
                assert_eq!(path.len() - 1, hex.distance(a, b), "{a}->{b}");
            }
        }
    }
}

/// The greedy lowest-axis-first policy never makes a descending axis
/// transition, so its routes live inside the (acyclic) ordered-phase
/// turn set.
#[test]
fn hex_axis_order_transitions_are_ascending() {
    let hex = HexMesh::new(6, 6);
    let dor = DimensionOrder::new();
    for a in hex.nodes() {
        for b in hex.nodes() {
            if a == b {
                continue;
            }
            let path = walk(&dor, &hex, a, b);
            let mut dims = Vec::new();
            for w in path.windows(2) {
                let dir = turnroute::topology::Direction::all(3)
                    .find(|&d| hex.neighbor(w[0], d) == Some(w[1]))
                    .expect("adjacent");
                dims.push(dir.dim());
            }
            let mut sorted = dims.clone();
            sorted.sort_unstable();
            assert_eq!(dims, sorted, "{a}->{b} used a descending axis change");
        }
    }
}

#[test]
fn hex_simulation_runs_all_algorithms() {
    let hex = HexMesh::new(6, 6);
    let config = SimConfig::paper()
        .injection_rate(0.03)
        .warmup_cycles(1_000)
        .measure_cycles(6_000)
        .deadlock_threshold(5_000)
        .seed(17);
    let algos: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(DimensionOrder::new()),
        Box::new(NegativeFirst::with_dims(3, true)),
    ];
    for algo in &algos {
        let mut sim = Simulation::with_observer(
            &hex,
            algo.as_ref(),
            &Uniform,
            config.clone(),
            DeliveryLog::default(),
        );
        let report = sim.run();
        assert!(
            matches!(report.outcome, RunOutcome::Completed),
            "{} deadlocked on the hex mesh",
            algo.name()
        );
        assert!(report.sustainable(), "{}", algo.name());
        assert!(report.total_delivered > 50);
        // Minimality of every delivered packet.
        let delivered = sim.observer().delivered();
        assert_eq!(delivered.len() as u64, report.total_delivered);
        for p in delivered {
            assert_eq!(p.hops(), hex.distance(p.src, p.dst) as u32);
        }
    }
}

#[test]
fn hex_negative_first_survives_stress_where_fully_adaptive_deadlocks() {
    let hex = HexMesh::new(5, 5);
    let stress = SimConfig::paper()
        .injection_rate(0.9)
        .lengths(LengthDistribution::Fixed(48))
        .warmup_cycles(0)
        .measure_cycles(12_000)
        .deadlock_threshold(1_500)
        .seed(5);

    // Unrestricted turns: the triangles alone suffice to deadlock.
    assert!(!hex_deadlock_free(&hex, &TurnSet::fully_adaptive(3)));
    let free = TurnSetRouting::new(TurnSet::fully_adaptive(3));
    let mut sim = Simulation::new(&hex, &free, &Uniform, stress.clone());
    let report = sim.run();
    assert!(
        matches!(report.outcome, RunOutcome::Deadlocked(_)),
        "unrestricted hex turns must deadlock under stress"
    );

    // Negative-first on the three axes: verified acyclic, and survives.
    assert!(hex_deadlock_free(&hex, &hex_negative_first()));
    let nf = NegativeFirst::with_dims(3, true);
    let mut sim = Simulation::new(&hex, &nf, &Uniform, stress);
    let report = sim.run();
    assert!(matches!(report.outcome, RunOutcome::Completed));
    assert!(report.total_delivered > 100);
}

#[test]
fn hex_distances_respect_the_triangle_inequality() {
    let hex = HexMesh::new(6, 5);
    let nodes: Vec<NodeId> = hex.nodes().collect();
    for &a in nodes.iter().step_by(3) {
        for &b in nodes.iter().step_by(4) {
            for &c in nodes.iter().step_by(5) {
                assert!(hex.distance(a, c) <= hex.distance(a, b) + hex.distance(b, c));
            }
        }
    }
}
