//! Randomized invariants of the virtual-channel layer.
//!
//! Formerly proptest properties; now seeded loops over the vendored
//! RNG so the suite builds offline.

use turnroute_core::adaptiveness::fully_adaptive_shortest_paths;
use turnroute_core::{DimensionOrder, NegativeFirst, RoutingAlgorithm, WestFirst};
use turnroute_rng::{Rng, StdRng};
use turnroute_sim::patterns::{HypercubeTranspose, TrafficPattern, Transpose, Uniform};
use turnroute_sim::{SimConfig, Simulation};
use turnroute_topology::{Hypercube, Mesh, NodeId, Topology, Torus};
use turnroute_vc::{
    count_physical_paths, mady_may_follow, vc_dependency_graph, walk_vc, DatelineDimensionOrder,
    MadY, SingleClass, VcRoutingAlgorithm, VcSimulation, VcTable, VirtualDirection,
};

const CASES: usize = 32;

/// Draws a distinct `(a, b)` node pair in `0..n`.
fn distinct_pair(rng: &mut StdRng, n: usize) -> (NodeId, NodeId) {
    let a = rng.random_range(0..n);
    let mut b = rng.random_range(0..n);
    while b == a {
        b = rng.random_range(0..n);
    }
    (NodeId::new(a), NodeId::new(b))
}

/// Mad-y is fully adaptive on every mesh shape and pair.
#[test]
fn mady_full_adaptivity() {
    let mut rng = StdRng::seed_from_u64(0xE001);
    for _ in 0..CASES {
        let m = rng.random_range(2..8usize);
        let n = rng.random_range(2..8usize);
        let mesh = Mesh::new_2d(m, n);
        let (s, d) = distinct_pair(&mut rng, m * n);
        let mady = MadY::new();
        let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
        assert_eq!(
            count_physical_paths(&mady, &mesh, &table, s, d),
            fully_adaptive_shortest_paths(&mesh, s, d),
            "{m}x{n} {s}->{d}"
        );
    }
}

/// The mad-y lane relation stays acyclic on random mesh shapes.
#[test]
fn mady_cdg_acyclic() {
    let mut rng = StdRng::seed_from_u64(0xE002);
    for _ in 0..CASES {
        let m = rng.random_range(2..9usize);
        let n = rng.random_range(2..9usize);
        let mesh = Mesh::new_2d(m, n);
        let table = VcTable::new(&mesh, &[1, 2]);
        let cdg = vc_dependency_graph(&mesh, &table, |_, from, to| mady_may_follow(from.1, to.1));
        assert!(cdg.is_acyclic(), "{m}x{n}");
    }
}

/// Mad-y walks are minimal.
#[test]
fn mady_walks_minimal() {
    let mut rng = StdRng::seed_from_u64(0xE003);
    for _ in 0..CASES {
        let m = rng.random_range(3..8usize);
        let mesh = Mesh::new_2d(m, m);
        let (s, d) = distinct_pair(&mut rng, m * m);
        let mady = MadY::new();
        let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
        let path = walk_vc(&mady, &mesh, &table, s, d);
        assert_eq!(path.len() - 1, mesh.distance(s, d));
    }
}

/// Dateline routing is minimal on random tori.
#[test]
fn dateline_walks_minimal() {
    let mut rng = StdRng::seed_from_u64(0xE004);
    for _ in 0..CASES {
        let k = rng.random_range(3..8usize);
        let torus = Torus::new(k, 2);
        let (s, d) = distinct_pair(&mut rng, torus.num_nodes());
        let algo = DatelineDimensionOrder::new();
        let table = VcTable::new(&torus, &algo.provisioning(&torus));
        let path = walk_vc(&algo, &torus, &table, s, d);
        assert_eq!(path.len() - 1, torus.distance(s, d));
    }
}

/// The VC engine conserves flits and ownership under random loads.
#[test]
fn vc_engine_conserves_flits() {
    let mut rng = StdRng::seed_from_u64(0xE005);
    for _ in 0..CASES {
        let seed = rng.random_range(0..500u64);
        let load = rng.random_range(0.02f64..0.3);
        let mesh = Mesh::new_2d(4, 4);
        let mady = MadY::new();
        let config = SimConfig::paper()
            .injection_rate(load)
            .warmup_cycles(0)
            .measure_cycles(0)
            .seed(seed);
        let mut sim = VcSimulation::new(&mesh, &mady, &Uniform, config);
        for _ in 0..400 {
            sim.step();
        }
        for (slot, p) in sim.slots().iter().enumerate() {
            let (a, b, c) = p.flit_counts();
            assert_eq!(a + b + c, p.length);
            assert_eq!(b == 0, !p.is_live(), "exactly the live slots hold lanes");
            for vc in p.worm() {
                assert_eq!(sim.vc_owner(vc), Some(slot));
            }
        }
        // Conversely, every owned lane belongs to a live slot's worm.
        for (ch, class) in sim.table().iter(&mesh) {
            let vc = sim.table().vc(&mesh, ch, class);
            if let Some(slot) = sim.vc_owner(vc) {
                let owner = &sim.slots()[slot];
                assert!(owner.is_live() && owner.worm().any(|lane| lane == vc));
            }
        }
    }
}

/// With one lane everywhere the two engines are the same machine: a
/// `SingleClass` run in the VC engine produces the plain engine's whole
/// `SimReport` — every counter, histogram and queue sample — across
/// topologies, algorithms, patterns and loads from idle to saturated.
/// The VC path has no oracle of its own; this differential (the plain
/// engine is the one the conformance oracle guards) is its cover, and
/// the saturated cells are what exercise parking and slot reuse.
/// All 54 cells agree (checked first on the engine this replaced).
/// "Transpose" on the hypercube is the paper's hypercube embedding.
#[test]
fn single_class_engines_agree() {
    let topologies: [(Box<dyn Topology>, Box<dyn TrafficPattern>); 3] = [
        (Box::new(Mesh::new_2d(6, 6)), Box::new(Transpose)),
        (Box::new(Mesh::new_2d(8, 8)), Box::new(Transpose)),
        (Box::new(Hypercube::new(4)), Box::new(HypercubeTranspose)),
    ];
    let mut saturated = 0;
    for (topo, transpose) in &topologies {
        let (topo, n) = (topo.as_ref(), topo.num_dims());
        let pairs: [(Box<dyn RoutingAlgorithm>, Box<dyn VcRoutingAlgorithm>); 3] = [
            (
                Box::new(DimensionOrder::new()),
                Box::new(SingleClass::new(DimensionOrder::new())),
            ),
            (
                Box::new(WestFirst::with_dims(n, true)),
                Box::new(SingleClass::new(WestFirst::with_dims(n, true))),
            ),
            (
                Box::new(NegativeFirst::with_dims(n, true)),
                Box::new(SingleClass::new(NegativeFirst::with_dims(n, true))),
            ),
        ];
        for (plain_algo, vc_algo) in &pairs {
            for pattern in [&Uniform as &dyn TrafficPattern, transpose.as_ref()] {
                for (i, load) in [0.02, 0.10, 0.40].into_iter().enumerate() {
                    let config = SimConfig::paper()
                        .injection_rate(load)
                        .warmup_cycles(300)
                        .measure_cycles(2_500)
                        .seed(0xE006 + i as u64);
                    let plain =
                        Simulation::new(topo, plain_algo.as_ref(), pattern, config.clone()).run();
                    let vc = VcSimulation::new(topo, vc_algo.as_ref(), pattern, config).run();
                    saturated += usize::from(!vc.sustainable());
                    assert_eq!(
                        format!("{plain:?}"),
                        format!("{vc:?}"),
                        "{} {} {} load {load}",
                        topo.label(),
                        vc_algo.name(),
                        pattern.name()
                    );
                }
            }
        }
    }
    assert!(saturated >= 9, "only {saturated} cells past saturation");
}

/// Lane candidates never include an unprovisioned class.
#[test]
fn route_vc_respects_provisioning() {
    let mut rng = StdRng::seed_from_u64(0xE007);
    for _ in 0..CASES {
        let which = rng.random_range(0..3usize);
        let mesh = Mesh::new_2d(6, 6);
        let (a, b) = distinct_pair(&mut rng, 36);
        let algo: Box<dyn VcRoutingAlgorithm> = match which {
            0 => Box::new(MadY::new()),
            1 => Box::new(SingleClass::new(DimensionOrder::new())),
            _ => Box::new(SingleClass::new(NegativeFirst::minimal())),
        };
        let table = VcTable::new(&mesh, &algo.provisioning(&mesh));
        let vdirs = algo.route_vc(&mesh, &table, a, b, None);
        for v in vdirs.iter() {
            assert!(table.vc_from(&mesh, a, v).is_some(), "{v}");
        }
    }
}

/// Virtual-direction indices round trip for every dim/class combo.
#[test]
fn vdir_index_roundtrip() {
    for index in 0..128usize {
        let v = VirtualDirection::from_index(index);
        assert_eq!(v.index(), index);
    }
}

/// Dateline routing never deadlocks on a saturated torus — the dynamic
/// counterpart of its acyclic lane dependency graph.
#[test]
fn dateline_survives_saturating_stress() {
    let torus = Torus::new(5, 2);
    let algo = DatelineDimensionOrder::new();
    let config = SimConfig::paper()
        .injection_rate(0.8)
        .warmup_cycles(0)
        .measure_cycles(10_000)
        .deadlock_threshold(1_500)
        .seed(41);
    let mut sim = VcSimulation::new(&torus, &algo, &Uniform, config);
    for _ in 0..12_000 {
        assert!(sim.step().is_none(), "dateline routing must not deadlock");
    }
    let delivered = sim.total_delivered();
    assert!(delivered > 100, "{delivered}");
}

/// The single-lane torus discipline (no dateline) deadlocks on the same
/// load: the rings need the extra lane.
#[test]
fn single_lane_torus_dimension_order_deadlocks() {
    let torus = Torus::new(5, 2);
    let algo = SingleClass::new(DimensionOrder::new());
    let config = SimConfig::paper()
        .injection_rate(0.8)
        .warmup_cycles(0)
        .measure_cycles(60_000)
        .deadlock_threshold(2_000)
        .seed(41);
    let mut sim = VcSimulation::new(&torus, &algo, &Uniform, config);
    let mut deadlocked = false;
    for _ in 0..60_000 {
        if sim.step().is_some() {
            deadlocked = true;
            break;
        }
    }
    assert!(deadlocked, "plain dimension order must deadlock on a torus");
}
