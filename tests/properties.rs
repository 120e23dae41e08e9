//! Randomized tests over the whole stack: random topologies, endpoints,
//! turn sets and loads. Formerly proptest properties; now seeded loops
//! over the vendored RNG so the suite builds offline.

use turnroute::core::adaptiveness::{fully_adaptive_shortest_paths, negative_first_shortest_paths};
use turnroute::core::numbering::{
    negative_first_numbering, verify_monotone, west_first_numbering, Monotonic,
};
use turnroute::core::{
    count_paths, walk, Abonf, Abopl, ChannelDependencyGraph, DimensionOrder, NegativeFirst,
    NorthLast, PCube, RoutingAlgorithm, TurnSet, TwoPhase, WestFirst,
};
use turnroute::experiment::ExperimentSpec;
use turnroute::sim::patterns::Uniform;
use turnroute::sim::{
    DeliveryLog, LengthDistribution, MmppSource, SimConfig, Simulation, TrafficModel,
};
use turnroute::topology::{DirSet, Direction, Hypercube, Mesh, NodeId, Topology};
use turnroute_rng::{Rng, StdRng};

const CASES: usize = 64;

fn algo_2d(which: u8, minimal: bool) -> Box<dyn RoutingAlgorithm> {
    match which % 4 {
        0 => Box::new(DimensionOrder::new()),
        1 => Box::new(WestFirst::with_dims(2, minimal)),
        2 => Box::new(NorthLast::with_dims(2, minimal)),
        _ => Box::new(NegativeFirst::with_dims(2, minimal)),
    }
}

/// Draws a distinct `(a, b)` node pair in `0..n`.
fn distinct_pair(rng: &mut StdRng, n: usize) -> (NodeId, NodeId) {
    let a = rng.random_range(0..n);
    let mut b = rng.random_range(0..n);
    while b == a {
        b = rng.random_range(0..n);
    }
    (NodeId::new(a), NodeId::new(b))
}

/// Minimal algorithms produce shortest walks between arbitrary pairs
/// in arbitrary mesh shapes.
#[test]
fn minimal_walks_are_shortest() {
    let mut rng = StdRng::seed_from_u64(0xF001);
    for _ in 0..CASES {
        let m = rng.random_range(2..9usize);
        let n = rng.random_range(2..9usize);
        let mesh = Mesh::new_2d(m, n);
        let (s, d) = distinct_pair(&mut rng, m * n);
        let which = rng.random_range(0..4usize) as u8;
        let algo = algo_2d(which, true);
        let path = walk(algo.as_ref(), &mesh, s, d);
        assert_eq!(path.len() - 1, mesh.distance(s, d), "{m}x{n} algo {which}");
    }
}

/// Nonminimal two-phase walks still terminate at the destination.
#[test]
fn nonminimal_walks_terminate() {
    let mut rng = StdRng::seed_from_u64(0xF002);
    for _ in 0..CASES {
        let m = rng.random_range(2..7usize);
        let n = rng.random_range(2..7usize);
        let mesh = Mesh::new_2d(m, n);
        let (s, d) = distinct_pair(&mut rng, m * n);
        let which = rng.random_range(1..4usize) as u8;
        let algo = algo_2d(which, false);
        let path = walk(algo.as_ref(), &mesh, s, d);
        assert_eq!(*path.last().unwrap(), d);
    }
}

/// Theorem 2 numbering is monotone for every mesh shape, not just
/// the tested sizes.
#[test]
fn west_first_numbering_monotone() {
    for m in 2..11usize {
        for n in 2..11usize {
            let mesh = Mesh::new_2d(m, n);
            let cdg = ChannelDependencyGraph::from_turn_set(&mesh, &TurnSet::west_first());
            let numbers = west_first_numbering(&mesh);
            assert_eq!(
                verify_monotone(&cdg, &numbers, Monotonic::Decreasing),
                Ok(()),
                "{m}x{n}"
            );
        }
    }
}

/// Theorem 5 numbering is monotone for random n-dimensional shapes.
#[test]
fn negative_first_numbering_monotone() {
    let mut rng = StdRng::seed_from_u64(0xF003);
    for _ in 0..CASES {
        let n = rng.random_range(1..4usize);
        let dims: Vec<usize> = (0..n).map(|_| rng.random_range(2..5usize)).collect();
        let mesh = Mesh::new(dims.clone());
        let cdg = ChannelDependencyGraph::from_turn_set(&mesh, &TurnSet::negative_first(n));
        let numbers = negative_first_numbering(&mesh);
        assert_eq!(
            verify_monotone(&cdg, &numbers, Monotonic::Increasing),
            Ok(()),
            "{dims:?}"
        );
    }
}

/// Every two-phase split of the 2D directions yields a deadlock-free
/// turn set: phase ordering is inherently acyclic.
#[test]
fn all_two_phase_splits_are_deadlock_free() {
    for bits in 0u32..16 {
        let phase1: DirSet = Direction::all(2)
            .filter(|d| bits >> d.index() & 1 == 1)
            .collect();
        // A degenerate split with every direction in one phase is fully
        // adaptive (all turns allowed within the phase) and cyclic.
        if phase1.is_empty() || phase1.len() == 4 {
            continue;
        }
        let algo = TwoPhase::new("split", 2, phase1, true);
        let mesh = Mesh::new_2d(4, 4);
        let cdg = ChannelDependencyGraph::from_turn_set(&mesh, &algo.turn_set());
        assert!(cdg.is_acyclic(), "bits={bits:04b}");
    }
}

/// The negative-first closed form equals the DP oracle on random
/// 3D boxes and pairs.
#[test]
fn negative_first_formula_matches_oracle_3d() {
    let mut rng = StdRng::seed_from_u64(0xF004);
    for _ in 0..CASES {
        let dims: Vec<usize> = (0..3).map(|_| rng.random_range(2..5usize)).collect();
        let mesh = Mesh::new(dims.clone());
        let (s, d) = distinct_pair(&mut rng, mesh.num_nodes());
        let nf = NegativeFirst::with_dims(3, true);
        assert_eq!(
            count_paths(&nf, &mesh, s, d),
            negative_first_shortest_paths(&mesh, s, d),
            "{dims:?} {s}->{d}"
        );
    }
}

/// Partial adaptiveness never exceeds full adaptiveness.
#[test]
fn sp_at_most_sf() {
    let mut rng = StdRng::seed_from_u64(0xF005);
    for _ in 0..CASES {
        let m = rng.random_range(2..8usize);
        let n = rng.random_range(2..8usize);
        let mesh = Mesh::new_2d(m, n);
        let (s, d) = distinct_pair(&mut rng, m * n);
        let which = rng.random_range(0..4usize) as u8;
        let algo = algo_2d(which, true);
        let sp = count_paths(algo.as_ref(), &mesh, s, d);
        assert!(sp >= 1);
        assert!(sp <= fully_adaptive_shortest_paths(&mesh, s, d));
    }
}

/// p-cube in random hypercubes: minimal, and offers at most the
/// fully adaptive choice count at each step.
#[test]
fn pcube_walks_random_cubes() {
    let mut rng = StdRng::seed_from_u64(0xF006);
    for _ in 0..CASES {
        let n = rng.random_range(2..8usize);
        let cube = Hypercube::new(n);
        let (s, d) = distinct_pair(&mut rng, cube.num_nodes());
        let pcube = PCube::minimal();
        let path = walk(&pcube, &cube, s, d);
        assert_eq!(path.len() - 1, cube.distance(s, d));
    }
}

/// Simulator flit conservation holds under random light loads and
/// seeds, for a random algorithm.
#[test]
fn simulator_conserves_flits() {
    let mut rng = StdRng::seed_from_u64(0xF007);
    for _ in 0..CASES {
        let seed = rng.random_range(0..1000u64);
        let which = rng.random_range(0..4usize) as u8;
        let load = rng.random_range(0.01f64..0.2);
        let mesh = Mesh::new_2d(4, 4);
        let algo = algo_2d(which, true);
        let config = SimConfig::paper()
            .injection_rate(load)
            .warmup_cycles(0)
            .measure_cycles(0)
            .seed(seed);
        let mut sim = Simulation::with_observer(
            &mesh,
            algo.as_ref(),
            &Uniform,
            config,
            DeliveryLog::default(),
        );
        for _ in 0..500 {
            sim.step();
        }
        // Every arena slot (live worm or last delivered occupant) and
        // every packet ever delivered accounts for all of its flits.
        let delivered = sim.observer().delivered();
        assert_eq!(delivered.len() as u64, sim.total_delivered());
        for p in sim.packets().iter().chain(delivered) {
            assert_eq!(
                p.flits_at_source() + p.flits_in_network() + p.flits_consumed(),
                p.length
            );
        }
        assert!(delivered.iter().all(|p| p.flits_consumed() == p.length));
    }
}

/// The MMPP arrival process is normalized so its long-run empirical
/// injection rate converges to the configured offered load, for random
/// loads and burst/idle sojourn scales.
#[test]
fn mmpp_empirical_rate_converges_to_offered_load() {
    let mut rng = StdRng::seed_from_u64(0xF009);
    for case in 0..8 {
        let load = rng.random_range(0.02f64..0.2);
        let burst = rng.random_range(20.0f64..400.0);
        let idle = rng.random_range(20.0f64..800.0);
        let nodes = 9;
        let horizon = 100_000u64;
        // Unit-length messages make flits == messages, so the offered
        // load is the arrival rate directly.
        let mut source = MmppSource::new(
            nodes,
            Some(1.0 / load),
            LengthDistribution::Fixed(1),
            burst,
            idle,
            0xF009 + case,
        );
        let mut arrivals = 0u64;
        for cycle in 0..horizon {
            for node in 0..nodes {
                source.poll(node, cycle, |_| arrivals += 1);
            }
        }
        let expected = load * horizon as f64 * nodes as f64;
        let ratio = arrivals as f64 / expected;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "load {load:.3} burst {burst:.0} idle {idle:.0}: \
             {arrivals} arrivals vs {expected:.0} expected (ratio {ratio:.3})"
        );
    }
}

/// Reports under the new traffic axes — bursty MMPP arrivals and a
/// trace-driven destination file — are byte-identical at any executor
/// thread count and any engine shard count: all injection randomness
/// comes from per-node prefix-nested streams, never from whichever
/// worker happens to run the cell.
#[test]
fn mmpp_and_trace_reports_are_thread_and_shard_invariant() {
    let dir = std::env::temp_dir().join("turnroute-properties");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("invariance.trace");
    std::fs::write(&trace, "# fixture\n0 5 2\n1 4\n2 0 3\n3 1\n5 2 2\n12 7 5\n").unwrap();
    for pattern in [
        &"uniform".to_string(),
        &format!("trace:{}", trace.display()),
    ] {
        let spec_for = |shards: usize| {
            ExperimentSpec::builder("mesh:4x4", pattern)
                .algorithm("west-first")
                .algorithm("xy")
                .loads(&[0.05, 0.1])
                .config(
                    SimConfig::paper()
                        .warmup_cycles(200)
                        .measure_cycles(1_500)
                        .seed(7)
                        .traffic(TrafficModel::Mmpp {
                            burst_cycles: 80.0,
                            idle_cycles: 240.0,
                        })
                        .shards(shards),
                )
                .build()
                .unwrap()
        };
        let csv = |shards: usize, threads: usize| {
            spec_for(shards)
                .run(threads)
                .unwrap()
                .iter()
                .map(|s| s.to_csv())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let base = csv(1, 1);
        assert!(base.contains("0.05"), "sanity: {base}");
        assert_eq!(base, csv(1, 8), "thread invariance for {pattern}");
        assert_eq!(base, csv(4, 1), "shard invariance for {pattern}");
        assert_eq!(base, csv(4, 8), "combined invariance for {pattern}");
    }
}

/// n-dimensional analogs agree with the 2D originals on 2D meshes,
/// for random pairs.
#[test]
fn analogs_reduce_to_2d() {
    let mut rng = StdRng::seed_from_u64(0xF008);
    for _ in 0..CASES {
        let m = rng.random_range(2..8usize);
        let mesh = Mesh::new_2d(m, m);
        let (s, d) = distinct_pair(&mut rng, m * m);
        let wf = WestFirst::minimal();
        let abonf = Abonf::with_dims(2, true);
        assert_eq!(wf.route(&mesh, s, d, None), abonf.route(&mesh, s, d, None));
        let nl = NorthLast::minimal();
        let abopl = Abopl::with_dims(2, true);
        assert_eq!(nl.route(&mesh, s, d, None), abopl.route(&mesh, s, d, None));
    }
}
