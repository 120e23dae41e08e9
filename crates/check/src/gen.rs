//! Random case generation.
//!
//! The suite was designed for `proptest`-style strategies, but the
//! offline build vendors its own RNG instead (`turnroute-rng`), so
//! generation is a plain seeded draw from bounded choice lists. The
//! bounds (topology sizes, windows, loads) keep a single case cheap
//! enough that CI can afford hundreds of them; see
//! [`ConformanceCase::validate`] for the exact envelope.

use crate::case::{AlgoSpec, ConformanceCase, LengthSpec, PatternSpec, TopoSpec};
use turnroute_rng::{Rng, RngCore, StdRng};
use turnroute_sim::{InputSelection, OutputSelection, TrafficModel};

fn choose<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

fn gen_topo(rng: &mut StdRng) -> TopoSpec {
    match rng.random_range(0..5u32) {
        // 2D meshes get double weight: most algorithms and patterns
        // live there.
        0 | 1 => {
            let dims = if rng.random_bool(0.25) {
                vec![
                    rng.random_range(2..=3usize),
                    rng.random_range(2..=3usize),
                    rng.random_range(2..=3usize),
                ]
            } else {
                let a = rng.random_range(2..=6usize);
                // Square half the time so transpose patterns apply.
                let b = if rng.random_bool(0.5) {
                    a
                } else {
                    rng.random_range(2..=6usize)
                };
                vec![a, b]
            };
            TopoSpec::Mesh(dims)
        }
        2 => TopoSpec::Torus {
            k: rng.random_range(3..=5usize),
            n: rng.random_range(1..=2usize),
        },
        3 => TopoSpec::Hypercube(rng.random_range(2..=4usize)),
        // Graph topologies exercise the synthesized turn models.
        _ => {
            if rng.random_bool(0.5) {
                TopoSpec::FullMesh(rng.random_range(3..=6usize))
            } else {
                TopoSpec::Ring(rng.random_range(3..=8usize))
            }
        }
    }
}

const ALGOS: &[AlgoSpec] = &[
    AlgoSpec::DimensionOrder,
    AlgoSpec::WestFirst(true),
    AlgoSpec::WestFirst(false),
    AlgoSpec::NorthLast(true),
    AlgoSpec::NorthLast(false),
    AlgoSpec::NegativeFirst(true),
    AlgoSpec::NegativeFirst(false),
    AlgoSpec::Abonf(true),
    AlgoSpec::Abonf(false),
    AlgoSpec::Abopl(true),
    AlgoSpec::Abopl(false),
    AlgoSpec::PCube(true),
    AlgoSpec::PCube(false),
    AlgoSpec::NegativeFirstTorus,
    AlgoSpec::FirstHopWrap,
    AlgoSpec::Synth,
];

const PATTERNS: &[PatternSpec] = &[
    PatternSpec::Uniform,
    PatternSpec::Transpose,
    PatternSpec::DiagonalTranspose,
    PatternSpec::BitComplement,
    PatternSpec::Tornado,
    PatternSpec::NearestNeighbor,
    PatternSpec::Hotspot,
    PatternSpec::ReverseFlip,
    PatternSpec::BitReversal,
    PatternSpec::Shuffle,
];

/// Offered load of the high-rate cases: with `Fixed(1)` lengths the
/// mean inter-arrival time is 0.8 cycles.
const HIGH_RATE_LOAD: f64 = 1.25;

/// Draws one case from `rng`. Always returns a case that passes
/// [`ConformanceCase::validate`].
pub fn generate_case(rng: &mut StdRng) -> ConformanceCase {
    let topo = gen_topo(rng);
    let algos: Vec<AlgoSpec> = ALGOS
        .iter()
        .copied()
        .filter(|a| a.supports(&topo))
        .collect();
    let patterns: Vec<PatternSpec> = PATTERNS
        .iter()
        .copied()
        .filter(|p| p.supports(&topo))
        .collect();
    let algo = choose(rng, &algos);
    // A sixth of the cases drive destinations from a generated trace
    // fixture (which any topology supports); the rest draw from the
    // static pattern list.
    let pattern = if rng.random_bool(1.0 / 6.0) {
        PatternSpec::Trace {
            nodes: rng.random_range(2..=topo.num_nodes()) as u16,
            seed: (rng.next_u64() & 0xFFFF) as u16,
        }
    } else {
        choose(rng, &patterns)
    };
    // The top two loads are far past saturation on every topology
    // here, so those cases spend their windows with headers blocked;
    // at the bottom one most nodes sit idle for hundreds of cycles
    // between arrivals, which is where the engine's wake-up schedule
    // skips the most.
    let load = choose(rng, &[0.001, 0.01, 0.02, 0.05, 0.08, 0.12, 0.25, 0.40]);
    // A quarter of the cases inject through the bursty on-off arrival
    // process instead of the legacy Poisson stream.
    let traffic = if rng.random_bool(0.25) {
        TrafficModel::Mmpp {
            burst_cycles: choose(rng, &[24.0, 96.0, 384.0]),
            idle_cycles: choose(rng, &[48.0, 192.0, 768.0]),
        }
    } else {
        TrafficModel::Poisson
    };
    let lengths = choose(
        rng,
        &[
            LengthSpec::Fixed(1),
            LengthSpec::Fixed(4),
            LengthSpec::Fixed(16),
            LengthSpec::Bimodal(2, 16),
            LengthSpec::Bimodal(10, 200),
        ],
    );
    // The other end of the schedule: single-flit messages arriving
    // faster than one per node per cycle, so every node is due every
    // cycle and one poll emits several messages.
    let load = if lengths == LengthSpec::Fixed(1) && rng.random_bool(0.5) {
        HIGH_RATE_LOAD
    } else {
        load
    };
    let input = choose(
        rng,
        &[
            InputSelection::FirstComeFirstServed,
            InputSelection::FixedPriority,
            InputSelection::Random,
        ],
    );
    let output = choose(
        rng,
        &[
            OutputSelection::LowestDimension,
            OutputSelection::HighestDimension,
            OutputSelection::StraightFirst,
            OutputSelection::Random,
        ],
    );
    let seed = rng.next_u64();
    let warmup = choose(rng, &[0u64, 128, 512]);
    let measure = choose(rng, &[256u64, 512, 1024, 2048]);
    let threads = choose(rng, &[1usize, 2, 4]);
    // A quarter of the cases run under a small static fault plan.
    let mut faults = Vec::new();
    if rng.random_bool(0.25) {
        let channels = topo.build().num_channels();
        if channels > 0 {
            let want = rng.random_range(1..=3usize);
            for _ in 0..want {
                let c = rng.random_range(0..channels);
                if !faults.contains(&c) {
                    faults.push(c);
                }
            }
        }
    }
    let case = ConformanceCase {
        topo,
        algo,
        pattern,
        load,
        traffic,
        lengths,
        input,
        output,
        seed,
        warmup,
        measure,
        threads,
        faults,
    };
    debug_assert!(case.validate().is_ok(), "{:?}", case.validate());
    case
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_validate_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let case = generate_case(&mut rng);
            case.validate().unwrap_or_else(|e| panic!("{case}: {e}"));
            let back = ConformanceCase::parse(&case.to_string()).unwrap();
            assert_eq!(case, back);
        }
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..50)
                .map(|_| generate_case(&mut rng).to_string())
                .collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..50)
                .map(|_| generate_case(&mut rng).to_string())
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn the_matrix_is_covered() {
        // Over a few hundred draws every topology family, every
        // route-table-relevant algorithm class and faults all appear.
        let mut rng = StdRng::seed_from_u64(11);
        let (mut mesh, mut torus, mut cube, mut graph, mut faulted) = (0, 0, 0, 0, 0);
        let (mut mmpp, mut traced) = (0, 0);
        let (mut idle, mut high_rate) = (0, 0);
        for _ in 0..400 {
            let case = generate_case(&mut rng);
            match case.topo {
                TopoSpec::Mesh(_) => mesh += 1,
                TopoSpec::Torus { .. } => torus += 1,
                TopoSpec::Hypercube(_) => cube += 1,
                TopoSpec::FullMesh(_) | TopoSpec::Ring(_) => graph += 1,
            }
            if !case.faults.is_empty() {
                faulted += 1;
            }
            if matches!(case.traffic, TrafficModel::Mmpp { .. }) {
                mmpp += 1;
            }
            if matches!(case.pattern, PatternSpec::Trace { .. }) {
                traced += 1;
            }
            if case.load == 0.001 {
                idle += 1;
            }
            if case.load == HIGH_RATE_LOAD {
                assert_eq!(case.lengths, LengthSpec::Fixed(1));
                high_rate += 1;
            }
        }
        assert!(
            idle > 20 && high_rate > 20,
            "idle {idle} high-rate {high_rate}: both ends of the wake-up schedule must be exercised"
        );
        assert!(
            mesh > 50 && torus > 30 && cube > 30 && graph > 30 && faulted > 30,
            "mesh {mesh} torus {torus} cube {cube} graph {graph} faulted {faulted}"
        );
        assert!(
            mmpp > 40 && traced > 25,
            "mmpp {mmpp} traced {traced}: the new traffic axes must be exercised"
        );
    }
}
