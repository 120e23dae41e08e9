//! Workload inputs, generated from `--seed`. The programs under test
//! receive only what this module produces: experiment specs, simulator
//! configurations and the `serve_mix` job order. Nothing here runs
//! product code beyond the validating spec builder.

use turnroute::experiment::{Engine, ExperimentSpec};
use turnroute::sim::{LengthDistribution, SimConfig};
use turnroute_rng::{split_mix_64, Rng, StdRng};

use crate::registry::Workload;

/// How much work one repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is defined at.
    Full,
    /// Tiny windows and 40 jobs: keeps the suite compiling and running
    /// under `cargo test` in a few seconds. Its numbers mean nothing.
    Quick,
}

/// Derives an independent 64-bit seed for (`tag`, `index`) from the
/// run's `--seed`.
pub fn derive_seed(seed: u64, tag: &str, index: u64) -> u64 {
    let mut state = seed ^ 0x7075_7266_6265_6E63; // "purfbenc"
    for &b in tag.as_bytes() {
        state ^= u64::from(b);
        split_mix_64(&mut state);
    }
    state ^= index;
    split_mix_64(&mut state)
}

/// FNV-1a, 64-bit: the digest printed for every workload's report.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn windows(warmup: u64, measure: u64, seed: u64) -> SimConfig {
    SimConfig::paper()
        .warmup_cycles(warmup)
        .measure_cycles(measure)
        .seed(seed)
}

fn spec(
    topology: &str,
    pattern: &str,
    algorithms: &[&str],
    loads: &[f64],
    config: SimConfig,
    engine: Engine,
) -> ExperimentSpec {
    let mut builder = ExperimentSpec::builder(topology, pattern)
        .loads(loads)
        .config(config)
        .engine(engine);
    for a in algorithms {
        builder = builder.algorithm(*a);
    }
    builder
        .build()
        .expect("the suite's own specs use names the product accepts")
}

/// Inputs of a grid workload (`sweep16`, `vc_grid`): the specs one
/// repetition runs back to back, and the same grids at reduced windows
/// for the correctness gate.
#[derive(Debug, Clone)]
pub struct GridInputs {
    /// One repetition: each spec on a fresh executor, in order.
    pub specs: Vec<ExperimentSpec>,
    /// The same grids with short windows, for the byte-identity checks.
    pub gate_specs: Vec<ExperimentSpec>,
    /// `vc_grid` only: its xy series as a plain-engine spec, the
    /// denominator of `vc.vs_plain_ratio`.
    pub plain_twin: Option<ExperimentSpec>,
    /// `sweep16` only: the fine transpose sweep `paper.gap_transpose`
    /// is read from, run once in a traced run and never timed.
    pub paper_probe: Option<ExperimentSpec>,
}

/// Builds the inputs of `sweep16` or `vc_grid`.
///
/// # Panics
///
/// Panics if `workload` is not one of the two grid workloads.
pub fn grid_inputs(workload: Workload, seed: u64, scale: Scale) -> GridInputs {
    let quick = scale == Scale::Quick;
    match workload {
        Workload::Sweep16 => {
            let algorithms = ["xy", "west-first", "north-last", "negative-first"];
            // Four points under saturation, one far past it, and one the
            // saturation skip drops. Across seeds the first unsustainable
            // load of these series wanders over 0.06–0.13, and a grid
            // with points in that band emits a different set of cells —
            // a different amount of work — for every seed. These loads
            // stay out of it, so every seed emits the same 40 cells.
            let grids: [(&str, &[f64]); 2] = if quick {
                [("uniform", &[0.02, 0.12]), ("transpose", &[0.02, 0.15])]
            } else {
                [
                    ("uniform", &[0.01, 0.02, 0.03, 0.04, 0.12, 0.18]),
                    ("transpose", &[0.01, 0.02, 0.03, 0.04, 0.15, 0.20]),
                ]
            };
            let (run, gate) = if quick {
                ((100, 400), (50, 200))
            } else {
                ((2_000, 12_000), (400, 1_600))
            };
            let build = |(warmup, measure): (u64, u64)| {
                grids
                    .iter()
                    .enumerate()
                    .map(|(i, (pattern, loads))| {
                        let cfg = windows(warmup, measure, derive_seed(seed, "sweep16", i as u64));
                        spec(
                            "mesh:16x16",
                            pattern,
                            &algorithms,
                            loads,
                            cfg,
                            Engine::Wormhole,
                        )
                    })
                    .collect()
            };
            // The accuracy probe: xy against negative-first on transpose,
            // stepping through exactly the band the timed grid avoids.
            let band: Vec<f64> = if quick {
                vec![0.04, 0.08, 0.12]
            } else {
                (4..=14).map(|i| f64::from(i) / 100.0).collect()
            };
            GridInputs {
                specs: build(run),
                gate_specs: build(gate),
                plain_twin: None,
                paper_probe: Some(spec(
                    "mesh:16x16",
                    "transpose",
                    &["xy", "negative-first"],
                    &band,
                    windows(run.0, run.1, derive_seed(seed, "sweep16.paper", 0)),
                    Engine::Wormhole,
                )),
            }
        }
        Workload::VcGrid => {
            // As for sweep16: under saturation twice, then far past it
            // (the torus sustains all three).
            let loads: &[f64] = if quick {
                &[0.02, 0.16]
            } else {
                &[0.02, 0.04, 0.16]
            };
            let (run, gate) = if quick {
                ((100, 300), (50, 150))
            } else {
                ((2_000, 40_000), (200, 1_000))
            };
            let build = |(warmup, measure): (u64, u64)| {
                vec![
                    spec(
                        "mesh:16x16",
                        "transpose",
                        &["mad-y", "xy"],
                        loads,
                        windows(warmup, measure, derive_seed(seed, "vc_grid", 0)),
                        Engine::VirtualChannel,
                    ),
                    spec(
                        "torus:8,2",
                        "uniform",
                        &["dateline"],
                        loads,
                        windows(warmup, measure, derive_seed(seed, "vc_grid", 1)),
                        Engine::VirtualChannel,
                    ),
                ]
            };
            GridInputs {
                specs: build(run),
                gate_specs: build(gate),
                plain_twin: Some(spec(
                    "mesh:16x16",
                    "transpose",
                    &["xy"],
                    loads,
                    windows(run.0, run.1, derive_seed(seed, "vc_grid", 0)),
                    Engine::Wormhole,
                )),
                paper_probe: None,
            }
        }
        other => panic!("{} is not a grid workload", other.name()),
    }
}

/// Inputs of a single-run workload (`mesh64`, `idle_long`).
#[derive(Debug, Clone)]
pub struct RunInputs {
    /// Topology spec string.
    pub topology: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Pattern name.
    pub pattern: &'static str,
    /// The timed run's configuration.
    pub config: SimConfig,
    /// The same run over a short window, for the correctness gate and
    /// the serial-versus-sharded comparison.
    pub gate_config: SimConfig,
}

/// Builds the inputs of `mesh64` or `idle_long`.
///
/// # Panics
///
/// Panics if `workload` is not one of the two single-run workloads.
pub fn run_inputs(workload: Workload, seed: u64, scale: Scale) -> RunInputs {
    let quick = scale == Scale::Quick;
    match workload {
        Workload::Mesh64 => {
            let (run, gate) = if quick {
                ((100, 400), (50, 200))
            } else {
                ((1_000, 10_000), (500, 3_000))
            };
            let cfg = |(w, m): (u64, u64)| {
                windows(w, m, derive_seed(seed, "mesh64", 0)).injection_rate(0.03)
            };
            RunInputs {
                topology: "mesh:64x64",
                algorithm: "west-first",
                pattern: "transpose",
                config: cfg(run),
                gate_config: cfg(gate),
            }
        }
        Workload::IdleLong => {
            let (run, gate) = if quick {
                ((100, 5_000), (50, 1_000))
            } else {
                ((1_000, 1_000_000), (1_000, 50_000))
            };
            let cfg = |(w, m): (u64, u64)| {
                windows(w, m, derive_seed(seed, "idle_long", 0))
                    .injection_rate(0.01)
                    .lengths(LengthDistribution::Fixed(8))
            };
            RunInputs {
                topology: "mesh:16x16",
                algorithm: "west-first",
                pattern: "uniform",
                config: cfg(run),
                gate_config: cfg(gate),
            }
        }
        other => panic!("{} is not a single-run workload", other.name()),
    }
}

/// One `serve_mix` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// A spec the server has never seen: the k-th distinct spec.
    Miss(usize),
    /// A resubmission of the k-th distinct spec, submitted earlier.
    Hit(usize),
}

/// Inputs of `serve_mix`: distinct specs by index and the job order in
/// blocks of equal hit and miss counts.
#[derive(Debug, Clone, Copy)]
pub struct ServeInputs {
    seed: u64,
    scale: Scale,
}

impl ServeInputs {
    /// The inputs for one `--seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        ServeInputs { seed, scale }
    }

    /// Jobs per block (one repetition): half hits, half misses.
    pub fn block_len(&self) -> usize {
        match self.scale {
            Scale::Full => 100,
            Scale::Quick => 40,
        }
    }

    /// The k-th distinct spec: mesh:8x8, two algorithms, three loads,
    /// a few milliseconds of engine, and a seed no other k shares.
    pub fn miss_spec(&self, k: usize) -> ExperimentSpec {
        let (warmup, measure) = match self.scale {
            Scale::Full => (200, 800),
            Scale::Quick => (50, 200),
        };
        spec(
            "mesh:8x8",
            "uniform",
            &["xy", "west-first"],
            &[0.02, 0.05, 0.08],
            windows(
                warmup,
                measure,
                derive_seed(self.seed, "serve_mix.spec", k as u64),
            ),
            Engine::Wormhole,
        )
    }

    /// Block `b` of the job order, given how many distinct specs were
    /// submitted before it. Exactly half the jobs are misses, numbered
    /// on from `misses_before` in order of appearance; each hit
    /// resubmits a uniformly chosen spec submitted earlier in the
    /// sequence. The client is closed-loop, so that earlier job has
    /// finished and the resubmission is a store hit, never a coalesce.
    ///
    /// # Panics
    ///
    /// Panics if `misses_before` is 0: a block may open with a hit, so
    /// [`ServeInputs::prefill`] always runs first.
    pub fn block(&self, b: usize, misses_before: usize) -> Vec<Job> {
        assert!(misses_before > 0, "hits need earlier specs to resubmit");
        let half = self.block_len() / 2;
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, "serve_mix.order", b as u64));
        let mut is_miss: Vec<bool> = (0..2 * half).map(|i| i < half).collect();
        // Fisher–Yates.
        for i in (1..is_miss.len()).rev() {
            is_miss.swap(i, rng.random_range(0..=i));
        }
        let mut submitted = misses_before;
        is_miss
            .into_iter()
            .map(|miss| {
                if miss {
                    submitted += 1;
                    Job::Miss(submitted - 1)
                } else {
                    Job::Hit(rng.random_range(0..submitted))
                }
            })
            .collect()
    }

    /// The untimed warm-up: half a block of distinct specs, so the
    /// first timed block's hits have a populated store to choose from.
    pub fn prefill(&self) -> Vec<Job> {
        (0..self.block_len() / 2).map(Job::Miss).collect()
    }
}

/// A canonical text rendering of everything a workload's programs will
/// receive for (`workload`, `seed`, `scale`) — the basis of the
/// "same seed, same inputs" test.
pub fn describe(workload: Workload, seed: u64, scale: Scale) -> String {
    match workload {
        Workload::Sweep16 | Workload::VcGrid => {
            let g = grid_inputs(workload, seed, scale);
            g.specs
                .iter()
                .chain(&g.gate_specs)
                .chain(&g.plain_twin)
                .chain(&g.paper_probe)
                .map(|s| s.to_json())
                .collect::<Vec<_>>()
                .join("\n")
        }
        Workload::Mesh64 | Workload::IdleLong => {
            let r = run_inputs(workload, seed, scale);
            format!(
                "{} {} {} {:?} {:?}",
                r.topology, r.algorithm, r.pattern, r.config, r.gate_config
            )
        }
        Workload::ServeMix => {
            let s = ServeInputs::new(seed, scale);
            let half = s.block_len() / 2;
            format!(
                "{}\n{}\n{:?}\n{:?}\n{:?}",
                s.miss_spec(0).to_json(),
                s.miss_spec(half).to_json(),
                s.prefill(),
                s.block(1, half),
                s.block(2, 2 * half),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_inputs_and_another_gives_others() {
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Quick] {
                let a = describe(w, 1, scale);
                assert_eq!(a, describe(w, 1, scale), "{}", w.name());
                assert_ne!(a, describe(w, 2, scale), "{}", w.name());
            }
        }
    }

    #[test]
    fn blocks_are_half_hits_and_hit_only_earlier_jobs() {
        let s = ServeInputs::new(3, Scale::Full);
        let half = s.block_len() / 2;
        assert_eq!(s.prefill().len(), half);
        let mut submitted = half;
        for b in 1..4 {
            let block = s.block(b, submitted);
            assert_eq!(block.len(), s.block_len());
            let mut seen = submitted;
            for j in &block {
                match j {
                    Job::Miss(k) => {
                        assert_eq!(*k, seen, "misses are numbered in order");
                        seen += 1;
                    }
                    Job::Hit(k) => assert!(*k < seen, "hit {k} targets a later job"),
                }
            }
            assert_eq!(seen, submitted + half);
            // Shuffled, not hits-then-misses.
            assert!(block[..half].iter().any(|j| matches!(j, Job::Hit(_))));
            submitted += half;
        }
    }

    #[test]
    fn distinct_specs_have_distinct_fingerprints() {
        let s = ServeInputs::new(1, Scale::Quick);
        let a = s.miss_spec(0).fingerprint();
        assert_eq!(a, s.miss_spec(0).fingerprint());
        assert_ne!(a, s.miss_spec(1).fingerprint());
        assert_ne!(
            a,
            ServeInputs::new(2, Scale::Quick).miss_spec(0).fingerprint()
        );
    }

    #[test]
    fn digests_and_seeds_are_stable() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(derive_seed(1, "x", 0), derive_seed(1, "x", 0));
        assert_ne!(derive_seed(1, "x", 0), derive_seed(1, "x", 1));
        assert_ne!(derive_seed(1, "x", 0), derive_seed(1, "y", 0));
        assert_ne!(derive_seed(1, "x", 0), derive_seed(2, "x", 0));
    }
}
