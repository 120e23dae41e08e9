//! The five workloads and what they share: run options, the
//! repetition budget, the operation tally, and the arithmetic that
//! turns repetitions into the end-to-end metrics.

pub mod counting;
pub mod grid;
pub mod serve;
pub mod single;

use std::path::PathBuf;
use std::time::Instant;

use crate::gen::Scale;
use crate::host;
use crate::output::{Metrics, Outcome};
use crate::registry::Workload;
use crate::stats;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Time box for the measured loop, in seconds.
    pub seconds: f64,
    /// Fixed repetition count instead of the time box, so counts repeat
    /// exactly between two runs (`run.sh` and `--agree` use it).
    pub reps: Option<usize>,
    /// `true`: record spans and report per-layer metrics; `false`:
    /// report end-to-end metrics.
    pub trace: bool,
    /// Work per repetition.
    pub scale: Scale,
    /// Where result files, traces and temporary store directories go.
    pub out_dir: PathBuf,
}

impl Options {
    /// `true` while the measured loop should start another repetition:
    /// under `--reps`, until that many are done; otherwise at least
    /// `min_reps`, then until the time box is spent.
    pub fn wants_more(&self, done: usize, started: Instant, min_reps: usize) -> bool {
        match self.reps {
            Some(reps) => done < reps,
            None => done < min_reps || started.elapsed().as_secs_f64() < self.seconds,
        }
    }

    /// `true` while set-up should be sampled again for the `setup_s`
    /// median: at least nine times (three at quick scale), and — since
    /// some workloads set up in microseconds, where nine samples are all
    /// noise — on until a quarter second or 500 samples are spent.
    pub fn wants_setup_sample(&self, done: usize, started: Instant) -> bool {
        match self.scale {
            Scale::Quick => done < 3,
            Scale::Full => done < 9 || (done < 500 && started.elapsed().as_secs_f64() < 0.25),
        }
    }
}

/// Operations attempted and failed, with the reason for each failure
/// on standard error.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` fails it and says why.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }
}

/// Runs one operation, turning a panic inside the program under test
/// into `None` (a failed operation) instead of tearing the run down.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// One timed repetition of a workload's fixed unit of work.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds the unit took.
    pub wall_s: f64,
    /// Nodes × simulated cycles the unit covered.
    pub node_cycles: u64,
    /// Wall milliseconds of each operation (cell, run or job) in it.
    pub op_ms: Vec<f64>,
}

/// Process CPU seconds and wall start of the measured loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopClock {
    cpu_start: f64,
    /// When the loop started.
    pub started: Instant,
}

impl LoopClock {
    /// Starts the clock.
    pub fn start() -> Self {
        LoopClock {
            cpu_start: host::cpu_seconds(),
            started: Instant::now(),
        }
    }
}

/// Turns set-up samples and timed repetitions into the seven end-to-end
/// metrics. Every rate is a median over repetitions; the operation
/// quartiles pool every operation of every repetition; CPU cost is the
/// loop's total process time over its total work; peak memory is the
/// process high-water mark when the loop ends.
pub fn end_to_end(setup_s: &[f64], reps: &[Rep], clock: LoopClock) -> Metrics {
    let cpu_s = host::cpu_seconds() - clock.cpu_start;
    let rss = host::peak_rss_mib();
    let mut m = Metrics::default();
    m.set_median("setup_s", setup_s);
    let rate = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(|r| f(r) / r.wall_s).collect() };
    m.set_median("node_cycles_per_s", &rate(|r| r.node_cycles as f64));
    m.set_median("ops_per_s", &rate(|r| r.op_ms.len() as f64));
    let node_cycles: u64 = reps.iter().map(|r| r.node_cycles).sum();
    m.set("cpu_ns_per_node_cycle", cpu_s * 1e9 / node_cycles as f64);
    m.set("peak_rss_mib", rss);
    let ops = stats::sorted(
        &reps
            .iter()
            .flat_map(|r| r.op_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    m.set_stat("op_p25_ms", stats::percentile_sorted(&ops, 25.0), ops.len());
    m.set_stat("op_p75_ms", stats::percentile_sorted(&ops, 75.0), ops.len());
    m
}

/// Fills every per-layer metric the run did not set with 0: the layer
/// was bypassed on this workload.
pub fn zero_unset_layers(metrics: &mut Metrics) {
    for layer in &crate::registry::PER_LAYER {
        if metrics.get(layer.name).is_none() {
            metrics.set(layer.name, 0.0);
        }
    }
}

/// Runs the workload `options` names.
pub fn run(options: &Options) -> Outcome {
    match options.workload {
        Workload::Sweep16 | Workload::VcGrid => grid::run(options),
        Workload::Mesh64 | Workload::IdleLong => single::run(options),
        Workload::ServeMix => serve::run(options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_follow_from_the_repetitions() {
        let reps = vec![
            Rep {
                wall_s: 2.0,
                node_cycles: 2_000,
                op_ms: vec![1.0, 3.0],
            },
            Rep {
                wall_s: 1.0,
                node_cycles: 2_000,
                op_ms: vec![2.0, 4.0, 5.0],
            },
            Rep {
                wall_s: 4.0,
                node_cycles: 2_000,
                op_ms: vec![6.0],
            },
        ];
        let m = end_to_end(&[0.3, 0.1, 0.2], &reps, LoopClock::start());
        assert_eq!(m.get("setup_s").unwrap().value, 0.2);
        assert_eq!(m.get("node_cycles_per_s").unwrap().value, 1_000.0);
        assert_eq!(m.get("ops_per_s").unwrap().value, 1.0);
        assert_eq!(m.get("op_p25_ms").unwrap().n, 6);
        assert_eq!(m.get("op_p25_ms").unwrap().value, 2.25);
        assert_eq!(m.get("op_p75_ms").unwrap().value, 4.75);
        assert!(m.get("peak_rss_mib").unwrap().value > 0.0);
    }

    #[test]
    fn the_budget_is_a_time_box_unless_reps_are_fixed() {
        let mut o = Options {
            workload: Workload::Sweep16,
            seed: 1,
            seconds: 0.0,
            reps: None,
            trace: false,
            scale: Scale::Quick,
            out_dir: PathBuf::from("."),
        };
        let t = Instant::now();
        assert!(o.wants_more(0, t, 3) && o.wants_more(2, t, 3) && !o.wants_more(3, t, 3));
        o.seconds = 3600.0;
        assert!(o.wants_more(1000, t, 3));
        o.reps = Some(7);
        assert!(o.wants_more(6, t, 3) && !o.wants_more(7, t, 3));
    }

    #[test]
    fn a_panic_is_a_failed_operation_not_a_crash() {
        let mut tally = Tally::default();
        tally.check("fine", guarded(|| 1).is_some());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got: Option<u8> = guarded(|| panic!("boom"));
        std::panic::set_hook(hook);
        tally.check("boom", got.is_some());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
