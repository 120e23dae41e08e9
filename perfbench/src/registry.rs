//! The names the suite speaks: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root must list exactly these (a test compares the two), and
//! later issues cite them, so renaming one is a change to the benchmark.

/// Which direction is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, cost per unit of work).
    Lower,
    /// Larger is better (rates, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a fixed unit of work repeated for the run's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 13/14 sweep on a 16x16 mesh.
    Sweep16,
    /// One long run on a 64x64 mesh, routed live.
    Mesh64,
    /// One nearly idle million-cycle run on a 16x16 mesh.
    IdleLong,
    /// A grid on the virtual-channel engine.
    VcGrid,
    /// Closed-loop job traffic against the in-process server.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 5] = [
        Workload::Sweep16,
        Workload::Mesh64,
        Workload::IdleLong,
        Workload::VcGrid,
        Workload::ServeMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep16 => "sweep16",
            Workload::Mesh64 => "mesh64",
            Workload::IdleLong => "idle_long",
            Workload::VcGrid => "vc_grid",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sweep16 => {
                "the paper's figure sweep: tabulated routes, saturated cells and the \
                 executor's scheduling dominate"
            }
            Workload::Mesh64 => {
                "one 64x64 run: no route table fits, every decision is a live route() \
                 and the working set leaves cache"
            }
            Workload::IdleLong => {
                "a nearly idle million-cycle run: per-cycle fixed cost and the \
                 append-only packet arena are the whole run"
            }
            Workload::VcGrid => {
                "the virtual-channel engine: no table, shards or oracle; the fixed \
                 point an engine fold must not slow"
            }
            Workload::ServeMix => {
                "closed-loop 50/50 cache-hit/miss jobs over loopback: HTTP, spec JSON, \
                 fingerprint, store and the runner queue dominate"
            }
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is good.
    pub better: Better,
    /// Regression bound, as a share of the parent's median.
    pub bound: f64,
}

/// Every workload reports every end-to-end metric; all are host-time
/// quantities except that `node_cycles` counts *simulated* cycles.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "node_cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_ns_per_node_cycle",
        unit: "ns",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "op_p25_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p75_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// A per-layer metric. `exact` marks counts that depend only on the
/// code and the seed, so two runs of one commit must agree to the bit
/// (with `--reps`, i.e. fixed work).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the prefix before the first `.` is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is good.
    pub better: Better,
    /// `true` if the value must repeat exactly at fixed work.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// Every traced run reports every per-layer metric. Micro-probes (fixed
/// seeded inputs pushed through one layer's public functions) read the
/// same on every workload; in-situ metrics (counted or timed inside the
/// workload's own repetition) read 0 where the workload never reaches
/// the layer — which is the "bypass" half of every prediction.
pub const PER_LAYER: [Layer; 69] = [
    // core — micro-probes.
    layer("core.route_ns", "ns", Lower, false),
    layer("core.route_ns_mesh64", "ns", Lower, false),
    // sim.lut — micro-probes, plus whether Auto tabulated this workload.
    layer("lut.build_ms", "ms", Lower, false),
    layer("lut.lookup_ns", "ns", Lower, false),
    layer("lut.bytes", "bytes", Lower, true),
    layer("lut.tabulated", "count", Higher, true),
    // sim.traffic — micro-probes.
    layer("traffic.poll_ns_poisson", "ns", Lower, false),
    layer("traffic.poll_ns_mmpp", "ns", Lower, false),
    // sim.engine — in situ, one traced repetition.
    layer("engine.cycles", "count", Lower, true),
    layer("engine.packets_injected", "count", Higher, true),
    layer("engine.header_hops", "count", Lower, true),
    layer("engine.channel_acquires", "count", Lower, true),
    layer("engine.blocked_events", "count", Lower, true),
    layer("engine.flits_delivered", "count", Higher, true),
    layer("engine.arena_packets_end", "count", Lower, true),
    layer("engine.in_flight_max", "count", Lower, true),
    layer("engine.arena_waste_ratio", "ratio", Lower, true),
    layer("engine.step_ns_p50", "ns", Lower, false),
    layer("engine.step_ns_p99", "ns", Lower, false),
    layer("engine.ns_per_header_hop", "ns", Lower, false),
    layer("engine.ns_per_node_cycle_idle", "ns", Lower, false),
    // sim.engine.shard — in situ on mesh64.
    layer("shard.count", "count", Higher, true),
    layer("shard.speedup", "ratio", Higher, false),
    layer("shard.cpu_ratio", "ratio", Lower, false),
    layer("shard.fallback", "count", Lower, true),
    // sim.exec — in situ on the grid workloads.
    layer("exec.cells_emitted", "count", Higher, true),
    layer("exec.cells_simulated", "count", Lower, false),
    layer("exec.cells_skipped", "count", Higher, true),
    layer("exec.useful_ratio", "ratio", Higher, false),
    layer("exec.busy_frac", "ratio", Higher, false),
    layer("exec.thread_speedup", "ratio", Higher, false),
    layer("exec.cell_ms_p50", "ms", Lower, false),
    layer("exec.cell_ms_max", "ms", Lower, false),
    // sim.report — in situ where the workload produces a series report.
    layer("report.serialize_ms", "ms", Lower, false),
    layer("report.bytes", "bytes", Lower, true),
    // experiment — micro-probes.
    layer("spec.from_json_us", "us", Lower, false),
    layer("spec.to_json_us", "us", Lower, false),
    layer("spec.fingerprint_us", "us", Lower, false),
    layer("spec.build_us", "us", Lower, false),
    // vc — in situ on vc_grid.
    layer("vc.step_ns_p50", "ns", Lower, false),
    layer("vc.node_cycles_per_s_mady", "1/s", Higher, false),
    layer("vc.node_cycles_per_s_dateline", "1/s", Higher, false),
    layer("vc.vs_plain_ratio", "ratio", Higher, false),
    // serve.http — micro-probe.
    layer("http.healthz_us_p50", "us", Lower, false),
    layer("http.healthz_us_p99", "us", Lower, false),
    // serve.store — micro-probes, plus the store's end state in situ.
    layer("store.put_us", "us", Lower, false),
    layer("store.get_us", "us", Lower, false),
    layer("store.entries_end", "count", Lower, true),
    layer("store.bytes_end", "bytes", Lower, true),
    // serve.server — in situ on serve_mix.
    layer("serve.submit_ms_p50", "ms", Lower, false),
    layer("serve.wait_ms_p50", "ms", Lower, false),
    layer("serve.fetch_ms_p50", "ms", Lower, false),
    layer("serve.polls_per_job", "count", Lower, false),
    layer("serve.exec_ms_mean", "ms", Lower, false),
    layer("serve.overhead_ms_p50", "ms", Lower, false),
    layer("serve.store_hits", "count", Higher, true),
    layer("serve.store_misses", "count", Lower, true),
    layer("serve.cells_simulated", "count", Lower, true),
    layer("serve.job_miss_p50_ms", "ms", Lower, false),
    layer("serve.job_miss_p90_ms", "ms", Lower, false),
    layer("serve.job_miss_p99_ms", "ms", Lower, false),
    layer("serve.job_hit_p50_ms", "ms", Lower, false),
    layer("serve.job_hit_p90_ms", "ms", Lower, false),
    layer("serve.job_hit_p99_ms", "ms", Lower, false),
    // Simulated accuracy against the paper's claim — in situ on sweep16.
    layer("paper.gap_transpose", "ratio", Lower, true),
    // host.
    layer("host.cores", "count", Higher, true),
    layer("host.calib_ns", "ns", Lower, false),
    layer("host.verify_s", "s", Lower, false),
    layer("host.trace_overhead_frac", "ratio", Lower, false),
];

/// `true` if `name` is made only of the characters the benchmark
/// contract allows in a name, starts with a letter or digit, and fits
/// in 64 characters.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(is_valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(!is_valid_name(".hidden") && !is_valid_name("a b") && !is_valid_name(""));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("sweep17"), None);
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound,
                "{}",
                m.name
            );
        }
    }
}
