//! `mesh64` and `idle_long`: one `Simulation::run` per repetition.
//!
//! The two use the plain engine in opposite ways. `mesh64` is too big
//! for a route table, so every decision is a live `route()` and the
//! working set leaves cache. `idle_long` carries a handful of packets
//! through a million cycles, so arbitration is nearly empty and what is
//! left is per-cycle fixed cost and the append-only packet arena.

use std::time::Instant;

use turnroute::cli::{parse_algorithm, parse_pattern, parse_topology};
use turnroute::core::RoutingAlgorithm;
use turnroute::sim::patterns::TrafficPattern;
use turnroute::sim::report::write_report_json;
use turnroute::sim::{
    ExecStats, RouteTableMode, RunOutcome, SimConfig, SimReport, Simulation, SweepPoint,
    SweepSeries,
};
use turnroute::topology::Topology;

use super::counting::{time_steps, Counting, EngineCounts};
use super::{end_to_end, guarded, zero_unset_layers, LoopClock, Options, Rep, Tally};
use crate::gen::{fnv1a64, run_inputs, RunInputs, Scale};
use crate::host;
use crate::layers;
use crate::output::{Metrics, Outcome};
use crate::registry::Workload;
use crate::spans::Recorder;
use crate::stats;

/// The parsed pieces a run borrows.
struct Parts {
    topo: Box<dyn Topology>,
    algo: Box<dyn RoutingAlgorithm>,
    pattern: Box<dyn TrafficPattern>,
}

impl Parts {
    fn sim(&self, config: SimConfig) -> Simulation<'_> {
        Simulation::new(
            self.topo.as_ref(),
            self.algo.as_ref(),
            self.pattern.as_ref(),
            config,
        )
    }
}

fn parse_parts(inputs: &RunInputs) -> Parts {
    let topo = parse_topology(inputs.topology).expect("the suite's topology parses");
    let algo = parse_algorithm(inputs.algorithm, topo.as_ref()).expect("algorithm parses");
    let pattern = parse_pattern(inputs.pattern).expect("pattern parses");
    Parts {
        topo,
        algo,
        pattern,
    }
}

/// Set-up as a user pays it: resolve the three names, then construct
/// the simulation (which decides about, and would build, a route
/// table). Returns the parts and whether a table came out.
fn set_up(inputs: &RunInputs) -> (Parts, bool) {
    let parts = parse_parts(inputs);
    let tabulated = parts.sim(inputs.config.clone()).uses_route_table();
    (parts, tabulated)
}

/// The bytes a run's digest is taken over: the CLI's report document
/// for the run as a one-point series, then the whole-run totals the
/// sweep point leaves out.
fn report_bytes(parts: &Parts, report: &SimReport) -> Vec<u8> {
    let series = SweepSeries {
        algorithm: parts.algo.name(),
        pattern: parts.pattern.name(),
        faults: 0,
        disconnected: 0,
        points: vec![SweepPoint::from_report(report)],
    };
    let mut bytes = Vec::new();
    write_report_json(&[series], &ExecStats::default(), &mut bytes).expect("Vec write");
    let m = &report.metrics;
    bytes.extend(
        format!(
            "{} {} {} {} {} {} {:?}",
            report.total_generated,
            report.total_delivered,
            report.stranded_packets,
            m.flits_delivered,
            m.messages_generated,
            m.hop_counts.iter().map(|&h| u64::from(h)).sum::<u64>(),
            m.queue_samples,
        )
        .bytes(),
    );
    bytes
}

/// One finished run.
struct Ran {
    wall_s: f64,
    cycles: u64,
    digest: u64,
    completed: bool,
}

fn run_once(parts: &Parts, config: &SimConfig) -> Ran {
    let mut sim = parts.sim(config.clone());
    let start = Instant::now();
    let report = sim.run();
    let wall_s = start.elapsed().as_secs_f64();
    Ran {
        wall_s,
        cycles: sim.cycle(),
        digest: fnv1a64(&report_bytes(parts, &report)),
        completed: matches!(report.outcome, RunOutcome::Completed),
    }
}

/// The same run with spans around each call and the counting observer
/// attached.
fn run_traced(
    inputs: &RunInputs,
    recorder: &Recorder,
    op: u64,
    counts: &mut EngineCounts,
) -> (Ran, f64, usize) {
    recorder.span("bench.run", op, None, |root| {
        let root = Some(root);
        let parts = recorder.span("experiment.parse", op, root, |_| parse_parts(inputs));
        let mut sim = recorder.span("sim.engine.new", op, root, |_| {
            Simulation::with_observer(
                parts.topo.as_ref(),
                parts.algo.as_ref(),
                parts.pattern.as_ref(),
                inputs.config.clone(),
                Counting::default(),
            )
        });
        let start = Instant::now();
        let report = recorder.span("sim.engine.run", op, root, |_| sim.run());
        let wall_s = start.elapsed().as_secs_f64();
        counts.add(sim.observer(), sim.cycle(), sim.packets().len());
        let serialize = Instant::now();
        let bytes = recorder.span("sim.report.serialize", op, root, |_| {
            report_bytes(&parts, &report)
        });
        let serialize_ms = serialize.elapsed().as_secs_f64() * 1e3;
        (
            Ran {
                wall_s,
                cycles: sim.cycle(),
                digest: fnv1a64(&bytes),
                completed: matches!(report.outcome, RunOutcome::Completed),
            },
            serialize_ms,
            bytes.len(),
        )
    })
}

/// The correctness gate, on the short window: `mesh64` must give the
/// same bytes serial and sharded; `idle_long` with its table forced on
/// and off.
fn gate(workload: Workload, parts: &Parts, inputs: &RunInputs, tally: &mut Tally) {
    let base = inputs.gate_config.clone();
    let (what, a, b) = match workload {
        Workload::Mesh64 => (
            "serial and shards=0 reports are byte-identical",
            base.clone(),
            base.shards(0),
        ),
        _ => (
            "table-on and table-off reports are byte-identical",
            base.clone().route_table(RouteTableMode::On),
            base.route_table(RouteTableMode::Off),
        ),
    };
    let (a, b) = (run_once(parts, &a), run_once(parts, &b));
    tally.check("gate run completed", a.completed && b.completed);
    tally.check(what, a.digest == b.digest);
}

/// Serial against `shards = 0` on the short window, interleaved
/// A/B/A/B: wall-clock speed-up, CPU cost ratio, and whether the
/// sharded request fell back to the serial path.
fn shard_probe(parts: &Parts, inputs: &RunInputs, pairs: usize, m: &mut Metrics) {
    let sharded_config = inputs.gate_config.clone().shards(0);
    let (mut serial_s, mut sharded_s, mut serial_cpu, mut sharded_cpu) =
        (Vec::new(), Vec::new(), 0.0, 0.0);
    let mut fallback = false;
    for _ in 0..pairs {
        let cpu = host::cpu_seconds();
        serial_s.push(run_once(parts, &inputs.gate_config).wall_s);
        serial_cpu += host::cpu_seconds() - cpu;

        let mut sim = parts.sim(sharded_config.clone());
        let cpu = host::cpu_seconds();
        let start = Instant::now();
        std::hint::black_box(sim.run());
        sharded_s.push(start.elapsed().as_secs_f64());
        sharded_cpu += host::cpu_seconds() - cpu;
        fallback |= sim.shard_fallback_reason().is_some();
    }
    let cores = host::cores().min(parts.topo.num_nodes());
    m.set("shard.count", if fallback { 1.0 } else { cores as f64 });
    m.set("shard.fallback", f64::from(u8::from(fallback)));
    m.set_stat(
        "shard.speedup",
        stats::median(&serial_s) / stats::median(&sharded_s),
        pairs,
    );
    // CPU time comes in 10 ms ticks; a quick-scale probe can read 0.
    let cpu_ratio = if serial_cpu > 0.0 {
        sharded_cpu / serial_cpu
    } else {
        0.0
    };
    m.set_stat("shard.cpu_ratio", cpu_ratio, pairs);
}

/// Runs `mesh64` or `idle_long`.
pub fn run(options: &Options) -> Outcome {
    let workload = options.workload;
    let inputs = run_inputs(workload, options.seed, options.scale);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut last = None;
    let sampling = Instant::now();
    while options.wants_setup_sample(setup_s.len(), sampling) {
        let start = Instant::now();
        let made = set_up(&inputs);
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    let (parts, tabulated) = last.expect("at least one set-up sample");
    let nodes = parts.topo.num_nodes() as u64;

    let verify = Instant::now();
    if guarded(|| gate(workload, &parts, &inputs, &mut tally)).is_none() {
        tally.check("gate panicked", false);
    }
    let verify_s = verify.elapsed().as_secs_f64();

    // One untimed repetition: page in the binary, grow the allocator,
    // and fix the digest every timed repetition must reproduce.
    let warm = guarded(|| run_once(&parts, &inputs.config));
    tally.check(
        "warm-up run completed",
        warm.as_ref().is_some_and(|r| r.completed),
    );
    let digest = warm.map_or(0, |r| r.digest);

    let timed = |tally: &mut Tally| -> Option<Rep> {
        let ran = guarded(|| run_once(&parts, &inputs.config));
        tally.check(
            "run completed with the warm-up's report bytes",
            ran.as_ref()
                .is_some_and(|r| r.completed && r.digest == digest),
        );
        ran.map(|r| Rep {
            wall_s: r.wall_s,
            node_cycles: nodes * r.cycles,
            op_ms: vec![r.wall_s * 1e3],
        })
    };

    let metrics = if options.trace {
        let recorder = Recorder::default();
        let clock = LoopClock::start();
        let (mut plain, mut traced_s, mut serialize_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut counts = EngineCounts::default();
        let mut report_bytes = 0;
        let mut cycles = 0;
        while options.wants_more(cycles, clock.started, 2) {
            // Untraced and traced runs alternate, so both see the same
            // host conditions.
            plain.extend(timed(&mut tally));
            counts = EngineCounts::default();
            let ran = guarded(|| run_traced(&inputs, &recorder, cycles as u64, &mut counts));
            tally.check(
                "traced run reproduced the untraced report bytes",
                ran.as_ref()
                    .is_some_and(|(r, ..)| r.completed && r.digest == digest),
            );
            if let Some((r, ms, bytes)) = ran {
                traced_s.push(r.wall_s);
                serialize_ms.push(ms);
                report_bytes = bytes;
            }
            cycles += 1;
        }
        let plain_s: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
        let plain_median = stats::median(&plain_s);
        let node_cycles = plain.first().map_or(0, |r| r.node_cycles) as f64;

        let mut m = layers::micro_probes(options);
        counts.write(&mut m);
        m.set("lut.tabulated", f64::from(u8::from(tabulated)));
        m.set_stat(
            "engine.ns_per_header_hop",
            plain_median * 1e9 / counts.header_hops().max(1) as f64,
            plain_s.len(),
        );
        if workload == Workload::IdleLong {
            m.set_stat(
                "engine.ns_per_node_cycle_idle",
                plain_median * 1e9 / node_cycles.max(1.0),
                plain_s.len(),
            );
        }
        m.set_median("report.serialize_ms", &serialize_ms);
        m.set("report.bytes", report_bytes as f64);
        m.set_stat(
            "host.trace_overhead_frac",
            (stats::median(&traced_s) - plain_median) / plain_median,
            traced_s.len(),
        );
        m.set("host.verify_s", verify_s);
        let full = options.scale == Scale::Full;
        let step_cycles = if full { 20_000 } else { 500 };
        time_steps(&mut parts.sim(inputs.config.clone()), step_cycles, &mut m);
        if workload == Workload::Mesh64 {
            shard_probe(&parts, &inputs, if full { 2 } else { 1 }, &mut m);
        }
        zero_unset_layers(&mut m);
        layers::write_trace(options, &recorder.take());
        m
    } else {
        let clock = LoopClock::start();
        let mut reps = Vec::new();
        while options.wants_more(reps.len(), clock.started, 3) {
            reps.extend(timed(&mut tally));
        }
        end_to_end(&setup_s, &reps, clock)
    };

    Outcome {
        workload: workload.name(),
        seed: options.seed,
        traced: options.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        report_fnv: digest,
        metrics,
    }
}
