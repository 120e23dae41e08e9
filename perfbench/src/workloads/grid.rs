//! `sweep16` and `vc_grid`: grids of cells through the parallel
//! executor, the way the figure regenerators use the library.
//!
//! `sweep16` is the paper's Fig. 13/14 grid on the plain engine: routes
//! come from tables, saturated cells dominate, and the executor's
//! scheduling and saturation skip matter. `vc_grid` is the second
//! wormhole engine, which has no table, shards, observers or oracle.
//!
//! Untraced repetitions go through `ExperimentSpec::run_on`, exactly
//! like a user. A traced repetition rebuilds the same series jobs here
//! so that each cell can carry spans (and, on the plain engine, the
//! counting observer); the gate holds its report bytes to the untraced
//! ones, so the rebuilt path cannot drift unnoticed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use turnroute::cli::{parse_algorithm, parse_pattern, parse_topology, parse_vc_algorithm};
use turnroute::experiment::{Engine, ExperimentSpec};
use turnroute::sim::exec::sim_cache_key;
use turnroute::sim::report::write_report_json;
use turnroute::sim::{
    CellOutput, CellTiming, ExecStats, Executor, RouteTable, RouteTableMode, SeriesJob, Simulation,
    SweepSeries,
};
use turnroute::vc::{vc_series_job, VcSimulation, VcTable};

use super::counting::{step_times_ns, time_steps, Counting, EngineCounts};
use super::{end_to_end, guarded, zero_unset_layers, LoopClock, Options, Rep, Tally};
use crate::gen::{fnv1a64, grid_inputs, GridInputs, Scale};
use crate::host;
use crate::layers;
use crate::output::{Metrics, Outcome};
use crate::registry::Workload;
use crate::spans::Recorder;
use crate::stats;

/// Nodes of a spec's topology.
fn nodes_of(spec: &ExperimentSpec) -> u64 {
    parse_topology(&spec.topology)
        .expect("validated specs resolve")
        .num_nodes() as u64
}

/// Nominal node-cycles of one emitted cell: nodes × (warm-up + measured
/// window). The drain tail after the window is work too, but only the
/// engine knows its length, and a grid does not expose it.
fn cell_node_cycles(spec: &ExperimentSpec) -> u64 {
    nodes_of(spec) * (spec.config.warmup_cycles + spec.config.measure_cycles)
}

/// Set-up as a user pays it: validate every spec, then build what each
/// series builds before its first cell — a route table on the plain
/// engine (policy-driven, so an over-budget topology builds nothing), a
/// lane table on the virtual-channel engine. Returns the inputs and
/// whether every plain series got a table.
fn set_up(options: &Options) -> (GridInputs, bool) {
    let inputs = grid_inputs(options.workload, options.seed, options.scale);
    let mut tabulated = true;
    for spec in &inputs.specs {
        let topo = parse_topology(&spec.topology).expect("validated specs resolve");
        for a in &spec.algorithms {
            match spec.engine {
                Engine::Wormhole => {
                    let algo = parse_algorithm(&a.name, topo.as_ref()).expect("validated");
                    let table = RouteTable::for_config(topo.as_ref(), algo.as_ref(), &spec.config);
                    tabulated &= table.is_some();
                }
                Engine::VirtualChannel => {
                    let algo = parse_vc_algorithm(&a.name, topo.as_ref()).expect("validated");
                    std::hint::black_box(VcTable::new(
                        topo.as_ref(),
                        &algo.provisioning(topo.as_ref()),
                    ));
                    tabulated = false;
                }
            }
        }
    }
    (inputs, tabulated)
}

/// What running a list of specs back to back produced.
#[derive(Default)]
struct GridRun {
    wall_s: f64,
    /// Concatenated `write_report_json` documents, one per spec.
    bytes: Vec<u8>,
    /// Wall seconds spent serializing (inside `wall_s`).
    serialize_s: f64,
    /// Every emitted cell with its nominal node-cycles.
    cells: Vec<(u64, CellTiming)>,
    stats: Vec<ExecStats>,
    series: Vec<SweepSeries>,
}

impl GridRun {
    fn absorb(&mut self, spec: &ExperimentSpec, series: Vec<SweepSeries>, executor: &Executor) {
        let start = Instant::now();
        write_report_json(&series, &executor.stats(), &mut self.bytes).expect("Vec write");
        self.serialize_s += start.elapsed().as_secs_f64();
        let node_cycles = cell_node_cycles(spec);
        let cells = executor.telemetry().cells.iter().cloned();
        self.cells.extend(cells.map(|c| (node_cycles, c)));
        self.stats.push(executor.stats());
        self.series.extend(series);
    }

    fn rep(&self) -> Rep {
        Rep {
            wall_s: self.wall_s,
            node_cycles: self.cells.iter().map(|(n, _)| n).sum(),
            op_ms: self.cells.iter().map(|(_, c)| c.wall_secs * 1e3).collect(),
        }
    }

    /// Seconds of cell time, summed over workers.
    fn busy_s(&self) -> f64 {
        self.cells.iter().map(|(_, c)| c.wall_secs).sum()
    }

    /// Node-cycles per second of cell time over the cells of the series
    /// whose resolved algorithm name is `algorithm`.
    fn series_rate(&self, algorithm: &str) -> f64 {
        let (mut node_cycles, mut busy) = (0, 0.0);
        for (n, cell) in self.cells.iter().filter(|(_, c)| c.algorithm == algorithm) {
            node_cycles += n;
            busy += cell.wall_secs;
        }
        if busy > 0.0 {
            node_cycles as f64 / busy
        } else {
            0.0
        }
    }
}

/// The display name the product gives `algorithm` under `spec` (series
/// and cell timings carry display names, specs carry parse names).
fn display_name(spec: &ExperimentSpec, algorithm: &str) -> String {
    let topo = parse_topology(&spec.topology).expect("validated specs resolve");
    match spec.engine {
        Engine::Wormhole => parse_algorithm(algorithm, topo.as_ref())
            .expect("the suite's algorithm names parse")
            .name(),
        Engine::VirtualChannel => parse_vc_algorithm(algorithm, topo.as_ref())
            .expect("the suite's algorithm names parse")
            .name(),
    }
}

/// Runs every spec on a fresh executor of `threads` workers — the
/// product path, untouched.
fn run_specs(specs: &[ExperimentSpec], threads: usize) -> GridRun {
    let mut out = GridRun::default();
    let start = Instant::now();
    for spec in specs {
        let mut executor = Executor::new(threads);
        let series = spec.run_on(&mut executor).expect("validated specs resolve");
        out.absorb(spec, series, &executor);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Engine counts of one traced cell, keyed by series and load so that
/// only emitted cells are added up (speculative cells past a series'
/// cutoff depend on thread timing; emitted ones do not).
struct CellCount {
    algorithm: String,
    load_bits: u64,
    events: Counting,
    cycles: u64,
    arena: usize,
}

/// The same grids with spans around every cell. Plain-engine cells are
/// rebuilt from `Simulation::with_observer_and_table` with the counting
/// observer; virtual-channel cells wrap the product's own runner.
fn run_specs_traced(
    specs: &[ExperimentSpec],
    threads: usize,
    recorder: &Recorder,
    rep: u64,
    counts: &mut EngineCounts,
) -> GridRun {
    let mut out = GridRun::default();
    let next_op = AtomicU64::new(rep * 1_000_000 + 1);
    let start = Instant::now();
    for spec in specs {
        let topo = parse_topology(&spec.topology).expect("validated specs resolve");
        let pattern = parse_pattern(&spec.pattern).expect("validated specs resolve");
        let (topo, pattern) = (topo.as_ref(), pattern.as_ref());
        let per_cell: Mutex<Vec<CellCount>> = Mutex::new(Vec::new());
        let mut executor = Executor::new(threads);
        let series = recorder.span("sim.exec.run", rep, None, |exec| match spec.engine {
            Engine::Wormhole => {
                let algos: Vec<_> = spec
                    .algorithms
                    .iter()
                    .map(|a| parse_algorithm(&a.name, topo).expect("validated"))
                    .collect();
                let jobs = algos
                    .iter()
                    .map(|algo| {
                        let algo = algo.as_ref();
                        let config = spec.config.clone();
                        let table: OnceLock<Option<Arc<RouteTable>>> = OnceLock::new();
                        let (next_op, per_cell) = (&next_op, &per_cell);
                        SeriesJob::new(
                            algo.name(),
                            pattern.name(),
                            sim_cache_key(topo.label(), &algo.name(), &pattern.name(), &config),
                            config.seed,
                            &spec.loads,
                            move |load, seed| {
                                let op = next_op.fetch_add(1, Ordering::Relaxed);
                                recorder.span("sim.engine.cell", op, Some(exec), |cell| {
                                    let cell = Some(cell);
                                    let table = table
                                        .get_or_init(|| {
                                            recorder.span("sim.lut.build", op, cell, |_| {
                                                RouteTable::for_config(topo, algo, &config)
                                            })
                                        })
                                        .clone();
                                    let cfg = config.clone().injection_rate(load).seed(seed);
                                    let mut sim = recorder.span("sim.engine.new", op, cell, |_| {
                                        Simulation::with_observer_and_table(
                                            topo,
                                            algo,
                                            pattern,
                                            cfg,
                                            Counting::default(),
                                            table,
                                        )
                                    });
                                    let report =
                                        recorder.span("sim.engine.run", op, cell, |_| sim.run());
                                    per_cell.lock().expect("cell panicked").push(CellCount {
                                        algorithm: algo.name(),
                                        load_bits: load.to_bits(),
                                        events: *sim.observer(),
                                        cycles: sim.cycle(),
                                        arena: sim.packets().len(),
                                    });
                                    recorder.span("sim.report.point", op, cell, |_| {
                                        CellOutput::from_report(&report)
                                    })
                                })
                            },
                        )
                    })
                    .collect();
                executor.run(jobs)
            }
            Engine::VirtualChannel => {
                let algos: Vec<_> = spec
                    .algorithms
                    .iter()
                    .map(|a| parse_vc_algorithm(&a.name, topo).expect("validated"))
                    .collect();
                let jobs = algos
                    .iter()
                    .map(|algo| {
                        let job =
                            vc_series_job(topo, algo.as_ref(), pattern, &spec.config, &spec.loads);
                        let (inner, next_op) = (job.runner, &next_op);
                        SeriesJob {
                            runner: Box::new(move |load, seed| {
                                let op = next_op.fetch_add(1, Ordering::Relaxed);
                                recorder
                                    .span("vc.engine.cell", op, Some(exec), |_| inner(load, seed))
                            }),
                            algorithm: job.algorithm,
                            pattern: job.pattern,
                            cache_key: job.cache_key,
                            base_seed: job.base_seed,
                            loads: job.loads,
                            faults: job.faults,
                            disconnected: job.disconnected,
                        }
                    })
                    .collect();
                executor.run(jobs)
            }
        });
        for cell in per_cell.into_inner().expect("cell panicked") {
            let emitted = series.iter().any(|s| {
                s.algorithm == cell.algorithm
                    && s.points
                        .iter()
                        .any(|p| !p.skipped && p.offered_load.to_bits() == cell.load_bits)
            });
            if emitted {
                counts.add(&cell.events, cell.cycles, cell.arena);
            }
        }
        recorder.span("sim.report.serialize", rep, None, |_| {
            out.absorb(spec, series, &executor)
        });
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The correctness gate, on the short-window grids: one worker against
/// all cores, and (plain engine) tables forced on against forced off,
/// must all serialize to the same bytes.
fn gate(inputs: &GridInputs, threads: usize, tally: &mut Tally) {
    let base = fnv1a64(&run_specs(&inputs.gate_specs, 1).bytes);
    let parallel = fnv1a64(&run_specs(&inputs.gate_specs, threads).bytes);
    tally.check(
        "1-thread and all-core reports are byte-identical",
        base == parallel,
    );
    if inputs
        .gate_specs
        .iter()
        .all(|s| s.engine == Engine::Wormhole)
    {
        let with_mode = |mode: RouteTableMode| -> Vec<ExperimentSpec> {
            inputs
                .gate_specs
                .iter()
                .map(|s| {
                    let mut s = s.clone();
                    s.config = s.config.route_table(mode);
                    s
                })
                .collect()
        };
        let on = fnv1a64(&run_specs(&with_mode(RouteTableMode::On), threads).bytes);
        let off = fnv1a64(&run_specs(&with_mode(RouteTableMode::Off), threads).bytes);
        tally.check(
            "table-on and table-off reports are byte-identical",
            on == off && on == base,
        );
    }
}

/// |max-sustainable(negative-first) / max-sustainable(xy) on transpose
/// − 2| / 2: how far the simulated sweep is from the paper's "twice the
/// nonadaptive throughput", read from the fine transpose sweep.
/// Simulated, so it repeats exactly.
fn paper_gap_transpose(transpose: &ExperimentSpec, series: &[SweepSeries]) -> f64 {
    let pattern = parse_pattern(&transpose.pattern)
        .expect("validated specs resolve")
        .name();
    let best = |algorithm: &str| {
        let name = display_name(transpose, algorithm);
        series
            .iter()
            .find(|s| s.pattern == pattern && s.algorithm == name)
            .map_or(0.0, SweepSeries::max_sustainable_throughput)
    };
    let (adaptive, baseline) = (best("negative-first"), best("xy"));
    if baseline > 0.0 {
        (adaptive / baseline - 2.0).abs() / 2.0
    } else {
        0.0
    }
}

/// Median `VcSimulation::step` time, in nanoseconds, on the grid's
/// first series at its middle load.
fn vc_step_ns(spec: &ExperimentSpec, cycles: usize) -> (f64, usize) {
    let topo = parse_topology(&spec.topology).expect("validated specs resolve");
    let pattern = parse_pattern(&spec.pattern).expect("validated specs resolve");
    let algo = parse_vc_algorithm(&spec.algorithms[0].name, topo.as_ref()).expect("validated");
    let config = spec
        .config
        .clone()
        .injection_rate(spec.loads[spec.loads.len() / 2]);
    let mut sim = VcSimulation::new(topo.as_ref(), algo.as_ref(), pattern.as_ref(), config);
    let ns = step_times_ns(cycles, || sim.step().is_some());
    (stats::percentile_sorted(&ns, 50.0), ns.len())
}

/// `step()` cycles timed for the per-cycle percentiles.
fn step_cycles(scale: Scale) -> usize {
    match scale {
        Scale::Full => 20_000,
        Scale::Quick => 500,
    }
}

/// The executor's and the report serializer's numbers, from one
/// untraced repetition `a` on `threads` workers.
fn executor_layers(a: &GridRun, threads: usize, m: &mut Metrics) {
    let sum = |f: fn(&ExecStats) -> usize| a.stats.iter().map(f).sum::<usize>() as f64;
    let (emitted, simulated) = (sum(|s| s.emitted_simulated), sum(|s| s.simulated));
    m.set("exec.cells_emitted", emitted);
    m.set("exec.cells_simulated", simulated);
    m.set("exec.cells_skipped", sum(|s| s.skipped));
    m.set("exec.useful_ratio", emitted / simulated.max(1.0));
    m.set("exec.busy_frac", a.busy_s() / (threads as f64 * a.wall_s));
    let cell_ms = stats::sorted(&a.rep().op_ms);
    m.set_stat(
        "exec.cell_ms_p50",
        stats::percentile_sorted(&cell_ms, 50.0),
        cell_ms.len(),
    );
    m.set_stat(
        "exec.cell_ms_max",
        cell_ms.last().copied().unwrap_or(0.0),
        cell_ms.len(),
    );
    m.set("report.serialize_ms", a.serialize_s * 1e3);
    m.set("report.bytes", a.bytes.len() as f64);
}

/// `sweep16`'s own layers: the engine counts of the traced repetition,
/// hop cost against the untraced repetition `a`, per-cycle step times on
/// one representative cell (west-first under transpose at the grid's
/// middle load), and the accuracy probe.
fn sweep16_layers(
    inputs: &GridInputs,
    a: &GridRun,
    counts: &EngineCounts,
    scale: Scale,
    m: &mut Metrics,
) {
    counts.write(m);
    m.set_stat(
        "engine.ns_per_header_hop",
        a.busy_s() * 1e9 / counts.header_hops().max(1) as f64,
        a.cells.len(),
    );
    let spec = &inputs.specs[1];
    let topo = parse_topology(&spec.topology).expect("validated specs resolve");
    let pattern = parse_pattern(&spec.pattern).expect("validated specs resolve");
    let algo = parse_algorithm("west-first", topo.as_ref()).expect("validated");
    let config = spec
        .config
        .clone()
        .injection_rate(spec.loads[spec.loads.len() / 2]);
    let mut sim = Simulation::new(topo.as_ref(), algo.as_ref(), pattern.as_ref(), config);
    time_steps(&mut sim, step_cycles(scale), m);

    let probe = inputs.paper_probe.as_ref().expect("sweep16 has a probe");
    let fine = run_specs(std::slice::from_ref(probe), host::cores());
    m.set(
        "paper.gap_transpose",
        paper_gap_transpose(probe, &fine.series),
    );
}

/// `vc_grid`'s own layers: per-series rates from the untraced
/// repetition `a`, `VcSimulation::step` times, and the xy series here
/// against the same cells on the plain engine (both as node-cycles per
/// second of cell time).
fn vc_layers(inputs: &GridInputs, a: &GridRun, threads: usize, scale: Scale, m: &mut Metrics) {
    m.set(
        "vc.node_cycles_per_s_mady",
        a.series_rate(&display_name(&inputs.specs[0], "mad-y")),
    );
    m.set(
        "vc.node_cycles_per_s_dateline",
        a.series_rate(&display_name(&inputs.specs[1], "dateline")),
    );
    let (ns, n) = vc_step_ns(&inputs.specs[0], step_cycles(scale));
    m.set_stat("vc.step_ns_p50", ns, n);
    let twin = inputs
        .plain_twin
        .as_ref()
        .expect("vc_grid has a plain twin");
    let xy = display_name(twin, "xy");
    let plain_rate = run_specs(std::slice::from_ref(twin), threads).series_rate(&xy);
    if plain_rate > 0.0 {
        m.set("vc.vs_plain_ratio", a.series_rate(&xy) / plain_rate);
    }
}

/// Runs `sweep16` or `vc_grid`.
pub fn run(options: &Options) -> Outcome {
    let workload = options.workload;
    let threads = host::cores();
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut last = None;
    let sampling = Instant::now();
    while options.wants_setup_sample(setup_s.len(), sampling) {
        let start = Instant::now();
        let made = set_up(options);
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    let (inputs, tabulated) = last.expect("at least one set-up sample");

    let verify = Instant::now();
    if guarded(|| gate(&inputs, threads, &mut tally)).is_none() {
        tally.check("gate panicked", false);
    }
    let verify_s = verify.elapsed().as_secs_f64();

    // One untimed repetition: page in the binary, grow the allocator,
    // and fix the digest every timed repetition must reproduce.
    let warm = guarded(|| run_specs(&inputs.specs, threads));
    tally.check("warm-up repetition finished", warm.is_some());
    let digest = warm.as_ref().map_or(0, |w| fnv1a64(&w.bytes));

    // One repetition on `threads` workers; every emitted cell is an
    // operation, and a digest mismatch fails them all.
    let timed = |threads: usize, tally: &mut Tally| -> Option<GridRun> {
        let ran = guarded(|| run_specs(&inputs.specs, threads));
        let ok = ran.as_ref().is_some_and(|r| fnv1a64(&r.bytes) == digest);
        let cells = ran.as_ref().map_or(1, |r| r.cells.len().max(1));
        for _ in 0..cells {
            tally.check("cell belongs to a repetition with the warm-up's bytes", ok);
        }
        ran
    };

    let metrics = if options.trace {
        let recorder = Recorder::default();
        let clock = LoopClock::start();
        let (mut plain_s, mut traced_s, mut serial_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut counts = EngineCounts::default();
        let mut kept = None;
        let mut cycles = 0;
        while options.wants_more(cycles, clock.started, 2) {
            // A: the product path on all cores. B: the traced twin.
            // C: the product path on one worker, for the thread speed-up.
            if let Some(a) = timed(threads, &mut tally) {
                plain_s.push(a.wall_s);
                kept = Some(a);
            }
            counts = EngineCounts::default();
            let b = guarded(|| {
                run_specs_traced(
                    &inputs.specs,
                    threads,
                    &recorder,
                    cycles as u64,
                    &mut counts,
                )
            });
            tally.check(
                "traced repetition reproduced the untraced report bytes",
                b.as_ref().is_some_and(|b| fnv1a64(&b.bytes) == digest),
            );
            traced_s.extend(b.map(|b| b.wall_s));
            serial_s.extend(timed(1, &mut tally).map(|c| c.wall_s));
            cycles += 1;
        }
        let plain_median = stats::median(&plain_s);
        let mut m = layers::micro_probes(options);
        m.set("lut.tabulated", f64::from(u8::from(tabulated)));
        m.set_stat(
            "exec.thread_speedup",
            stats::median(&serial_s) / plain_median,
            serial_s.len(),
        );
        m.set_stat(
            "host.trace_overhead_frac",
            (stats::median(&traced_s) - plain_median) / plain_median,
            traced_s.len(),
        );
        m.set("host.verify_s", verify_s);
        if let Some(a) = &kept {
            executor_layers(a, threads, &mut m);
            match workload {
                Workload::Sweep16 => sweep16_layers(&inputs, a, &counts, options.scale, &mut m),
                _ => vc_layers(&inputs, a, threads, options.scale, &mut m),
            }
        }
        zero_unset_layers(&mut m);
        layers::write_trace(options, &recorder.take());
        m
    } else {
        let clock = LoopClock::start();
        let mut reps = Vec::new();
        while options.wants_more(reps.len(), clock.started, 3) {
            reps.extend(timed(threads, &mut tally).map(|r| r.rep()));
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
