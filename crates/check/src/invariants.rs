//! The per-case invariant battery.
//!
//! For every generated [`ConformanceCase`] the suite runs the reference
//! [`Oracle`] once and the optimized engine once
//! per route-table mode, then checks:
//!
//! 1. **Bit identity**: every metric the engine reports — histograms,
//!    counters, queue samples, channel utilization, final cycle —
//!    equals the oracle's, for table `Off`, `On` and `Auto` alike, and
//!    again for the cycle-barrier sharded arbitrator at 2 and 4 shards.
//! 2. **Prohibited turns**: a [`TurnUsageObserver`] rides an extra
//!    table-off run whenever the algorithm has a classifiable mesh turn
//!    set; it hard-asserts no prohibited turn is ever taken. (Observed
//!    runs never park blocked headers, so the table-off mode is also
//!    run unobserved.)
//! 3. **Flit conservation**: per packet,
//!    `at_source + in_network + consumed == length`, and globally
//!    `delivered + queued + in_flight == generated`.
//! 4. **Deadlock freedom**: fault-free runs of the paper algorithms
//!    never trip the watchdog.
//! 5. **Minimal zero-load latency**: on an idle network a minimal
//!    algorithm's packets take exactly `distance(src, dst)` hops.
//! 6. **Thread invariance**: the sweep executor produces byte-identical
//!    CSV at 1 and at `threads` workers.

use crate::case::{BuiltCase, ConformanceCase};
use crate::oracle::{Oracle, OracleReport};
use turnroute_rng::{Rng, StdRng};
use turnroute_sim::obs::{DeliveryLog, TurnUsageObserver};
use turnroute_sim::{
    Executor, LatencyHistogram, PacketState, RouteTableMode, RunOutcome, SeriesJob, SimReport,
    Simulation,
};
use turnroute_topology::NodeId;

/// Runs the full invariant battery for `case`. `Err` carries a
/// human-readable description of the first violated invariant.
///
/// # Panics
///
/// Propagates engine/observer panics (e.g. the prohibited-turn
/// assertion); the conformance runner catches them and treats them as
/// failures, so shrinking works on panicking cases too.
pub fn check_case(case: &ConformanceCase) -> Result<(), String> {
    case.validate()?;
    let built = case.build();
    let oracle = Oracle::new(
        built.topo.as_ref(),
        built.algo.as_ref(),
        built.pattern.as_ref(),
        built.config.clone(),
    )
    .run();

    for mode in [
        RouteTableMode::Off,
        RouteTableMode::On,
        RouteTableMode::Auto,
    ] {
        check_engine_mode(&built, &oracle, mode)?;
    }

    for shards in [2, 4] {
        check_engine_sharded(&built, &oracle, shards)?;
    }

    if case.faults.is_empty() && oracle.deadlocked {
        return Err("deadlock watchdog fired on a fault-free paper algorithm".into());
    }

    if built.algo.is_minimal() && case.faults.is_empty() {
        check_zero_load_minimal(&built, case.seed)?;
    }

    if built.threads > 1 {
        check_thread_invariance(&built, case)?;
    }

    Ok(())
}

/// One optimized-engine run under `mode`, compared field-for-field with
/// the oracle. The table-off mode runs twice when the algorithm has a
/// turn set: once carrying the prohibited-turn observer (which makes
/// the engine evaluate every requester every cycle) and once
/// unobserved (which parks blocked headers) — live fault pruning only
/// happens with the table off, so both arbitration regimes must meet
/// the oracle there. The table-off runs also feed flit conservation.
fn check_engine_mode(
    built: &BuiltCase,
    oracle: &OracleReport,
    mode: RouteTableMode,
) -> Result<(), String> {
    let config = built.config.clone().route_table(mode);
    let tag = format!("route-table {mode:?}");
    if mode == RouteTableMode::Off {
        if let Some(turns) = &built.turn_set {
            // The observer asserts every turn is allowed; a violation
            // panics, which the runner converts into a failure.
            let mut sim = Simulation::with_observer(
                built.topo.as_ref(),
                built.algo.as_ref(),
                built.pattern.as_ref(),
                config.clone(),
                (
                    TurnUsageObserver::new(turns.clone()),
                    DeliveryLog::default(),
                ),
            );
            let report = sim.run();
            compare_reports(
                oracle,
                &report,
                sim.cycle(),
                &sim.channel_utilization(),
                &format!("{tag} (observed)"),
            )?;
            check_conservation(&sim, &sim.observer().1, &report)?;
        }
    }
    // The delivery log asks for no per-requester events, so this run
    // parks blocked headers exactly as an unobserved one does.
    let mut sim = Simulation::with_observer(
        built.topo.as_ref(),
        built.algo.as_ref(),
        built.pattern.as_ref(),
        config,
        DeliveryLog::default(),
    );
    let report = sim.run();
    compare_reports(
        oracle,
        &report,
        sim.cycle(),
        &sim.channel_utilization(),
        &tag,
    )?;
    if mode == RouteTableMode::Off {
        check_conservation(&sim, sim.observer(), &report)?;
    }
    Ok(())
}

/// One sharded-engine run (route-table `Auto`), compared
/// field-for-field with the oracle: the cycle-barrier partitioned
/// arbitrator must be bit-identical at every shard count. Cases whose
/// configuration forces the serial fallback (RNG-consuming selection
/// policies) still run — the fallback too must be invisible.
fn check_engine_sharded(
    built: &BuiltCase,
    oracle: &OracleReport,
    shards: usize,
) -> Result<(), String> {
    let config = built.config.clone().shards(shards);
    let tag = format!("shards {shards}");
    let mut sim = Simulation::new(
        built.topo.as_ref(),
        built.algo.as_ref(),
        built.pattern.as_ref(),
        config,
    );
    let report = sim.run();
    compare_reports(
        oracle,
        &report,
        sim.cycle(),
        &sim.channel_utilization(),
        &tag,
    )
}

macro_rules! expect_eq {
    ($tag:expr, $what:expr, $oracle:expr, $engine:expr) => {
        if $oracle != $engine {
            return Err(format!(
                "{}: {} diverged: oracle {:?}, engine {:?}",
                $tag, $what, $oracle, $engine
            ));
        }
    };
}

/// Demands the optimized engine's report is bit-identical to the
/// oracle's. Raw oracle latency lists are folded through
/// [`LatencyHistogram::from_values`], which is exactly what the engine
/// records incrementally.
pub fn compare_reports(
    oracle: &OracleReport,
    report: &SimReport,
    cycle: u64,
    utilization: &[f64],
    tag: &str,
) -> Result<(), String> {
    let deadlocked = matches!(report.outcome, RunOutcome::Deadlocked(_));
    expect_eq!(tag, "outcome", oracle.deadlocked, deadlocked);
    expect_eq!(tag, "final cycle", oracle.cycle, cycle);
    expect_eq!(
        tag,
        "offered load",
        oracle.offered_load,
        report.offered_load
    );
    expect_eq!(
        tag,
        "total generated",
        oracle.total_generated,
        report.total_generated
    );
    expect_eq!(
        tag,
        "total delivered",
        oracle.total_delivered,
        report.total_delivered
    );
    expect_eq!(
        tag,
        "stranded packets",
        oracle.stranded_packets,
        report.stranded_packets
    );
    let m = &report.metrics;
    expect_eq!(tag, "window start", oracle.window_start, m.window_start);
    expect_eq!(tag, "window end", oracle.window_end, m.window_end);
    expect_eq!(
        tag,
        "flits delivered",
        oracle.flits_delivered,
        m.flits_delivered
    );
    expect_eq!(
        tag,
        "messages generated",
        oracle.messages_generated,
        m.messages_generated
    );
    expect_eq!(
        tag,
        "flits generated",
        oracle.flits_generated,
        m.flits_generated
    );
    expect_eq!(tag, "hop counts", oracle.hop_counts, m.hop_counts);
    expect_eq!(tag, "queue samples", oracle.queue_samples, m.queue_samples);
    expect_eq!(
        tag,
        "latency histogram",
        LatencyHistogram::from_values(&oracle.latencies),
        m.latencies
    );
    expect_eq!(
        tag,
        "network latency histogram",
        LatencyHistogram::from_values(&oracle.network_latencies),
        m.network_latencies
    );
    expect_eq!(
        tag,
        "channel utilization",
        oracle.channel_utilization,
        utilization
    );
    Ok(())
}

/// Conservation on the engine's final state: nothing is created or
/// destroyed between the source queue, the network and the destination.
/// Every message generated is waiting at its source, in flight, or in
/// the delivery log — once; every arena slot, live or free, accounts
/// for all of its occupant's flits.
fn check_conservation<O: turnroute_sim::obs::SimObserver>(
    sim: &Simulation<'_, O>,
    log: &DeliveryLog,
    report: &SimReport,
) -> Result<(), String> {
    let delivered = log.delivered();
    for p in sim.packets().iter().chain(delivered) {
        let total = p.flits_at_source() + p.flits_in_network() + p.flits_consumed();
        if total != p.length {
            return Err(format!(
                "flit conservation: packet {:?} has {} at source + {} in network + {} \
                 consumed != length {}",
                p.id,
                p.flits_at_source(),
                p.flits_in_network(),
                p.flits_consumed(),
                p.length
            ));
        }
    }
    let mut ids: Vec<_> = delivered.iter().map(|p| p.id).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != delivered.len() || delivered.len() as u64 != report.total_delivered {
        return Err(format!(
            "conservation: {} distinct packets in {} delivery events but report says {}",
            ids.len(),
            delivered.len(),
            report.total_delivered
        ));
    }
    let live = sim.in_flight().len();
    let occupied = sim
        .packets()
        .iter()
        .filter(|p| p.state() == PacketState::InFlight)
        .count();
    if live != occupied {
        return Err(format!(
            "conservation: {live} worms in flight but {occupied} undelivered arena slots"
        ));
    }
    let accounted = (delivered.len() + live + sim.queued_messages()) as u64;
    if accounted != report.total_generated {
        return Err(format!(
            "conservation: delivered {} + in-flight {} + queued {} != generated {}",
            delivered.len(),
            live,
            sim.queued_messages(),
            report.total_generated
        ));
    }
    Ok(())
}

/// On an idle network, a minimal algorithm's packets must take exactly
/// the shortest-path hop count. Three pairs drawn from the case seed.
fn check_zero_load_minimal(built: &BuiltCase, seed: u64) -> Result<(), String> {
    let topo = built.topo.as_ref();
    let n = topo.num_nodes();
    if n < 2 {
        return Ok(());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CA5E);
    for _ in 0..3 {
        let src = NodeId::new(rng.random_range(0..n));
        let mut dst = NodeId::new(rng.random_range(0..n - 1));
        if dst.index() >= src.index() {
            dst = NodeId::new(dst.index() + 1);
        }
        let config = built
            .config
            .clone()
            .injection_rate(0.0)
            .fault_schedule(None);
        let mut sim = Simulation::with_observer(
            topo,
            built.algo.as_ref(),
            built.pattern.as_ref(),
            config,
            DeliveryLog::default(),
        );
        let id = sim.inject_message(src, dst, 4);
        let budget = 4 * (topo.num_channels() as u64 + 16);
        for _ in 0..budget {
            if sim.observer().get(id).is_some() {
                break;
            }
            sim.step();
        }
        let Some(p) = sim.observer().get(id) else {
            return Err(format!(
                "zero-load: packet {src:?}->{dst:?} not delivered within {budget} cycles"
            ));
        };
        let want = topo.distance(src, dst) as u32;
        if p.hops() != want {
            return Err(format!(
                "zero-load minimality: {src:?}->{dst:?} took {} hops, shortest path is {want}",
                p.hops()
            ));
        }
    }
    Ok(())
}

/// The sweep executor must produce byte-identical CSV regardless of
/// worker count.
fn check_thread_invariance(built: &BuiltCase, case: &ConformanceCase) -> Result<(), String> {
    let loads = [case.load];
    let csv_for = |threads: usize| {
        let job = SeriesJob::simulation(
            built.topo.as_ref(),
            built.algo.as_ref(),
            built.pattern.as_ref(),
            &built.config,
            &loads,
        );
        let mut ex = Executor::new(threads);
        let series = ex.run(vec![job]);
        series
            .iter()
            .map(|s| s.to_csv())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = csv_for(1);
    let parallel = csv_for(built.threads);
    if serial != parallel {
        return Err(format!(
            "thread invariance: executor CSV differs between 1 and {} workers:\n--- 1 ---\n\
             {serial}\n--- {} ---\n{parallel}",
            built.threads, built.threads
        ));
    }
    Ok(())
}
