//! Blocked-header parking must be invisible: a run that puts blocked
//! headers to sleep (no observer, deterministic selection) and a run
//! that never does (the same configuration with an observer attached)
//! produce identical reports, final cycles and utilization vectors,
//! while the parked run evaluates far fewer requesters.

use turnroute_core::{DimensionOrder, NegativeFirstTorus, PCube, RoutingAlgorithm, WestFirst};
use turnroute_fault::FaultPlan;
use turnroute_sim::obs::{DeliveryLog, NoopObserver, SimObserver};
use turnroute_sim::patterns::{TrafficPattern, Transpose, Uniform};
use turnroute_sim::{
    InputSelection, OutputSelection, RouteTableMode, SimConfig, SimReport, Simulation,
};
use turnroute_topology::{ChannelId, Direction, Hypercube, Mesh, NodeId, Topology, Torus};

/// Observes nothing, but is `ENABLED`: the engine must evaluate every
/// requester every cycle to feed `packet_blocked`, so nothing ever
/// sleeps.
struct Watch;

impl SimObserver for Watch {}

/// What a run is compared by: the Debug rendering covers every report
/// field, plus the final cycle and the per-channel utilization.
type Fingerprint = (String, u64, Vec<f64>);

fn fingerprint<O: SimObserver>(sim: &Simulation<'_, O>, report: &SimReport) -> Fingerprint {
    (
        format!("{report:?}"),
        sim.cycle(),
        sim.channel_utilization(),
    )
}

/// Runs `config` parked and observed, asserts the two are identical,
/// and returns `(parked, observed)` requester-evaluation counts.
fn assert_parking_invisible(
    topo: &dyn Topology,
    algo: &dyn RoutingAlgorithm,
    pattern: &dyn TrafficPattern,
    config: SimConfig,
    tag: &str,
) -> (u64, u64) {
    let mut parked = Simulation::new(topo, algo, pattern, config.clone());
    let mut observed = Simulation::with_observer(topo, algo, pattern, config, Watch);
    let (rp, ro) = (parked.run(), observed.run());
    assert_eq!(
        fingerprint(&parked, &rp),
        fingerprint(&observed, &ro),
        "{tag}"
    );
    (
        parked.requesters_evaluated(),
        observed.requesters_evaluated(),
    )
}

fn saturating() -> SimConfig {
    SimConfig::paper()
        .injection_rate(0.40)
        .warmup_cycles(100)
        .measure_cycles(1_200)
        .deadlock_threshold(5_000)
        .seed(31)
}

const INPUTS: [InputSelection; 2] = [
    InputSelection::FirstComeFirstServed,
    InputSelection::FixedPriority,
];

const OUTPUTS: [OutputSelection; 3] = [
    OutputSelection::LowestDimension,
    OutputSelection::HighestDimension,
    OutputSelection::StraightFirst,
];

#[test]
fn parked_run_matches_never_stamped_run_across_policies() {
    let mesh = Mesh::new_2d(6, 6);
    let torus = Torus::new(4, 2);
    let cube = Hypercube::new(5);
    let west_first = WestFirst::minimal();
    let nf_torus = NegativeFirstTorus::new(&torus);
    let pcube = PCube::minimal();
    let networks: [(&dyn Topology, &dyn RoutingAlgorithm, &str); 3] = [
        (&mesh, &west_first, "mesh:6x6"),
        (&torus, &nf_torus, "torus:4,2"),
        (&cube, &pcube, "hypercube:5"),
    ];
    for (topo, algo, name) in networks {
        for input in INPUTS {
            for output in OUTPUTS {
                let config = saturating().input_selection(input).output_selection(output);
                let tag = format!("{name} {input:?}/{output:?}");
                let (parked, observed) =
                    assert_parking_invisible(topo, algo, &Uniform, config, &tag);
                assert!(
                    parked * 2 < observed,
                    "{tag}: parking never engaged ({parked} vs {observed} requesters)"
                );
            }
        }
    }
}

#[test]
fn parked_run_matches_under_a_transient_fault_on_a_hot_channel() {
    // A dynamic schedule: no route table, so the live relation is
    // pruned per query, and the repair makes an empty pruned set block
    // instead of strand — the fail and the repair must each wake every
    // parked header.
    let mesh = Mesh::new_2d(6, 6);
    let hot = mesh
        .channel_from(mesh.node_at(&[2, 2].into()), Direction::EAST)
        .expect("interior");
    let schedule = FaultPlan::new()
        .channel_transient(hot, 300, 800)
        .compile(&mesh)
        .expect("valid plan");
    for (algo, name) in [
        (&DimensionOrder::new() as &dyn RoutingAlgorithm, "xy"),
        (&WestFirst::minimal(), "west-first"),
    ] {
        for input in INPUTS {
            for output in OUTPUTS {
                let config = saturating()
                    .route_table(RouteTableMode::Off)
                    .faults(schedule.clone())
                    .input_selection(input)
                    .output_selection(output);
                let tag = format!("{name} {input:?}/{output:?} transient fault");
                assert_parking_invisible(&mesh, algo, &Uniform, config, &tag);
            }
        }
    }
}

/// What a [`Wall`] scenario does to the wall channel at cycle 40,
/// through the manual API.
#[derive(Clone, Copy)]
enum Poke {
    Nothing,
    Fail,
    Repair,
}

/// A directed `step()` scenario on a 4x4 mesh: a 200-flit blocker is
/// injected at `(1, 0)` towards `blocker_dst`, then a 4-flit probe
/// travels `(0, 0)` -> `probe_dst` and gets stuck at `(1, 0)` behind the
/// blocker and/or the wall channel `(1, 0)` -> EAST. Something happens
/// to the wall channel at cycle 40 (a scheduled event in `faults`, or
/// `poke`); the probe must react at that very cycle.
struct Wall<'a> {
    algo: &'a dyn RoutingAlgorithm,
    blocker_dst: [u16; 2],
    probe_dst: [u16; 2],
    /// Fault plan over `(mesh, wall channel)`, if any.
    faults: Option<fn(&Mesh, ChannelId) -> FaultPlan>,
    /// Fail the wall channel by hand before the first cycle.
    pre_failed: bool,
    poke: Poke,
}

/// Per cycle: the probe's head node and stranded flag while it is a
/// live worm; `None` while it waits at its source and again after its
/// delivery (every scenario ends with it delivered or stuck in flight).
type ProbeTrace = Vec<Option<(NodeId, bool)>>;

impl Wall<'_> {
    const EVENT: u64 = 40;

    fn trace<O: SimObserver>(&self, observer: O) -> (ProbeTrace, u64) {
        let mesh = Mesh::new_2d(4, 4);
        let at = |xy: [u16; 2]| mesh.node_at(&xy.into());
        let wall = mesh
            .channel_from(at([1, 0]), Direction::EAST)
            .expect("interior");
        let mut config = SimConfig::paper()
            .route_table(RouteTableMode::Off)
            .deadlock_threshold(10_000);
        if let Some(plan) = self.faults {
            config = config.faults(plan(&mesh, wall).compile(&mesh).expect("valid plan"));
        }
        // The delivery log asks for no per-requester events: whether the
        // run parks is still `observer`'s choice alone.
        let observer = (observer, DeliveryLog::default());
        let mut sim = Simulation::with_observer(&mesh, self.algo, &Uniform, config, observer);
        if self.pre_failed {
            sim.fail_channel(wall);
        }
        sim.inject_message(at([1, 0]), at(self.blocker_dst), 200);
        sim.step();
        let probe = sim.inject_message(at([0, 0]), at(self.probe_dst), 4);
        let mut trace = Vec::new();
        while sim.cycle() < 300 {
            if sim.cycle() == Self::EVENT {
                match self.poke {
                    Poke::Nothing => {}
                    Poke::Fail => sim.fail_channel(wall),
                    Poke::Repair => sim.repair_channel(wall),
                }
            }
            sim.step();
            let p = sim.packet(probe);
            trace.push(p.map(|p| (p.head_node(), p.is_stranded())));
        }
        let delivered = sim.observer().1.get(probe).is_some();
        assert_eq!(delivered, trace.last().unwrap().is_none());
        (trace, sim.requesters_evaluated())
    }

    /// Runs the scenario parked and observed, asserts the probe behaved
    /// identically cycle by cycle and that the parked run really parked
    /// it, and returns the trace indexed by cycle - 1 (entry `i` is the
    /// state after the step of cycle `i + 1`).
    fn check(&self) -> ProbeTrace {
        let (parked, parked_work) = self.trace(NoopObserver);
        let (observed, observed_work) = self.trace(Watch);
        assert_eq!(parked, observed);
        assert!(
            parked_work + 20 < observed_work,
            "probe was never parked ({parked_work} vs {observed_work} requesters)"
        );
        parked
    }
}

/// Index into a [`ProbeTrace`] of the state right after the step of
/// the event cycle.
const AFTER_EVENT: usize = (Wall::EVENT - 1) as usize;

fn node(xy: [u16; 2]) -> NodeId {
    Mesh::new_2d(4, 4).node_at(&xy.into())
}

#[test]
fn header_parked_behind_fail_channel_moves_the_cycle_after_repair_channel() {
    let trace = Wall {
        algo: &DimensionOrder::new(),
        blocker_dst: [1, 3],
        probe_dst: [3, 0],
        faults: None,
        pre_failed: true,
        poke: Poke::Repair,
    }
    .check();
    assert_eq!(trace[AFTER_EVENT - 1].unwrap().0, node([1, 0]));
    assert_eq!(trace[AFTER_EVENT].unwrap().0, node([2, 0]));
    assert_eq!(*trace.last().unwrap(), None, "delivered");
}

#[test]
fn scheduled_repair_wakes_a_header_parked_on_its_other_channel() {
    // West-first offers the probe EAST and NORTH at (1, 0): EAST is out
    // of service (pruned), NORTH is held by the blocker for 200 cycles.
    // The repair frees EAST while nothing at the router is released.
    let trace = Wall {
        algo: &WestFirst::minimal(),
        blocker_dst: [1, 3],
        probe_dst: [3, 2],
        faults: Some(|_, wall| FaultPlan::new().channel_transient(wall, 0, Wall::EVENT)),
        pre_failed: false,
        poke: Poke::Nothing,
    }
    .check();
    assert_eq!(trace[AFTER_EVENT - 1].unwrap().0, node([1, 0]));
    assert_eq!(trace[AFTER_EVENT].unwrap().0, node([2, 0]));
}

#[test]
fn scheduled_permanent_fault_strands_a_parked_header_on_its_cycle() {
    // The probe waits for the one channel xy offers, busy under the
    // blocker; the fault prunes it away with no repair to come, so the
    // probe is stranded at once, not when the blocker's tail passes.
    let trace = Wall {
        algo: &DimensionOrder::new(),
        blocker_dst: [3, 0],
        probe_dst: [3, 0],
        faults: Some(|_, wall| FaultPlan::new().channel(wall, Wall::EVENT)),
        pre_failed: false,
        poke: Poke::Nothing,
    }
    .check();
    assert!(!trace[AFTER_EVENT - 1].unwrap().1);
    assert!(trace[AFTER_EVENT].unwrap().1);
}

#[test]
fn fail_channel_under_an_active_plan_strands_a_parked_header_on_its_cycle() {
    // An unrelated scheduled fault turns live pruning on; the manual
    // `fail_channel` then empties the probe's pruned set.
    let trace = Wall {
        algo: &DimensionOrder::new(),
        blocker_dst: [3, 0],
        probe_dst: [3, 0],
        faults: Some(|mesh, _| {
            let far = mesh
                .channel_from(mesh.node_at(&[3, 3].into()), Direction::WEST)
                .expect("interior");
            FaultPlan::new().channel(far, 1)
        }),
        pre_failed: false,
        poke: Poke::Fail,
    }
    .check();
    assert!(!trace[AFTER_EVENT - 1].unwrap().1);
    assert!(trace[AFTER_EVENT].unwrap().1);
}

#[test]
fn unobserved_saturated_run_evaluates_a_tenth_of_the_requesters() {
    // The first deterministic work counter: on a saturated mesh almost
    // every requester is a header that has not moved and whose router
    // released nothing, and the unobserved run skips all of them.
    let mesh = Mesh::new_2d(16, 16);
    let algo = WestFirst::minimal();
    let config = SimConfig::paper()
        .injection_rate(0.20)
        .warmup_cycles(500)
        .measure_cycles(3_000)
        .seed(9);
    let (parked, observed) = assert_parking_invisible(
        &mesh,
        &algo,
        &Transpose,
        config,
        "mesh:16x16 west-first transpose 0.20",
    );
    assert!(
        parked * 10 <= observed,
        "parked run evaluated {parked} requesters, observed run {observed}"
    );
}
