//! Fault tolerance under live traffic: the paper's argument for
//! nonminimal adaptive routing (Sections 1 and 7), exercised in the
//! simulator rather than on paper.

use turnroute_core::{DimensionOrder, WestFirst};
use turnroute_fault::FaultPlan;
use turnroute_sim::obs::SimObserver;
use turnroute_sim::patterns::{TrafficPattern, Uniform};
use turnroute_sim::{
    DeliveryLog, FaultObserver, InputSelection, NoopObserver, OutputSelection, RouteTable,
    RouteTableMode, RunOutcome, SimConfig, Simulation,
};
use turnroute_topology::{Direction, Mesh, NodeId, Topology};

fn config() -> SimConfig {
    SimConfig::paper()
        .injection_rate(0.02)
        .warmup_cycles(500)
        .measure_cycles(8_000)
        .deadlock_threshold(3_000)
        .seed(77)
}

/// Kills the eastward channel out of `(3, 3)`.
fn fail_one_link<O: SimObserver>(sim: &mut Simulation<'_, O>, mesh: &Mesh) {
    let from = mesh.node_at(&[3, 3].into());
    sim.fail_channel(mesh.channel_from(from, Direction::EAST).expect("interior"));
}

/// Traffic that crosses the faulty column: west-side sources at row 3,
/// east-side destinations spread over nearby rows (so xy always crosses
/// at the dead link, while adaptive detours stay short).
struct CrossTraffic;

impl TrafficPattern for CrossTraffic {
    fn name(&self) -> String {
        "cross-the-fault".to_owned()
    }

    fn dest(
        &self,
        topo: &dyn Topology,
        src: NodeId,
        rng: &mut dyn turnroute_rng::RngCore,
    ) -> Option<NodeId> {
        use turnroute_rng::Rng;
        let c = topo.coord_of(src);
        if c.get(0) > 2 || c.get(1) != 3 {
            return None; // west-side row-3 sources only
        }
        let x = rng.random_range(5..topo.radix(0)) as u16;
        let y = rng.random_range(3..6usize) as u16;
        Some(topo.node_at(&[x, y].into()))
    }
}

#[test]
fn nonminimal_west_first_routes_around_a_dead_link() {
    let mesh = Mesh::new_2d(8, 8);
    let algo = WestFirst::nonminimal();
    // Only three row-3 west-side nodes generate: give them a high rate.
    let mut sim = Simulation::with_observer(
        &mesh,
        &algo,
        &CrossTraffic,
        config().injection_rate(0.15).measure_cycles(16_000),
        DeliveryLog::default(),
    );
    fail_one_link(&mut sim, &mesh);
    let report = sim.run();
    assert!(
        matches!(report.outcome, RunOutcome::Completed),
        "nonminimal west-first must keep delivering"
    );
    assert!(report.total_delivered > 20, "{}", report.total_delivered);
    // Packets bound for row 3 cannot cross minimally: they detour one
    // row and come back, exceeding the minimal hop count.
    let detours = sim
        .observer()
        .delivered()
        .iter()
        .filter(|p| p.hops() > mesh.distance(p.src, p.dst) as u32)
        .count();
    assert!(detours > 0, "some routes must be nonminimal");
}

#[test]
fn minimal_xy_blocks_permanently_at_a_dead_link() {
    // xy crosses at the source row — always row 3, always the dead
    // link. Every generated packet eventually wedges there.
    let mesh = Mesh::new_2d(8, 8);
    let algo = DimensionOrder::new();
    let mut sim = Simulation::new(&mesh, &algo, &CrossTraffic, config());
    fail_one_link(&mut sim, &mesh);
    let report = sim.run();
    match report.outcome {
        RunOutcome::Deadlocked(d) => {
            // Not a circular wait: a permanent roadblock at the failed
            // link.
            assert!(d.cycle.is_empty());
            assert!(
                !d.stranded.is_empty(),
                "fault-blocked packets are roadblocks"
            );
        }
        RunOutcome::Completed => {
            panic!("xy cannot route around a dead link on its only path")
        }
    }
}

#[test]
fn repair_restores_service() {
    let mesh = Mesh::new_2d(8, 8);
    let algo = DimensionOrder::new();
    let mut sim = Simulation::new(
        &mesh,
        &algo,
        &Uniform,
        config().deadlock_threshold(1_000_000),
    );
    // Fail then repair one link; traffic flows normally afterwards.
    let ch = mesh
        .channel_from(mesh.node_at(&[3, 3].into()), Direction::EAST)
        .unwrap();
    sim.fail_channel(ch);
    assert!(sim.is_faulty(ch));
    for _ in 0..2_000 {
        sim.step();
    }
    sim.repair_channel(ch);
    assert!(!sim.is_faulty(ch));
    for _ in 0..20_000 {
        sim.step();
    }
    let delivered = sim.total_delivered();
    assert!(delivered > 50, "{delivered}");
}

#[test]
fn scheduled_faults_apply_on_cycle_and_feed_the_observer() {
    let mesh = Mesh::new_2d(6, 6);
    let algo = WestFirst::nonminimal();
    let ch = mesh
        .channel_from(mesh.node_at(&[2, 2].into()), Direction::EAST)
        .unwrap();
    let schedule = FaultPlan::new()
        .channel_transient(ch, 100, 400)
        .compile(&mesh)
        .unwrap();
    let mut sim = Simulation::with_observer(
        &mesh,
        &algo,
        &Uniform,
        config().faults(schedule),
        FaultObserver::new(),
    );
    // A schedule with events after cycle 0 disables the route table.
    assert!(sim.route_table_fallback_reason().is_some());
    while sim.cycle() < 100 {
        sim.step();
    }
    assert!(!sim.is_faulty(ch), "fault applied early");
    sim.step();
    assert!(sim.is_faulty(ch), "fault not applied on its cycle");
    while sim.cycle() < 400 {
        sim.step();
    }
    sim.step();
    assert!(!sim.is_faulty(ch), "repair not applied on its cycle");
    let obs = sim.into_observer();
    assert_eq!(obs.events(), &[(100, ch, true), (400, ch, false)]);
    assert_eq!(obs.failures(), 1);
    assert_eq!(obs.repairs(), 1);
    assert_eq!(obs.downtime_cycles(ch), 300);
    assert_eq!(obs.currently_failed(), 0);
    assert_eq!(obs.peak_failed(), 1);
}

#[test]
fn static_plan_reports_match_with_and_without_route_table() {
    // Satellite regression: a cycle-0 fault plan must not change the
    // numbers depending on whether routing goes through the (pruned)
    // precomputed table or live pruned `route()` calls — even under the
    // RNG-consuming Random selection policies, whose draws depend on
    // the permitted-set size.
    let mesh = Mesh::new_2d(6, 6);
    let algo = WestFirst::nonminimal();
    let run = |mode: RouteTableMode| {
        let cfg = config()
            .injection_rate(0.05)
            .input_selection(InputSelection::Random)
            .output_selection(OutputSelection::Random)
            .route_table(mode)
            .faults(
                FaultPlan::new()
                    .random_channels(3, 99)
                    .compile(&mesh)
                    .unwrap(),
            );
        let mut sim = Simulation::new(&mesh, &algo, &Uniform, cfg);
        (
            sim.route_table_fallback_reason(),
            format!("{:?}", sim.run()),
        )
    };
    let (on_reason, on) = run(RouteTableMode::On);
    let (off_reason, off) = run(RouteTableMode::Off);
    // Static plans keep the table: it is rebuilt against the pruned
    // relation, not disabled.
    assert_eq!(on_reason, None);
    assert_eq!(off_reason, None);
    assert_eq!(on, off, "route table changed a faulted run's report");
}

#[test]
fn a_caller_owned_table_strands_on_a_link_dead_at_cycle_zero() {
    // West-first must leave (2, 1) westward to reach (0, 1), and that
    // link fails at cycle 0. The header arrives from (3, 1), finds its
    // only permitted channel dead and is stranded — also when the table
    // comes from `RouteTable::for_config`, which must prune the plan.
    let mesh = Mesh::new_2d(4, 4);
    let algo = WestFirst::minimal();
    let at = |x: u16| mesh.node_at(&[x, 1].into());
    let west = mesh.channel_from(at(2), Direction::WEST).unwrap();
    let cfg = config()
        .injection_rate(0.0)
        .faults(FaultPlan::new().channel(west, 0).compile(&mesh).unwrap());
    let run = |mut sim: Simulation<'_>| {
        sim.inject_message(at(3), at(0), 4);
        format!("{:?}", sim.run())
    };
    let table = RouteTable::for_config(&mesh, &algo, &cfg);
    assert!(table.is_some());
    let on = run(Simulation::with_observer_and_table(
        &mesh,
        &algo,
        &Uniform,
        cfg.clone(),
        NoopObserver,
        table,
    ));
    let off = run(Simulation::new(
        &mesh,
        &algo,
        &Uniform,
        cfg.route_table(RouteTableMode::Off),
    ));
    assert!(off.contains("stranded_packets: 1"), "{off}");
    assert_eq!(on, off, "a for_config table changed a faulted run");
}

#[test]
fn isolating_a_node_strands_and_repairing_drains() {
    // Fail every outgoing channel of the node all cross-traffic must
    // transit: the watchdog must report a permanent roadblock (stranded
    // packets, no circular wait), and repairing the channels must let
    // the run drain the blocked packets.
    let mesh = Mesh::new_2d(8, 8);
    let algo = DimensionOrder::new();
    let mut sim = Simulation::with_observer(
        &mesh,
        &algo,
        &CrossTraffic,
        config().injection_rate(0.15).deadlock_threshold(1_500),
        DeliveryLog::default(),
    );
    let center = mesh.node_at(&[3, 3].into());
    let out: Vec<_> = [
        Direction::EAST,
        Direction::WEST,
        Direction::NORTH,
        Direction::SOUTH,
    ]
    .iter()
    .filter_map(|&d| mesh.channel_from(center, d))
    .collect();
    assert_eq!(out.len(), 4, "center node must be interior");
    for _ in 0..1_000 {
        assert!(sim.step().is_none(), "healthy warmup deadlocked");
    }
    for &c in &out {
        sim.fail_channel(c);
    }
    let report = loop {
        if let Some(d) = sim.step() {
            break d;
        }
        assert!(sim.cycle() < 60_000, "watchdog never fired");
    };
    assert!(report.cycle.is_empty(), "a roadblock, not a circular wait");
    assert!(!report.stranded.is_empty(), "no stranded packets reported");
    let text = report.to_string();
    assert!(text.contains("permanent blockage"), "{text}");
    for &c in &out {
        sim.repair_channel(c);
    }
    for _ in 0..30_000 {
        sim.step();
    }
    for id in &report.stranded {
        assert!(
            sim.observer().get(*id).is_some(),
            "packet {} still undelivered after repair",
            id.index()
        );
    }
}

#[test]
fn faulty_channels_are_never_granted() {
    let mesh = Mesh::new_2d(6, 6);
    let algo = WestFirst::nonminimal();
    let mut sim = Simulation::new(
        &mesh,
        &algo,
        &Uniform,
        config().injection_rate(0.1).deadlock_threshold(1_000_000),
    );
    // Fail a scattering of channels.
    let failed: Vec<_> = (0..mesh.num_channels()).step_by(7).collect();
    for c in &failed {
        sim.fail_channel((*c).into());
    }
    for _ in 0..5_000 {
        sim.step();
        for &c in &failed {
            assert_eq!(sim.channel_owner(c.into()), None, "faulty channel granted");
        }
    }
}
