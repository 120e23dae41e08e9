//! The packet model: a message is a small record in its source queue
//! until its header wins a channel, then owns a slot of a recycled
//! arena until its tail is consumed. The arena is as large as the most
//! worms ever in flight at once, a reused slot carries nothing over, and
//! `PacketId` stays the creation sequence number whatever slot a worm
//! sits in — so every tie-break, observer event and deadlock report
//! names the same packets it did when ids were arena indices.

use turnroute_core::{DimensionOrder, TurnSet, TurnSetRouting, WestFirst};
use turnroute_sim::obs::SimObserver;
use turnroute_sim::patterns::{Transpose, Uniform};
use turnroute_sim::{
    InputSelection, LengthDistribution, Packet, PacketId, PacketState, SimConfig, Simulation,
};
use turnroute_topology::{ChannelId, Mesh, NodeId, Topology};

/// Counts worms in the network from the engine's own events, and keeps
/// the ids each node injected and the ids delivered, in event order.
/// Asks for no per-requester events, so the runs below park blocked
/// headers exactly as unobserved ones do.
#[derive(Default)]
struct Census {
    in_flight: usize,
    in_flight_max: usize,
    injected: Vec<Vec<u64>>,
    delivered: Vec<u64>,
}

impl SimObserver for Census {
    const ENABLED: bool = false;

    fn packet_injected(&mut self, _: u64, packet: PacketId, src: NodeId, _: NodeId, _: u32) {
        self.in_flight += 1;
        self.in_flight_max = self.in_flight_max.max(self.in_flight);
        if self.injected.len() <= src.index() {
            self.injected.resize(src.index() + 1, Vec::new());
        }
        self.injected[src.index()].push(packet.index());
    }

    fn packet_delivered(&mut self, cycle: u64, packet: &Packet) {
        assert_eq!(packet.state(), PacketState::Delivered);
        assert_eq!(packet.delivered_at, Some(cycle));
        assert_eq!(packet.flits_consumed(), packet.length);
        assert_eq!(packet.flits_in_network(), 0);
        self.in_flight -= 1;
        self.delivered.push(packet.id.index());
    }
}

/// Steps `cycles` cycles, checking every cycle that the arena is
/// exactly as long as the in-flight high-water mark so far (so it never
/// grows past it, nor before it) and that its live slots are the worms
/// in flight. Returns the final arena length.
fn arena_tracks_the_high_water_mark(sim: &mut Simulation<'_, Census>, cycles: u64) -> usize {
    for _ in 0..cycles {
        assert!(sim.step().is_none());
        let census = sim.observer();
        assert_eq!(sim.packets().len(), census.in_flight_max);
        assert_eq!(sim.in_flight().len(), census.in_flight);
        let live = sim
            .packets()
            .iter()
            .filter(|p| p.state() == PacketState::InFlight)
            .count();
        assert_eq!(live, census.in_flight);
    }
    sim.packets().len()
}

#[test]
fn idle_run_arena_is_the_most_worms_ever_in_flight() {
    let mesh = Mesh::new_2d(8, 8);
    let algo = WestFirst::minimal();
    let config = SimConfig::paper()
        .injection_rate(0.01)
        .lengths(LengthDistribution::Fixed(8))
        .seed(4);
    let mut sim = Simulation::with_observer(&mesh, &algo, &Uniform, config, Census::default());
    let slots = arena_tracks_the_high_water_mark(&mut sim, 200_000);
    let delivered = sim.total_delivered() as usize;
    assert!(delivered > 10_000, "{delivered}");
    assert!(slots <= 20, "{slots} slots for a nearly idle network");
}

#[test]
fn saturated_run_arena_is_the_most_worms_ever_in_flight() {
    let mesh = Mesh::new_2d(6, 6);
    let algo = WestFirst::minimal();
    let config = SimConfig::paper().injection_rate(0.6).seed(8);
    let mut sim = Simulation::with_observer(&mesh, &algo, &Transpose, config, Census::default());
    let slots = arena_tracks_the_high_water_mark(&mut sim, 20_000);
    // One flit per channel: worms in flight cannot outnumber channels.
    assert!(slots <= mesh.num_channels(), "{slots}");
    assert!(sim.queued_messages() > slots, "not saturated");
    assert!(sim.total_delivered() as usize > 5 * slots);
}

#[test]
fn a_recycled_slot_starts_clean() {
    let mesh = Mesh::new_2d(6, 6);
    let algo = DimensionOrder::new();
    let config = SimConfig::paper().injection_rate(0.0);
    let mut sim = Simulation::with_observer(&mesh, &algo, &Uniform, config, Census::default());
    let at = |x, y| mesh.node_at(&[x, y].into());
    // A long first occupant: ten hops, a turn, a worm buffer of ten
    // channels, every counter dirty by the time it is delivered.
    let first = sim.inject_message(at(0, 0), at(5, 5), 3);
    sim.step();
    while sim.packet(first).is_some() {
        sim.step();
    }
    let ghost = &sim.packets()[0];
    assert_eq!((ghost.id, ghost.hops()), (first, 10));
    assert_eq!(ghost.state(), PacketState::Delivered);
    assert!(ghost.worm().is_empty());

    let idle_for = 7;
    for _ in 0..idle_for {
        sim.step();
    }
    let created = sim.cycle();
    let second = sim.inject_message(at(4, 1), at(4, 3), 5);
    assert_eq!(second.index(), first.index() + 1);
    sim.step();
    assert_eq!(sim.packets().len(), 1, "the freed slot was not reused");
    let p = sim.packet(second).expect("in flight");
    assert_eq!(p.id, second);
    assert_eq!((p.src, p.dst, p.length), (at(4, 1), at(4, 3), 5));
    assert_eq!((p.created_at, p.injected_at), (created, created));
    assert_eq!(p.delivered_at, None);
    assert_eq!(p.hops(), 1);
    assert_eq!(p.head_node(), at(4, 2));
    assert_eq!(p.worm().len(), 1);
    assert_eq!(sim.channel_owner(p.worm()[0]), Some(second));
    assert_eq!(p.flits_at_source(), 4);
    assert_eq!(p.flits_in_network(), 1);
    assert_eq!(p.flits_consumed(), 0);
    assert!(!p.is_stranded());
    // Nothing of the first occupant's life leaks into the second's: not
    // a flit is consumed before the header is home, and the trip takes
    // what an empty network makes it take.
    while let Some(p) = sim.packet(second) {
        let flits = p.flits_at_source() + p.flits_in_network() + p.flits_consumed();
        assert_eq!(flits, p.length);
        assert!(p.head_node() == p.dst || p.flits_consumed() == 0);
        sim.step();
    }
    assert_eq!(sim.observer().delivered, [first.index(), second.index()]);
    let ghost = &sim.packets()[0];
    assert_eq!((ghost.id, ghost.hops()), (second, 2));
    assert_eq!(ghost.latency_cycles(), Some(2 + 5 - 1));
    for c in 0..mesh.num_channels() {
        assert_eq!(sim.channel_owner(ChannelId::new(c)), None);
    }
}

#[test]
fn packet_ids_are_the_creation_sequence() {
    let mesh = Mesh::new_2d(6, 6);
    let algo = WestFirst::minimal();
    let config = SimConfig::paper()
        .injection_rate(0.25)
        .warmup_cycles(200)
        .measure_cycles(6_000)
        .seed(12);
    let mut sim = Simulation::with_observer(&mesh, &algo, &Uniform, config, Census::default());
    // Hand-injected messages draw from the same sequence.
    let a = sim.inject_message(NodeId::new(0), NodeId::new(7), 4);
    let b = sim.inject_message(NodeId::new(35), NodeId::new(1), 4);
    assert_eq!((a.index(), b.index()), (0, 1));
    let report = sim.run();
    assert_eq!(report.total_delivered, report.total_generated, "drained");
    assert!(report.total_generated > 300);
    let slots = sim.packets().len() as u64;
    assert!(slots * 5 < report.total_generated, "{slots} slots");

    let census = sim.observer();
    // A source queue is FIFO, so each node injects in creation order...
    for (node, ids) in census.injected.iter().enumerate() {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "node {node} injected out of creation order: {ids:?}"
        );
    }
    // ...and between them the nodes injected every id exactly once: the
    // ids are 0..generated, not slot numbers (which stay below `slots`).
    let mut injected: Vec<u64> = census.injected.concat();
    injected.sort_unstable();
    let all: Vec<u64> = (0..report.total_generated).collect();
    assert_eq!(injected, all);
    let mut delivered = census.delivered.clone();
    delivered.sort_unstable();
    assert_eq!(delivered, all);
    // Delivery order is not creation order, or this test proves little.
    assert!(census.delivered.windows(2).any(|w| w[0] > w[1]));
}

/// What a contended run is compared by; recorded from the engine as it
/// stood when `PacketId` was the arena index.
fn summary(input: InputSelection) -> String {
    let mesh = Mesh::new_2d(6, 6);
    let algo = WestFirst::minimal();
    let config = SimConfig::paper()
        .injection_rate(0.8)
        .lengths(LengthDistribution::Fixed(4))
        .warmup_cycles(100)
        .measure_cycles(2_000)
        .seed(7)
        .input_selection(input);
    let report = Simulation::new(&mesh, &algo, &Uniform, config).run();
    let m = &report.metrics;
    let hops: u64 = m.hop_counts.iter().map(|&h| h as u64).sum();
    format!(
        "{:?}",
        (
            report.total_generated,
            report.total_delivered,
            m.flits_delivered,
            &m.latencies,
            &m.network_latencies,
            hops,
            &m.queue_samples
        )
    )
}

#[test]
fn ties_break_on_creation_order_not_on_slots() {
    // 15 110 four-flit messages through a few dozen slots: headers that
    // reach a router in the same cycle tie on arrival time all the time,
    // and a tie broken by slot number (or left to sort order) instead of
    // creation sequence moves these numbers.
    assert_eq!(
        summary(InputSelection::FirstComeFirstServed),
        "(15110, 6520, 12749, LatencyHistogram { count: 5870, sum: 8889425, min: Some(59), \
         max: Some(3894), occupied_buckets: 182 }, LatencyHistogram { count: 5870, sum: 106527, \
         min: Some(4), max: Some(789), occupied_buckets: 132 }, 22723, \
         [1286, 2706, 4156, 5587, 7004, 8554, 10023, 11402])"
    );
    assert_eq!(
        summary(InputSelection::FixedPriority),
        "(15110, 5787, 11195, LatencyHistogram { count: 5147, sum: 8161973, min: Some(57), \
         max: Some(3904), occupied_buckets: 159 }, LatencyHistogram { count: 5147, sum: 97815, \
         min: Some(4), max: Some(1406), occupied_buckets: 134 }, 19663, \
         [1356, 2850, 4382, 5838, 7240, 8852, 10334, 11820])"
    );
}

#[test]
fn deadlock_report_names_the_ids_it_always_did() {
    // The `deadlock_demo` example's set-up. The witness below was
    // printed by the engine when ids indexed the arena; by cycle 1993
    // over a hundred messages have shared a few dozen slots.
    let mesh = Mesh::new_2d(6, 6);
    let algo = TurnSetRouting::new(TurnSet::fully_adaptive(2));
    let config = SimConfig::paper()
        .injection_rate(0.9)
        .lengths(LengthDistribution::Fixed(64))
        .warmup_cycles(0)
        .measure_cycles(0)
        .deadlock_threshold(1_000)
        .seed(3);
    let mut sim = Simulation::new(&mesh, &algo, &Uniform, config);
    let report = loop {
        if let Some(report) = sim.step() {
            break report;
        }
        assert!(sim.cycle() < 10_000, "no deadlock");
    };
    assert_eq!(
        report.to_string(),
        "deadlock at cycle 1993: 30 packets blocked, circular wait of 6:\n\
         \x20 packet 15 at n27 waits for c94\n\
         \x20 packet 64 at n28 waits for c99\n\
         \x20 packet 65 at n22 waits for c77\n\
         \x20 packet 101 at n10 waits for c33\n\
         \x20 packet 99 at n2 waits for c5\n\
         \x20 packet 23 at n19 waits for c66\n"
    );
    assert!(report.stranded.is_empty());
    assert!(sim.packets().len() <= mesh.num_channels());
    for (k, edge) in report.cycle.iter().enumerate() {
        let next = &report.cycle[(k + 1) % report.cycle.len()];
        assert_eq!(sim.channel_owner(edge.wants), Some(next.packet));
        let p = sim.packet(edge.packet).expect("a blocked worm is live");
        assert_eq!(p.head_node(), edge.at_node);
    }
}
