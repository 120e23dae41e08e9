//! A wormhole engine with virtual channels: buffered lanes per physical
//! link, with the link's bandwidth multiplexed among them cycle by
//! cycle.
//!
//! Semantics mirror `turnroute_sim::Simulation` (same config, traffic,
//! metrics and watchdog); the differences are exactly the two things
//! virtual channels add: a header is granted a *lane*, and a worm
//! advances only when every physical link a flit of its would cross
//! this cycle still has bandwidth left. With one lane everywhere the
//! two engines behave identically, which the tests pin down.

use crate::routing::VcRoutingAlgorithm;
use crate::table::{VcTable, VirtualChannelId};
use crate::vdir::VirtualDirection;
use std::collections::VecDeque;
use turnroute_rng::StdRng;
use turnroute_sim::patterns::TrafficPattern;
use turnroute_sim::{
    DeadlockReport, MetricsCollector, RunOutcome, SimConfig, SimReport, TrafficSource,
};
use turnroute_topology::{NodeId, Topology};

/// Identifies a packet in a [`VcSimulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcPacketId(u64);

impl VcPacketId {
    /// The dense creation-order index.
    pub fn index(self) -> u64 {
        self.0
    }
}

/// A message and, once injected, its worm over virtual channels.
#[derive(Debug, Clone)]
pub struct VcPacket {
    /// This packet's id.
    pub id: VcPacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub length: u32,
    /// Creation cycle.
    pub created_at: u64,
    /// Injection cycle, once in flight.
    pub injected_at: Option<u64>,
    /// Delivery cycle, once delivered.
    pub delivered_at: Option<u64>,
    worm: Vec<VirtualChannelId>,
    flits_at_source: u32,
    flits_consumed: u32,
    head_node: NodeId,
    arrived: Option<VirtualDirection>,
    head_arrival: u64,
    hops: u32,
}

impl VcPacket {
    /// Hops taken by the header.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// The lanes currently occupied, tail first.
    pub fn worm(&self) -> &[VirtualChannelId] {
        &self.worm
    }

    /// Flit conservation components: (at source, in network, consumed).
    pub fn flit_counts(&self) -> (u32, u32, u32) {
        (
            self.flits_at_source,
            self.worm.len() as u32,
            self.flits_consumed,
        )
    }
}

/// A flit-level wormhole simulation over virtual channels.
///
/// # Example
///
/// ```
/// use turnroute_sim::{patterns::Transpose, SimConfig};
/// use turnroute_vc::{MadY, VcSimulation};
/// use turnroute_topology::Mesh;
///
/// let mesh = Mesh::new_2d(8, 8);
/// let mady = MadY::new();
/// let config = SimConfig::paper()
///     .injection_rate(0.05)
///     .warmup_cycles(1_000)
///     .measure_cycles(4_000);
/// let report = VcSimulation::new(&mesh, &mady, &Transpose, config).run();
/// assert!(report.sustainable());
/// ```
pub struct VcSimulation<'a> {
    topo: &'a dyn Topology,
    algo: &'a dyn VcRoutingAlgorithm,
    table: VcTable,
    pattern: &'a dyn TrafficPattern,
    config: SimConfig,
    rng: StdRng,
    source: TrafficSource,
    cycle: u64,
    packets: Vec<VcPacket>,
    queues: Vec<VecDeque<VcPacketId>>,
    injecting: Vec<Option<VcPacketId>>,
    ejecting: Vec<Option<VcPacketId>>,
    vc_owner: Vec<Option<VcPacketId>>,
    in_flight: Vec<VcPacketId>,
    last_progress: u64,
    generation_enabled: bool,
    metrics: MetricsCollector,
    total_delivered: u64,
    total_generated: u64,
}

impl<'a> VcSimulation<'a> {
    /// Builds a simulation; lanes are provisioned per
    /// [`VcRoutingAlgorithm::provisioning`].
    pub fn new(
        topo: &'a dyn Topology,
        algo: &'a dyn VcRoutingAlgorithm,
        pattern: &'a dyn TrafficPattern,
        config: SimConfig,
    ) -> Self {
        let table = VcTable::new(topo, &algo.provisioning(topo));
        let mut rng = StdRng::seed_from_u64(config.seed);
        let source = TrafficSource::for_config(topo.num_nodes(), &config, &mut rng);
        VcSimulation {
            topo,
            algo,
            pattern,
            config,
            rng,
            source,
            cycle: 0,
            packets: Vec::new(),
            queues: vec![VecDeque::new(); topo.num_nodes()],
            injecting: vec![None; topo.num_nodes()],
            ejecting: vec![None; topo.num_nodes()],
            vc_owner: vec![None; table.num_virtual_channels()],
            in_flight: Vec::new(),
            last_progress: 0,
            generation_enabled: true,
            metrics: MetricsCollector::default(),
            total_delivered: 0,
            total_generated: 0,
            table,
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The lane table in use.
    pub fn table(&self) -> &VcTable {
        &self.table
    }

    /// All packets created so far.
    pub fn packets(&self) -> &[VcPacket] {
        &self.packets
    }

    /// The packet occupying a lane, if any.
    pub fn vc_owner(&self, vc: VirtualChannelId) -> Option<VcPacketId> {
        self.vc_owner[vc.index()]
    }

    /// Enqueues a hand-crafted message.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `length == 0`.
    pub fn inject_message(&mut self, src: NodeId, dst: NodeId, length: u32) -> VcPacketId {
        assert_ne!(src, dst, "self-addressed packets are consumed locally");
        assert!(length > 0, "packets have at least one flit");
        let id = VcPacketId(self.packets.len() as u64);
        self.packets.push(VcPacket {
            id,
            src,
            dst,
            length,
            created_at: self.cycle,
            injected_at: None,
            delivered_at: None,
            worm: Vec::new(),
            flits_at_source: length,
            flits_consumed: 0,
            head_node: src,
            arrived: None,
            head_arrival: self.cycle,
            hops: 0,
        });
        self.queues[src.index()].push_back(id);
        self.total_generated += 1;
        if self.in_window() {
            self.metrics.messages_generated += 1;
            self.metrics.flits_generated += length as u64;
        }
        id
    }

    fn in_window(&self) -> bool {
        self.cycle >= self.metrics.window_start && self.cycle < self.metrics.window_end
    }

    fn generate(&mut self) {
        if !self.generation_enabled {
            return;
        }
        let mut new_messages: Vec<(NodeId, u32)> = Vec::new();
        self.source
            .poll_due(self.cycle, &mut self.rng, |node, len| {
                new_messages.push((NodeId::new(node), len));
            });
        for (src, len) in new_messages {
            if let Some(dst) = self.pattern.dest(self.topo, src, &mut self.rng) {
                self.inject_message(src, dst, len);
            }
        }
    }

    /// Free permitted lanes for a header, in lane-priority order.
    fn candidates(&self, id: VcPacketId) -> Vec<VirtualChannelId> {
        let p = &self.packets[id.0 as usize];
        self.algo
            .route_vc(self.topo, &self.table, p.head_node, p.dst, p.arrived)
            .iter()
            .filter_map(|v| self.table.vc_from(self.topo, p.head_node, v))
            .filter(|vc| self.vc_owner[vc.index()].is_none())
            .collect()
    }

    /// One simulation cycle. Returns a report if the watchdog fired.
    pub fn step(&mut self) -> Option<DeadlockReport> {
        self.generate();

        // Arbitration: FCFS priority, grant free lanes.
        let mut requesters: Vec<VcPacketId> = Vec::new();
        for &id in &self.in_flight {
            let p = &self.packets[id.0 as usize];
            if p.head_node != p.dst {
                requesters.push(id);
            }
        }
        for node in 0..self.topo.num_nodes() {
            if self.injecting[node].is_none() {
                if let Some(&head) = self.queues[node].front() {
                    requesters.push(head);
                }
            }
        }
        requesters.sort_by_key(|&id| (self.packets[id.0 as usize].head_arrival, id.0));

        let mut grants: Vec<(VcPacketId, VirtualChannelId)> = Vec::new();
        let mut granted = vec![false; self.table.num_virtual_channels()];
        for id in requesters {
            if let Some(&vc) = self.candidates(id).iter().find(|vc| !granted[vc.index()]) {
                granted[vc.index()] = true;
                grants.push((id, vc));
            }
        }

        // Advance: consuming packets and granted packets compete for
        // physical link bandwidth (one flit per link per cycle), FCFS.
        let mut link_used = vec![false; self.topo.num_channels()];
        let mut progressed = false;

        let mut movers: Vec<(VcPacketId, Option<VirtualChannelId>)> = Vec::new();
        for &id in &self.in_flight {
            let p = &self.packets[id.0 as usize];
            if p.head_node == p.dst {
                movers.push((id, None));
            }
        }
        for &(id, vc) in &grants {
            movers.push((id, Some(vc)));
        }
        movers.sort_by_key(|&(id, _)| (self.packets[id.0 as usize].head_arrival, id.0));

        for (id, new_vc) in movers {
            if self.try_move(id, new_vc, &mut link_used) {
                progressed = true;
            }
        }

        if self.in_window() && self.cycle.is_multiple_of(256) {
            let queued = self.queues.iter().map(VecDeque::len).sum();
            self.metrics.queue_samples.push(queued);
        }
        if progressed || self.in_flight.is_empty() {
            self.last_progress = self.cycle;
        }
        self.cycle += 1;
        if !self.in_flight.is_empty()
            && self.cycle - self.last_progress >= self.config.deadlock_threshold
        {
            return Some(DeadlockReport {
                cycle: Vec::new(),
                stranded: Vec::new(),
                detected_at: self.cycle,
                blocked_packets: self.in_flight.len(),
            });
        }
        None
    }

    /// Attempts to move a worm one step (into `new_vc`, or consuming at
    /// the destination when `None`). Fails without side effects if any
    /// needed link's bandwidth is already spent this cycle.
    fn try_move(
        &mut self,
        id: VcPacketId,
        new_vc: Option<VirtualChannelId>,
        link_used: &mut [bool],
    ) -> bool {
        // Links that receive a flit: the new head lane (if any), every
        // occupied lane except the tail, and the tail lane too when a
        // fresh flit enters from the source.
        let p = &self.packets[id.0 as usize];
        let refill = p.flits_at_source > 0;
        let mut needed: Vec<usize> = Vec::with_capacity(p.worm.len() + 1);
        if let Some(vc) = new_vc {
            needed.push(self.table.decompose(vc).0.index());
        } else {
            // Consuming: the single ejection channel must be ours.
            let node = p.dst.index();
            match self.ejecting[node] {
                None => {}
                Some(holder) if holder == id => {}
                Some(_) => return false,
            }
        }
        let skip_tail = usize::from(!refill);
        for &vc in p.worm.iter().skip(skip_tail) {
            // When the tail is refilled, its link carries the fresh
            // flit; links of every later lane carry the shifting flits.
            needed.push(self.table.decompose(vc).0.index());
        }
        // The tail link is only crossed by the refill flit; without a
        // refill the tail flit *leaves* its lane and crosses the next
        // one, which the loop above already covers.
        if needed.iter().any(|&l| link_used[l]) {
            return false;
        }
        for &l in &needed {
            link_used[l] = true;
        }

        // Perform the move.
        match new_vc {
            Some(vc) => self.take_lane(id, vc),
            None => self.consume_one_flit(id),
        }
        true
    }

    fn take_lane(&mut self, id: VcPacketId, vc: VirtualChannelId) {
        let (ch, _) = self.table.decompose(vc);
        let channel = self.topo.channel(ch);
        let first_hop = self.packets[id.0 as usize].injected_at.is_none();
        if first_hop {
            let node = channel.src.index();
            let front = self.queues[node].pop_front();
            debug_assert_eq!(front, Some(id));
            self.injecting[node] = Some(id);
            self.packets[id.0 as usize].injected_at = Some(self.cycle);
            self.in_flight.push(id);
        }
        self.vc_owner[vc.index()] = Some(id);
        let cycle = self.cycle;
        let vdir = self.table.vdir_of(self.topo, vc);
        let p = &mut self.packets[id.0 as usize];
        p.worm.push(vc);
        p.head_node = channel.dst;
        p.arrived = Some(vdir);
        p.head_arrival = cycle + 1;
        p.hops += 1;
        self.shift_tail(id);
    }

    fn consume_one_flit(&mut self, id: VcPacketId) {
        let node = self.packets[id.0 as usize].dst.index();
        if self.ejecting[node].is_none() {
            self.ejecting[node] = Some(id);
        }
        if self.in_window() {
            self.metrics.flits_delivered += 1;
        }
        let p = &mut self.packets[id.0 as usize];
        p.flits_consumed += 1;
        let done = p.flits_consumed == p.length;
        self.shift_tail(id);
        if done {
            let p = &mut self.packets[id.0 as usize];
            debug_assert!(p.worm.is_empty());
            p.delivered_at = Some(self.cycle);
            if self.ejecting[node] == Some(id) {
                self.ejecting[node] = None;
            }
            self.total_delivered += 1;
            self.in_flight.retain(|&q| q != id);
            let p = &self.packets[id.0 as usize];
            if p.created_at >= self.metrics.window_start && p.created_at < self.metrics.window_end {
                self.metrics.latencies.record(self.cycle - p.created_at);
                self.metrics
                    .network_latencies
                    .record(self.cycle - p.injected_at.expect("delivered => injected"));
                self.metrics.hop_counts.push(p.hops);
            }
        }
    }

    fn shift_tail(&mut self, id: VcPacketId) {
        let idx = id.0 as usize;
        if self.packets[idx].flits_at_source > 0 {
            self.packets[idx].flits_at_source -= 1;
            if self.packets[idx].flits_at_source == 0 {
                let src = self.packets[idx].src.index();
                if self.injecting[src] == Some(id) {
                    self.injecting[src] = None;
                }
            }
        } else if !self.packets[idx].worm.is_empty() {
            let tail = self.packets[idx].worm.remove(0);
            self.vc_owner[tail.index()] = None;
        }
    }

    /// Runs warmup, measurement and drain; mirrors
    /// [`Simulation::run`](turnroute_sim::Simulation::run).
    pub fn run(&mut self) -> SimReport {
        self.metrics.window_start = self.config.warmup_cycles;
        self.metrics.window_end = self.config.warmup_cycles + self.config.measure_cycles;
        let drain_limit = self.metrics.window_end + self.config.measure_cycles;
        let mut outcome = RunOutcome::Completed;
        while self.cycle < drain_limit {
            if self.cycle == self.metrics.window_end {
                self.generation_enabled = false;
            }
            if let Some(report) = self.step() {
                outcome = RunOutcome::Deadlocked(report);
                break;
            }
            if self.cycle > self.metrics.window_end
                && self.in_flight.is_empty()
                && self.queues.iter().all(VecDeque::is_empty)
            {
                break;
            }
        }
        SimReport {
            offered_load: self.config.injection_rate_flits,
            metrics: self.metrics.clone(),
            outcome,
            stranded_packets: 0,
            total_delivered: self.total_delivered,
            total_generated: self.total_generated,
        }
    }
}

/// A [`turnroute_sim::exec::SeriesJob`] running the virtual-channel
/// engine, so VC sweeps schedule through the same parallel executor as
/// plain ones.
pub fn vc_series_job<'a>(
    topo: &'a dyn Topology,
    algorithm: &'a dyn VcRoutingAlgorithm,
    pattern: &'a dyn TrafficPattern,
    base: &SimConfig,
    offered_loads: &[f64],
) -> turnroute_sim::SeriesJob<'a> {
    let config = base.clone();
    let cache_key = turnroute_sim::exec::sim_cache_key(
        format!("vc:{}", topo.label()),
        &algorithm.name(),
        &pattern.name(),
        base,
    );
    turnroute_sim::SeriesJob::new(
        algorithm.name(),
        pattern.name(),
        cache_key,
        base.seed,
        offered_loads,
        move |load, seed| {
            let cfg = config.clone().injection_rate(load).seed(seed);
            let report = VcSimulation::new(topo, algorithm, pattern, cfg).run();
            turnroute_sim::CellOutput::from_report(&report)
        },
    )
}

/// Sweeps `algorithm` over the offered loads, mirroring
/// [`turnroute_sim::sweep`] for the virtual-channel engine so that
/// lane-based and channel-free algorithms can share one figure.
pub fn sweep_vc(
    topo: &dyn Topology,
    algorithm: &dyn VcRoutingAlgorithm,
    pattern: &dyn TrafficPattern,
    base: &SimConfig,
    offered_loads: &[f64],
) -> turnroute_sim::SweepSeries {
    let job = vc_series_job(topo, algorithm, pattern, base, offered_loads);
    turnroute_sim::Executor::new(1).run(vec![job]).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mady::MadY;
    use crate::routing::SingleClass;
    use turnroute_core::{DimensionOrder, NegativeFirst};
    use turnroute_sim::patterns::{Transpose, Uniform};
    use turnroute_sim::Simulation;
    use turnroute_topology::Mesh;

    fn quiet() -> SimConfig {
        SimConfig::paper()
            .warmup_cycles(0)
            .measure_cycles(5_000)
            .deadlock_threshold(2_000)
    }

    #[test]
    fn single_packet_latency_matches_the_plain_engine() {
        let mesh = Mesh::new_2d(8, 8);
        let plain = DimensionOrder::new();
        let mut base = Simulation::new(&mesh, &plain, &Uniform, quiet());
        let src = mesh.node_at(&[0, 0].into());
        let dst = mesh.node_at(&[4, 0].into());
        let base_id = base.inject_message(src, dst, 10);
        for _ in 0..100 {
            base.step();
        }

        let vc_algo = SingleClass::new(DimensionOrder::new());
        let mut vcsim = VcSimulation::new(&mesh, &vc_algo, &Uniform, quiet());
        let vc_id = vcsim.inject_message(src, dst, 10);
        for _ in 0..100 {
            vcsim.step();
        }
        assert_eq!(
            base.packet(base_id).latency_cycles().unwrap(),
            vcsim.packets()[vc_id.index() as usize]
                .delivered_at
                .unwrap(),
        );
    }

    #[test]
    fn flit_conservation_holds() {
        let mesh = Mesh::new_2d(4, 4);
        let mady = MadY::new();
        let config = quiet().injection_rate(0.15).measure_cycles(0);
        let mut sim = VcSimulation::new(&mesh, &mady, &Uniform, config);
        for _ in 0..2_000 {
            sim.step();
            for p in sim.packets() {
                let (a, b, c) = p.flit_counts();
                assert_eq!(a + b + c, p.length);
            }
            // Ownership is consistent.
            for p in sim.packets() {
                for &vc in p.worm() {
                    assert_eq!(sim.vc_owner(vc), Some(p.id));
                }
            }
        }
    }

    #[test]
    fn physical_bandwidth_is_respected() {
        // Two worms sharing a link via different lanes must interleave:
        // together they cannot exceed one flit per cycle on the link.
        let mesh = Mesh::new_2d(8, 2);
        let mady = MadY::new();
        let mut sim = VcSimulation::new(&mesh, &mady, &Uniform, quiet());
        // Same physical column link wanted by two packets going north.
        let a = sim.inject_message(
            mesh.node_at(&[0, 0].into()),
            mesh.node_at(&[4, 1].into()),
            40,
        );
        let b = sim.inject_message(
            mesh.node_at(&[0, 1].into()),
            mesh.node_at(&[5, 1].into()),
            40,
        );
        for _ in 0..600 {
            sim.step();
        }
        assert!(sim.packets()[a.index() as usize].delivered_at.is_some());
        assert!(sim.packets()[b.index() as usize].delivered_at.is_some());
    }

    #[test]
    fn mady_never_deadlocks_under_stress() {
        let mesh = Mesh::new_2d(5, 5);
        let mady = MadY::new();
        let config = SimConfig::paper()
            .injection_rate(0.8)
            .warmup_cycles(0)
            .measure_cycles(10_000)
            .deadlock_threshold(1_500)
            .seed(13);
        let mut sim = VcSimulation::new(&mesh, &mady, &Uniform, config);
        for _ in 0..12_000 {
            assert!(sim.step().is_none(), "mad-y must not deadlock");
        }
        assert!(sim.packets().iter().any(|p| p.delivered_at.is_some()));
    }

    #[test]
    fn mady_outperforms_partially_adaptive_on_transpose() {
        // The payoff of full adaptivity: on transpose, mad-y at least
        // matches negative-first (the best channel-free algorithm) at a
        // load past xy's saturation.
        let mesh = Mesh::new_2d(8, 8);
        let config = SimConfig::paper()
            .injection_rate(0.12)
            .warmup_cycles(2_000)
            .measure_cycles(10_000)
            .seed(31);
        let mady = MadY::new();
        let mady_report = VcSimulation::new(&mesh, &mady, &Transpose, config.clone()).run();
        let nf = SingleClass::new(NegativeFirst::minimal());
        let nf_report = VcSimulation::new(&mesh, &nf, &Transpose, config).run();
        let (m, n) = (
            mady_report.metrics.throughput_flits_per_usec(),
            nf_report.metrics.throughput_flits_per_usec(),
        );
        assert!(m >= n * 0.95, "mad-y {m:.1} vs negative-first {n:.1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_2d(4, 4);
        let mady = MadY::new();
        let config = quiet().injection_rate(0.05).seed(5);
        let r1 = VcSimulation::new(&mesh, &mady, &Uniform, config.clone()).run();
        let r2 = VcSimulation::new(&mesh, &mady, &Uniform, config).run();
        assert_eq!(r1.total_delivered, r2.total_delivered);
        assert_eq!(r1.metrics.latencies, r2.metrics.latencies);
    }
}
