//! A wormhole engine with virtual channels: buffered lanes per physical
//! link, with the link's bandwidth multiplexed among them cycle by
//! cycle.
//!
//! Semantics mirror `turnroute_sim::Simulation` (same config, traffic,
//! metrics and watchdog); the differences are exactly the two things
//! virtual channels add: a header is granted a *lane*, and a worm
//! advances only when every physical link a flit of its would cross
//! this cycle still has bandwidth left. With one lane everywhere the
//! two engines produce the same `SimReport`, which
//! `single_class_engines_agree` (`tests/proptests.rs`) checks field for
//! field from idle to saturated loads.
//!
//! A cycle costs what can move, not what exists (DESIGN.md "Hot path"):
//! waiting sources come from a ready bitset, a header whose permitted
//! lanes are all owned is parked until its router releases one, and a
//! message holds a [`VcPacket`] slot only from its first lane to its
//! delivery, so the arena is as large as the most worms ever in flight.

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

/// Identifies a message in a [`VcSimulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VcPacketId(u64);

impl VcPacketId {
    /// The dense creation-order index.
    pub fn index(self) -> u64 {
        self.0
    }
}

/// A message waiting in its source queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    seq: u64,
    dst: NodeId,
    length: u32,
    created_at: u64,
}

/// One slot of the in-flight arena: a message and its worm over virtual
/// channels, from its first lane to its delivery. After that the slot is
/// not [live](VcPacket::is_live) and is reused, worm buffer included.
#[derive(Debug, Clone, Default)]
pub struct VcPacket {
    /// This message's id.
    pub id: VcPacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub length: u32,
    /// Creation cycle.
    pub created_at: u64,
    /// Injection cycle.
    pub injected_at: u64,
    worm: VecDeque<VirtualChannelId>,
    flits_at_source: u32,
    flits_consumed: u32,
    head_node: NodeId,
    arrived: Option<VirtualDirection>,
    head_arrival: u64,
    hops: u32,
    /// Blocked stamp: `cycle + 1` of the arbitration that last found
    /// every permitted lane owned (0 = never). The header is parked while
    /// the stamp is newer than its router's `released_epoch`.
    blocked: u64,
}

impl VcPacket {
    /// `true` from the first lane until the last flit is consumed.
    pub fn is_live(&self) -> bool {
        self.flits_consumed < self.length
    }

    /// The lanes currently occupied, tail first.
    pub fn worm(&self) -> impl Iterator<Item = VirtualChannelId> + '_ {
        self.worm.iter().copied()
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

/// A lane as a move sees it, by lane id: saves `VcTable::decompose` and
/// two `dyn Topology` calls per flit (16 % of `vc_grid` throughput).
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// The physical link whose bandwidth the lane shares.
    link: u32,
    src: NodeId,
    dst: NodeId,
    vdir: VirtualDirection,
}

/// Who asks for a lane or moves: a worm in a slot, or the head of a
/// node's source queue (which has no slot yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Who {
    Slot(u32),
    Source(u32),
}

/// A requester under its FCFS key `(head arrival, creation seq)`: the
/// key is unique, so sorting the tuples orders by it alone.
type Requester = (u64, u64, Who);
/// A mover likewise: into the lane it was granted, or (`None`) consuming.
type Mover = (u64, u64, Who, Option<VirtualChannelId>);

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
    lanes: Vec<Lane>,
    pattern: &'a dyn TrafficPattern,
    config: SimConfig,
    rng: StdRng,
    source: TrafficSource,
    cycle: u64,
    /// The in-flight arena; `free` lists the slots that are not live.
    slots: Vec<VcPacket>,
    free: Vec<u32>,
    /// Live slots whose header sits at its destination.
    at_dest: Vec<u32>,
    queues: Vec<VecDeque<Queued>>,
    queued_total: usize,
    /// One bit per node, set while its source queue is non-empty.
    queue_nonempty: Vec<u64>,
    /// One bit per node, set while a worm is still leaving its source.
    injecting: Vec<u64>,
    /// Blocked stamp of each node's queue head (see [`VcPacket`]). Never
    /// cleared: a head that is granted was not parked, so the stamp it
    /// leaves its successor is already older than the router's release.
    head_blocked: Vec<u64>,
    ejecting: Vec<Option<u32>>,
    vc_owner: Vec<Option<u32>>,
    /// Release stamp per router: `cycle + 1` of the last cycle a lane
    /// leaving it was freed. A header's candidates all leave its head
    /// router and lanes change hands only in the advance phase, so a
    /// parked header can gain nothing before this stamp catches up.
    released_epoch: Vec<u64>,
    /// Per lane / per link: `cycle + 1` if granted / used this cycle.
    granted: Vec<u64>,
    link_used: Vec<u64>,
    requesters: Vec<Requester>,
    movers: Vec<Mover>,
    new_messages: Vec<(NodeId, u32)>,
    requesters_evaluated: u64,
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
        let lanes: Vec<Lane> = (table.iter(topo).into_iter())
            .map(|(ch, class)| {
                let c = topo.channel(ch);
                let vdir = VirtualDirection::new(c.dir, class);
                Lane {
                    link: ch.index() as u32,
                    src: c.src,
                    dst: c.dst,
                    vdir,
                }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let nodes = topo.num_nodes();
        let source = TrafficSource::for_config(nodes, &config, &mut rng);
        VcSimulation {
            topo,
            algo,
            pattern,
            config,
            rng,
            source,
            cycle: 0,
            slots: Vec::new(),
            free: Vec::new(),
            at_dest: Vec::new(),
            queues: vec![VecDeque::new(); nodes],
            queued_total: 0,
            queue_nonempty: vec![0; nodes.div_ceil(64)],
            injecting: vec![0; nodes.div_ceil(64)],
            head_blocked: vec![0; nodes],
            ejecting: vec![None; nodes],
            vc_owner: vec![None; lanes.len()],
            released_epoch: vec![0; nodes],
            granted: vec![0; lanes.len()],
            link_used: vec![0; topo.num_channels()],
            requesters: Vec::new(),
            movers: Vec::new(),
            new_messages: Vec::new(),
            requesters_evaluated: 0,
            last_progress: 0,
            generation_enabled: true,
            metrics: MetricsCollector::default(),
            total_delivered: 0,
            total_generated: 0,
            table,
            lanes,
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

    /// The in-flight arena, free slots included; its length is the most
    /// worms that were ever in the network at once.
    pub fn slots(&self) -> &[VcPacket] {
        &self.slots
    }

    /// The slot whose worm occupies a lane, if any.
    pub fn vc_owner(&self, vc: VirtualChannelId) -> Option<usize> {
        self.vc_owner[vc.index()].map(|s| s as usize)
    }

    /// Messages delivered so far.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Requesters arbitration has routed and tested so far: a
    /// deterministic work counter, as on the plain `Simulation`.
    pub fn requesters_evaluated(&self) -> u64 {
        self.requesters_evaluated
    }

    /// Enqueues a hand-crafted message.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `length == 0`.
    pub fn inject_message(&mut self, src: NodeId, dst: NodeId, length: u32) -> VcPacketId {
        assert_ne!(src, dst, "self-addressed packets are consumed locally");
        assert!(length > 0, "packets have at least one flit");
        let seq = self.total_generated;
        self.queues[src.index()].push_back(Queued {
            seq,
            dst,
            length,
            created_at: self.cycle,
        });
        self.queued_total += 1;
        self.queue_nonempty[src.index() >> 6] |= 1 << (src.index() & 63);
        self.total_generated += 1;
        if self.in_window() {
            self.metrics.messages_generated += 1;
            self.metrics.flits_generated += length as u64;
        }
        VcPacketId(seq)
    }

    fn in_window(&self) -> bool {
        self.cycle >= self.metrics.window_start && self.cycle < self.metrics.window_end
    }

    fn generate(&mut self) {
        if !self.generation_enabled {
            return;
        }
        // Detached so `inject_message` can borrow `self`.
        let mut messages = std::mem::take(&mut self.new_messages);
        messages.clear();
        self.source
            .poll_due(self.cycle, &mut self.rng, |node, len| {
                messages.push((NodeId::new(node), len));
            });
        for &(src, len) in &messages {
            if let Some(dst) = self.pattern.dest(self.topo, src, &mut self.rng) {
                self.inject_message(src, dst, len);
            }
        }
        self.new_messages = messages;
    }

    /// The cycle's requesters in FCFS order: headers in the network and
    /// not yet at their destination, and the queue head of every node
    /// whose injection channel is idle — parked ones left out.
    fn collect_requesters(&self, out: &mut Vec<Requester>) {
        out.clear();
        for (s, p) in self.slots.iter().enumerate() {
            if p.is_live()
                && p.head_node != p.dst
                && p.blocked <= self.released_epoch[p.head_node.index()]
            {
                out.push((p.head_arrival, p.id.0, Who::Slot(s as u32)));
            }
        }
        for (word, (&waiting, &injecting)) in
            self.queue_nonempty.iter().zip(&self.injecting).enumerate()
        {
            let mut bits = waiting & !injecting;
            while bits != 0 {
                let node = (word << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.head_blocked[node] <= self.released_epoch[node] {
                    let head = &self.queues[node][0];
                    out.push((head.created_at, head.seq, Who::Source(node as u32)));
                }
            }
        }
        out.sort_unstable();
    }

    /// Arbitration: each requester, in FCFS order, is granted its first
    /// permitted lane that is unowned and not yet granted this cycle.
    /// One with no unowned lane at all is parked; one that only lost
    /// its free lanes to earlier requesters is not, since a winner's
    /// move can still fail and leave the lane free.
    fn arbitrate(&mut self, requesters: &[Requester], grants: &mut Vec<Mover>) {
        let epoch = self.cycle + 1;
        self.requesters_evaluated += requesters.len() as u64;
        for &(arrival, seq, who) in requesters {
            let (head, dst, arrived) = match who {
                Who::Slot(s) => {
                    let p = &self.slots[s as usize];
                    (p.head_node, p.dst, p.arrived)
                }
                Who::Source(node) => {
                    let head = NodeId::new(node as usize);
                    (head, self.queues[node as usize][0].dst, None)
                }
            };
            let permitted = self
                .algo
                .route_vc(self.topo, &self.table, head, dst, arrived);
            let mut all_owned = true;
            for vc in permitted
                .iter()
                .filter_map(|v| self.table.vc_from(self.topo, head, v))
            {
                if self.vc_owner[vc.index()].is_some() {
                    continue;
                }
                all_owned = false;
                if self.granted[vc.index()] != epoch {
                    self.granted[vc.index()] = epoch;
                    grants.push((arrival, seq, who, Some(vc)));
                    break;
                }
            }
            if all_owned {
                match who {
                    Who::Slot(s) => self.slots[s as usize].blocked = epoch,
                    Who::Source(node) => self.head_blocked[node as usize] = epoch,
                }
            }
        }
    }

    /// One simulation cycle. Returns a report if the watchdog fired.
    pub fn step(&mut self) -> Option<DeadlockReport> {
        self.generate();

        let mut requesters = std::mem::take(&mut self.requesters);
        let mut movers = std::mem::take(&mut self.movers);
        movers.clear();
        self.collect_requesters(&mut requesters);
        self.arbitrate(&requesters, &mut movers);

        // Advance: consuming worms and granted headers compete for
        // physical link bandwidth (one flit per link per cycle), FCFS.
        movers.extend(self.at_dest.iter().map(|&s| {
            let p = &self.slots[s as usize];
            (p.head_arrival, p.id.0, Who::Slot(s), None)
        }));
        movers.sort_unstable();
        let mut progressed = false;
        for &(_, _, who, new_vc) in &movers {
            progressed |= self.try_move(who, new_vc);
        }
        self.requesters = requesters;
        self.movers = movers;

        if self.in_window() && self.cycle.is_multiple_of(256) {
            self.metrics.queue_samples.push(self.queued_total);
        }
        let live = self.slots.len() - self.free.len();
        if progressed || live == 0 {
            self.last_progress = self.cycle;
        }
        self.cycle += 1;
        if live > 0 && self.cycle - self.last_progress >= self.config.deadlock_threshold {
            return Some(DeadlockReport {
                cycle: Vec::new(),
                stranded: Vec::new(),
                detected_at: self.cycle,
                blocked_packets: live,
            });
        }
        None
    }

    /// Attempts to move a worm one step (into `new_vc`, or consuming at
    /// the destination when `None`). Fails without side effects if any
    /// needed link's bandwidth is already spent this cycle.
    fn try_move(&mut self, who: Who, new_vc: Option<VirtualChannelId>) -> bool {
        let epoch = self.cycle + 1;
        // Links that receive a flit: the new head lane (if any), every
        // occupied lane except the tail, and the tail lane too when a
        // fresh flit enters from the source. One pass checks them, a
        // second spends them.
        let head_link = new_vc.map(|vc| self.lanes[vc.index()].link as usize);
        if head_link.is_some_and(|l| self.link_used[l] == epoch) {
            return false;
        }
        if let Who::Slot(s) = who {
            let p = &self.slots[s as usize];
            // Consuming: the single ejection channel must be ours.
            let holder = self.ejecting[p.dst.index()];
            if new_vc.is_none() && holder.is_some_and(|h| h != s) {
                return false;
            }
            let skip_tail = usize::from(p.flits_at_source == 0);
            let lanes = &self.lanes;
            let links =
                || (p.worm.iter().skip(skip_tail)).map(|vc| lanes[vc.index()].link as usize);
            if links().any(|l| self.link_used[l] == epoch) {
                return false;
            }
            for l in links() {
                self.link_used[l] = epoch;
            }
        }
        if let Some(link) = head_link {
            self.link_used[link] = epoch;
        }
        match (who, new_vc) {
            (_, Some(vc)) => self.take_lane(who, vc),
            (Who::Slot(s), None) => self.consume_one_flit(s as usize),
            (Who::Source(_), None) => unreachable!("a queued message has no flit to consume"),
        }
        true
    }

    /// Moves the head of `node`'s source queue into a slot, ready for
    /// its first lane.
    fn start_worm(&mut self, node: usize) -> usize {
        let message = self.queues[node].pop_front().expect("granted a queue head");
        self.queued_total -= 1;
        if self.queues[node].is_empty() {
            self.queue_nonempty[node >> 6] &= !(1 << (node & 63));
        }
        self.injecting[node >> 6] |= 1 << (node & 63);
        let s = self.free.pop().map_or(self.slots.len(), |s| s as usize);
        if s == self.slots.len() {
            self.slots.push(VcPacket::default());
        }
        let p = &mut self.slots[s];
        debug_assert!(!p.is_live() && p.worm.is_empty());
        *p = VcPacket {
            id: VcPacketId(message.seq),
            src: NodeId::new(node),
            dst: message.dst,
            length: message.length,
            created_at: message.created_at,
            injected_at: self.cycle,
            worm: std::mem::take(&mut p.worm),
            flits_at_source: message.length,
            head_node: NodeId::new(node),
            ..VcPacket::default()
        };
        s
    }

    fn take_lane(&mut self, who: Who, vc: VirtualChannelId) {
        let lane = self.lanes[vc.index()];
        let s = match who {
            Who::Slot(s) => s as usize,
            Who::Source(node) => self.start_worm(node as usize),
        };
        self.vc_owner[vc.index()] = Some(s as u32);
        let p = &mut self.slots[s];
        p.worm.push_back(vc);
        p.head_node = lane.dst;
        p.arrived = Some(lane.vdir);
        p.head_arrival = self.cycle + 1;
        p.hops += 1;
        p.blocked = 0;
        if lane.dst == p.dst {
            self.at_dest.push(s as u32);
        }
        self.shift_tail(s);
    }

    fn consume_one_flit(&mut self, s: usize) {
        if self.in_window() {
            self.metrics.flits_delivered += 1;
        }
        let p = &mut self.slots[s];
        let node = p.dst.index();
        self.ejecting[node] = Some(s as u32);
        p.flits_consumed += 1;
        let done = !p.is_live();
        self.shift_tail(s);
        if done {
            let p = &self.slots[s];
            debug_assert!(p.worm.is_empty());
            self.ejecting[node] = None;
            self.total_delivered += 1;
            if p.created_at >= self.metrics.window_start && p.created_at < self.metrics.window_end {
                self.metrics.latencies.record(self.cycle - p.created_at);
                self.metrics
                    .network_latencies
                    .record(self.cycle - p.injected_at);
                self.metrics.hop_counts.push(p.hops);
            }
            self.at_dest.retain(|&q| q as usize != s);
            self.free.push(s as u32);
        }
    }

    /// After the head moved one step, feed the tail: a fresh flit
    /// enters from the source, or the tail lane drains and is released.
    fn shift_tail(&mut self, s: usize) {
        let p = &mut self.slots[s];
        if p.flits_at_source > 0 {
            p.flits_at_source -= 1;
            if p.flits_at_source == 0 {
                self.injecting[p.src.index() >> 6] &= !(1 << (p.src.index() & 63));
            }
        } else if let Some(tail) = p.worm.pop_front() {
            self.vc_owner[tail.index()] = None;
            self.released_epoch[self.lanes[tail.index()].src.index()] = self.cycle + 1;
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
            let idle = self.free.len() == self.slots.len() && self.queued_total == 0;
            if self.cycle > self.metrics.window_end && idle {
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
    use crate::dateline::DatelineDimensionOrder;
    use crate::mady::MadY;
    use crate::routing::SingleClass;
    use turnroute_core::{DimensionOrder, NegativeFirst};
    use turnroute_sim::obs::DeliveryLog;
    use turnroute_sim::patterns::{Transpose, Uniform};
    use turnroute_sim::Simulation;
    use turnroute_topology::{Mesh, Torus};

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
        let mut base =
            Simulation::with_observer(&mesh, &plain, &Uniform, quiet(), DeliveryLog::default());
        let src = mesh.node_at(&[0, 0].into());
        let dst = mesh.node_at(&[4, 0].into());
        let base_id = base.inject_message(src, dst, 10);
        for _ in 0..100 {
            base.step();
        }

        let vc_algo = SingleClass::new(DimensionOrder::new());
        let mut vcsim = VcSimulation::new(&mesh, &vc_algo, &Uniform, quiet());
        vcsim.inject_message(src, dst, 10);
        while vcsim.total_delivered() == 0 {
            assert!(vcsim.cycle() < 100);
            vcsim.step();
        }
        // Delivered during the step that just ended.
        assert_eq!(
            base.observer()
                .get(base_id)
                .unwrap()
                .latency_cycles()
                .unwrap(),
            vcsim.cycle() - 1
        );
    }

    /// Everything the slot model and the parking rule promise, checked
    /// on the state between two cycles.
    fn assert_invariants(sim: &VcSimulation<'_>) {
        // Flit conservation; a worm owns exactly its lanes; a free slot
        // holds nothing.
        let mut lanes_in_worms = 0;
        for (s, p) in sim.slots.iter().enumerate() {
            let (at_source, in_network, consumed) = p.flit_counts();
            if p.is_live() {
                assert_eq!(at_source + in_network + consumed, p.length);
                assert!(in_network > 0, "a live worm holds its header's lane");
            } else {
                assert_eq!(in_network, 0, "free slot {s} still holds lanes");
                assert!(sim.free.contains(&(s as u32)));
            }
            for vc in p.worm() {
                assert_eq!(sim.vc_owner(vc), Some(s));
            }
            lanes_in_worms += in_network as usize;
            let at_dest = p.is_live() && p.head_node == p.dst;
            assert_eq!(sim.at_dest.contains(&(s as u32)), at_dest);
        }
        let owned = sim.vc_owner.iter().flatten().count();
        assert_eq!(owned, lanes_in_worms, "a lane is owned outside any worm");

        // The ready set and the queued count mirror the queues.
        let mut queued = 0;
        for (node, queue) in sim.queues.iter().enumerate() {
            let bit = sim.queue_nonempty[node >> 6] >> (node & 63) & 1 == 1;
            assert_eq!(bit, !queue.is_empty());
            queued += queue.len();
        }
        assert_eq!(queued, sim.queued_total);

        // Parking soundness: whatever the next collection will skip has
        // no unowned permitted lane.
        let has_unowned_lane = |head: NodeId, dst, arrived| {
            (sim.algo
                .route_vc(sim.topo, &sim.table, head, dst, arrived)
                .iter())
            .filter_map(|v| sim.table.vc_from(sim.topo, head, v))
            .any(|vc| sim.vc_owner(vc).is_none())
        };
        for p in sim
            .slots
            .iter()
            .filter(|p| p.is_live() && p.head_node != p.dst)
        {
            if p.blocked > sim.released_epoch[p.head_node.index()] {
                assert!(!has_unowned_lane(p.head_node, p.dst, p.arrived));
            }
        }
        for (node, queue) in sim.queues.iter().enumerate() {
            let parked = sim.head_blocked[node] > sim.released_epoch[node];
            if let Some(head) = queue.front().filter(|_| parked) {
                assert!(!has_unowned_lane(NodeId::new(node), head.dst, None));
            }
        }
    }

    /// Steps a saturated network, checking every invariant every cycle;
    /// then drains it. Returns the simulation for further checks.
    fn saturate_and_drain<'a>(
        topo: &'a dyn Topology,
        algo: &'a dyn VcRoutingAlgorithm,
        pattern: &'a dyn TrafficPattern,
    ) -> VcSimulation<'a> {
        let config = quiet().injection_rate(0.6).measure_cycles(0).seed(17);
        let mut sim = VcSimulation::new(topo, algo, pattern, config);
        let mut slots_early = 0;
        for cycle in 0..6_000 {
            assert!(sim.step().is_none());
            assert_invariants(&sim);
            if cycle == 1_500 {
                slots_early = sim.slots().len();
            }
        }
        // Slots are reused, not appended: the arena is a high-water mark
        // that all but stopped rising long ago, holds at most one worm
        // per lane, and has carried many times its size in messages.
        assert!(sim.slots().len() <= slots_early + slots_early / 4);
        assert!(sim.slots().len() <= sim.table.num_virtual_channels());
        assert!(sim.total_delivered() > 10 * sim.slots().len() as u64);
        assert!(sim.queued_total > 0, "not saturated");

        sim.generation_enabled = false;
        while sim.queued_total > 0 || sim.free.len() < sim.slots.len() {
            assert!(sim.step().is_none());
            assert_invariants(&sim);
        }
        assert_eq!(sim.total_delivered(), sim.total_generated);
        assert!(sim.vc_owner.iter().all(Option::is_none));
        assert!(sim.at_dest.is_empty());
        sim
    }

    #[test]
    fn invariants_hold_through_saturation_and_drain() {
        let (mesh, mady) = (Mesh::new_2d(4, 4), MadY::new());
        let sim = saturate_and_drain(&mesh, &mady, &Uniform);
        // Parking did engage: far fewer evaluations than a requester per
        // node per cycle.
        assert!(sim.requesters_evaluated() < sim.cycle() * 16 / 2);
        let torus = Torus::new(4, 2);
        saturate_and_drain(&torus, &DatelineDimensionOrder::new(), &Uniform);
        saturate_and_drain(&mesh, &mady, &Transpose);
    }

    #[test]
    fn physical_bandwidth_is_respected() {
        // Two worms sharing a link via different lanes must interleave:
        // together they cannot exceed one flit per cycle on the link.
        let mesh = Mesh::new_2d(8, 2);
        let mady = MadY::new();
        let mut sim = VcSimulation::new(&mesh, &mady, &Uniform, quiet());
        // Same physical column link wanted by two packets going north.
        sim.inject_message(
            mesh.node_at(&[0, 0].into()),
            mesh.node_at(&[4, 1].into()),
            40,
        );
        sim.inject_message(
            mesh.node_at(&[0, 1].into()),
            mesh.node_at(&[5, 1].into()),
            40,
        );
        for _ in 0..600 {
            sim.step();
        }
        assert_eq!(sim.total_delivered(), 2);
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
        assert!(sim.total_delivered() > 0);
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
