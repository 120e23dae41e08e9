//! The bench-side engine probe: a [`SimObserver`] that only counts,
//! the totals a traced repetition adds up from it, and the per-cycle
//! `step()` timing loop. The engine is measured from outside; nothing
//! here changes what it computes (observers are read-only by contract,
//! and the gate checks the traced report against the untraced one).

use std::time::Instant;

use turnroute::sim::{PacketId, SimObserver, Simulation};
use turnroute::topology::{ChannelId, NodeId};

use crate::output::Metrics;
use crate::stats;

/// Counts engine events; keeps no per-event state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counting {
    /// Packets whose header entered the network.
    pub injected: u64,
    /// Header hops.
    pub header_hops: u64,
    /// Channel acquisitions.
    pub acquires: u64,
    /// Requests that got nothing in a cycle.
    pub blocked: u64,
    /// Flits consumed at destinations.
    pub flits: u64,
    in_flight: u64,
    /// Most packets in the network at once.
    pub in_flight_max: u64,
}

impl SimObserver for Counting {
    fn packet_injected(&mut self, _: u64, _: PacketId, _: NodeId, _: NodeId, _: u32) {
        self.injected += 1;
        self.in_flight += 1;
        self.in_flight_max = self.in_flight_max.max(self.in_flight);
    }

    fn header_advanced(&mut self, _: u64, _: PacketId, _: NodeId, _: ChannelId) {
        self.header_hops += 1;
    }

    fn channel_acquired(&mut self, _: u64, _: PacketId, _: ChannelId) {
        self.acquires += 1;
    }

    fn packet_blocked(&mut self, _: u64, _: PacketId, _: NodeId, _: ChannelId) {
        self.blocked += 1;
    }

    fn flit_delivered(&mut self, _: u64, _: PacketId, done: bool) {
        self.flits += 1;
        if done {
            self.in_flight -= 1;
        }
    }
}

/// Engine totals over the runs of one traced repetition (one run, or
/// every emitted cell of a grid).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounts {
    cycles: u64,
    events: Counting,
    arena: u64,
    in_flight_max_sum: u64,
}

impl EngineCounts {
    /// Adds one finished run: its observer, the cycles it simulated and
    /// the length of its packet arena (`packets().len()`).
    pub fn add(&mut self, run: &Counting, cycles: u64, arena: usize) {
        self.cycles += cycles;
        self.events.injected += run.injected;
        self.events.header_hops += run.header_hops;
        self.events.acquires += run.acquires;
        self.events.blocked += run.blocked;
        self.events.flits += run.flits;
        self.events.in_flight_max = self.events.in_flight_max.max(run.in_flight_max);
        self.in_flight_max_sum += run.in_flight_max;
        self.arena += arena as u64;
    }

    /// Header hops counted.
    pub fn header_hops(&self) -> u64 {
        self.events.header_hops
    }

    /// Writes the exact `engine.*` counts. The waste ratio is arena
    /// entries kept per packet that was ever simultaneously in flight
    /// (summed per run, so a grid weighs every cell).
    pub fn write(&self, m: &mut Metrics) {
        m.set("engine.cycles", self.cycles as f64);
        m.set("engine.packets_injected", self.events.injected as f64);
        m.set("engine.header_hops", self.events.header_hops as f64);
        m.set("engine.channel_acquires", self.events.acquires as f64);
        m.set("engine.blocked_events", self.events.blocked as f64);
        m.set("engine.flits_delivered", self.events.flits as f64);
        m.set("engine.arena_packets_end", self.arena as f64);
        m.set("engine.in_flight_max", self.events.in_flight_max as f64);
        m.set(
            "engine.arena_waste_ratio",
            self.arena as f64 / self.in_flight_max_sum.max(1) as f64,
        );
    }
}

/// Calls `step` up to `cycles` times, timing each call, until it
/// reports a deadlock (`true`). Returns the times in nanoseconds,
/// ascending. Both engines' `step()` loops go through here.
pub fn step_times_ns(cycles: usize, mut step: impl FnMut() -> bool) -> Vec<f64> {
    let mut ns = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let start = Instant::now();
        let deadlocked = step();
        ns.push(start.elapsed().as_nanos() as f64);
        if deadlocked {
            break;
        }
    }
    stats::sorted(&ns)
}

/// Steps the plain engine through `cycles` cycles and writes the median
/// and 99th percentile `step()` time.
pub fn time_steps<O: SimObserver>(sim: &mut Simulation<'_, O>, cycles: usize, m: &mut Metrics) {
    let ns = step_times_ns(cycles, || sim.step().is_some());
    m.set_stat(
        "engine.step_ns_p50",
        stats::percentile_sorted(&ns, 50.0),
        ns.len(),
    );
    m.set_stat(
        "engine.step_ns_p99",
        stats::percentile_sorted(&ns, 99.0),
        ns.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute::cli::{parse_algorithm, parse_pattern, parse_topology};
    use turnroute::sim::SimConfig;

    #[test]
    fn counts_balance_and_leave_the_report_alone() {
        let topo = parse_topology("mesh:6x6").unwrap();
        let algo = parse_algorithm("west-first", topo.as_ref()).unwrap();
        let pattern = parse_pattern("uniform").unwrap();
        let cfg = SimConfig::paper()
            .injection_rate(0.05)
            .warmup_cycles(100)
            .measure_cycles(1_000)
            .seed(9);
        let plain =
            Simulation::new(topo.as_ref(), algo.as_ref(), pattern.as_ref(), cfg.clone()).run();
        let mut sim = Simulation::with_observer(
            topo.as_ref(),
            algo.as_ref(),
            pattern.as_ref(),
            cfg,
            Counting::default(),
        );
        let observed = sim.run();
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));

        let c = *sim.observer();
        assert!(c.injected > 0 && c.header_hops > 0);
        // The run drains, so everything injected was delivered.
        assert_eq!(c.in_flight, 0);
        assert_eq!(c.injected, observed.total_delivered);
        assert!(c.in_flight_max >= 1 && c.in_flight_max <= c.injected);

        let mut totals = EngineCounts::default();
        totals.add(&c, sim.cycle(), sim.packets().len());
        totals.add(&c, sim.cycle(), sim.packets().len());
        let mut m = Metrics::default();
        totals.write(&mut m);
        assert_eq!(
            m.get("engine.header_hops").unwrap().value,
            2.0 * c.header_hops as f64
        );
        assert_eq!(
            m.get("engine.in_flight_max").unwrap().value,
            c.in_flight_max as f64
        );
        assert_eq!(
            m.get("engine.arena_waste_ratio").unwrap().value,
            sim.packets().len() as f64 / c.in_flight_max as f64
        );
    }
}
