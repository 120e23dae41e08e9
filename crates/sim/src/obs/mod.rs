//! The event-probe layer: fine-grained simulation observers.
//!
//! [`SimObserver`] is a set of hooks the engine invokes at every
//! interesting micro-event — injection, header movement, turns, channel
//! acquisition and release, blocking, delivery, watchdog firings. A
//! simulation is generic over its observer and defaults to
//! [`NoopObserver`], whose empty `#[inline]` hooks monomorphize away:
//! the uninstrumented hot path compiles to exactly the code it had
//! before this layer existed.
//!
//! Observers are **strictly read-only and RNG-free**: every hook takes
//! only copies of engine state, never a handle back into the
//! simulation, and the engine consumes no randomness on behalf of an
//! observer. Attaching any combination of observers therefore cannot
//! change simulation results — sweep output bytes are identical with
//! observers present or absent (enforced by integration test).
//!
//! Hook arguments that are expensive to compute (e.g. *which* channel a
//! blocked header wanted, which requires a topology query off the hot
//! path) are gated on [`SimObserver::ENABLED`], a compile-time constant
//! that is `false` for [`NoopObserver`], so even the argument
//! computation vanishes from uninstrumented builds.
//!
//! Ship-with observers:
//!
//! * [`TurnUsageObserver`] — per direction-pair turn counts, checked
//!   against a [`TurnSet`](turnroute_core::TurnSet) so a prohibited
//!   turn taken at runtime is a hard assertion failure;
//! * [`ChannelActivityObserver`] — per-channel occupancy and
//!   blocked-cycle heatmaps;
//! * [`FlitTraceObserver`] — flit-level event capture written out as
//!   Chrome trace-event JSON (loads directly in Perfetto);
//! * [`DeliveryLog`] — a copy of every delivered packet, for callers
//!   that want the per-message history the engine does not keep.
//!
//! Compose observers with tuples: `(TurnUsageObserver, FlitTraceObserver)`
//! implements [`SimObserver`] and forwards every hook to both.

mod channels;
mod faults;
mod trace;
mod turns;

pub use channels::ChannelActivityObserver;
pub use faults::FaultObserver;
pub use trace::FlitTraceObserver;
pub use turns::TurnUsageObserver;

use crate::deadlock::DeadlockReport;
use crate::packet::{Packet, PacketId};
use turnroute_topology::{ChannelId, Direction, NodeId};

/// Hooks invoked by the simulation engine at each micro-event.
///
/// All hooks default to empty bodies, so an observer implements only
/// the events it cares about. Implementations must not panic on normal
/// traffic (the one deliberate exception: [`TurnUsageObserver`] asserts
/// that no prohibited turn is ever taken) and must not depend on any
/// randomness of their own — determinism of the simulation with
/// observers attached is part of the layer's contract.
pub trait SimObserver {
    /// `true` if this observer needs the per-requester stream: one
    /// [`packet_blocked`](SimObserver::packet_blocked) per blocked
    /// header per cycle, whose `wanted_channel` argument costs a
    /// topology query. Feeding it makes arbitration visit every blocked
    /// header every cycle instead of parking it, and rules out sharding.
    /// An observer that sets this to `false` (as [`NoopObserver`] and
    /// [`DeliveryLog`] do) still receives every other hook, and the run
    /// costs what an unobserved one does; since it is an associated
    /// constant, the check folds away at compile time.
    const ENABLED: bool = true;

    /// A packet left its source queue and entered the network (its
    /// header acquired the injection channel).
    fn packet_injected(
        &mut self,
        _cycle: u64,
        _packet: PacketId,
        _src: NodeId,
        _dst: NodeId,
        _length: u32,
    ) {
    }

    /// A header moved one hop: it now sits at `to`, having crossed
    /// `via`.
    fn header_advanced(&mut self, _cycle: u64, _packet: PacketId, _to: NodeId, _via: ChannelId) {}

    /// A header changed or kept direction at router `at`: it arrived
    /// travelling `from_dir` and departed travelling `to_dir`
    /// (`from_dir == to_dir` is straight travel, the 0-degree turn).
    /// Not fired for the first hop out of the source, which has no
    /// arrival direction.
    fn turn_taken(
        &mut self,
        _cycle: u64,
        _packet: PacketId,
        _at: NodeId,
        _from_dir: Direction,
        _to_dir: Direction,
    ) {
    }

    /// `packet`'s header acquired `channel` (one flit per channel, so
    /// the worm occupies it until the tail drains).
    fn channel_acquired(&mut self, _cycle: u64, _packet: PacketId, _channel: ChannelId) {}

    /// `packet`'s tail drained out of `channel`, releasing it.
    fn channel_released(&mut self, _cycle: u64, _packet: PacketId, _channel: ChannelId) {}

    /// `packet`'s header requested a move at router `at` this cycle and
    /// got nothing: `wanted_channel` is the channel it would have
    /// preferred (busy, faulty, or granted to a higher-priority header).
    fn packet_blocked(
        &mut self,
        _cycle: u64,
        _packet: PacketId,
        _at: NodeId,
        _wanted_channel: ChannelId,
    ) {
    }

    /// The destination consumed one flit of `packet`; `done` marks the
    /// tail flit (the packet is now fully delivered).
    fn flit_delivered(&mut self, _cycle: u64, _packet: PacketId, _done: bool) {}

    /// `packet`'s tail flit was consumed at `cycle` (right after its
    /// last [`flit_delivered`](SimObserver::flit_delivered)). This is
    /// the last anyone sees of it: the engine keeps no delivered
    /// history, and the storage behind `packet` is reused by a later
    /// injection, so an observer that wants the record clones it here.
    fn packet_delivered(&mut self, _cycle: u64, _packet: &Packet) {}

    /// The deadlock watchdog fired and produced `report`.
    fn watchdog_fired(&mut self, _cycle: u64, _report: &DeadlockReport) {}

    /// A scheduled fault took `channel` out of service at the start of
    /// `cycle`. Fired only for fault-plan events, not for manual
    /// [`fail_channel`](crate::Simulation::fail_channel) calls.
    fn channel_failed(&mut self, _cycle: u64, _channel: ChannelId) {}

    /// A scheduled repair returned `channel` to service at the start of
    /// `cycle`.
    fn channel_repaired(&mut self, _cycle: u64, _channel: ChannelId) {}
}

/// The default observer: observes nothing. Every hook is an empty
/// `#[inline]` body and [`SimObserver::ENABLED`] is `false`, so a
/// `Simulation<NoopObserver>` compiles to the same machine code as an
/// unobserved engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Keeps a copy of every delivered packet, in delivery order — the
/// per-message history the engine itself no longer holds. O(messages
/// delivered), so it is for tests, examples and short diagnostic runs,
/// not for sweeps. Not [`ENABLED`](SimObserver::ENABLED): attaching it
/// leaves parking and sharding on.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    delivered: Vec<Packet>,
}

impl DeliveryLog {
    /// The delivered packets so far, in delivery order.
    pub fn delivered(&self) -> &[Packet] {
        &self.delivered
    }

    /// The delivered packet with the given id, if it has been.
    pub fn get(&self, id: PacketId) -> Option<&Packet> {
        self.delivered.iter().find(|p| p.id == id)
    }
}

impl SimObserver for DeliveryLog {
    const ENABLED: bool = false;

    fn packet_delivered(&mut self, _cycle: u64, packet: &Packet) {
        self.delivered.push(packet.clone());
    }
}

/// Forwarding impl so a simulation can borrow an observer owned by the
/// caller (e.g. reuse one collector across runs).
impl<O: SimObserver> SimObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn packet_injected(
        &mut self,
        cycle: u64,
        packet: PacketId,
        src: NodeId,
        dst: NodeId,
        len: u32,
    ) {
        (**self).packet_injected(cycle, packet, src, dst, len);
    }
    fn header_advanced(&mut self, cycle: u64, packet: PacketId, to: NodeId, via: ChannelId) {
        (**self).header_advanced(cycle, packet, to, via);
    }
    fn turn_taken(&mut self, cycle: u64, packet: PacketId, at: NodeId, f: Direction, t: Direction) {
        (**self).turn_taken(cycle, packet, at, f, t);
    }
    fn channel_acquired(&mut self, cycle: u64, packet: PacketId, channel: ChannelId) {
        (**self).channel_acquired(cycle, packet, channel);
    }
    fn channel_released(&mut self, cycle: u64, packet: PacketId, channel: ChannelId) {
        (**self).channel_released(cycle, packet, channel);
    }
    fn packet_blocked(&mut self, cycle: u64, packet: PacketId, at: NodeId, wanted: ChannelId) {
        (**self).packet_blocked(cycle, packet, at, wanted);
    }
    fn flit_delivered(&mut self, cycle: u64, packet: PacketId, done: bool) {
        (**self).flit_delivered(cycle, packet, done);
    }
    fn packet_delivered(&mut self, cycle: u64, packet: &Packet) {
        (**self).packet_delivered(cycle, packet);
    }
    fn watchdog_fired(&mut self, cycle: u64, report: &DeadlockReport) {
        (**self).watchdog_fired(cycle, report);
    }
    fn channel_failed(&mut self, cycle: u64, channel: ChannelId) {
        (**self).channel_failed(cycle, channel);
    }
    fn channel_repaired(&mut self, cycle: u64, channel: ChannelId) {
        (**self).channel_repaired(cycle, channel);
    }
}

/// Pairwise composition: `(A, B)` forwards every hook to `A` then `B`.
/// Nest tuples for more: `(A, (B, C))`.
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn packet_injected(
        &mut self,
        cycle: u64,
        packet: PacketId,
        src: NodeId,
        dst: NodeId,
        len: u32,
    ) {
        self.0.packet_injected(cycle, packet, src, dst, len);
        self.1.packet_injected(cycle, packet, src, dst, len);
    }
    fn header_advanced(&mut self, cycle: u64, packet: PacketId, to: NodeId, via: ChannelId) {
        self.0.header_advanced(cycle, packet, to, via);
        self.1.header_advanced(cycle, packet, to, via);
    }
    fn turn_taken(&mut self, cycle: u64, packet: PacketId, at: NodeId, f: Direction, t: Direction) {
        self.0.turn_taken(cycle, packet, at, f, t);
        self.1.turn_taken(cycle, packet, at, f, t);
    }
    fn channel_acquired(&mut self, cycle: u64, packet: PacketId, channel: ChannelId) {
        self.0.channel_acquired(cycle, packet, channel);
        self.1.channel_acquired(cycle, packet, channel);
    }
    fn channel_released(&mut self, cycle: u64, packet: PacketId, channel: ChannelId) {
        self.0.channel_released(cycle, packet, channel);
        self.1.channel_released(cycle, packet, channel);
    }
    fn packet_blocked(&mut self, cycle: u64, packet: PacketId, at: NodeId, wanted: ChannelId) {
        self.0.packet_blocked(cycle, packet, at, wanted);
        self.1.packet_blocked(cycle, packet, at, wanted);
    }
    fn flit_delivered(&mut self, cycle: u64, packet: PacketId, done: bool) {
        self.0.flit_delivered(cycle, packet, done);
        self.1.flit_delivered(cycle, packet, done);
    }
    fn packet_delivered(&mut self, cycle: u64, packet: &Packet) {
        self.0.packet_delivered(cycle, packet);
        self.1.packet_delivered(cycle, packet);
    }
    fn watchdog_fired(&mut self, cycle: u64, report: &DeadlockReport) {
        self.0.watchdog_fired(cycle, report);
        self.1.watchdog_fired(cycle, report);
    }
    fn channel_failed(&mut self, cycle: u64, channel: ChannelId) {
        self.0.channel_failed(cycle, channel);
        self.1.channel_failed(cycle, channel);
    }
    fn channel_repaired(&mut self, cycle: u64, channel: ChannelId) {
        self.0.channel_repaired(cycle, channel);
        self.1.channel_repaired(cycle, channel);
    }
}
