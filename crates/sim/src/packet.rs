//! Messages, packets and in-flight worm state.

use turnroute_topology::{ChannelId, Direction, NodeId};

/// Identifies a message across the simulation: its creation sequence
/// number (the n-th message generated or hand-injected is `n`). Stable
/// for the whole run and carried by every observer event, deadlock
/// report and trace — but **not an index** into anything: storage is a
/// recycled slot arena (see [`Simulation::packets`]), and the id
/// outlives the slot.
///
/// [`Simulation::packets`]: crate::Simulation::packets
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub(crate) u64);

impl PacketId {
    /// The creation sequence number.
    pub fn index(self) -> u64 {
        self.0
    }
}

/// Where a worm is in its lifecycle. A message waiting in its source
/// queue is not a [`Packet`] yet: it becomes one when its header is
/// granted its first channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketState {
    /// Streaming flits into / through the network.
    InFlight,
    /// Every flit consumed at the destination.
    Delivered,
}

/// A message waiting in its source queue: all the engine needs until
/// the header is granted its first channel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// Creation sequence number (the future [`PacketId`]).
    pub(crate) seq: u64,
    pub(crate) dst: NodeId,
    pub(crate) length: u32,
    pub(crate) created_at: u64,
}

/// A message (one packet, as in the paper's Section 6) from its first
/// channel to its delivery, and its worm: the contiguous chain of
/// channels its flits occupy, one flit per channel.
///
/// With single-flit input buffers, a wormhole packet's flits advance in
/// lockstep: when the head moves one hop, every flit behind it shifts one
/// channel and a new flit (if any remain) enters at the tail. The worm
/// is therefore fully described by the occupied-channel chain plus the
/// counts of flits still at the source and already consumed.
#[derive(Debug, Clone)]
pub struct Packet {
    /// This packet's id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total length in flits.
    pub length: u32,
    /// Cycle the message was created (entered the source queue).
    pub created_at: u64,
    /// Cycle the header entered the network.
    pub injected_at: u64,
    /// Cycle the tail flit was consumed, if delivered.
    pub delivered_at: Option<u64>,
    /// Channels the header has taken, in order. The occupied chain is
    /// `worm[worm_head..]` (tail first, head last), each holding exactly
    /// one flit; drained channels stay in the prefix so releasing the
    /// tail is a cursor bump, not a `Vec::remove(0)` shift. Emptied on
    /// delivery; the buffer goes to the slot's next occupant.
    pub(crate) worm: Vec<ChannelId>,
    /// Index of the tail flit's channel within `worm`.
    pub(crate) worm_head: usize,
    /// `true` once the routing relation offered the in-flight header no
    /// direction (only possible with hand-built turn sets). Stranded
    /// packets stop requesting channels; the flag is never cleared
    /// because the relation is a pure function of the header position.
    pub(crate) is_stranded: bool,
    /// Flits not yet entered into the network.
    pub(crate) flits_at_source: u32,
    /// Flits consumed at the destination.
    pub(crate) flits_consumed: u32,
    /// The router the header currently occupies (the head channel's
    /// `dst`).
    pub(crate) head_node: NodeId,
    /// Direction of the head channel.
    pub(crate) arrived: Option<Direction>,
    /// Cycle the header arrived at `head_node` (for FCFS arbitration).
    pub(crate) head_arrival: u64,
    /// Number of hops the header has taken.
    pub(crate) hops: u32,
}

impl Packet {
    /// The packet `message` becomes when its header leaves `src` at
    /// `cycle`, about to take its first channel. `worm` is an empty
    /// buffer to build the chain in (a recycled slot passes its old one).
    pub(crate) fn start(message: Queued, src: NodeId, cycle: u64, worm: Vec<ChannelId>) -> Self {
        debug_assert!(worm.is_empty());
        Packet {
            id: PacketId(message.seq),
            src,
            dst: message.dst,
            length: message.length,
            created_at: message.created_at,
            injected_at: cycle,
            delivered_at: None,
            worm,
            worm_head: 0,
            is_stranded: false,
            flits_at_source: message.length,
            flits_consumed: 0,
            head_node: src,
            arrived: None,
            head_arrival: message.created_at,
            hops: 0,
        }
    }

    /// The packet's lifecycle state.
    pub fn state(&self) -> PacketState {
        if self.delivered_at.is_some() {
            PacketState::Delivered
        } else {
            PacketState::InFlight
        }
    }

    /// The router the header currently occupies.
    pub fn head_node(&self) -> NodeId {
        self.head_node
    }

    /// Hops taken by the header so far.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// The occupied channel chain, tail first.
    pub fn worm(&self) -> &[ChannelId] {
        &self.worm[self.worm_head..]
    }

    /// Flits currently inside the network (== occupied channels).
    pub fn flits_in_network(&self) -> u32 {
        (self.worm.len() - self.worm_head) as u32
    }

    /// `true` if the routing relation stranded this packet: its
    /// in-flight header was offered no direction, so it will never
    /// move again (only possible with hand-built turn sets).
    pub fn is_stranded(&self) -> bool {
        self.is_stranded
    }

    /// Flits not yet entered into the network.
    pub fn flits_at_source(&self) -> u32 {
        self.flits_at_source
    }

    /// Flits already consumed at the destination.
    pub fn flits_consumed(&self) -> u32 {
        self.flits_consumed
    }

    /// `true` once the tail flit has left the source, freeing the
    /// injection channel for the next queued message.
    pub fn injection_complete(&self) -> bool {
        self.flits_at_source == 0
    }

    /// Latency from creation to delivery, in cycles.
    ///
    /// `None` until delivered.
    pub fn latency_cycles(&self) -> Option<u64> {
        self.delivered_at.map(|d| d - self.created_at)
    }

    /// Latency from injection to delivery, in cycles (excludes source
    /// queueing). `None` until delivered.
    pub fn network_latency_cycles(&self) -> Option<u64> {
        self.delivered_at.map(|d| d - self.injected_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet() -> Packet {
        let message = Queued {
            seq: 1,
            dst: NodeId::new(5),
            length: 10,
            created_at: 100,
        };
        Packet::start(message, NodeId::new(0), 120, Vec::new())
    }

    #[test]
    fn queued_records_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Queued>(), 24);
    }

    #[test]
    fn fresh_packet_is_in_flight_at_its_source() {
        let p = packet();
        assert_eq!(p.id, PacketId(1));
        assert_eq!(p.state(), PacketState::InFlight);
        assert_eq!(p.flits_in_network(), 0);
        assert_eq!(p.head_node(), NodeId::new(0));
        assert!(!p.injection_complete());
        assert_eq!(p.latency_cycles(), None);
    }

    #[test]
    fn latency_accounts_from_creation() {
        let mut p = packet();
        p.delivered_at = Some(150);
        assert_eq!(p.state(), PacketState::Delivered);
        assert_eq!(p.latency_cycles(), Some(50));
        assert_eq!(p.network_latency_cycles(), Some(30));
    }
}
