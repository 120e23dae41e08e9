//! Runtime deadlock detection: wait-for graph extraction.
//!
//! The paper's algorithms make deadlock impossible by construction; this
//! module exists to *demonstrate* the opposite case (Figs. 1 and 4) and
//! to guard experiments against modelling mistakes. When the engine's
//! progress watchdog fires — no flit anywhere has moved for the
//! configured threshold — the blocked packets and the channels they
//! wait for are assembled into a wait-for graph, and a circular wait in
//! it is reported as the witness.
//!
//! What that guarantees, and what it does not: the report is only ever
//! produced for a network that has globally stalled, so *something* is
//! permanently stuck and the cycle names packets that are part of it.
//! The cycle alone proves nothing — under adaptive routing a header
//! waits for *any* of its permitted channels (an OR-wait), so a cycle
//! of single edges can dissolve through a branch outside it; only the
//! global stall makes it a witness. Conversely a deadlock confined to
//! one corner of a network whose other traffic still flows never trips
//! the watchdog and is never reported. Reports carry [`PacketId`]s
//! (creation order), which stay valid after the storage slots move on.

use crate::engine::Simulation;
use crate::packet::PacketId;
use turnroute_topology::ChannelId;

/// One packet's entry in a circular wait.
#[derive(Debug, Clone)]
pub struct WaitEdge {
    /// The blocked packet.
    pub packet: PacketId,
    /// The router its header is stuck at.
    pub at_node: turnroute_topology::NodeId,
    /// A channel it wants that is held by the next packet in the cycle.
    pub wants: ChannelId,
}

/// A deadlock witness: packets in a circular wait, each holding channels
/// the previous one needs — or, when a hand-built turn set strands
/// packets outright, the permanent blockage rooted at those stranded
/// packets.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// The cycle of waits; entry `i` waits on a channel held by entry
    /// `(i + 1) % len`. Empty when the stall is rooted at stranded
    /// packets rather than a circular wait.
    pub cycle: Vec<WaitEdge>,
    /// Packets with no grantable option left — the relation offers no
    /// direction (possible with hand-built turn sets), or every offered
    /// channel has failed: permanent roadblocks everything else is
    /// queued behind.
    pub stranded: Vec<PacketId>,
    /// The cycle at which the watchdog fired.
    pub detected_at: u64,
    /// In-flight packets at detection time (cycle participants and
    /// bystanders blocked behind them).
    pub blocked_packets: usize,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.cycle.is_empty() {
            writeln!(
                f,
                "permanent blockage at cycle {}: {} packets blocked behind {} stranded packet(s) {:?}",
                self.detected_at,
                self.blocked_packets,
                self.stranded.len(),
                self.stranded.iter().map(|p| p.index()).collect::<Vec<_>>(),
            )?;
            return Ok(());
        }
        writeln!(
            f,
            "deadlock at cycle {}: {} packets blocked, circular wait of {}:",
            self.detected_at,
            self.blocked_packets,
            self.cycle.len()
        )?;
        for edge in &self.cycle {
            writeln!(
                f,
                "  packet {} at {} waits for {}",
                edge.packet.index(),
                edge.at_node,
                edge.wants
            )?;
        }
        Ok(())
    }
}

/// Builds the wait-for graph of the current (globally stalled)
/// simulation state and extracts a circular wait.
///
/// Every blocked in-flight packet contributes edges to the owners of all
/// channels its routing relation currently permits (all of which must be
/// occupied, or it would not be blocked). The first cycle a depth-first
/// search finds among those edges is reported; see the module docs for
/// why it is a witness only because the watchdog saw nothing move.
pub(crate) fn detect_deadlock<O: crate::obs::SimObserver>(
    sim: &Simulation<'_, O>,
) -> DeadlockReport {
    let (topo, algo, slots, channel_owner, in_flight, faulty) = sim.deadlock_view();

    // Graph nodes are the blocked worms, numbered in injection order;
    // `slots_of[n]` is node `n`'s slot and `node_of[slot]` the inverse.
    // edges[n] = (wanted channel, owner slot) pairs.
    let mut edges: Vec<Vec<(ChannelId, u32)>> = Vec::new();
    let mut slots_of: Vec<u32> = Vec::new();
    let mut stranded = Vec::new();
    let mut node_of = vec![usize::MAX; slots.len()];
    for &slot in in_flight {
        let p = &slots[slot as usize];
        if p.head_node() == p.dst {
            continue; // consuming, not blocked
        }
        let permitted = algo.route(topo, p.head_node(), p.dst, p.arrived);
        let mut waits = Vec::new();
        let mut usable = 0;
        for dir in permitted {
            if let Some(ch) = topo.channel_from(p.head_node(), dir) {
                if faulty[ch.index()] {
                    continue; // a failed link can never be granted
                }
                usable += 1;
                if let Some(owner) = channel_owner[ch.index()] {
                    if owner != slot {
                        waits.push((ch, owner));
                    }
                }
            }
        }
        if usable == 0 {
            // Nothing the relation offers can ever be granted: a
            // permanent roadblock (empty permitted set, or every
            // permitted channel failed).
            stranded.push(p.id);
        }
        node_of[slot as usize] = slots_of.len();
        slots_of.push(slot);
        edges.push(waits);
    }

    // DFS for a cycle over packet wait edges.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = slots_of.len();
    let mut color = vec![Color::White; n];
    let mut parent: Vec<Option<(usize, ChannelId)>> = vec![None; n];
    let mut cycle_nodes: Option<(usize, usize, ChannelId)> = None;

    'outer: for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&(ch, owner)) = edges[node].get(*next) {
                *next += 1;
                let succ = node_of[owner as usize];
                if succ == usize::MAX {
                    continue; // the owner is consuming, not blocked
                }
                match color[succ] {
                    Color::White => {
                        color[succ] = Color::Gray;
                        parent[succ] = Some((node, ch));
                        stack.push((succ, 0));
                    }
                    Color::Gray => {
                        cycle_nodes = Some((node, succ, ch));
                        break 'outer;
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }

    let mut cycle = Vec::new();
    if let Some((from, to, closing_channel)) = cycle_nodes {
        // Unwind: to -> ... -> from, plus the closing edge from -> to.
        let mut chain = vec![(from, closing_channel)];
        let mut cur = from;
        while cur != to {
            let (prev, ch) = parent[cur].expect("path back to cycle head");
            chain.push((prev, ch));
            cur = prev;
        }
        chain.reverse();
        for (node, ch) in chain {
            let p = &slots[slots_of[node] as usize];
            cycle.push(WaitEdge {
                packet: p.id,
                at_node: p.head_node(),
                wants: ch,
            });
        }
    }

    DeadlockReport {
        cycle,
        stranded,
        detected_at: sim.cycle(),
        blocked_packets: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::patterns::Uniform;
    use turnroute_core::{TurnSet, TurnSetRouting};
    use turnroute_topology::Mesh;

    /// The situation of Fig. 1: packets with unrestricted turns
    /// (fully adaptive minimal routing, no extra channels) wind up in a
    /// circular wait. Under saturating random traffic with long worms
    /// this is quick and — with a fixed seed — deterministic.
    #[test]
    fn unrestricted_turns_deadlock_under_load() {
        let mesh = Mesh::new_2d(4, 4);
        let algo = TurnSetRouting::new(TurnSet::fully_adaptive(2));
        let config = SimConfig::paper()
            .injection_rate(0.9)
            .lengths(crate::config::LengthDistribution::Fixed(64))
            .warmup_cycles(0)
            .measure_cycles(0)
            .deadlock_threshold(1_000)
            .seed(3);
        let mut sim = Simulation::new(&mesh, &algo, &Uniform, config);

        let mut deadlock = None;
        for _ in 0..200_000 {
            if let Some(report) = sim.step() {
                deadlock = Some(report);
                break;
            }
        }
        let report = deadlock.expect("unrestricted turns must deadlock under load");
        assert!(report.cycle.len() >= 2, "cycle: {report}");
        assert!(report.blocked_packets >= report.cycle.len());
        // The witness is genuine: each entry waits on a channel held by
        // the next packet in the cycle.
        for (k, edge) in report.cycle.iter().enumerate() {
            let next = &report.cycle[(k + 1) % report.cycle.len()];
            assert_eq!(sim.channel_owner(edge.wants), Some(next.packet));
        }
        let text = report.to_string();
        assert!(text.contains("circular wait"));
    }

    #[test]
    fn display_circular_wait_lists_every_edge() {
        let report = DeadlockReport {
            cycle: vec![
                WaitEdge {
                    packet: PacketId(3),
                    at_node: turnroute_topology::NodeId::new(5),
                    wants: ChannelId::new(9),
                },
                WaitEdge {
                    packet: PacketId(8),
                    at_node: turnroute_topology::NodeId::new(6),
                    wants: ChannelId::new(2),
                },
            ],
            stranded: vec![],
            detected_at: 1_234,
            blocked_packets: 7,
        };
        let text = report.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header plus one line per edge: {text}");
        assert_eq!(
            lines[0],
            "deadlock at cycle 1234: 7 packets blocked, circular wait of 2:"
        );
        assert!(lines[1].starts_with("  packet 3 at "), "{text}");
        assert!(lines[1].contains(" waits for "), "{text}");
        assert!(lines[2].starts_with("  packet 8 at "), "{text}");
    }

    #[test]
    fn display_stranded_variant_names_the_roadblocks() {
        let report = DeadlockReport {
            cycle: vec![],
            stranded: vec![PacketId(1), PacketId(4)],
            detected_at: 50,
            blocked_packets: 9,
        };
        assert_eq!(
            report.to_string(),
            "permanent blockage at cycle 50: 9 packets blocked behind \
             2 stranded packet(s) [1, 4]\n"
        );
    }

    #[test]
    fn west_first_never_deadlocks_under_the_same_load() {
        let mesh = Mesh::new_2d(4, 4);
        let algo = turnroute_core::WestFirst::minimal();
        let config = SimConfig::paper()
            .injection_rate(0.9)
            .lengths(crate::config::LengthDistribution::Fixed(64))
            .warmup_cycles(0)
            .measure_cycles(0)
            .deadlock_threshold(1_000)
            .seed(3);
        let mut sim = Simulation::new(&mesh, &algo, &Uniform, config);
        for _ in 0..30_000 {
            assert!(sim.step().is_none(), "west-first must not deadlock");
        }
        // Saturated, but always making progress.
        assert!(sim.total_delivered() > 0);
    }
}
