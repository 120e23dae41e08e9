//! The virtual-channel table: how many buffered lanes each physical
//! channel carries, and dense ids for them.

use crate::vdir::{VirtualDirection, MAX_CLASSES};
use turnroute_topology::{ChannelId, Direction, NodeId, Topology};

/// Identifies one virtual channel: a lane of a physical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualChannelId(u32);

impl VirtualChannelId {
    /// The dense index of this virtual channel.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-dimension virtual-channel provisioning over a topology: every
/// physical channel along dimension `d` carries `classes[d]` lanes.
///
/// # Example
///
/// ```
/// use turnroute_vc::VcTable;
/// use turnroute_topology::{Mesh, Topology};
///
/// let mesh = Mesh::new_2d(4, 4);
/// // mad-y provisioning: single x lanes, double y lanes.
/// let table = VcTable::new(&mesh, &[1, 2]);
/// // 24 x-channels * 1 + 24 y-channels * 2.
/// assert_eq!(table.num_virtual_channels(), 24 + 48);
/// ```
#[derive(Debug, Clone)]
pub struct VcTable {
    classes: Vec<u8>,
    /// Prefix offsets: virtual ids of channel `c` start at `offsets[c]`.
    offsets: Vec<u32>,
    /// The physical channel of every virtual channel, by id.
    channel_of: Vec<u32>,
}

impl VcTable {
    /// Builds the table for `topo` with `classes[d]` lanes per channel
    /// of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `classes` has the wrong length, or any entry is 0 or
    /// exceeds [`MAX_CLASSES`].
    pub fn new(topo: &dyn Topology, classes: &[u8]) -> Self {
        assert_eq!(
            classes.len(),
            topo.num_dims(),
            "one class count per dimension"
        );
        assert!(
            classes.iter().all(|&c| (1..=MAX_CLASSES).contains(&c)),
            "class counts must be in 1..={MAX_CLASSES}"
        );
        let mut offsets = Vec::with_capacity(topo.num_channels());
        let widest = classes.iter().copied().max().unwrap_or(0) as usize;
        let mut channel_of = Vec::with_capacity(topo.num_channels() * widest);
        for (i, ch) in topo.channels().iter().enumerate() {
            offsets.push(channel_of.len() as u32);
            channel_of.extend(std::iter::repeat_n(
                i as u32,
                classes[ch.dir.dim()] as usize,
            ));
        }
        VcTable {
            classes: classes.to_vec(),
            offsets,
            channel_of,
        }
    }

    /// Total number of virtual channels.
    pub fn num_virtual_channels(&self) -> usize {
        self.channel_of.len()
    }

    /// Lanes per channel of dimension `dim`.
    pub fn classes(&self, dim: usize) -> u8 {
        self.classes[dim]
    }

    /// The virtual channel for (`channel`, `class`).
    ///
    /// # Panics
    ///
    /// Panics if the class exceeds the channel's lane count.
    pub fn vc(&self, topo: &dyn Topology, channel: ChannelId, class: u8) -> VirtualChannelId {
        let dim = topo.channel(channel).dir.dim();
        assert!(
            class < self.classes[dim],
            "class out of range for dimension {dim}"
        );
        VirtualChannelId(self.offsets[channel.index()] + class as u32)
    }

    /// The virtual channel leaving `node` in virtual direction `v`, if
    /// the physical channel exists and `v.class()` is provisioned.
    pub fn vc_from(
        &self,
        topo: &dyn Topology,
        node: NodeId,
        v: VirtualDirection,
    ) -> Option<VirtualChannelId> {
        if v.class() >= self.classes[v.dir().dim()] {
            return None;
        }
        let ch = topo.channel_from(node, v.dir())?;
        Some(VirtualChannelId(
            self.offsets[ch.index()] + v.class() as u32,
        ))
    }

    /// Decomposes a virtual channel into its physical channel and class.
    pub fn decompose(&self, vc: VirtualChannelId) -> (ChannelId, u8) {
        let channel = self.channel_of[vc.index()];
        let class = vc.0 - self.offsets[channel as usize];
        (ChannelId::new(channel as usize), class as u8)
    }

    /// The virtual direction a virtual channel routes packets in.
    pub fn vdir_of(&self, topo: &dyn Topology, vc: VirtualChannelId) -> VirtualDirection {
        let (ch, class) = self.decompose(vc);
        VirtualDirection::new(topo.channel(ch).dir, class)
    }

    /// All `(physical channel, class)` pairs, in id order.
    pub fn iter(&self, topo: &dyn Topology) -> Vec<(ChannelId, u8)> {
        let mut out = Vec::with_capacity(self.num_virtual_channels());
        for (i, ch) in topo.channels().iter().enumerate() {
            for class in 0..self.classes[ch.dir.dim()] {
                out.push((ChannelId::new(i), class));
            }
        }
        out
    }

    /// The virtual directions available from `node`, one per provisioned
    /// lane of each existing output channel.
    pub fn vdirs_from(&self, topo: &dyn Topology, node: NodeId) -> Vec<VirtualDirection> {
        let mut out = Vec::new();
        for dir in Direction::all(topo.num_dims()) {
            if topo.channel_from(node, dir).is_some() {
                for class in 0..self.classes[dir.dim()] {
                    out.push(VirtualDirection::new(dir, class));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_topology::{Mesh, Torus};

    #[test]
    fn counts_and_round_trips() {
        let mesh = Mesh::new_2d(4, 3);
        let table = VcTable::new(&mesh, &[1, 2]);
        // x channels: 2 * 3 * 3 = 18; y channels: 2 * 4 * 2 = 16.
        assert_eq!(table.num_virtual_channels(), 18 + 32);
        for (ch, class) in table.iter(&mesh) {
            let vc = table.vc(&mesh, ch, class);
            assert_eq!(table.decompose(vc), (ch, class));
        }
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let mesh = Mesh::new_2d(3, 3);
        let table = VcTable::new(&mesh, &[2, 2]);
        let mut seen = vec![false; table.num_virtual_channels()];
        for (ch, class) in table.iter(&mesh) {
            let vc = table.vc(&mesh, ch, class);
            assert!(!seen[vc.index()], "duplicate id");
            seen[vc.index()] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn vc_from_respects_provisioning() {
        let mesh = Mesh::new_2d(4, 4);
        let table = VcTable::new(&mesh, &[1, 2]);
        let node = mesh.node_at(&[1, 1].into());
        use turnroute_topology::Direction;
        // x has one lane.
        assert!(table
            .vc_from(&mesh, node, VirtualDirection::new(Direction::EAST, 0))
            .is_some());
        assert!(table
            .vc_from(&mesh, node, VirtualDirection::new(Direction::EAST, 1))
            .is_none());
        // y has two.
        assert!(table
            .vc_from(&mesh, node, VirtualDirection::new(Direction::NORTH, 1))
            .is_some());
        // Mesh edge: no channel at all.
        let corner = mesh.node_at(&[0, 0].into());
        assert!(table
            .vc_from(&mesh, corner, VirtualDirection::new(Direction::WEST, 0))
            .is_none());
    }

    #[test]
    fn vdir_of_matches_channel_direction() {
        let torus = Torus::new(4, 2);
        let table = VcTable::new(&torus, &[2, 2]);
        for (ch, class) in table.iter(&torus) {
            let vc = table.vc(&torus, ch, class);
            let vdir = table.vdir_of(&torus, vc);
            assert_eq!(vdir.dir(), torus.channel(ch).dir);
            assert_eq!(vdir.class(), class);
        }
    }

    #[test]
    fn vdirs_from_interior_node() {
        let mesh = Mesh::new_2d(4, 4);
        let table = VcTable::new(&mesh, &[1, 2]);
        let center = mesh.node_at(&[1, 1].into());
        // 2 x-dirs * 1 + 2 y-dirs * 2 = 6.
        assert_eq!(table.vdirs_from(&mesh, center).len(), 6);
    }
}
