//! Traffic patterns: who sends to whom.
//!
//! The paper's Section 6 evaluates uniform, matrix-transpose (in the
//! mesh and embedded in the hypercube) and reverse-flip traffic; this
//! module adds the other classic patterns (bit-complement, bit-reversal,
//! shuffle, tornado, hotspot, nearest-neighbor) for wider studies.

use turnroute_rng::{split_mix_64, Rng, RngCore};
use turnroute_topology::{NodeId, Topology};

/// A traffic pattern: maps a source to a destination, possibly randomly.
///
/// Returns `None` when the pattern maps the source to itself (such
/// messages are consumed locally and never enter the network).
pub trait TrafficPattern: Send + Sync {
    /// A short name for tables and plots.
    fn name(&self) -> String;

    /// Picks the destination for a message from `src`.
    fn dest(&self, topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId>;

    /// Whether the pattern is defined on `topo`. Patterns that assume
    /// a shape (a square 2D mesh, a hypercube) or name explicit nodes
    /// (hotspots, trace files) check it here; the rest fit everywhere.
    /// Spec layers call this and reject a misfit with a typed error
    /// instead of letting [`TrafficPattern::dest`] panic.
    ///
    /// # Errors
    ///
    /// A message that completes "pattern 'NAME' ...", naming the rule
    /// and the topology that breaks it.
    fn fits(&self, _topo: &dyn Topology) -> Result<(), String> {
        Ok(())
    }
}

/// Fits topologies with two dimensions of equal radix.
fn square_2d(topo: &dyn Topology) -> Result<(), String> {
    if topo.num_dims() == 2 && topo.radix(0) == topo.radix(1) {
        Ok(())
    } else {
        Err(format!(
            "needs a square 2D mesh, but {} is not one",
            topo.label()
        ))
    }
}

/// Fits topologies of radix 2 in every dimension.
fn binary_cube(topo: &dyn Topology) -> Result<(), String> {
    if (0..topo.num_dims()).all(|d| topo.radix(d) == 2) {
        Ok(())
    } else {
        Err(format!(
            "needs a hypercube, but {} is not one",
            topo.label()
        ))
    }
}

/// Fits topologies with at least `nodes` nodes.
fn has_nodes(topo: &dyn Topology, nodes: usize) -> Result<(), String> {
    if nodes <= topo.num_nodes() {
        Ok(())
    } else {
        Err(format!(
            "references node {} but {} has only {} nodes",
            nodes - 1,
            topo.label(),
            topo.num_nodes()
        ))
    }
}

/// Uniform traffic: every other node is equally likely (Section 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl TrafficPattern for Uniform {
    fn name(&self) -> String {
        "uniform".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let n = topo.num_nodes();
        if n < 2 {
            // A single-node network has no valid destination; consume no
            // randomness so degenerate runs stay deterministic.
            return None;
        }
        let mut pick = rng.random_range(0..n - 1);
        if pick >= src.index() {
            pick += 1;
        }
        Some(NodeId::new(pick))
    }
}

/// Matrix transpose in a 2D mesh (Section 6): the processor at row `r`,
/// column `c` sends to the one at row `c`, column `r`.
///
/// With the matrix convention the paper uses — row 0 at the top — this
/// is `(i, j) -> (k-1-j, k-1-i)` in the Cartesian (y-up) coordinates of
/// [`Mesh`](turnroute_topology::Mesh): a reflection across the
/// *anti*-diagonal. Both offsets of every pair then share a sign, which
/// is what makes negative-first fully adaptive on this pattern (and is
/// confirmed by the paper's own hypercube embedding of the same
/// pattern, whose complemented bits encode exactly this reflection).
/// Anti-diagonal nodes send to themselves and generate no network
/// traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpose;

impl TrafficPattern for Transpose {
    fn name(&self) -> String {
        "matrix-transpose".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        assert_eq!(topo.num_dims(), 2, "transpose is a 2D-mesh pattern");
        assert_eq!(
            topo.radix(0),
            topo.radix(1),
            "transpose needs a square mesh"
        );
        let k = topo.radix(0) as u16;
        let c = topo.coord_of(src);
        let (i, j) = (c.get(0), c.get(1));
        (i + j != k - 1).then(|| topo.node_at(&[k - 1 - j, k - 1 - i].into()))
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        square_2d(topo)
    }
}

/// The diagonal transpose `(i, j) -> (j, i)` in Cartesian coordinates: a
/// reflection across the *main* diagonal. Every pair's offsets have
/// **opposite** signs (`dx = -dy`), which puts all traffic on the mixed
/// quadrants where Section 3.4 shows every channel-free turn-model
/// algorithm allows exactly one shortest path (`S_p = 1`) — the
/// adversarial complement of [`Transpose`], and the showcase workload
/// for the fully adaptive virtual-channel algorithms of
/// `turnroute-vc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiagonalTranspose;

impl TrafficPattern for DiagonalTranspose {
    fn name(&self) -> String {
        "diagonal-transpose".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        assert_eq!(
            topo.num_dims(),
            2,
            "diagonal transpose is a 2D-mesh pattern"
        );
        assert_eq!(
            topo.radix(0),
            topo.radix(1),
            "diagonal transpose needs a square mesh"
        );
        let c = topo.coord_of(src);
        let (i, j) = (c.get(0), c.get(1));
        (i != j).then(|| topo.node_at(&[j, i].into()))
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        square_2d(topo)
    }
}

/// The paper's matrix transpose embedded in the binary 8-cube: a message
/// from `(x0, ..., x7)` goes to `(!x4, x5, x6, x7, !x0, x1, x2, x3)`,
/// derived by mapping a 16x16 mesh onto the hypercube so mesh neighbors
/// stay neighbors (Section 6). Generalizes to any even `n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HypercubeTranspose;

impl TrafficPattern for HypercubeTranspose {
    fn name(&self) -> String {
        "matrix-transpose".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        let n = topo.num_dims();
        assert!(
            n.is_multiple_of(2),
            "hypercube transpose needs an even dimension count"
        );
        assert!(
            (0..n).all(|d| topo.radix(d) == 2),
            "hypercube transpose is a hypercube pattern"
        );
        let half = n / 2;
        let x = src.index();
        let low = x & ((1 << half) - 1);
        let high = x >> half;
        // Swap halves, complementing the bit that crosses each half's
        // origin (bits 0 and `half`).
        let d = (high | (low << half)) ^ (1 | (1 << half));
        (d != x).then(|| NodeId::new(d))
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        binary_cube(topo)?;
        if topo.num_dims().is_multiple_of(2) {
            Ok(())
        } else {
            Err(format!(
                "needs an even dimension count, but {} has {}",
                topo.label(),
                topo.num_dims()
            ))
        }
    }
}

/// Reverse-flip traffic in a hypercube: destination bit `i` is the
/// complement of source bit `n-1-i` (Section 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReverseFlip;

impl TrafficPattern for ReverseFlip {
    fn name(&self) -> String {
        "reverse-flip".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        let n = topo.num_dims();
        assert!(
            (0..n).all(|d| topo.radix(d) == 2),
            "reverse-flip is a hypercube pattern"
        );
        let x = src.index();
        let mut d = 0usize;
        for i in 0..n {
            let bit = x >> (n - 1 - i) & 1;
            d |= (bit ^ 1) << i;
        }
        (d != x).then(|| NodeId::new(d))
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        binary_cube(topo)
    }
}

/// Bit-complement traffic: destination bit `i` is the complement of
/// source bit `i`. In a mesh, the coordinate reflection
/// `x_i -> k_i - 1 - x_i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitComplement;

impl TrafficPattern for BitComplement {
    fn name(&self) -> String {
        "bit-complement".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        let c = topo.coord_of(src);
        let flipped: Vec<u16> = (0..topo.num_dims())
            .map(|i| (topo.radix(i) - 1) as u16 - c.get(i))
            .collect();
        let d = topo.node_at(&flipped.into());
        (d != src).then_some(d)
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        // Hex meshes have three axes but two (axial) coordinates.
        if topo.coord_of(NodeId::new(0)).num_dims() == topo.num_dims() {
            Ok(())
        } else {
            Err(format!(
                "needs one coordinate per dimension, but {} has {} dimensions over {} coordinates",
                topo.label(),
                topo.num_dims(),
                topo.coord_of(NodeId::new(0)).num_dims()
            ))
        }
    }
}

/// Bit-reversal traffic in a hypercube: destination bit `i` is source
/// bit `n-1-i`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitReversal;

impl TrafficPattern for BitReversal {
    fn name(&self) -> String {
        "bit-reversal".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        let n = topo.num_dims();
        assert!(
            (0..n).all(|d| topo.radix(d) == 2),
            "bit-reversal is a hypercube pattern"
        );
        let x = src.index();
        let mut d = 0usize;
        for i in 0..n {
            d |= (x >> (n - 1 - i) & 1) << i;
        }
        (d != x).then(|| NodeId::new(d))
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        binary_cube(topo)
    }
}

/// Perfect-shuffle traffic in a hypercube: rotate the address bits left
/// by one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shuffle;

impl TrafficPattern for Shuffle {
    fn name(&self) -> String {
        "shuffle".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        let n = topo.num_dims();
        assert!(
            (0..n).all(|d| topo.radix(d) == 2),
            "shuffle is a hypercube pattern"
        );
        let x = src.index();
        let d = ((x << 1) | (x >> (n - 1))) & ((1 << n) - 1);
        (d != x).then(|| NodeId::new(d))
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        binary_cube(topo)
    }
}

/// Tornado traffic: halfway around dimension 0 (toward the diagonal in a
/// mesh) — a classic adversarial pattern for dimension-order routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tornado;

impl TrafficPattern for Tornado {
    fn name(&self) -> String {
        "tornado".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
        let mut c = topo.coord_of(src);
        let k = topo.radix(0);
        let shift = (k - 1) / 2;
        c.set(0, ((c.get(0) as usize + shift) % k) as u16);
        let d = topo.node_at(&c);
        (d != src).then_some(d)
    }
}

/// Hotspot traffic: with probability `fraction`, send to the hotspot
/// node; otherwise uniform.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    /// The favored node.
    pub hotspot: NodeId,
    /// The probability a message targets the hotspot.
    pub fraction: f64,
}

impl Hotspot {
    /// Creates a hotspot pattern.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn new(hotspot: NodeId, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        Hotspot { hotspot, fraction }
    }
}

impl TrafficPattern for Hotspot {
    fn name(&self) -> String {
        format!("hotspot({}%)", (self.fraction * 100.0).round())
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        if rng.random_bool(self.fraction) {
            (self.hotspot != src).then_some(self.hotspot)
        } else {
            Uniform.dest(topo, src, rng)
        }
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        has_nodes(topo, self.hotspot.index() + 1)
    }
}

/// Weighted multi-hotspot traffic, the generalization of [`Hotspot`]:
/// with probability `fraction` a message targets one of several favored
/// nodes, picked proportionally to its weight; otherwise uniform.
///
/// RNG contract: one `random_bool` always, plus one `random_range` draw
/// on the hotspot branch (or the [`Uniform`] draw otherwise). The
/// single-hotspot `Hotspot` keeps its original one-draw stream, so
/// legacy seeds reproduce.
#[derive(Debug, Clone)]
pub struct WeightedHotspot {
    hotspots: Vec<(NodeId, f64)>,
    fraction: f64,
    total_weight: f64,
}

impl WeightedHotspot {
    /// Creates a weighted hotspot pattern.
    ///
    /// # Panics
    ///
    /// Panics if `hotspots` is empty, a weight is not positive and
    /// finite, or `fraction` is outside `[0, 1]` (spec layers reject
    /// these earlier with typed errors).
    pub fn new(hotspots: Vec<(NodeId, f64)>, fraction: f64) -> Self {
        assert!(!hotspots.is_empty(), "at least one hotspot is required");
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        assert!(
            hotspots.iter().all(|&(_, w)| w.is_finite() && w > 0.0),
            "hotspot weights must be positive finite numbers"
        );
        let total_weight = hotspots.iter().map(|&(_, w)| w).sum();
        WeightedHotspot {
            hotspots,
            fraction,
            total_weight,
        }
    }
}

impl TrafficPattern for WeightedHotspot {
    fn name(&self) -> String {
        let nodes: Vec<String> = self
            .hotspots
            .iter()
            .map(|(n, w)| {
                if *w == 1.0 {
                    format!("{}", n.index())
                } else {
                    format!("{}*{w}", n.index())
                }
            })
            .collect();
        format!(
            "hotspot({};{}%)",
            nodes.join("+"),
            (self.fraction * 100.0).round()
        )
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        if rng.random_bool(self.fraction) {
            let mut t = rng.random_range(0.0..self.total_weight);
            for &(node, w) in &self.hotspots {
                if t < w {
                    return (node != src).then_some(node);
                }
                t -= w;
            }
            // Floating-point slack lands on the last hotspot.
            let node = self.hotspots.last().expect("non-empty by construction").0;
            (node != src).then_some(node)
        } else {
            Uniform.dest(topo, src, rng)
        }
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        let nodes = self.hotspots.iter().map(|(n, _)| n.index() + 1).max();
        has_nodes(topo, nodes.unwrap_or(0))
    }
}

/// Trace-driven traffic: each source node draws its destination from a
/// weighted list read out of a text file (the `FileMap` idea from
/// caminos-lib, generalized from permutations to weighted fan-out).
///
/// File format, one entry per line:
///
/// ```text
/// # comment lines and blank lines are ignored
/// <src> <dst> [weight]
/// ```
///
/// A source with several entries picks among them proportionally to
/// weight (default `1`); a source with no entries generates no network
/// traffic and *consumes no randomness* (like [`Uniform`] on a
/// single-node network). An entry whose destination equals its source
/// is drawn but consumed locally, mirroring [`Hotspot`] semantics.
///
/// The pattern's [`name`](TrafficPattern::name) embeds a content
/// fingerprint of the parsed entries, so per-cell seeds, cache keys and
/// store fingerprints all track the *contents* of the trace file, not
/// its path: editing the file changes every derived identity, renaming
/// it does not change the simulated numbers.
#[derive(Debug, Clone)]
pub struct Trace {
    label: String,
    fingerprint: u64,
    /// Destination lists indexed by source node; `(dst, weight)`.
    dests: Vec<Vec<(NodeId, f64)>>,
    /// Per-source total weight, precomputed for the draw.
    totals: Vec<f64>,
    min_nodes: usize,
}

impl Trace {
    /// Parses trace-file `text`. `label` names the source in the
    /// pattern's display name (conventionally `trace:<path>`).
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message for malformed lines (wrong field
    /// count, unparsable ids, non-positive or non-finite weights) and
    /// for files with no entries at all.
    pub fn parse(text: &str, label: impl Into<String>) -> Result<Self, String> {
        let mut dests: Vec<Vec<(NodeId, f64)>> = Vec::new();
        let mut fp = 0x7261_6365_5f66_7031u64;
        let mut entries = 0usize;
        let mut min_nodes = 0usize;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (src, dst, weight) = match fields.as_slice() {
                [s, d] => (*s, *d, None),
                [s, d, w] => (*s, *d, Some(*w)),
                _ => {
                    return Err(format!(
                        "line {}: expected '<src> <dst> [weight]', got '{line}'",
                        i + 1
                    ))
                }
            };
            let src: usize = src
                .parse()
                .map_err(|_| format!("line {}: bad source node '{src}'", i + 1))?;
            let dst: usize = dst
                .parse()
                .map_err(|_| format!("line {}: bad destination node '{dst}'", i + 1))?;
            let weight: f64 = match weight {
                None => 1.0,
                Some(w) => {
                    let w: f64 = w
                        .parse()
                        .map_err(|_| format!("line {}: bad weight '{w}'", i + 1))?;
                    if !w.is_finite() || w <= 0.0 {
                        return Err(format!(
                            "line {}: weight must be a positive finite number, got {w}",
                            i + 1
                        ));
                    }
                    w
                }
            };
            if dests.len() <= src {
                dests.resize(src + 1, Vec::new());
            }
            dests[src].push((NodeId::new(dst), weight));
            min_nodes = min_nodes.max(src + 1).max(dst + 1);
            entries += 1;
            // Content fingerprint over the parsed entries, so comments
            // and whitespace never perturb experiment identity.
            for word in [src as u64, dst as u64, weight.to_bits()] {
                fp ^= word;
                split_mix_64(&mut fp);
            }
        }
        if entries == 0 {
            return Err("trace file has no entries".into());
        }
        let totals = dests
            .iter()
            .map(|list| list.iter().map(|&(_, w)| w).sum())
            .collect();
        Ok(Trace {
            label: label.into(),
            fingerprint: fp,
            dests,
            totals,
            min_nodes,
        })
    }

    /// The number of trace entries (weighted destination edges).
    pub fn num_entries(&self) -> usize {
        self.dests.iter().map(Vec::len).sum()
    }
}

impl TrafficPattern for Trace {
    fn name(&self) -> String {
        format!("{}@{:016x}", self.label, self.fingerprint)
    }

    fn dest(&self, _topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let list = self.dests.get(src.index())?;
        match list.as_slice() {
            [] => None,
            // One entry: no draw needed, and skipping it keeps silent
            // sources and deterministic single-target sources cheap.
            [(dst, _)] => (*dst != src).then_some(*dst),
            _ => {
                let mut t = rng.random_range(0.0..self.totals[src.index()]);
                for &(dst, w) in list {
                    if t < w {
                        return (dst != src).then_some(dst);
                    }
                    t -= w;
                }
                let dst = list.last().expect("non-empty by match arm").0;
                (dst != src).then_some(dst)
            }
        }
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        has_nodes(topo, self.min_nodes)
    }
}

/// Nearest-neighbor traffic: a uniformly random neighbor.
#[derive(Debug, Clone, Copy, Default)]
pub struct NearestNeighbor;

impl TrafficPattern for NearestNeighbor {
    fn name(&self) -> String {
        "nearest-neighbor".to_owned()
    }

    fn dest(&self, topo: &dyn Topology, src: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let neighbors: Vec<NodeId> = turnroute_topology::Direction::all(topo.num_dims())
            .filter_map(|d| topo.neighbor(src, d))
            .collect();
        let pick = rng.random_range(0..neighbors.len());
        Some(neighbors[pick])
    }

    fn fits(&self, topo: &dyn Topology) -> Result<(), String> {
        let dirs = || turnroute_topology::Direction::all(topo.num_dims());
        match topo
            .nodes()
            .find(|&n| dirs().all(|d| topo.neighbor(n, d).is_none()))
        {
            None => Ok(()),
            Some(n) => Err(format!(
                "needs a neighbor at every node, but node {} of {} has none",
                n.index(),
                topo.label()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_rng::StdRng;
    use turnroute_topology::{Hypercube, Mesh, Torus};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    /// The fewest nodes a line must have for `pattern` to fit it.
    fn min_nodes(pattern: &dyn TrafficPattern) -> usize {
        (1..)
            .find(|&n| pattern.fits(&Mesh::new(vec![n])).is_ok())
            .unwrap()
    }

    #[test]
    fn uniform_never_sends_to_self_and_covers_everyone() {
        let mesh = Mesh::new_2d(4, 4);
        let mut rng = rng();
        let src = NodeId::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = Uniform.dest(&mesh, src, &mut rng).unwrap();
            assert_ne!(d, src);
            seen.insert(d);
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn uniform_on_a_single_node_returns_none_without_drawing() {
        let point = Mesh::new(vec![1, 1]);
        let mut a = rng();
        let mut b = rng();
        assert_eq!(Uniform.dest(&point, NodeId::new(0), &mut a), None);
        // No randomness was consumed: both streams still agree.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn transpose_reflects_across_the_anti_diagonal() {
        let mesh = Mesh::new_2d(16, 16);
        let mut rng = rng();
        let src = mesh.node_at(&[3, 11].into());
        let d = Transpose.dest(&mesh, src, &mut rng).unwrap();
        assert_eq!(mesh.coord_of(d), [4, 12].into());
        // The anti-diagonal stays silent.
        let diag = mesh.node_at(&[7, 8].into());
        assert_eq!(Transpose.dest(&mesh, diag, &mut rng), None);
        // It is an involution.
        let back = Transpose.dest(&mesh, d, &mut rng).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn diagonal_transpose_offsets_have_opposite_signs() {
        let mesh = Mesh::new_2d(8, 8);
        let mut rng = rng();
        for src in mesh.nodes() {
            if let Some(d) = DiagonalTranspose.dest(&mesh, src, &mut rng) {
                let (s, t) = (mesh.coord_of(src), mesh.coord_of(d));
                let dx = t.get(0) as i32 - s.get(0) as i32;
                let dy = t.get(1) as i32 - s.get(1) as i32;
                assert_eq!(dx, -dy);
                assert_ne!(dx, 0);
            }
        }
        // Involution; main diagonal silent.
        let diag = mesh.node_at(&[5, 5].into());
        assert_eq!(DiagonalTranspose.dest(&mesh, diag, &mut rng), None);
    }

    #[test]
    fn transpose_offsets_share_a_sign() {
        // The property behind the paper's Figure 14: negative-first is
        // fully adaptive on transpose because both offsets of every
        // pair point the same way.
        let mesh = Mesh::new_2d(16, 16);
        let mut rng = rng();
        for src in mesh.nodes() {
            if let Some(d) = Transpose.dest(&mesh, src, &mut rng) {
                let (s, t) = (mesh.coord_of(src), mesh.coord_of(d));
                let dx = t.get(0) as i32 - s.get(0) as i32;
                let dy = t.get(1) as i32 - s.get(1) as i32;
                assert_eq!(dx, dy, "transpose offsets are equal");
            }
        }
    }

    #[test]
    fn hypercube_transpose_matches_paper_formula() {
        // (x0..x7) -> (!x4, x5, x6, x7, !x0, x1, x2, x3).
        let cube = Hypercube::new(8);
        let mut rng = rng();
        let x = 0b1011_0100usize; // bits x0..x7 = 0,0,1,0,1,1,0,1
        let d = HypercubeTranspose
            .dest(&cube, NodeId::new(x), &mut rng)
            .unwrap()
            .index();
        for i in 0..4 {
            let expect = if i == 0 {
                (x >> 4 & 1) ^ 1
            } else {
                x >> (4 + i) & 1
            };
            assert_eq!(d >> i & 1, expect, "bit {i}");
            let expect_high = if i == 0 { (x & 1) ^ 1 } else { x >> i & 1 };
            assert_eq!(d >> (4 + i) & 1, expect_high, "bit {}", i + 4);
        }
    }

    #[test]
    fn hypercube_transpose_is_an_involution() {
        let cube = Hypercube::new(8);
        let mut rng = rng();
        for src in cube.nodes() {
            if let Some(d) = HypercubeTranspose.dest(&cube, src, &mut rng) {
                let back = HypercubeTranspose.dest(&cube, d, &mut rng).unwrap();
                assert_eq!(back, src);
            }
        }
    }

    #[test]
    fn reverse_flip_mean_distance_matches_paper() {
        // Section 6: average path length 4.27 hops for reverse-flip in
        // the 8-cube (over the 240 nodes that generate traffic).
        let cube = Hypercube::new(8);
        let mut rng = rng();
        let (mut total, mut senders) = (0usize, 0usize);
        for src in cube.nodes() {
            if let Some(d) = ReverseFlip.dest(&cube, src, &mut rng) {
                total += cube.distance(src, d);
                senders += 1;
            }
        }
        assert_eq!(senders, 240);
        let mean = total as f64 / senders as f64;
        assert!((mean - 4.2667).abs() < 1e-3, "got {mean}");
    }

    #[test]
    fn mesh_transpose_mean_distance_matches_paper() {
        // Section 6: 11.34 hops for matrix-transpose in the 16x16 mesh.
        let mesh = Mesh::new_2d(16, 16);
        let mut rng = rng();
        let (mut total, mut senders) = (0usize, 0usize);
        for src in mesh.nodes() {
            if let Some(d) = Transpose.dest(&mesh, src, &mut rng) {
                total += mesh.distance(src, d);
                senders += 1;
            }
        }
        let mean = total as f64 / senders as f64;
        assert!((mean - 11.3333).abs() < 1e-3, "got {mean}");
    }

    #[test]
    fn hypercube_transpose_mean_distance_matches_paper() {
        // Section 6 reports 4.01 hops for uniform and cites transpose as
        // nonuniform; the embedded transpose averages 4.27 hops over its
        // senders (the same value as reverse-flip, by symmetry of the
        // half-swap).
        let cube = Hypercube::new(8);
        let mut rng = rng();
        let (mut total, mut senders) = (0usize, 0usize);
        for src in cube.nodes() {
            if let Some(d) = HypercubeTranspose.dest(&cube, src, &mut rng) {
                total += cube.distance(src, d);
                senders += 1;
            }
        }
        let mean = total as f64 / senders as f64;
        assert!(mean > 4.0, "transpose is longer than uniform, got {mean}");
    }

    #[test]
    fn bit_complement_reflects_mesh_coordinates() {
        let mesh = Mesh::new_2d(8, 8);
        let mut rng = rng();
        let src = mesh.node_at(&[1, 6].into());
        let d = BitComplement.dest(&mesh, src, &mut rng).unwrap();
        assert_eq!(mesh.coord_of(d), [6, 1].into());
    }

    #[test]
    fn bit_reversal_reverses() {
        let cube = Hypercube::new(6);
        let mut rng = rng();
        let d = BitReversal
            .dest(&cube, NodeId::new(0b110010), &mut rng)
            .unwrap();
        assert_eq!(d.index(), 0b010011);
    }

    #[test]
    fn shuffle_rotates() {
        let cube = Hypercube::new(4);
        let mut rng = rng();
        let d = Shuffle.dest(&cube, NodeId::new(0b1001), &mut rng).unwrap();
        assert_eq!(d.index(), 0b0011);
    }

    #[test]
    fn tornado_moves_half_way() {
        let torus = Torus::new(8, 2);
        let mut rng = rng();
        let src = torus.node_at(&[1, 3].into());
        let d = Tornado.dest(&torus, src, &mut rng).unwrap();
        assert_eq!(torus.coord_of(d), [4, 3].into());
    }

    #[test]
    fn hotspot_favors_the_hotspot() {
        let mesh = Mesh::new_2d(4, 4);
        let mut rng = rng();
        let hs = NodeId::new(9);
        let pattern = Hotspot::new(hs, 0.5);
        let hits = (0..1000)
            .filter(|_| pattern.dest(&mesh, NodeId::new(0), &mut rng) == Some(hs))
            .count();
        assert!((400..650).contains(&hits), "got {hits}");
    }

    #[test]
    fn weighted_hotspot_splits_by_weight() {
        let mesh = Mesh::new_2d(4, 4);
        let mut rng = rng();
        let a = NodeId::new(3);
        let b = NodeId::new(12);
        // 3:1 weights at 100% hotspot fraction.
        let pattern = WeightedHotspot::new(vec![(a, 3.0), (b, 1.0)], 1.0);
        let (mut hits_a, mut hits_b) = (0, 0);
        for _ in 0..4000 {
            match pattern.dest(&mesh, NodeId::new(0), &mut rng) {
                Some(d) if d == a => hits_a += 1,
                Some(d) if d == b => hits_b += 1,
                other => panic!("unexpected destination {other:?}"),
            }
        }
        assert!((2800..3200).contains(&hits_a), "got {hits_a}");
        assert_eq!(hits_a + hits_b, 4000);
        assert_eq!(min_nodes(&pattern), 13);
        assert_eq!(pattern.name(), "hotspot(3*3+12;100%)");
    }

    #[test]
    fn weighted_hotspot_falls_back_to_uniform() {
        let mesh = Mesh::new_2d(4, 4);
        let mut rng = rng();
        let pattern = WeightedHotspot::new(vec![(NodeId::new(5), 1.0)], 0.0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(pattern.dest(&mesh, NodeId::new(0), &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn hotspot_fits_only_topologies_that_have_its_node() {
        let hotspot = Hotspot::new(NodeId::new(9), 0.1);
        assert_eq!(min_nodes(&hotspot), 10);
        assert_eq!(min_nodes(&Uniform), 1);
        let e = hotspot.fits(&Mesh::new_2d(3, 3)).unwrap_err();
        assert!(e.starts_with("references node 9 but "), "{e}");
        assert!(e.ends_with(" has only 9 nodes"), "{e}");
    }

    #[test]
    fn shape_patterns_fit_only_their_shapes() {
        let square = Mesh::new_2d(4, 4);
        let oblong = Mesh::new_2d(4, 3);
        let (cube3, cube4) = (Hypercube::new(3), Hypercube::new(4));
        for p in [&Transpose as &dyn TrafficPattern, &DiagonalTranspose] {
            assert!(p.fits(&square).is_ok(), "{}", p.name());
            assert!(p.fits(&oblong).is_err(), "{}", p.name());
            assert!(p.fits(&cube3).is_err(), "{}", p.name());
        }
        for p in [&ReverseFlip as &dyn TrafficPattern, &BitReversal, &Shuffle] {
            assert!(p.fits(&cube3).is_ok(), "{}", p.name());
            assert!(p.fits(&square).is_err(), "{}", p.name());
        }
        assert!(HypercubeTranspose.fits(&cube4).is_ok());
        assert!(HypercubeTranspose.fits(&cube3).is_err());
        assert!(HypercubeTranspose.fits(&square).is_err());
        for p in [&Uniform as &dyn TrafficPattern, &BitComplement, &Tornado] {
            assert!(p.fits(&oblong).is_ok() && p.fits(&cube3).is_ok());
        }
    }

    #[test]
    fn trace_parses_and_draws_by_weight() {
        let trace = Trace::parse("# demo\n\n0 5\n0 9 3\n1 2\n", "trace:demo").unwrap();
        assert_eq!(trace.num_entries(), 3);
        assert_eq!(min_nodes(&trace), 10);
        let mesh = Mesh::new_2d(4, 4);
        let mut rng = rng();
        let mut to9 = 0;
        for _ in 0..4000 {
            match trace.dest(&mesh, NodeId::new(0), &mut rng).unwrap().index() {
                9 => to9 += 1,
                5 => {}
                other => panic!("unexpected destination {other}"),
            }
        }
        // Weight 3 of 4 total.
        assert!((2800..3200).contains(&to9), "got {to9}");
        // Single-entry source: deterministic, no draw.
        let mut a = StdRng::seed_from_u64(0);
        let mut b = StdRng::seed_from_u64(0);
        assert_eq!(
            trace.dest(&mesh, NodeId::new(1), &mut a).unwrap().index(),
            2
        );
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn trace_silent_sources_consume_no_randomness() {
        let trace = Trace::parse("0 1\n", "trace:tiny").unwrap();
        let mesh = Mesh::new_2d(4, 4);
        let mut a = rng();
        let mut b = rng();
        // Node 7 has no entries; node 99 is past the table entirely.
        assert_eq!(trace.dest(&mesh, NodeId::new(7), &mut a), None);
        assert_eq!(trace.dest(&mesh, NodeId::new(99), &mut a), None);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn trace_self_entries_are_consumed_locally() {
        let trace = Trace::parse("3 3\n", "trace:selfy").unwrap();
        let mesh = Mesh::new_2d(4, 4);
        let mut rng = rng();
        assert_eq!(trace.dest(&mesh, NodeId::new(3), &mut rng), None);
    }

    #[test]
    fn trace_name_tracks_content_not_formatting() {
        let a = Trace::parse("0 1\n2 3 1.5\n", "trace:x").unwrap();
        let b = Trace::parse("# hello\n 0  1 \n\n2 3 1.5\n", "trace:x").unwrap();
        assert_eq!(a.name(), b.name());
        let c = Trace::parse("0 1\n2 3 2.5\n", "trace:x").unwrap();
        assert_ne!(a.name(), c.name());
        assert!(a.name().starts_with("trace:x@"));
    }

    #[test]
    fn trace_rejects_malformed_input() {
        for (text, needle) in [
            ("", "no entries"),
            ("# only comments\n", "no entries"),
            ("0\n", "expected"),
            ("0 1 2 3\n", "expected"),
            ("zero 1\n", "bad source"),
            ("0 one\n", "bad destination"),
            ("0 1 heavy\n", "bad weight"),
            ("0 1 0\n", "positive"),
            ("0 1 -2\n", "positive"),
            ("0 1 inf\n", "positive"),
        ] {
            let e = Trace::parse(text, "trace:bad").unwrap_err();
            assert!(e.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn nearest_neighbor_stays_adjacent() {
        let mesh = Mesh::new_2d(5, 5);
        let mut rng = rng();
        for _ in 0..100 {
            let d = NearestNeighbor
                .dest(&mesh, NodeId::new(12), &mut rng)
                .unwrap();
            assert_eq!(mesh.distance(NodeId::new(12), d), 1);
        }
    }
}
