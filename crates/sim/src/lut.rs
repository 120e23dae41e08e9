//! Memoised route lookup tables for the wormhole engine's hot path.
//!
//! The turn-model routing relations are pure functions of
//! `(node, dst, arrived)` (see
//! [`RoutingAlgorithm::is_tabulable`]), yet the engine re-derives them
//! through a dyn-dispatched `route()` call for every requesting header
//! on every cycle. A [`RouteTable`] memoises the permitted [`DirSet`]
//! of each triple in a flat dense array — one byte per entry, since
//! every table-eligible topology has at most 8 directions. An entry is
//! computed the first time it is looked up, so a run pays only for the
//! states its packets visit, and the table is shared across a series'
//! sweep cells via [`Arc`].
//!
//! # Filling without locks
//!
//! An entry holds `!DirSet::bits()` in an [`AtomicU8`], so 0 means "not
//! computed yet". Each entry is a pure function of its key and nothing
//! else is published through it, so `Relaxed` loads and stores are
//! exact: sweep workers and the sharded engine's arbitration workers
//! (`engine/shard.rs`) may race to fill one entry, but every racer
//! stores the same byte, and every reader sees either 0 (and computes
//! the value itself) or that byte — the value `route()` returns. The
//! one set that encodes to 0, all eight directions, is never
//! remembered: it is recomputed on every lookup.
//!
//! # Indexing
//!
//! With `N = num_nodes` and `S = 2 * num_dims + 1` arrival slots (slot
//! 0 is "at source", slot `d + 1` is arrival over direction index `d`):
//!
//! ```text
//! entry(node, dst, arrived) = (node * N + dst) * S + slot(arrived)
//! ```
//!
//! so one lookup is a multiply-add and a byte load. The memory cost is
//! exactly `N² * S` bytes (`16x16` mesh: 256² × 5 = 320 KiB), allocated
//! zeroed when the table is made.
//!
//! # Size cap and fallback
//!
//! Tables are only made when they are sound and affordable:
//!
//! * topologies with more than 4 dimensions (> 8 directions) cannot
//!   pack a [`DirSet`] into one byte — never tabled;
//! * algorithms reporting [`RoutingAlgorithm::is_tabulable`] `false`
//!   are never tabled;
//! * a fault plan that changes the fault set after cycle 0 is never
//!   tabled; a static one tables the relation pruned by its cycle-0
//!   fault set;
//! * under [`RouteTableMode::Auto`] the table must also fit the
//!   configured memory budget
//!   ([`SimConfig::route_table_budget`](crate::SimConfig), default
//!   [`DEFAULT_ROUTE_TABLE_BUDGET`]); [`RouteTableMode::On`] ignores
//!   the budget but still refuses unsound tables.
//!
//! When no table is made the engine simply calls `algo.route()`
//! directly; results are bit-identical either way (enforced by unit and
//! integration tests).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crate::config::SimConfig;
use turnroute_core::RoutingAlgorithm;
use turnroute_fault::{FaultSchedule, FaultedRelation};
use turnroute_topology::{DirSet, Direction, NodeId, Topology};

/// Whether the engine routes through a [`RouteTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteTableMode {
    /// Use a table when it is sound and fits the memory budget — the
    /// default.
    #[default]
    Auto,
    /// Use a table whenever it is sound, ignoring the budget.
    On,
    /// Never use a table; always call the algorithm directly.
    Off,
}

/// Default memory budget for [`RouteTableMode::Auto`]: 64 MiB, which
/// admits every topology the figures use (a 64×64 mesh costs 80 MiB
/// and falls back).
pub const DEFAULT_ROUTE_TABLE_BUDGET: usize = 64 << 20;

/// Directions an entry byte can hold: 4 dimensions × 2 signs.
const MAX_TABLE_DIRS: usize = 8;

/// A dense `(node, dst, arrived) -> DirSet` memo of one routing
/// relation on one topology. See the [module docs](self) for the
/// layout, the fill rule and the policy.
///
/// # Example
///
/// ```
/// use turnroute_core::{RoutingAlgorithm, WestFirst};
/// use turnroute_sim::lut::RouteTable;
/// use turnroute_topology::{Mesh, Topology};
///
/// let mesh = Mesh::new_2d(8, 8);
/// let wf = WestFirst::minimal();
/// let table = RouteTable::build(&mesh, &wf).expect("2D mesh is tabulable");
/// let from = mesh.node_at(&[4, 4].into());
/// let to = mesh.node_at(&[1, 6].into());
/// assert_eq!(table.lookup(from, to, None), wf.route(&mesh, from, to, None));
/// ```
pub struct RouteTable<'a> {
    topo: &'a dyn Topology,
    algo: &'a dyn RoutingAlgorithm,
    /// `algo` pruned by a static fault plan's cycle-0 fault set: the
    /// relation the table memoises when present.
    pruned: Option<FaultedRelation<'a>>,
    /// `!DirSet::bits()` truncated to a byte (0 = not computed yet),
    /// `(node * N + dst) * S + slot` indexed.
    entries: Box<[AtomicU8]>,
    num_nodes: usize,
    /// Arrival slots per (node, dst) pair: `2 * num_dims + 1`.
    slots: usize,
}

impl<'a> RouteTable<'a> {
    /// The exact memory the table for `topo` would occupy, in bytes:
    /// `num_nodes² × (2 × num_dims + 1)`.
    pub fn required_bytes(topo: &dyn Topology) -> usize {
        topo.num_nodes() * topo.num_nodes() * (2 * topo.num_dims() + 1)
    }

    /// `true` if a table for this pair would be sound: at most 4
    /// dimensions (so a [`DirSet`] fits the one-byte entries) and a
    /// tabulable algorithm. Says nothing about the memory budget.
    pub fn supports(topo: &dyn Topology, algo: &dyn RoutingAlgorithm) -> bool {
        2 * topo.num_dims() <= MAX_TABLE_DIRS && algo.is_tabulable()
    }

    /// An empty memo of `algo` on `topo`, or `None` if the pair is
    /// unsound for tabling (see [`RouteTable::supports`]). Applies no
    /// memory cap and no fault plan; use [`RouteTable::for_config`] for
    /// the policy-driven entry point.
    pub fn build(topo: &'a dyn Topology, algo: &'a dyn RoutingAlgorithm) -> Option<Self> {
        RouteTable::memo(topo, algo, None)
    }

    fn memo(
        topo: &'a dyn Topology,
        algo: &'a dyn RoutingAlgorithm,
        pruned: Option<FaultedRelation<'a>>,
    ) -> Option<Self> {
        if !RouteTable::supports(topo, algo) {
            return None;
        }
        let entries = (0..RouteTable::required_bytes(topo))
            .map(|_| AtomicU8::new(0))
            .collect();
        Some(RouteTable {
            topo,
            algo,
            pruned,
            entries,
            num_nodes: topo.num_nodes(),
            slots: 2 * topo.num_dims() + 1,
        })
    }

    /// The table `config` asks for — the engine's entry point. Returns
    /// `None` (direct `route()` calls) under [`RouteTableMode::Off`],
    /// for unsound pairs, for a fault plan that schedules events after
    /// cycle 0, and under [`RouteTableMode::Auto`] when
    /// [`RouteTable::required_bytes`] exceeds the configured budget.
    /// Under a static fault plan the table memoises the relation pruned
    /// by the plan's cycle-0 fault set, since a table of the healthy
    /// relation would happily route into a dead link.
    pub fn for_config(
        topo: &'a dyn Topology,
        algo: &'a dyn RoutingAlgorithm,
        config: &SimConfig,
    ) -> Option<Arc<Self>> {
        let over_budget = RouteTable::required_bytes(topo) > config.route_table_budget;
        match config.route_table {
            RouteTableMode::Off => return None,
            RouteTableMode::Auto if over_budget => return None,
            RouteTableMode::Auto | RouteTableMode::On => {}
        }
        let pruned = match config.faults.as_deref() {
            None => None,
            Some(schedule) if schedule.is_static() => {
                Some(FaultedRelation::from_schedule(algo, topo, schedule))
            }
            Some(_) => return None,
        };
        RouteTable::memo(topo, algo, pruned).map(Arc::new)
    }

    /// [`RouteTable::for_config`] plus the reason a table was refused
    /// because the fault plan schedules events after cycle 0 (surfaced
    /// by the CLI), mirroring the Auto-budget fallback.
    pub fn for_config_with_faults(
        topo: &'a dyn Topology,
        algo: &'a dyn RoutingAlgorithm,
        config: &SimConfig,
    ) -> (Option<Arc<Self>>, Option<&'static str>) {
        let dynamic = config.faults.as_deref().is_some_and(|s| !s.is_static());
        let reason = (dynamic && config.route_table != RouteTableMode::Off)
            .then_some("fault plan schedules events after cycle 0; route table disabled");
        (RouteTable::for_config(topo, algo, config), reason)
    }

    /// `true` if this table memoises `algo` on `topo` under `faults`:
    /// the same topology and algorithm objects, and the pruned relation
    /// exactly when `faults` is a static plan, with its cycle-0 set.
    pub(crate) fn serves(
        &self,
        topo: &dyn Topology,
        algo: &dyn RoutingAlgorithm,
        faults: Option<&FaultSchedule>,
    ) -> bool {
        let faults_match = match (faults, &self.pruned) {
            (None, None) => true,
            (Some(schedule), Some(pruned)) => {
                schedule.is_static() && schedule.failed_at_start() == pruned.failed()
            }
            _ => false,
        };
        std::ptr::addr_eq(self.topo, topo) && std::ptr::addr_eq(self.algo, algo) && faults_match
    }

    /// The permitted directions for a header at `node` bound for `dst`
    /// that arrived over `arrived` (`None` at its source) — exactly
    /// what the memoised relation's `route()` returns.
    ///
    /// # Panics
    ///
    /// Panics (by slice bounds) if `node`, `dst` or `arrived` is out of
    /// range for the tabled topology.
    #[inline]
    pub fn lookup(&self, node: NodeId, dst: NodeId, arrived: Option<Direction>) -> DirSet {
        let slot = match arrived {
            None => 0,
            Some(dir) => 1 + dir.index(),
        };
        let i = (node.index() * self.num_nodes + dst.index()) * self.slots + slot;
        match self.entries[i].load(Ordering::Relaxed) {
            0 => self.fill(i, node, dst, arrived),
            stored => DirSet::from_bits(u32::from(!stored)),
        }
    }

    /// Computes entry `i` = `(node, dst, arrived)`, stores it and
    /// returns it.
    #[cold]
    #[inline(never)]
    fn fill(&self, i: usize, node: NodeId, dst: NodeId, arrived: Option<Direction>) -> DirSet {
        let dirs = match &self.pruned {
            Some(pruned) => pruned.route(self.topo, node, dst, arrived),
            None => self.algo.route(self.topo, node, dst, arrived),
        };
        debug_assert!(dirs.bits() <= u32::from(u8::MAX), "DirSet exceeds one byte");
        // All eight directions store 0 and so stay "not computed".
        self.entries[i].store(!(dirs.bits() as u8), Ordering::Relaxed);
        dirs
    }

    /// The table's memory footprint in bytes (== entry count).
    pub fn size_bytes(&self) -> usize {
        self.entries.len()
    }
}

impl std::fmt::Debug for RouteTable<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteTable")
            .field("num_nodes", &self.num_nodes)
            .field("slots", &self.slots)
            .field("size_bytes", &self.entries.len())
            .field("pruned", &self.pruned.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, SeriesJob};
    use crate::patterns::Transpose;
    use crate::Simulation;
    use std::collections::HashMap;
    use std::sync::Mutex;
    use turnroute_core::{DimensionOrder, NegativeFirst, NegativeFirstTorus, PCube, WestFirst};
    use turnroute_topology::{Hypercube, Mesh, Torus};

    /// The reference traversal: walks the relation per destination from
    /// every source, checks every reachable `(node, dst, arrived)` state
    /// against the live relation — on the first lookup, which fills the
    /// entry, and on the second, which reads it back — and returns how
    /// many states it reached.
    fn assert_table_matches(topo: &dyn Topology, algo: &dyn RoutingAlgorithm) -> usize {
        let table = RouteTable::build(topo, algo).expect("pair must be tabulable");
        let mut states = 0usize;
        for dst in topo.nodes() {
            assert!(table.lookup(dst, dst, None).is_empty());
            let mut seen = std::collections::HashSet::new();
            let mut stack: Vec<(NodeId, Option<Direction>)> = topo
                .nodes()
                .filter(|&s| s != dst)
                .map(|s| (s, None))
                .collect();
            while let Some((node, arrived)) = stack.pop() {
                if !seen.insert((node, arrived)) {
                    continue;
                }
                states += 1;
                let dirs = algo.route(topo, node, dst, arrived);
                for _ in 0..2 {
                    assert_eq!(
                        table.lookup(node, dst, arrived),
                        dirs,
                        "{} {node:?}->{dst:?} arrived {arrived:?}",
                        algo.name()
                    );
                }
                for dir in dirs {
                    match topo.neighbor(node, dir) {
                        Some(next) if next != dst => stack.push((next, Some(dir))),
                        _ => {}
                    }
                }
            }
        }
        // Sanity: at minimum every at-source state was visited.
        assert!(states >= topo.num_nodes() * (topo.num_nodes() - 1));
        states
    }

    #[test]
    fn table_matches_relation_on_mesh() {
        let mesh = Mesh::new_2d(5, 4);
        assert_table_matches(&mesh, &WestFirst::minimal());
        assert_table_matches(&mesh, &DimensionOrder::new());
        assert_table_matches(&mesh, &NegativeFirst::minimal());
    }

    #[test]
    fn table_matches_relation_on_torus() {
        let torus = Torus::new(4, 2);
        assert_table_matches(&torus, &NegativeFirstTorus::new(&torus));
        assert_table_matches(&torus, &DimensionOrder::new());
    }

    #[test]
    fn table_matches_relation_on_small_hypercube() {
        // 3-cube: 6 directions, still one byte per entry.
        let cube = Hypercube::new(3);
        assert_table_matches(&cube, &PCube::minimal());
        assert_table_matches(&cube, &NegativeFirst::with_dims(3, true));
    }

    #[test]
    fn boundary_nodes_index_correctly() {
        // Corner-to-corner lookups exercise both extremes of the
        // `(node * N + dst) * S + slot` arithmetic: node 0 with dst 0
        // hits entry 0, and the last node to the last destination with
        // the highest arrival slot hits the final entry.
        let mesh = Mesh::new_2d(5, 4);
        let algo = NegativeFirst::minimal();
        let table = RouteTable::build(&mesh, &algo).unwrap();
        let n = mesh.num_nodes();
        let corners = [
            NodeId::new(0),     // (0, 0)
            NodeId::new(4),     // (4, 0)
            NodeId::new(15),    // (0, 3)
            NodeId::new(n - 1), // (4, 3)
        ];
        for &src in &corners {
            for &dst in &corners {
                if src == dst {
                    assert!(table.lookup(src, dst, None).is_empty());
                    continue;
                }
                assert_eq!(
                    table.lookup(src, dst, None),
                    algo.route(&mesh, src, dst, None),
                    "corner {src:?} -> corner {dst:?}"
                );
            }
        }
    }

    #[test]
    fn last_entry_of_the_table_is_reachable_and_correct() {
        // On a 1D mesh the highest-index state — last node, last
        // destination, arrived over the highest direction index — is
        // relation-reachable: node k-2 -> k-1 arriving over +d0.
        let mesh = Mesh::new(vec![6]);
        let algo = DimensionOrder::new();
        let table = RouteTable::build(&mesh, &algo).unwrap();
        let node = NodeId::new(4);
        let dst = NodeId::new(5);
        let arrived = Some(Direction::plus(0)); // index 1 = 2n - 1 for n = 1
        assert_eq!(
            table.lookup(node, dst, arrived),
            algo.route(&mesh, node, dst, arrived)
        );
        // And the max-arrival slot at the max node pair on a 2D mesh:
        // node 14 = (4, 2) forwarding north to dst 19 = (4, 3).
        let mesh = Mesh::new_2d(5, 4);
        let algo = NegativeFirst::minimal();
        let table = RouteTable::build(&mesh, &algo).unwrap();
        let node = NodeId::new(mesh.num_nodes() - 1);
        let dst = NodeId::new(mesh.num_nodes() - 1);
        assert!(table.lookup(node, dst, None).is_empty());
        let under = NodeId::new(14);
        let top = NodeId::new(19);
        let north = Some(Direction::NORTH); // highest arrival slot in 2D
        assert_eq!(
            table.lookup(under, top, north),
            algo.route(&mesh, under, top, north)
        );
    }

    #[test]
    fn memory_formula_is_exact() {
        let (mesh, wf) = (Mesh::new_2d(16, 16), WestFirst::minimal());
        let table = RouteTable::build(&mesh, &wf).unwrap();
        assert_eq!(RouteTable::required_bytes(&mesh), 256 * 256 * 5);
        assert_eq!(table.size_bytes(), RouteTable::required_bytes(&mesh));
    }

    #[test]
    fn high_dimensional_topologies_are_never_tabled() {
        // An 8-cube has 16 directions: a DirSet no longer fits a byte.
        let cube = Hypercube::new(8);
        let pcube = PCube::minimal();
        assert!(!RouteTable::supports(&cube, &pcube));
        assert!(RouteTable::build(&cube, &pcube).is_none());
        // Even `On` refuses the unsound table.
        let config = SimConfig::paper().route_table(RouteTableMode::On);
        assert!(RouteTable::for_config(&cube, &pcube, &config).is_none());
    }

    #[test]
    fn size_cap_fallback_engages_on_an_oversized_topology() {
        let mesh = Mesh::new_2d(16, 16);
        let wf = WestFirst::minimal();
        // 320 KiB required; a 64 KiB budget must force the fallback...
        let capped = SimConfig::paper().route_table_budget(64 << 10);
        assert!(RouteTable::for_config(&mesh, &wf, &capped).is_none());
        // ...while `On` ignores the budget and `Auto` under the default
        // budget builds.
        let forced = capped.clone().route_table(RouteTableMode::On);
        assert!(RouteTable::for_config(&mesh, &wf, &forced).is_some());
        assert!(RouteTable::for_config(&mesh, &wf, &SimConfig::paper()).is_some());
        // `Off` never builds, budget or not.
        let off = SimConfig::paper().route_table(RouteTableMode::Off);
        assert!(RouteTable::for_config(&mesh, &wf, &off).is_none());
    }

    #[test]
    fn non_tabulable_algorithms_opt_out() {
        struct Stateful;
        impl RoutingAlgorithm for Stateful {
            fn name(&self) -> String {
                "stateful".into()
            }
            fn route(
                &self,
                topo: &dyn Topology,
                current: NodeId,
                dest: NodeId,
                _arrived: Option<Direction>,
            ) -> DirSet {
                topo.minimal_directions(current, dest)
            }
            fn is_adaptive(&self) -> bool {
                true
            }
            fn is_minimal(&self) -> bool {
                true
            }
            fn is_tabulable(&self) -> bool {
                false
            }
        }
        let mesh = Mesh::new_2d(4, 4);
        assert!(!RouteTable::supports(&mesh, &Stateful));
        assert!(RouteTable::build(&mesh, &Stateful).is_none());
    }

    #[test]
    fn debug_is_a_summary_not_a_dump() {
        let (mesh, xy) = (Mesh::new_2d(4, 4), DimensionOrder::new());
        let table = RouteTable::build(&mesh, &xy).unwrap();
        let text = format!("{table:?}");
        assert!(text.contains("size_bytes"), "{text}");
        assert!(text.len() < 200, "{text}");
    }

    /// A `(node, dst, arrived)` routing state.
    type State = (NodeId, NodeId, Option<Direction>);

    /// Routes like `inner` and counts the `route()` calls per state.
    struct Counting<'a> {
        inner: &'a dyn RoutingAlgorithm,
        calls: Mutex<HashMap<State, u32>>,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn RoutingAlgorithm) -> Self {
            Counting {
                inner,
                calls: Mutex::default(),
            }
        }

        /// `(distinct states computed, most calls for one state)`.
        fn tally(&self) -> (usize, u32) {
            let calls = self.calls.lock().expect("counter poisoned");
            (calls.len(), calls.values().copied().max().unwrap_or(0))
        }
    }

    impl RoutingAlgorithm for Counting<'_> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn route(
            &self,
            topo: &dyn Topology,
            current: NodeId,
            dest: NodeId,
            arrived: Option<Direction>,
        ) -> DirSet {
            *self
                .calls
                .lock()
                .expect("counter poisoned")
                .entry((current, dest, arrived))
                .or_default() += 1;
            self.inner.route(topo, current, dest, arrived)
        }
        fn is_adaptive(&self) -> bool {
            self.inner.is_adaptive()
        }
        fn is_minimal(&self) -> bool {
            self.inner.is_minimal()
        }
    }

    fn series_config(mode: RouteTableMode) -> SimConfig {
        SimConfig::paper()
            .warmup_cycles(200)
            .measure_cycles(1_000)
            .seed(5)
            .route_table(mode)
    }

    #[test]
    fn a_series_computes_each_state_once_per_worker() {
        let mesh = Mesh::new_2d(6, 6);
        let wf = WestFirst::minimal();
        let loads = [0.02, 0.05, 0.10, 0.20, 0.30, 0.40];
        let run = |algo: &dyn RoutingAlgorithm, mode: RouteTableMode, threads: usize| {
            let config = series_config(mode);
            let job = SeriesJob::simulation(&mesh, algo, &Transpose, &config, &loads);
            format!("{:?}", Executor::new(threads).run(vec![job]))
        };
        let off = run(&wf, RouteTableMode::Off, 1);
        for threads in [1, 2] {
            let counting = Counting::new(&wf);
            assert_eq!(run(&counting, RouteTableMode::On, threads), off);
            let (states, most) = counting.tally();
            assert!(states > 0);
            // Every cell of the series shares one memo. Workers running
            // two cells may race to fill the same entry, each computing
            // it once; one worker never computes a state twice.
            assert!(most as usize <= threads, "{threads} threads: {most} calls");
        }
    }

    #[test]
    fn a_transpose_cell_fills_a_fraction_of_the_reachable_states() {
        let mesh = Mesh::new_2d(16, 16);
        let nf = NegativeFirst::minimal();
        let reachable = assert_table_matches(&mesh, &nf);
        let counting = Counting::new(&nf);
        let config = series_config(RouteTableMode::On).injection_rate(0.1);
        let report = Simulation::new(&mesh, &counting, &Transpose, config.clone()).run();
        let off = config.route_table(RouteTableMode::Off);
        let direct = Simulation::new(&mesh, &nf, &Transpose, off).run();
        assert_eq!(format!("{report:?}"), format!("{direct:?}"));
        let (filled, most) = counting.tally();
        assert_eq!(most, 1);
        assert!(
            filled * 4 <= reachable,
            "filled {filled} of {reachable} reachable states"
        );
    }

    #[test]
    fn all_eight_directions_are_recomputed_not_remembered() {
        /// Offers every direction of a 4-D topology away from the
        /// destination: the one set whose encoding is 0.
        struct Anywhere;
        impl RoutingAlgorithm for Anywhere {
            fn name(&self) -> String {
                "anywhere".into()
            }
            fn route(
                &self,
                topo: &dyn Topology,
                current: NodeId,
                dest: NodeId,
                _arrived: Option<Direction>,
            ) -> DirSet {
                if current == dest {
                    DirSet::new()
                } else {
                    DirSet::all(topo.num_dims())
                }
            }
            fn is_adaptive(&self) -> bool {
                true
            }
            fn is_minimal(&self) -> bool {
                false
            }
        }
        let mesh = Mesh::new(vec![3, 3, 3, 3]);
        let counting = Counting::new(&Anywhere);
        let table = RouteTable::build(&mesh, &counting).expect("4 dimensions fit a byte");
        let (src, dst) = (NodeId::new(0), NodeId::new(mesh.num_nodes() - 1));
        for _ in 0..3 {
            assert_eq!(table.lookup(src, dst, None), DirSet::all(4));
            assert_eq!(table.lookup(dst, dst, None), DirSet::new());
        }
        // The full set was asked for three times and computed three
        // times; the empty set at the destination only once.
        assert_eq!(counting.tally(), (2, 3));
    }
}
