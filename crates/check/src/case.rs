//! Conformance cases: a self-contained, text-serializable description
//! of one generated scenario — topology, algorithm, traffic pattern,
//! load, message lengths, selection policies, seed, windows, thread
//! count and static fault set.
//!
//! Cases round-trip through a one-line `key=value` format so shrunk
//! counterexamples can be committed to
//! `crates/check/regressions/conformance.txt` and replayed forever (the
//! offline stand-in for `proptest-regressions/`).

use std::fmt;
use std::sync::Arc;

use turnroute_core::{
    Abonf, Abopl, DimensionOrder, FirstHopWraparound, NegativeFirst, NegativeFirstTorus, NorthLast,
    PCube, RoutingAlgorithm, TurnSet, WestFirst,
};
use turnroute_fault::FaultPlan;
use turnroute_rng::split_mix_64;
use turnroute_sim::patterns::{
    BitComplement, BitReversal, DiagonalTranspose, Hotspot, NearestNeighbor, ReverseFlip, Shuffle,
    Tornado, Trace, TrafficPattern, Transpose, Uniform,
};
use turnroute_sim::{InputSelection, LengthDistribution, OutputSelection, SimConfig, TrafficModel};
use turnroute_synth::{synthesize, GraphSpec, GraphTopology, SynthesisOptions};
use turnroute_topology::{ChannelId, Hypercube, Mesh, NodeId, Topology, Torus};

/// Topology of a case, within the suite's size bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoSpec {
    /// An n-dimensional mesh with the given extents.
    Mesh(Vec<usize>),
    /// A k-ary n-cube torus.
    Torus {
        /// Radix (≥ 3; k = 2 is a hypercube).
        k: usize,
        /// Dimensions.
        n: usize,
    },
    /// An n-dimensional hypercube.
    Hypercube(usize),
    /// A fully connected graph on `n` nodes (a graph topology).
    FullMesh(usize),
    /// A bidirectional ring on `n` nodes (a graph topology).
    Ring(usize),
}

impl TopoSpec {
    /// Instantiates the topology.
    pub fn build(&self) -> Box<dyn Topology> {
        match self {
            TopoSpec::Mesh(dims) => Box::new(Mesh::new(dims.clone())),
            TopoSpec::Torus { k, n } => Box::new(Torus::new(*k, *n)),
            TopoSpec::Hypercube(n) => Box::new(Hypercube::new(*n)),
            TopoSpec::FullMesh(n) => Box::new(
                GraphTopology::new(&GraphSpec::full_mesh(*n)).expect("validated full mesh builds"),
            ),
            TopoSpec::Ring(n) => {
                Box::new(GraphTopology::new(&GraphSpec::ring(*n)).expect("validated ring builds"))
            }
        }
    }

    /// Node count without instantiating the topology (cases gate the
    /// trace pattern's referenced-node range on it).
    pub fn num_nodes(&self) -> usize {
        match self {
            TopoSpec::Mesh(dims) => dims.iter().product(),
            TopoSpec::Torus { k, n } => k.pow(*n as u32),
            TopoSpec::Hypercube(n) => 1 << n,
            TopoSpec::FullMesh(n) | TopoSpec::Ring(n) => *n,
        }
    }

    fn num_dims(&self) -> usize {
        match self {
            TopoSpec::Mesh(dims) => dims.len(),
            TopoSpec::Torus { n, .. } => *n,
            TopoSpec::Hypercube(n) => *n,
            // Graph topologies have direction-pair counts, not
            // geometric dimensions; no Cartesian algorithm supports
            // them, so the value is never load-bearing.
            TopoSpec::FullMesh(_) | TopoSpec::Ring(_) => 0,
        }
    }

    fn is_square_2d_mesh(&self) -> bool {
        matches!(self, TopoSpec::Mesh(dims) if dims.len() == 2 && dims[0] == dims[1])
    }
}

impl fmt::Display for TopoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoSpec::Mesh(dims) => {
                write!(f, "mesh:")?;
                for (i, d) in dims.iter().enumerate() {
                    if i > 0 {
                        write!(f, "x")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            TopoSpec::Torus { k, n } => write!(f, "torus:{k},{n}"),
            TopoSpec::Hypercube(n) => write!(f, "hypercube:{n}"),
            TopoSpec::FullMesh(n) => write!(f, "fullmesh:{n}"),
            TopoSpec::Ring(n) => write!(f, "ring:{n}"),
        }
    }
}

/// Routing algorithm of a case. The `bool` on the two-phase algorithms
/// selects the minimal (`true`) or nonminimal variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoSpec {
    /// Dimension-order ("xy" / e-cube) routing.
    DimensionOrder,
    /// West-first (2D mesh).
    WestFirst(bool),
    /// North-last (2D mesh).
    NorthLast(bool),
    /// Negative-first (any mesh-like dimensionality).
    NegativeFirst(bool),
    /// Abbreviated negative-first, "abonf".
    Abonf(bool),
    /// Abbreviated positive-last, "abopl".
    Abopl(bool),
    /// The p-cube algorithm (hypercube).
    PCube(bool),
    /// Negative-first extended to tori.
    NegativeFirstTorus,
    /// First-hop-wraparound torus routing over minimal negative-first.
    FirstHopWrap,
    /// A synthesized turn model (graph topologies), from a fixed-seed
    /// bounded search so cases stay deterministic.
    Synth,
}

impl AlgoSpec {
    const NAMES: &'static [(AlgoSpec, &'static str)] = &[
        (AlgoSpec::DimensionOrder, "xy"),
        (AlgoSpec::WestFirst(true), "west-first"),
        (AlgoSpec::WestFirst(false), "west-first-nonmin"),
        (AlgoSpec::NorthLast(true), "north-last"),
        (AlgoSpec::NorthLast(false), "north-last-nonmin"),
        (AlgoSpec::NegativeFirst(true), "negative-first"),
        (AlgoSpec::NegativeFirst(false), "negative-first-nonmin"),
        (AlgoSpec::Abonf(true), "abonf"),
        (AlgoSpec::Abonf(false), "abonf-nonmin"),
        (AlgoSpec::Abopl(true), "abopl"),
        (AlgoSpec::Abopl(false), "abopl-nonmin"),
        (AlgoSpec::PCube(true), "p-cube"),
        (AlgoSpec::PCube(false), "p-cube-nonmin"),
        (AlgoSpec::NegativeFirstTorus, "negative-first-torus"),
        (AlgoSpec::FirstHopWrap, "first-hop-wrap"),
        (AlgoSpec::Synth, "synth"),
    ];

    fn name(self) -> &'static str {
        AlgoSpec::NAMES
            .iter()
            .find(|(a, _)| *a == self)
            .expect("every variant is named")
            .1
    }

    /// `true` if this algorithm is defined on `topo`.
    pub fn supports(self, topo: &TopoSpec) -> bool {
        let n = topo.num_dims();
        match self {
            AlgoSpec::DimensionOrder => {
                matches!(topo, TopoSpec::Mesh(_) | TopoSpec::Hypercube(_))
            }
            AlgoSpec::WestFirst(_) | AlgoSpec::NorthLast(_) => {
                matches!(topo, TopoSpec::Mesh(_)) && n == 2
            }
            AlgoSpec::NegativeFirst(_) | AlgoSpec::Abonf(_) | AlgoSpec::Abopl(_) => {
                matches!(topo, TopoSpec::Mesh(_) | TopoSpec::Hypercube(_))
            }
            AlgoSpec::PCube(_) => matches!(topo, TopoSpec::Hypercube(_)),
            AlgoSpec::NegativeFirstTorus | AlgoSpec::FirstHopWrap => {
                matches!(topo, TopoSpec::Torus { .. })
            }
            AlgoSpec::Synth => matches!(topo, TopoSpec::FullMesh(_) | TopoSpec::Ring(_)),
        }
    }

    /// Instantiates the algorithm for `topo`.
    pub fn build(self, topo: &TopoSpec) -> Box<dyn RoutingAlgorithm> {
        let n = topo.num_dims();
        match self {
            AlgoSpec::DimensionOrder => Box::new(DimensionOrder::new()),
            AlgoSpec::WestFirst(min) => Box::new(WestFirst::with_dims(n, min)),
            AlgoSpec::NorthLast(min) => Box::new(NorthLast::with_dims(n, min)),
            AlgoSpec::NegativeFirst(min) => Box::new(NegativeFirst::with_dims(n, min)),
            AlgoSpec::Abonf(min) => Box::new(Abonf::with_dims(n, min)),
            AlgoSpec::Abopl(min) => Box::new(Abopl::with_dims(n, min)),
            AlgoSpec::PCube(min) => {
                if min {
                    Box::new(PCube::minimal())
                } else {
                    Box::new(PCube::nonminimal())
                }
            }
            AlgoSpec::NegativeFirstTorus => {
                let TopoSpec::Torus { k, n } = *topo else {
                    panic!("negative-first-torus needs a torus");
                };
                Box::new(NegativeFirstTorus::new(&Torus::new(k, n)))
            }
            AlgoSpec::FirstHopWrap => {
                let TopoSpec::Torus { k, n } = *topo else {
                    panic!("first-hop-wrap needs a torus");
                };
                Box::new(FirstHopWraparound::new(
                    &Torus::new(k, n),
                    NegativeFirst::with_dims(n, true),
                ))
            }
            AlgoSpec::Synth => {
                // A fixed-seed bounded search keeps the case cheap and
                // reproducible; the suite's graph topologies are
                // bidirectional, so a viable relation always exists.
                let built = topo.build();
                let synthesis = synthesize(
                    built.as_ref(),
                    &SynthesisOptions {
                        seed: 1,
                        candidates: 8,
                        threads: 1,
                    },
                )
                .expect("bidirectional suite graphs synthesize");
                Box::new(synthesis.routing)
            }
        }
    }

    /// The mesh turn set this algorithm routes within, when it has one
    /// (torus wraparound algorithms are not turn-set classifiable).
    /// Feeds the prohibited-turn observer check.
    pub fn turn_set(self, topo: &TopoSpec) -> Option<TurnSet> {
        let n = topo.num_dims();
        match self {
            AlgoSpec::DimensionOrder => Some(TurnSet::dimension_order(n)),
            AlgoSpec::WestFirst(_) => Some(TurnSet::west_first()),
            AlgoSpec::NorthLast(_) => Some(TurnSet::north_last()),
            AlgoSpec::NegativeFirst(_) | AlgoSpec::PCube(_) => Some(TurnSet::negative_first(n)),
            AlgoSpec::Abonf(_) => Some(TurnSet::abonf(n)),
            AlgoSpec::Abopl(_) => Some(TurnSet::abopl(n)),
            AlgoSpec::NegativeFirstTorus | AlgoSpec::FirstHopWrap | AlgoSpec::Synth => None,
        }
    }
}

impl fmt::Display for AlgoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Traffic pattern of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSpec {
    /// Uniform random destinations.
    Uniform,
    /// Matrix transpose (2D square mesh).
    Transpose,
    /// Diagonal transpose (2D square mesh).
    DiagonalTranspose,
    /// Coordinate reflection.
    BitComplement,
    /// Halfway around dimension 0.
    Tornado,
    /// A uniformly random neighbor.
    NearestNeighbor,
    /// 20% of traffic to node 0, the rest uniform.
    Hotspot,
    /// Reverse-flip (hypercube).
    ReverseFlip,
    /// Bit-reversal (hypercube).
    BitReversal,
    /// Perfect shuffle (hypercube).
    Shuffle,
    /// A trace-driven destination file over the first `nodes` nodes,
    /// generated deterministically from `seed` and written to a temp
    /// fixture at build time (exercising the file parser end to end).
    Trace {
        /// Nodes the fixture references (2..=topology size).
        nodes: u16,
        /// Content seed for the deterministic fixture generator.
        seed: u16,
    },
}

impl PatternSpec {
    const NAMES: &'static [(PatternSpec, &'static str)] = &[
        (PatternSpec::Uniform, "uniform"),
        (PatternSpec::Transpose, "transpose"),
        (PatternSpec::DiagonalTranspose, "diagonal-transpose"),
        (PatternSpec::BitComplement, "bit-complement"),
        (PatternSpec::Tornado, "tornado"),
        (PatternSpec::NearestNeighbor, "neighbor"),
        (PatternSpec::Hotspot, "hotspot"),
        (PatternSpec::ReverseFlip, "reverse-flip"),
        (PatternSpec::BitReversal, "bit-reversal"),
        (PatternSpec::Shuffle, "shuffle"),
    ];

    fn name(self) -> &'static str {
        PatternSpec::NAMES
            .iter()
            .find(|(p, _)| *p == self)
            .expect("every non-parameterized variant is named")
            .1
    }

    /// `true` if this pattern is defined on `topo`.
    pub fn supports(self, topo: &TopoSpec) -> bool {
        match self {
            PatternSpec::Uniform
            | PatternSpec::BitComplement
            | PatternSpec::Tornado
            | PatternSpec::NearestNeighbor
            | PatternSpec::Hotspot => true,
            PatternSpec::Transpose | PatternSpec::DiagonalTranspose => topo.is_square_2d_mesh(),
            PatternSpec::ReverseFlip | PatternSpec::BitReversal | PatternSpec::Shuffle => {
                matches!(topo, TopoSpec::Hypercube(_))
            }
            PatternSpec::Trace { nodes, .. } => usize::from(nodes) <= topo.num_nodes(),
        }
    }

    /// Instantiates the pattern.
    pub fn build(self) -> Box<dyn TrafficPattern> {
        match self {
            PatternSpec::Uniform => Box::new(Uniform),
            PatternSpec::Transpose => Box::new(Transpose),
            PatternSpec::DiagonalTranspose => Box::new(DiagonalTranspose),
            PatternSpec::BitComplement => Box::new(BitComplement),
            PatternSpec::Tornado => Box::new(Tornado),
            PatternSpec::NearestNeighbor => Box::new(NearestNeighbor),
            PatternSpec::Hotspot => Box::new(Hotspot::new(NodeId::new(0), 0.2)),
            PatternSpec::ReverseFlip => Box::new(ReverseFlip),
            PatternSpec::BitReversal => Box::new(BitReversal),
            PatternSpec::Shuffle => Box::new(Shuffle),
            PatternSpec::Trace { nodes, seed } => {
                // Round-trip through a real file so the case covers the
                // same path as `--pattern trace:FILE`, not just the
                // in-memory parser.
                let text = trace_fixture_text(nodes, seed);
                let path = std::env::temp_dir()
                    .join(format!("turnroute-check-trace-{nodes}-{seed}.trace"));
                std::fs::write(&path, &text).expect("trace fixture writes");
                let read = std::fs::read_to_string(&path).expect("trace fixture reads back");
                Box::new(
                    Trace::parse(&read, format!("trace:{nodes},{seed}"))
                        .expect("generated trace fixture parses"),
                )
            }
        }
    }
}

/// Deterministic trace-file content for [`PatternSpec::Trace`]: every
/// source gets 1-3 weighted destination entries from a splitmix walk,
/// so the one-line case serialization reproduces the whole fixture.
fn trace_fixture_text(nodes: u16, seed: u16) -> String {
    use fmt::Write as _;
    let mut s = 0x7472_6163_653A_0000u64 ^ (u64::from(seed) << 32) ^ u64::from(nodes);
    let mut out = format!("# conformance trace fixture nodes={nodes} seed={seed}\n");
    for src in 0..u64::from(nodes) {
        let entries = 1 + split_mix_64(&mut s) % 3;
        for _ in 0..entries {
            let dst = split_mix_64(&mut s) % u64::from(nodes);
            let weight = 1 + split_mix_64(&mut s) % 9;
            let _ = writeln!(out, "{src} {dst} {weight}");
        }
    }
    out
}

impl fmt::Display for PatternSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternSpec::Trace { nodes, seed } => write!(f, "trace:{nodes},{seed}"),
            other => f.write_str(other.name()),
        }
    }
}

/// Message length distribution of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthSpec {
    /// Every message the same length.
    Fixed(u32),
    /// Two lengths, equally likely.
    Bimodal(u32, u32),
}

impl LengthSpec {
    fn to_distribution(self) -> LengthDistribution {
        match self {
            LengthSpec::Fixed(l) => LengthDistribution::Fixed(l),
            LengthSpec::Bimodal(short, long) => LengthDistribution::Bimodal { short, long },
        }
    }
}

impl fmt::Display for LengthSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LengthSpec::Fixed(l) => write!(f, "fixed:{l}"),
            LengthSpec::Bimodal(s, l) => write!(f, "bimodal:{s},{l}"),
        }
    }
}

/// One fully specified conformance scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceCase {
    /// Topology.
    pub topo: TopoSpec,
    /// Routing algorithm.
    pub algo: AlgoSpec,
    /// Traffic pattern.
    pub pattern: PatternSpec,
    /// Offered load per node in flits per cycle.
    pub load: f64,
    /// Arrival process delivering that load (Poisson or bursty MMPP).
    pub traffic: TrafficModel,
    /// Message lengths.
    pub lengths: LengthSpec,
    /// Input (arbitration) policy.
    pub input: InputSelection,
    /// Output (channel choice) policy.
    pub output: OutputSelection,
    /// RNG seed.
    pub seed: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement window cycles.
    pub measure: u64,
    /// Executor thread count for the thread-invariance check.
    pub threads: usize,
    /// Channel indices failed permanently from cycle 0 (static plan).
    pub faults: Vec<usize>,
}

/// A case instantiated into the simulator's types.
pub struct BuiltCase {
    /// The topology.
    pub topo: Box<dyn Topology>,
    /// The routing algorithm.
    pub algo: Box<dyn RoutingAlgorithm>,
    /// The traffic pattern.
    pub pattern: Box<dyn TrafficPattern>,
    /// The mesh turn set the algorithm routes within, if classifiable.
    pub turn_set: Option<TurnSet>,
    /// The base configuration (route-table mode left at the default;
    /// the invariant runner overrides it per run).
    pub config: SimConfig,
    /// Executor thread count for the thread-invariance check.
    pub threads: usize,
}

impl ConformanceCase {
    /// Checks the case is inside the suite's bounds and internally
    /// consistent (algorithm and pattern defined on the topology, fault
    /// indices in range). Generated cases always pass; shrink candidates
    /// and hand-written regression entries are filtered through this.
    pub fn validate(&self) -> Result<(), String> {
        match &self.topo {
            TopoSpec::Mesh(dims) => {
                if dims.is_empty() || dims.len() > 3 {
                    return Err(format!("mesh must have 1-3 dims, got {}", dims.len()));
                }
                if dims.iter().any(|&d| !(2..=8).contains(&d)) {
                    return Err(format!("mesh extents must be in 2..=8, got {dims:?}"));
                }
                if dims.iter().product::<usize>() > 64 {
                    return Err("mesh larger than 64 nodes".into());
                }
            }
            TopoSpec::Torus { k, n } => {
                if !(3..=5).contains(k) || !(1..=2).contains(n) {
                    return Err(format!("torus bounds: k in 3..=5, n in 1..=2, got {k},{n}"));
                }
            }
            TopoSpec::Hypercube(n) => {
                if !(1..=4).contains(n) {
                    return Err(format!("hypercube bounds: n in 1..=4, got {n}"));
                }
            }
            TopoSpec::FullMesh(n) => {
                if !(3..=6).contains(n) {
                    return Err(format!("fullmesh bounds: n in 3..=6, got {n}"));
                }
            }
            TopoSpec::Ring(n) => {
                if !(3..=8).contains(n) {
                    return Err(format!("ring bounds: n in 3..=8, got {n}"));
                }
            }
        }
        if !self.algo.supports(&self.topo) {
            return Err(format!("{} is not defined on {}", self.algo, self.topo));
        }
        if !self.pattern.supports(&self.topo) {
            return Err(format!("{} is not defined on {}", self.pattern, self.topo));
        }
        if !(self.load > 0.0 && self.load <= 2.0) {
            return Err(format!("load must be in (0, 2], got {}", self.load));
        }
        if let TrafficModel::Mmpp {
            burst_cycles,
            idle_cycles,
        } = self.traffic
        {
            for v in [burst_cycles, idle_cycles] {
                if !(1.0..=4096.0).contains(&v) {
                    return Err(format!("mmpp sojourns must be in 1..=4096 cycles, got {v}"));
                }
            }
        }
        if let PatternSpec::Trace { nodes, .. } = self.pattern {
            if nodes < 2 {
                return Err(format!("trace pattern needs at least 2 nodes, got {nodes}"));
            }
        }
        match self.lengths {
            LengthSpec::Fixed(l) if l == 0 || l > 256 => {
                return Err("fixed length must be in 1..=256".into());
            }
            LengthSpec::Bimodal(s, l) if s == 0 || l == 0 || s > 256 || l > 256 => {
                return Err("bimodal lengths must be in 1..=256".into());
            }
            _ => {}
        }
        if self.warmup > 1024 {
            return Err(format!("warmup must be <= 1024, got {}", self.warmup));
        }
        if !(128..=2048).contains(&self.measure) {
            return Err(format!(
                "measure must be in 128..=2048, got {}",
                self.measure
            ));
        }
        if !(1..=4).contains(&self.threads) {
            return Err(format!("threads must be in 1..=4, got {}", self.threads));
        }
        let channels = self.topo.build().num_channels();
        if self.faults.len() > 3 {
            return Err("at most 3 fault channels".into());
        }
        if self.faults.iter().any(|&c| c >= channels) {
            return Err(format!(
                "fault channel out of range (topology has {channels})"
            ));
        }
        let mut sorted = self.faults.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != self.faults.len() {
            return Err("duplicate fault channels".into());
        }
        Ok(())
    }

    /// Instantiates the case. Call [`ConformanceCase::validate`] first;
    /// building an invalid case may panic in a constructor.
    pub fn build(&self) -> BuiltCase {
        let topo = self.topo.build();
        let algo = self.algo.build(&self.topo);
        let pattern = self.pattern.build();
        let turn_set = self.algo.turn_set(&self.topo);
        let mut config = SimConfig::paper()
            .injection_rate(self.load)
            .traffic(self.traffic)
            .lengths(self.lengths.to_distribution())
            .input_selection(self.input)
            .output_selection(self.output)
            .seed(self.seed)
            .warmup_cycles(self.warmup)
            .measure_cycles(self.measure)
            .deadlock_threshold(1024);
        if !self.faults.is_empty() {
            let mut plan = FaultPlan::new();
            for &c in &self.faults {
                plan = plan.channel(ChannelId::new(c), 0);
            }
            let schedule = plan
                .compile(topo.as_ref())
                .expect("validated fault channels compile");
            config.faults = Some(Arc::new(schedule));
        }
        BuiltCase {
            topo,
            algo,
            pattern,
            turn_set,
            config,
            threads: self.threads,
        }
    }

    /// Parses the one-line `key=value` serialization produced by
    /// [`fmt::Display`].
    pub fn parse(line: &str) -> Result<ConformanceCase, String> {
        let mut topo = None;
        let mut algo = None;
        let mut pattern = None;
        let mut load = None;
        // Absent from pre-MMPP corpus lines; those keep the legacy
        // Poisson stream.
        let mut traffic = TrafficModel::Poisson;
        let mut lengths = None;
        let mut input = None;
        let mut output = None;
        let mut seed = None;
        let mut warmup = None;
        let mut measure = None;
        let mut threads = None;
        let mut faults = Vec::new();
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("field without '=': {field}"))?;
            match key {
                "topo" => topo = Some(parse_topo(value)?),
                "algo" => {
                    algo = Some(
                        AlgoSpec::NAMES
                            .iter()
                            .find(|(_, n)| *n == value)
                            .map(|(a, _)| *a)
                            .ok_or_else(|| format!("unknown algorithm {value}"))?,
                    );
                }
                "pattern" => {
                    pattern = Some(if let Some(rest) = value.strip_prefix("trace:") {
                        let (n, s) = rest
                            .split_once(',')
                            .ok_or_else(|| format!("bad trace pattern {value} (want trace:N,S)"))?;
                        PatternSpec::Trace {
                            nodes: parse_u64(n, "trace nodes")? as u16,
                            seed: parse_u64(s, "trace seed")? as u16,
                        }
                    } else {
                        PatternSpec::NAMES
                            .iter()
                            .find(|(_, n)| *n == value)
                            .map(|(p, _)| *p)
                            .ok_or_else(|| format!("unknown pattern {value}"))?
                    });
                }
                "load" => {
                    load = Some(
                        value
                            .parse::<f64>()
                            .map_err(|e| format!("bad load {value}: {e}"))?,
                    );
                }
                "traffic" => traffic = parse_traffic_model(value)?,
                "len" => lengths = Some(parse_lengths(value)?),
                "input" => {
                    input = Some(match value {
                        "fcfs" => InputSelection::FirstComeFirstServed,
                        "fixed" => InputSelection::FixedPriority,
                        "random" => InputSelection::Random,
                        other => return Err(format!("unknown input selection {other}")),
                    });
                }
                "output" => {
                    output = Some(match value {
                        "lowest" => OutputSelection::LowestDimension,
                        "highest" => OutputSelection::HighestDimension,
                        "straight" => OutputSelection::StraightFirst,
                        "random" => OutputSelection::Random,
                        other => return Err(format!("unknown output selection {other}")),
                    });
                }
                "seed" => seed = Some(parse_u64(value, "seed")?),
                "warmup" => warmup = Some(parse_u64(value, "warmup")?),
                "measure" => measure = Some(parse_u64(value, "measure")?),
                "threads" => threads = Some(parse_u64(value, "threads")? as usize),
                "faults" => {
                    for part in value.split(',') {
                        faults.push(parse_u64(part, "fault channel")? as usize);
                    }
                }
                other => return Err(format!("unknown field {other}")),
            }
        }
        Ok(ConformanceCase {
            topo: topo.ok_or("missing topo")?,
            algo: algo.ok_or("missing algo")?,
            pattern: pattern.ok_or("missing pattern")?,
            load: load.ok_or("missing load")?,
            traffic,
            lengths: lengths.ok_or("missing len")?,
            input: input.ok_or("missing input")?,
            output: output.ok_or("missing output")?,
            seed: seed.ok_or("missing seed")?,
            warmup: warmup.ok_or("missing warmup")?,
            measure: measure.ok_or("missing measure")?,
            threads: threads.ok_or("missing threads")?,
            faults,
        })
    }
}

impl fmt::Display for ConformanceCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let input = match self.input {
            InputSelection::FirstComeFirstServed => "fcfs",
            InputSelection::FixedPriority => "fixed",
            InputSelection::Random => "random",
        };
        let output = match self.output {
            OutputSelection::LowestDimension => "lowest",
            OutputSelection::HighestDimension => "highest",
            OutputSelection::StraightFirst => "straight",
            OutputSelection::Random => "random",
        };
        write!(
            f,
            "topo={} algo={} pattern={} load={} len={} input={input} output={output} \
             seed={} warmup={} measure={} threads={}",
            self.topo,
            self.algo,
            self.pattern,
            self.load,
            self.lengths,
            self.seed,
            self.warmup,
            self.measure,
            self.threads,
        )?;
        // Only emitted when non-default, so pre-MMPP corpus lines
        // round-trip byte-identically.
        if self.traffic != TrafficModel::Poisson {
            write!(f, " traffic={}", self.traffic.as_spec())?;
        }
        if !self.faults.is_empty() {
            write!(f, " faults=")?;
            for (i, c) in self.faults.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

fn parse_u64(value: &str, what: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|e| format!("bad {what} {value}: {e}"))
}

fn parse_topo(value: &str) -> Result<TopoSpec, String> {
    let (kind, rest) = value
        .split_once(':')
        .ok_or_else(|| format!("bad topology {value}"))?;
    match kind {
        "mesh" => {
            let dims = rest
                .split('x')
                .map(|d| {
                    d.parse::<usize>()
                        .map_err(|e| format!("bad mesh extent {d}: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TopoSpec::Mesh(dims))
        }
        "torus" => {
            let (k, n) = rest
                .split_once(',')
                .ok_or_else(|| format!("bad torus {rest} (want k,n)"))?;
            Ok(TopoSpec::Torus {
                k: parse_u64(k, "torus radix")? as usize,
                n: parse_u64(n, "torus dims")? as usize,
            })
        }
        "hypercube" => Ok(TopoSpec::Hypercube(
            parse_u64(rest, "hypercube dims")? as usize
        )),
        "fullmesh" => Ok(TopoSpec::FullMesh(
            parse_u64(rest, "fullmesh nodes")? as usize
        )),
        "ring" => Ok(TopoSpec::Ring(parse_u64(rest, "ring nodes")? as usize)),
        other => Err(format!("unknown topology kind {other}")),
    }
}

fn parse_traffic_model(value: &str) -> Result<TrafficModel, String> {
    if value == "poisson" {
        return Ok(TrafficModel::Poisson);
    }
    let rest = value
        .strip_prefix("mmpp:")
        .ok_or_else(|| format!("unknown traffic model {value}"))?;
    let (b, i) = rest
        .split_once(',')
        .ok_or_else(|| format!("bad traffic {value} (want mmpp:B,I)"))?;
    Ok(TrafficModel::Mmpp {
        burst_cycles: b
            .parse::<f64>()
            .map_err(|e| format!("bad mmpp burst {b}: {e}"))?,
        idle_cycles: i
            .parse::<f64>()
            .map_err(|e| format!("bad mmpp idle {i}: {e}"))?,
    })
}

fn parse_lengths(value: &str) -> Result<LengthSpec, String> {
    let (kind, rest) = value
        .split_once(':')
        .ok_or_else(|| format!("bad lengths {value}"))?;
    match kind {
        "fixed" => Ok(LengthSpec::Fixed(parse_u64(rest, "length")? as u32)),
        "bimodal" => {
            let (s, l) = rest
                .split_once(',')
                .ok_or_else(|| format!("bad bimodal lengths {rest}"))?;
            Ok(LengthSpec::Bimodal(
                parse_u64(s, "short length")? as u32,
                parse_u64(l, "long length")? as u32,
            ))
        }
        other => Err(format!("unknown length kind {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConformanceCase {
        ConformanceCase {
            topo: TopoSpec::Mesh(vec![4, 3]),
            algo: AlgoSpec::WestFirst(true),
            pattern: PatternSpec::Uniform,
            load: 0.05,
            traffic: TrafficModel::Poisson,
            lengths: LengthSpec::Bimodal(4, 32),
            input: InputSelection::Random,
            output: OutputSelection::Random,
            seed: 0xDEAD_BEEF,
            warmup: 128,
            measure: 512,
            threads: 2,
            faults: vec![3, 17],
        }
    }

    #[test]
    fn display_parse_round_trip() {
        let case = sample();
        let line = case.to_string();
        let back = ConformanceCase::parse(&line).unwrap();
        assert_eq!(case, back);
        assert!(case.validate().is_ok(), "{:?}", case.validate());
    }

    #[test]
    fn parse_rejects_unknown_fields() {
        assert!(ConformanceCase::parse("topo=mesh:4x4 wat=1").is_err());
        assert!(ConformanceCase::parse("topo=blob:9").is_err());
    }

    #[test]
    fn graph_cases_round_trip_and_build() {
        let case = ConformanceCase {
            topo: TopoSpec::FullMesh(4),
            algo: AlgoSpec::Synth,
            pattern: PatternSpec::Uniform,
            load: 0.05,
            traffic: TrafficModel::Poisson,
            lengths: LengthSpec::Fixed(8),
            input: InputSelection::FirstComeFirstServed,
            output: OutputSelection::LowestDimension,
            seed: 11,
            warmup: 64,
            measure: 256,
            threads: 2,
            faults: Vec::new(),
        };
        assert!(case.validate().is_ok(), "{:?}", case.validate());
        let line = case.to_string();
        assert!(line.starts_with("topo=fullmesh:4 algo=synth"), "{line}");
        assert_eq!(ConformanceCase::parse(&line).unwrap(), case);
        let built = case.build();
        assert_eq!(built.topo.num_nodes(), 4);
        assert!(built.turn_set.is_none());
        assert!(!built.algo.is_minimal());
        // Cartesian algorithms refuse graph topologies.
        let mut bad = case.clone();
        bad.algo = AlgoSpec::DimensionOrder;
        assert!(bad.validate().is_err());
        // And synth refuses Cartesian ones.
        let mut bad = case;
        bad.topo = TopoSpec::Mesh(vec![4, 4]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn graph_bounds_are_enforced() {
        let mut case = sample();
        case.algo = AlgoSpec::Synth;
        case.faults = Vec::new();
        case.topo = TopoSpec::FullMesh(7);
        assert!(case.validate().is_err());
        case.topo = TopoSpec::Ring(9);
        assert!(case.validate().is_err());
        case.topo = TopoSpec::Ring(8);
        assert!(case.validate().is_ok(), "{:?}", case.validate());
    }

    #[test]
    fn validation_rejects_mismatches() {
        let mut case = sample();
        case.topo = TopoSpec::Hypercube(3);
        // West-first is a 2D mesh algorithm.
        assert!(case.validate().is_err());
        let mut case = sample();
        case.faults = vec![9999];
        assert!(case.validate().is_err());
        let mut case = sample();
        case.pattern = PatternSpec::Transpose; // 4x3 is not square
        assert!(case.validate().is_err());
    }

    #[test]
    fn build_produces_consistent_objects() {
        let case = sample();
        let built = case.build();
        assert_eq!(built.topo.num_nodes(), 12);
        assert_eq!(built.config.seed, 0xDEAD_BEEF);
        assert!(built.config.faults.is_some());
        assert!(built.turn_set.is_some());
    }
}
