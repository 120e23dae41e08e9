//! Command-line front end: parse topology, algorithm and pattern
//! specifications into trait objects.
//!
//! Used by the `turnroute` binary; exposed as a library module so the
//! parsing rules are unit-testable and reusable.

use std::fmt;
use turnroute_core::{
    Abonf, Abopl, DimensionOrder, FirstHopWraparound, NegativeFirst, NegativeFirstTorus, NorthLast,
    PCube, RoutingAlgorithm, WestFirst,
};
use turnroute_fault::{FaultPlan, FaultSchedule};
use turnroute_sim::patterns::{
    BitComplement, BitReversal, DiagonalTranspose, Hotspot, HypercubeTranspose, NearestNeighbor,
    ReverseFlip, Shuffle, Tornado, Trace, TrafficPattern, Transpose, Uniform, WeightedHotspot,
};
use turnroute_sim::TrafficModel;
use turnroute_synth::{synthesize, GraphSpec, GraphTopology, SynthesisOptions};
use turnroute_topology::{HexMesh, Hypercube, Mesh, NodeId, Topology, Torus};
use turnroute_vc::{DatelineDimensionOrder, MadY, SingleClass, VcRoutingAlgorithm};

/// A parse failure, with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError(String);

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl ParseSpecError {
    /// A parse error carrying `msg` (for callers layered on the CLI
    /// parsers, e.g. experiment-spec validation).
    pub fn new(msg: impl Into<String>) -> Self {
        ParseSpecError(msg.into())
    }
}

impl std::error::Error for ParseSpecError {}

fn err(msg: impl Into<String>) -> ParseSpecError {
    ParseSpecError(msg.into())
}

/// The topology specifications the CLI accepts.
pub const TOPOLOGY_SPECS: &str = "\
  mesh:<k0>x<k1>[x<k2>...]   n-dimensional mesh, e.g. mesh:16x16
  torus:<k>,<n>              k-ary n-cube, e.g. torus:8,2
  hypercube:<n>              binary n-cube, e.g. hypercube:8
  hex:<m>x<n>                hexagonal mesh, e.g. hex:8x8
  graph:<file>               edge-list file (see DESIGN.md §12)
  fullmesh:<n>               fully connected n-node graph
  ring:<n>                   bidirectional n-node ring
  dragonfly:<r>,<g>          g groups of r all-to-all routers
  fattree:<l>,<s>            l leaves fully wired to s spines";

/// Parses a topology specification like `mesh:16x16`, `torus:8,2`,
/// `hypercube:8` or `hex:6x6`.
///
/// # Errors
///
/// Returns a message naming the accepted forms on any mismatch.
pub fn parse_topology(spec: &str) -> Result<Box<dyn Topology>, ParseSpecError> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| err(format!("topology '{spec}' needs a ':<shape>' suffix")))?;
    match kind {
        "mesh" => {
            let dims: Vec<usize> = rest
                .split('x')
                .map(|p| p.parse().map_err(|_| err(format!("bad mesh extent '{p}'"))))
                .collect::<Result<_, _>>()?;
            if dims.is_empty() || dims.iter().any(|&k| k < 1) {
                return Err(err("mesh extents must all be at least 1"));
            }
            Ok(Box::new(Mesh::new(dims)))
        }
        "torus" => {
            let (k, n) = rest
                .split_once(',')
                .ok_or_else(|| err("torus spec is torus:<k>,<n>"))?;
            let k: usize = k.parse().map_err(|_| err(format!("bad radix '{k}'")))?;
            let n: usize = n.parse().map_err(|_| err(format!("bad dimension '{n}'")))?;
            if k < 3 {
                return Err(err(
                    "torus radix must be at least 3 (use hypercube for k = 2)",
                ));
            }
            Ok(Box::new(Torus::new(k, n)))
        }
        "hypercube" => {
            let n: usize = rest
                .parse()
                .map_err(|_| err(format!("bad dimension '{rest}'")))?;
            if n == 0 || n > 16 {
                return Err(err("hypercube dimension must be 1..=16"));
            }
            Ok(Box::new(Hypercube::new(n)))
        }
        "hex" => {
            let (m, n) = rest
                .split_once('x')
                .ok_or_else(|| err("hex spec is hex:<m>x<n>"))?;
            let m: usize = m.parse().map_err(|_| err(format!("bad extent '{m}'")))?;
            let n: usize = n.parse().map_err(|_| err(format!("bad extent '{n}'")))?;
            if m < 2 || n < 2 {
                return Err(err("hex extents must be at least 2"));
            }
            Ok(Box::new(HexMesh::new(m, n)))
        }
        "graph" | "fullmesh" | "ring" | "dragonfly" | "fattree" => {
            let spec = parse_graph_spec(kind, rest)?;
            let topo = GraphTopology::new(&spec).map_err(|e| {
                err(format!(
                    "bad graph topology '{spec}': {e}",
                    spec = spec.label
                ))
            })?;
            Ok(Box::new(topo))
        }
        other => Err(err(format!("unknown topology kind '{other}'"))),
    }
}

/// Parses the graph-topology kinds into a [`GraphSpec`]: the generators
/// by their parameters, `graph:<file>` by reading the edge-list file.
fn parse_graph_spec(kind: &str, rest: &str) -> Result<GraphSpec, ParseSpecError> {
    match kind {
        "graph" => {
            let text = std::fs::read_to_string(rest)
                .map_err(|e| err(format!("cannot read graph file '{rest}': {e}")))?;
            GraphSpec::parse(&text, format!("graph:{rest}"))
                .map_err(|e| err(format!("bad graph file '{rest}': {e}")))
        }
        "fullmesh" => {
            let n: usize = rest
                .parse()
                .map_err(|_| err(format!("bad node count '{rest}'")))?;
            Ok(GraphSpec::full_mesh(n))
        }
        "ring" => {
            let n: usize = rest
                .parse()
                .map_err(|_| err(format!("bad node count '{rest}'")))?;
            Ok(GraphSpec::ring(n))
        }
        "dragonfly" => {
            let (r, g) = rest
                .split_once(',')
                .ok_or_else(|| err("dragonfly spec is dragonfly:<routers>,<groups>"))?;
            let r: usize = r.parse().map_err(|_| err(format!("bad routers '{r}'")))?;
            let g: usize = g.parse().map_err(|_| err(format!("bad groups '{g}'")))?;
            Ok(GraphSpec::dragonfly(r, g))
        }
        "fattree" => {
            let (l, s) = rest
                .split_once(',')
                .ok_or_else(|| err("fattree spec is fattree:<leaves>,<spines>"))?;
            let l: usize = l.parse().map_err(|_| err(format!("bad leaves '{l}'")))?;
            let s: usize = s.parse().map_err(|_| err(format!("bad spines '{s}'")))?;
            Ok(GraphSpec::fat_tree(l, s))
        }
        _ => unreachable!("caller matched the graph kinds"),
    }
}

/// The algorithm names the CLI accepts.
pub const ALGORITHM_NAMES: &str = "\
  xy | dimension-order | e-cube   nonadaptive baseline
  west-first[-nonminimal]         2D mesh (Section 3.1)
  north-last[-nonminimal]         2D mesh (Section 3.2)
  negative-first[-nonminimal]     any mesh/hypercube (Sections 3.3, 4.1)
  abonf | abopl                   n-dimensional analogs (Section 4.1)
  p-cube[-nonminimal]             hypercubes (Section 5)
  negative-first-torus            k-ary n-cubes (Section 4.2)
  first-hop-wrap                  k-ary n-cubes (Section 4.2)
  synth[:<seed>]                  synthesized turn model (any topology)";

/// Parses an algorithm name in the context of `topo` (dimension counts
/// and torus-specific constructions depend on the topology).
///
/// # Errors
///
/// Returns a message listing the accepted names on any mismatch.
pub fn parse_algorithm(
    name: &str,
    topo: &dyn Topology,
) -> Result<Box<dyn RoutingAlgorithm>, ParseSpecError> {
    let n = topo.num_dims();
    let is_torus = (0..n).all(|d| topo.wraps(d));
    Ok(match name {
        "xy" | "dimension-order" | "e-cube" => Box::new(DimensionOrder::new()),
        "west-first" => Box::new(WestFirst::with_dims(2, true)),
        "west-first-nonminimal" => Box::new(WestFirst::with_dims(2, false)),
        "north-last" => Box::new(NorthLast::with_dims(2, true)),
        "north-last-nonminimal" => Box::new(NorthLast::with_dims(2, false)),
        "negative-first" => Box::new(NegativeFirst::with_dims(n, true)),
        "negative-first-nonminimal" => Box::new(NegativeFirst::with_dims(n, false)),
        "abonf" => Box::new(Abonf::with_dims(n, true)),
        "abopl" => Box::new(Abopl::with_dims(n, true)),
        "p-cube" | "pcube" => Box::new(PCube::minimal()),
        "p-cube-nonminimal" => Box::new(PCube::nonminimal()),
        "negative-first-torus" if is_torus => {
            let k = topo.radix(0);
            Box::new(NegativeFirstTorus::new(&Torus::new(k, n)))
        }
        "first-hop-wrap" if is_torus => {
            let k = topo.radix(0);
            Box::new(FirstHopWraparound::new(
                &Torus::new(k, n),
                NegativeFirst::with_dims(n, true),
            ))
        }
        "negative-first-torus" | "first-hop-wrap" => {
            return Err(err(format!("'{name}' requires a torus topology")))
        }
        _ if name == "synth" || name.starts_with("synth:") => {
            let seed = match name.strip_prefix("synth:") {
                None => 0,
                Some(s) => s
                    .parse()
                    .map_err(|_| err(format!("bad synthesis seed '{s}'")))?,
            };
            let synthesis = synthesize(
                topo,
                &SynthesisOptions {
                    seed,
                    ..Default::default()
                },
            )
            .map_err(|e| err(format!("synthesis failed on {}: {e}", topo.label())))?;
            // Keep the spec string as the name so reports round-trip.
            let mut routing = synthesis.routing;
            routing.set_name(name);
            Box::new(routing)
        }
        other => {
            return Err(err(format!(
                "unknown algorithm '{other}'; accepted names:\n{ALGORITHM_NAMES}"
            )))
        }
    })
}

/// The extra algorithm names the virtual-channel engine accepts on top
/// of [`ALGORITHM_NAMES`] (plain algorithms run on class-0 lanes).
pub const VC_ALGORITHM_NAMES: &str = "\
  mad-y                           fully adaptive 2D mesh, 2 y-lanes [18]
  dateline                        minimal torus, 2 lanes per dimension";

/// Parses an algorithm name for the virtual-channel engine: the
/// lane-based constructions (`mad-y`, `dateline`) by name, and any name
/// accepted by [`parse_algorithm`] wrapped to run on class-0 lanes via
/// [`SingleClass`].
///
/// # Errors
///
/// Returns a message listing the accepted names on any mismatch.
pub fn parse_vc_algorithm(
    name: &str,
    topo: &dyn Topology,
) -> Result<Box<dyn VcRoutingAlgorithm>, ParseSpecError> {
    Ok(match name {
        "mad-y" | "mady" => Box::new(MadY::new()),
        "dateline" => Box::new(DatelineDimensionOrder::new()),
        other => Box::new(SingleClass::new(parse_algorithm(other, topo)?)),
    })
}

/// The pattern names the CLI accepts.
pub const PATTERN_NAMES: &str = "\
  uniform | transpose | diagonal-transpose | hypercube-transpose
  reverse-flip | bit-complement | bit-reversal | shuffle | tornado
  neighbor | hotspot:<node>[*<w>][+<node>[*<w>]...],<percent>
  trace:<file>  per-node weighted destination file: '<src> <dst> [weight]'
                lines, '#' comments (see README)";

/// Parses a traffic pattern name, e.g. `uniform`, `hotspot:120,10`,
/// `hotspot:12*3+40,20` or `trace:pairs.trace`.
///
/// # Errors
///
/// Returns a message listing the accepted names on any mismatch, and a
/// line-numbered message for unreadable or malformed trace files.
pub fn parse_pattern(name: &str) -> Result<Box<dyn TrafficPattern>, ParseSpecError> {
    if let Some(rest) = name.strip_prefix("hotspot:") {
        let (nodes, pct) = rest.rsplit_once(',').ok_or_else(|| {
            err("hotspot spec is hotspot:<node>[*<w>][+<node>[*<w>]...],<percent>")
        })?;
        let pct: f64 = pct
            .parse()
            .map_err(|_| err(format!("bad percent '{pct}'")))?;
        if !(0.0..=100.0).contains(&pct) {
            return Err(err("hotspot percent must be within 0..=100"));
        }
        let mut hotspots: Vec<(NodeId, f64)> = Vec::new();
        for part in nodes.split('+') {
            let (node, weight) = match part.split_once('*') {
                None => (part, 1.0),
                Some((n, w)) => {
                    let w: f64 = w
                        .parse()
                        .map_err(|_| err(format!("bad hotspot weight '{w}'")))?;
                    if !w.is_finite() || w <= 0.0 {
                        return Err(err(format!(
                            "hotspot weight must be a positive finite number, got {w}"
                        )));
                    }
                    (n, w)
                }
            };
            let node: usize = node
                .parse()
                .map_err(|_| err(format!("bad node '{node}'")))?;
            hotspots.push((NodeId::new(node), weight));
        }
        // A single unweighted hotspot keeps the original pattern (and
        // its original RNG draw sequence); any '+' or '*' form builds
        // the weighted generalization.
        return Ok(match hotspots.as_slice() {
            [(node, w)] if *w == 1.0 && !nodes.contains('*') => {
                Box::new(Hotspot::new(*node, pct / 100.0))
            }
            _ => Box::new(WeightedHotspot::new(hotspots, pct / 100.0)),
        });
    }
    if let Some(rest) = name.strip_prefix("trace:") {
        let text = std::fs::read_to_string(rest)
            .map_err(|e| err(format!("cannot read trace file '{rest}': {e}")))?;
        let trace = Trace::parse(&text, format!("trace:{rest}"))
            .map_err(|e| err(format!("bad trace file '{rest}': {e}")))?;
        return Ok(Box::new(trace));
    }
    Ok(match name {
        "uniform" => Box::new(Uniform),
        "transpose" => Box::new(Transpose),
        "diagonal-transpose" => Box::new(DiagonalTranspose),
        "hypercube-transpose" => Box::new(HypercubeTranspose),
        "reverse-flip" => Box::new(ReverseFlip),
        "bit-complement" => Box::new(BitComplement),
        "bit-reversal" => Box::new(BitReversal),
        "shuffle" => Box::new(Shuffle),
        "tornado" => Box::new(Tornado),
        "neighbor" => Box::new(NearestNeighbor),
        other => {
            return Err(err(format!(
                "unknown pattern '{other}'; accepted names:\n{PATTERN_NAMES}"
            )))
        }
    })
}

/// The traffic-model specifications the CLI accepts.
pub const TRAFFIC_SPECS: &str = "\
  poisson                    stationary Poisson arrivals (default)
  mmpp:<burst>,<idle>        bursty on-off arrivals: mean ON / OFF
                             sojourns in cycles, same long-run load";

/// Parses a traffic-model specification like `poisson` or
/// `mmpp:200,600`.
///
/// # Errors
///
/// Returns a message naming the accepted forms on any mismatch, and a
/// targeted message for non-positive or non-finite MMPP sojourns.
pub fn parse_traffic(spec: &str) -> Result<TrafficModel, ParseSpecError> {
    if spec == "poisson" {
        return Ok(TrafficModel::Poisson);
    }
    if let Some(rest) = spec.strip_prefix("mmpp:") {
        let (burst, idle) = rest
            .split_once(',')
            .ok_or_else(|| err("mmpp spec is mmpp:<burst_cycles>,<idle_cycles>"))?;
        let burst_cycles: f64 = burst
            .parse()
            .map_err(|_| err(format!("bad burst cycles '{burst}'")))?;
        let idle_cycles: f64 = idle
            .parse()
            .map_err(|_| err(format!("bad idle cycles '{idle}'")))?;
        let model = TrafficModel::Mmpp {
            burst_cycles,
            idle_cycles,
        };
        model.check().map_err(err)?;
        return Ok(model);
    }
    Err(err(format!(
        "unknown traffic model '{spec}'; accepted forms:\n{TRAFFIC_SPECS}"
    )))
}

/// Checks that `pattern` fits `topo` ([`TrafficPattern::fits`]): a
/// shape pattern needs its shape (transpose a square 2D mesh, the bit
/// permutations a hypercube), and a pattern naming explicit nodes
/// (hotspots, trace files) must not reference a node the topology does
/// not have. Spec layers call this after parsing both, so the mismatch
/// surfaces as a typed error instead of an engine panic.
///
/// # Errors
///
/// Returns a message naming the pattern, the rule and the topology.
pub fn check_pattern_fits(
    pattern: &dyn TrafficPattern,
    topo: &dyn Topology,
) -> Result<(), ParseSpecError> {
    pattern
        .fits(topo)
        .map_err(|e| err(format!("pattern '{}' {e}", pattern.name())))
}

/// The fault-plan specification forms the CLI accepts (joined with `+`
/// for compound plans).
pub const FAULT_SPECS: &str = "\
  chan:<id>[@<inject>[..<repair>]]   one channel, e.g. chan:17@5..9
  node:<id|x,y>[@...]                every channel at a node
  region:<x,y>-<x,y>[@...]           channels inside a coordinate box
  random:<count>:<seed>              seed-derived random channels
  (omitting @ means a permanent fault from cycle 0)";

/// Parses a fault-plan specification like `chan:17+random:4:99` and
/// compiles it against `topo` into a replayable schedule.
///
/// # Errors
///
/// Returns a message naming the accepted forms on any mismatch, or the
/// compile error if a target is out of range for `topo`.
pub fn parse_faults(spec: &str, topo: &dyn Topology) -> Result<FaultSchedule, ParseSpecError> {
    let plan = FaultPlan::parse(spec).map_err(|e| {
        err(format!(
            "bad fault spec: {e}; accepted forms:\n{FAULT_SPECS}"
        ))
    })?;
    plan.compile(topo)
        .map_err(|e| err(format!("bad fault spec: {e}")))
}

/// Parses a node given either as a dense id (`137`) or a coordinate
/// tuple (`9,4`).
///
/// # Errors
///
/// Returns a message on malformed or out-of-range input.
pub fn parse_node(spec: &str, topo: &dyn Topology) -> Result<NodeId, ParseSpecError> {
    if spec.contains(',') {
        let parts: Vec<u16> = spec
            .split(',')
            .map(|p| p.parse().map_err(|_| err(format!("bad coordinate '{p}'"))))
            .collect::<Result<_, _>>()?;
        let coord = turnroute_topology::Coord::new(parts);
        let expect = topo.coord_of(NodeId::new(0)).num_dims();
        if coord.num_dims() != expect {
            return Err(err(format!(
                "expected {expect} coordinates for {}",
                topo.label()
            )));
        }
        for (dim, c) in coord.iter() {
            let bound = if dim < topo.num_dims() {
                topo.radix(dim)
            } else {
                usize::MAX
            };
            if (c as usize) >= bound {
                return Err(err(format!(
                    "coordinate {c} out of range in dimension {dim}"
                )));
            }
        }
        Ok(topo.node_at(&coord))
    } else {
        let id: usize = spec
            .parse()
            .map_err(|_| err(format!("bad node id '{spec}'")))?;
        if id >= topo.num_nodes() {
            return Err(err(format!(
                "node {id} out of range (topology has {} nodes)",
                topo.num_nodes()
            )));
        }
        Ok(NodeId::new(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_parse() {
        assert_eq!(parse_topology("mesh:16x16").unwrap().num_nodes(), 256);
        assert_eq!(parse_topology("mesh:3x4x5").unwrap().num_nodes(), 60);
        assert_eq!(parse_topology("torus:8,2").unwrap().num_nodes(), 64);
        assert_eq!(parse_topology("hypercube:8").unwrap().num_nodes(), 256);
        assert_eq!(parse_topology("hex:6x5").unwrap().num_nodes(), 30);
        // Degenerate meshes are legal: a 1xk mesh is a k-node line and
        // 1x1 a single node.
        assert_eq!(parse_topology("mesh:1x4").unwrap().num_nodes(), 4);
        assert_eq!(parse_topology("mesh:1x1").unwrap().num_nodes(), 1);
    }

    #[test]
    fn graph_topologies_parse() {
        assert_eq!(parse_topology("fullmesh:8").unwrap().num_nodes(), 8);
        assert_eq!(parse_topology("ring:9").unwrap().num_nodes(), 9);
        assert_eq!(parse_topology("dragonfly:4,4").unwrap().num_nodes(), 16);
        assert_eq!(parse_topology("fattree:4,2").unwrap().num_nodes(), 6);
        let dir = std::env::temp_dir().join("turnroute-cli-graph-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tri.graph");
        std::fs::write(&file, "nodes 3\n0 <-> 1\n1 <-> 2\n2 <-> 0\n").unwrap();
        let topo = parse_topology(&format!("graph:{}", file.display())).unwrap();
        assert_eq!(topo.num_nodes(), 3);
        assert_eq!(topo.num_channels(), 6);
    }

    #[test]
    fn synth_parses_with_and_without_seed() {
        let topo = parse_topology("fullmesh:6").unwrap();
        let algo = parse_algorithm("synth", topo.as_ref()).unwrap();
        assert_eq!(algo.name(), "synth");
        let seeded = parse_algorithm("synth:7", topo.as_ref()).unwrap();
        assert_eq!(seeded.name(), "synth:7");
        assert!(parse_algorithm("synth:banana", topo.as_ref()).is_err());
        // Works on the paper's topologies too.
        let mesh = parse_topology("mesh:4x4").unwrap();
        assert!(parse_algorithm("synth:1", mesh.as_ref()).is_ok());
    }

    #[test]
    fn bad_topologies_are_rejected_with_messages() {
        for bad in [
            "mesh",
            "mesh:0x4",
            "torus:2,2",
            "hypercube:0",
            "hex:6",
            "ring:1",
            "fullmesh:zap",
            "dragonfly:4",
            "graph:/no/such/file",
            "blob:9",
        ] {
            match parse_topology(bad) {
                Err(e) => assert!(!e.to_string().is_empty(), "{bad}"),
                Ok(_) => panic!("'{bad}' should not parse"),
            }
        }
    }

    #[test]
    fn two_ary_torus_rejection_points_at_hypercube() {
        let Err(e) = parse_topology("torus:2,3") else {
            panic!("torus:2,3 should not parse");
        };
        assert!(e.to_string().contains("hypercube"), "{e}");
    }

    #[test]
    fn algorithms_parse_in_context() {
        let mesh = parse_topology("mesh:8x8").unwrap();
        for name in [
            "xy",
            "west-first",
            "north-last",
            "negative-first",
            "abonf",
            "abopl",
            "west-first-nonminimal",
        ] {
            assert!(parse_algorithm(name, mesh.as_ref()).is_ok(), "{name}");
        }
        let torus = parse_topology("torus:5,2").unwrap();
        assert!(parse_algorithm("negative-first-torus", torus.as_ref()).is_ok());
        assert!(parse_algorithm("first-hop-wrap", torus.as_ref()).is_ok());
        // Torus-only algorithms rejected on meshes.
        assert!(parse_algorithm("negative-first-torus", mesh.as_ref()).is_err());
        assert!(parse_algorithm("frobnicate", mesh.as_ref()).is_err());
    }

    #[test]
    fn vc_algorithms_parse() {
        let mesh = parse_topology("mesh:8x8").unwrap();
        let torus = parse_topology("torus:8,2").unwrap();
        assert_eq!(
            parse_vc_algorithm("mad-y", mesh.as_ref()).unwrap().name(),
            "mad-y"
        );
        assert!(parse_vc_algorithm("dateline", torus.as_ref()).is_ok());
        // Plain names wrap transparently: same name, class-0 lanes.
        let wrapped = parse_vc_algorithm("west-first", mesh.as_ref()).unwrap();
        assert_eq!(wrapped.name(), "west-first");
        assert!(parse_vc_algorithm("frobnicate", mesh.as_ref()).is_err());
    }

    #[test]
    fn patterns_parse() {
        for name in [
            "uniform",
            "transpose",
            "diagonal-transpose",
            "reverse-flip",
            "bit-complement",
            "tornado",
            "neighbor",
        ] {
            assert!(parse_pattern(name).is_ok(), "{name}");
        }
        assert!(parse_pattern("hotspot:12,10").is_ok());
        assert!(parse_pattern("hotspot:12").is_err());
        assert!(parse_pattern("hotspot:12,200").is_err());
        assert!(parse_pattern("noise").is_err());
    }

    /// The fewest nodes a line must have for `pattern` to fit it.
    fn min_nodes(pattern: &dyn TrafficPattern) -> usize {
        (1..)
            .find(|&n| pattern.fits(&Mesh::new(vec![n])).is_ok())
            .unwrap()
    }

    #[test]
    fn weighted_hotspots_parse() {
        // Plain form still builds the legacy single-hotspot pattern.
        assert_eq!(
            min_nodes(parse_pattern("hotspot:12,10").unwrap().as_ref()),
            13
        );
        assert_eq!(
            parse_pattern("hotspot:12,10").unwrap().name(),
            "hotspot(10%)"
        );
        // Weighted / multi-node forms build the generalization.
        let multi = parse_pattern("hotspot:3*2+9,25").unwrap();
        assert_eq!(multi.name(), "hotspot(3*2+9;25%)");
        assert_eq!(min_nodes(multi.as_ref()), 10);
        let weighted_single = parse_pattern("hotspot:7*0.5,50").unwrap();
        assert_eq!(min_nodes(weighted_single.as_ref()), 8);
        for bad in [
            "hotspot:3*0,10",
            "hotspot:3*-1,10",
            "hotspot:3*inf,10",
            "hotspot:3*zap,10",
            "hotspot:+,10",
            "hotspot:3+4",
        ] {
            assert!(parse_pattern(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_patterns_parse_from_files() {
        let dir = std::env::temp_dir().join("turnroute-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("pairs.trace");
        std::fs::write(&file, "# demo\n0 5\n0 9 3\n1 2\n").unwrap();
        let spec = format!("trace:{}", file.display());
        let pattern = parse_pattern(&spec).unwrap();
        assert_eq!(min_nodes(pattern.as_ref()), 10);
        assert!(pattern.name().starts_with(&format!("{spec}@")));
        // Unreadable and malformed files surface as parse errors.
        assert!(parse_pattern("trace:/no/such/file.trace").is_err());
        let bad = dir.join("bad.trace");
        std::fs::write(&bad, "0 1 zap\n").unwrap();
        let e = parse_pattern(&format!("trace:{}", bad.display()))
            .err()
            .unwrap();
        assert!(e.to_string().contains("bad weight"), "{e}");
        let truncated = dir.join("truncated.trace");
        std::fs::write(&truncated, "0 5\n3\n").unwrap();
        let e = parse_pattern(&format!("trace:{}", truncated.display()))
            .err()
            .unwrap();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn traffic_models_parse() {
        assert_eq!(parse_traffic("poisson").unwrap(), TrafficModel::Poisson);
        let m = parse_traffic("mmpp:200,600").unwrap();
        assert_eq!(
            m,
            TrafficModel::Mmpp {
                burst_cycles: 200.0,
                idle_cycles: 600.0
            }
        );
        // The canonical spec string round-trips.
        assert_eq!(parse_traffic(&m.as_spec()).unwrap(), m);
        for bad in [
            "mmpp:200",
            "mmpp:0,600",
            "mmpp:200,0",
            "mmpp:-1,600",
            "mmpp:inf,600",
            "mmpp:zap,600",
            "bursty",
        ] {
            assert!(parse_traffic(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn pattern_fit_checks_node_bounds() {
        let mesh = parse_topology("mesh:4x4").unwrap();
        let ok = parse_pattern("hotspot:15,10").unwrap();
        assert!(check_pattern_fits(ok.as_ref(), mesh.as_ref()).is_ok());
        let oob = parse_pattern("hotspot:16,10").unwrap();
        let e = check_pattern_fits(oob.as_ref(), mesh.as_ref()).unwrap_err();
        assert!(e.to_string().contains("16 nodes"), "{e}");
        assert!(
            check_pattern_fits(parse_pattern("uniform").unwrap().as_ref(), mesh.as_ref()).is_ok()
        );
        let oblong = parse_topology("mesh:4x3").unwrap();
        let transpose = parse_pattern("transpose").unwrap();
        let e = check_pattern_fits(transpose.as_ref(), oblong.as_ref()).unwrap_err();
        assert_eq!(
            e.to_string(),
            "pattern 'matrix-transpose' needs a square 2D mesh, but 4x3 mesh is not one"
        );
    }

    #[test]
    fn every_pattern_that_fits_draws_a_destination_from_every_node() {
        // The fit check is total: whatever it admits, `dest` must serve
        // without panicking, from every source.
        let topologies = [
            "mesh:4x4",
            "mesh:4x3",
            "mesh:1x1",
            "mesh:1x5",
            "mesh:3x3x3",
            "torus:4,2",
            "hypercube:1",
            "hypercube:3",
            "hypercube:4",
            "hex:4x3",
            "ring:6",
            "fullmesh:5",
            "dragonfly:4,4",
        ];
        let patterns = [
            "uniform",
            "transpose",
            "diagonal-transpose",
            "hypercube-transpose",
            "reverse-flip",
            "bit-complement",
            "bit-reversal",
            "shuffle",
            "tornado",
            "neighbor",
            "hotspot:8,50",
        ];
        let mut rng = turnroute_rng::StdRng::seed_from_u64(5);
        for t in topologies {
            let topo = parse_topology(t).unwrap();
            for name in patterns {
                let pattern = parse_pattern(name).unwrap();
                if check_pattern_fits(pattern.as_ref(), topo.as_ref()).is_err() {
                    continue;
                }
                for src in 0..topo.num_nodes() {
                    let src = NodeId::new(src);
                    if let Some(dst) = pattern.dest(topo.as_ref(), src, &mut rng) {
                        assert!(dst.index() < topo.num_nodes(), "{name} on {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn fault_specs_parse_and_compile() {
        let mesh = parse_topology("mesh:8x8").unwrap();
        let schedule = parse_faults("chan:17+random:4:99", mesh.as_ref()).unwrap();
        assert!(schedule.failed_count_at_start() >= 4);
        assert!(schedule.is_static());
        let transient = parse_faults("chan:3@100..200", mesh.as_ref()).unwrap();
        assert!(!transient.is_static());
        assert!(transient.has_repairs());
        assert!(parse_faults("laser:3", mesh.as_ref()).is_err());
        // Out-of-range targets fail at compile time.
        assert!(parse_faults("chan:99999", mesh.as_ref()).is_err());
    }

    #[test]
    fn nodes_parse_by_id_or_coordinates() {
        let mesh = parse_topology("mesh:8x8").unwrap();
        assert_eq!(parse_node("0", mesh.as_ref()).unwrap().index(), 0);
        assert_eq!(parse_node("3,2", mesh.as_ref()).unwrap().index(), 19);
        assert!(parse_node("64", mesh.as_ref()).is_err());
        assert!(parse_node("9,2", mesh.as_ref()).is_err());
        assert!(parse_node("1,2,3", mesh.as_ref()).is_err());
        // Hex coordinates are axial pairs even though there are 3 axes.
        let hex = parse_topology("hex:5x5").unwrap();
        assert!(parse_node("2,3", hex.as_ref()).is_ok());
    }
}
