//! Micro-probes: fixed, seeded inputs pushed through one layer's public
//! functions and timed from outside. They read the same whichever
//! workload's traced run hosts them; the in-situ layer metrics live
//! with the workloads. Also the trace file writer.

use std::time::Instant;

use turnroute::cli::{parse_algorithm, parse_topology};
use turnroute::core::RoutingAlgorithm;
use turnroute::experiment::ExperimentSpec;
use turnroute::serve::{client, ResultStore, StoreLookup};
use turnroute::sim::{LengthDistribution, RouteTable, SimConfig, TrafficModel, TrafficSource};
use turnroute::topology::{Direction, NodeId, Topology};
use turnroute_rng::{Rng, StdRng};

use crate::gen::{derive_seed, Scale, ServeInputs};
use crate::host;
use crate::output::Metrics;
use crate::spans::{chrome_trace_json, self_times, Span};
use crate::stats;
use crate::workloads::serve::{fresh_store_dir, local_report, Served};
use crate::workloads::Options;

/// Median nanoseconds per call of `f` over `samples` batches of
/// `batch` calls.
fn ns_per_call(samples: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for i in 0..batch {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&per_call)
}

/// A topology, west-first routing on it, and routing states a header
/// can actually be in there.
struct RouteProbe {
    topo: Box<dyn Topology>,
    algo: Box<dyn RoutingAlgorithm>,
    states: Vec<(NodeId, NodeId, Option<Direction>)>,
}

/// Builds `count` states: a random source and destination, then a few
/// hops along directions the relation itself offers (relations only
/// promise answers on states they produce).
fn route_probe(topology: &str, count: usize, seed: u64) -> RouteProbe {
    let topo = parse_topology(topology).expect("the suite's topology parses");
    let algo = parse_algorithm("west-first", topo.as_ref()).expect("west-first parses");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = topo.num_nodes();
    let mut states = Vec::with_capacity(count);
    while states.len() < count {
        let dst = NodeId::new(rng.random_range(0..n));
        let mut node = NodeId::new(rng.random_range(0..n));
        let mut arrived = None;
        for _ in 0..rng.random_range(0..4usize) {
            let dirs: Vec<Direction> = algo
                .route(topo.as_ref(), node, dst, arrived)
                .iter()
                .collect();
            if dirs.is_empty() {
                break;
            }
            let dir = dirs[rng.random_range(0..dirs.len())];
            match topo.neighbor(node, dir) {
                Some(next) => {
                    node = next;
                    arrived = Some(dir);
                }
                None => break,
            }
        }
        if node != dst {
            states.push((node, dst, arrived));
        }
    }
    RouteProbe { topo, algo, states }
}

fn core_and_lut(seed: u64, quick: bool, m: &mut Metrics) {
    let (samples, count) = if quick { (3, 512) } else { (15, 4096) };
    for (name, topology) in [
        ("core.route_ns", "mesh:16x16"),
        ("core.route_ns_mesh64", "mesh:64x64"),
    ] {
        let p = route_probe(topology, count, derive_seed(seed, name, 0));
        let ns = ns_per_call(samples, p.states.len(), |i| {
            let (node, dst, arrived) = p.states[i];
            std::hint::black_box(p.algo.route(p.topo.as_ref(), node, dst, arrived));
        });
        m.set_stat(name, ns, samples);
    }

    let p = route_probe("mesh:16x16", count, derive_seed(seed, "lut", 0));
    let mut build_ms = Vec::new();
    let mut table = None;
    for _ in 0..if quick { 1 } else { 5 } {
        let start = Instant::now();
        table = RouteTable::build(p.topo.as_ref(), p.algo.as_ref());
        build_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let table = table.expect("a 2D mesh under west-first is tabulable");
    m.set_median("lut.build_ms", &build_ms);
    m.set("lut.bytes", table.size_bytes() as f64);
    let ns = ns_per_call(samples, p.states.len(), |i| {
        let (node, dst, arrived) = p.states[i];
        std::hint::black_box(table.lookup(node, dst, arrived));
    });
    m.set_stat("lut.lookup_ns", ns, samples);
}

/// Nanoseconds per node-poll through `TrafficSource::for_config` and
/// `poll`, at `idle_long`'s load on 256 nodes.
fn traffic(seed: u64, quick: bool, m: &mut Metrics) {
    let (samples, cycles) = if quick { (3, 200) } else { (9, 2_000) };
    let nodes = 256;
    for (name, model) in [
        ("traffic.poll_ns_poisson", TrafficModel::Poisson),
        (
            "traffic.poll_ns_mmpp",
            TrafficModel::Mmpp {
                burst_cycles: 64.0,
                idle_cycles: 192.0,
            },
        ),
    ] {
        let config = SimConfig::paper()
            .injection_rate(0.01)
            .lengths(LengthDistribution::Fixed(8))
            .traffic(model)
            .seed(derive_seed(seed, name, 0));
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut source = TrafficSource::for_config(nodes, &config, &mut rng);
        let mut cycle = 0u64;
        let mut emitted = 0u64;
        let ns = ns_per_call(samples, cycles, |_| {
            for node in 0..nodes {
                source.poll(node, cycle, &mut rng, |len| emitted += u64::from(len));
            }
            cycle += 1;
        }) / nodes as f64;
        std::hint::black_box(emitted);
        m.set_stat(name, ns, samples);
    }
}

/// The spec layer on one `serve_mix` spec: wire format both ways, the
/// content fingerprint, and the validating builder.
fn spec_layer(spec: &ExperimentSpec, quick: bool, m: &mut Metrics) {
    let (samples, batch) = if quick { (3, 5) } else { (9, 50) };
    let doc = spec.to_json();
    let us = |ns: f64| ns / 1e3;
    m.set_stat(
        "spec.from_json_us",
        us(ns_per_call(samples, batch, |_| {
            std::hint::black_box(ExperimentSpec::from_json(std::hint::black_box(&doc)).is_ok());
        })),
        samples,
    );
    m.set_stat(
        "spec.to_json_us",
        us(ns_per_call(samples, batch, |_| {
            std::hint::black_box(spec.to_json());
        })),
        samples,
    );
    m.set_stat(
        "spec.fingerprint_us",
        us(ns_per_call(samples, batch, |_| {
            std::hint::black_box(spec.fingerprint());
        })),
        samples,
    );
    m.set_stat(
        "spec.build_us",
        us(ns_per_call(samples, batch, |_| {
            let mut builder = ExperimentSpec::builder(spec.topology.clone(), spec.pattern.clone())
                .loads(&spec.loads)
                .config(spec.config.clone())
                .engine(spec.engine);
            for a in &spec.algorithms {
                builder = builder.algorithm(a.name.clone());
            }
            std::hint::black_box(builder.build().is_ok());
        })),
        samples,
    );
}

/// Direct `ResultStore` calls on a scratch directory with a real result
/// body, and the `GET /v1/healthz` round trip against a scratch server
/// (connect + parse + respond: the floor under every job request).
fn store_and_http(options: &Options, spec: &ExperimentSpec, quick: bool, m: &mut Metrics) {
    let (body, _) = local_report(spec);

    let dir = fresh_store_dir(options, "probe-store");
    if let Ok(store) = ResultStore::open(&dir) {
        let n = if quick { 5 } else { 25 };
        let (mut put_us, mut get_us) = (Vec::new(), Vec::new());
        for i in 0..n {
            let key = format!("{:032x}-r1", i);
            let start = Instant::now();
            let put = store.put(&key, &body);
            put_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let got = store.get(&key);
            get_us.push(start.elapsed().as_secs_f64() * 1e6);
            assert!(
                put.is_ok() && matches!(got, StoreLookup::Hit(ref b) if *b == body),
                "the store returned something other than what was put"
            );
        }
        m.set_median("store.put_us", &put_us);
        m.set_median("store.get_us", &get_us);
    }
    let _ = std::fs::remove_dir_all(&dir);

    if let Ok(served) = Served::start(&fresh_store_dir(options, "probe-http")) {
        let n = if quick { 20 } else { 300 };
        let us: Vec<f64> = (0..n)
            .filter_map(|_| {
                let start = Instant::now();
                let answer = client::http_request(&served.addr, "GET", "/v1/healthz", None);
                let us = start.elapsed().as_secs_f64() * 1e6;
                matches!(answer, Ok((200, _))).then_some(us)
            })
            .collect();
        let us = stats::sorted(&us);
        m.set_stat(
            "http.healthz_us_p50",
            stats::percentile_sorted(&us, 50.0),
            us.len(),
        );
        m.set_stat(
            "http.healthz_us_p99",
            stats::percentile_sorted(&us, 99.0),
            us.len(),
        );
        served.stop();
    }
}

/// Runs every micro-probe, plus the host's own numbers.
pub fn micro_probes(options: &Options) -> Metrics {
    let quick = options.scale == Scale::Quick;
    let mut m = Metrics::default();
    m.set("host.cores", host::cores() as f64);
    m.set_stat("host.calib_ns", host::calib_ns(), 15);
    core_and_lut(options.seed, quick, &mut m);
    traffic(options.seed, quick, &mut m);
    let spec = ServeInputs::new(options.seed, options.scale).miss_spec(0);
    spec_layer(&spec, quick, &mut m);
    store_and_http(options, &spec, quick, &mut m);
    m
}

/// Writes the run's spans to `<out>/<workload>.trace.json` (Chrome
/// trace format) and prints each layer's self time.
pub fn write_trace(options: &Options, spans: &[Span]) {
    let path = options
        .out_dir
        .join(format!("{}.trace.json", options.workload.name()));
    let written = std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(spans)));
    match written {
        Ok(()) => eprintln!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
    eprintln!("self time by layer (span minus what its children cover):");
    for (name, ns) in self_times(spans) {
        eprintln!("  {name:<24} {:>12.3} ms", ns as f64 / 1e6);
    }
}
