//! Integration coverage for the observability layer: observers must
//! never perturb results, the turn-usage observer must catch real
//! prohibited turns, flit traces must be valid Chrome trace-event JSON,
//! histogram quantiles must track exact latencies, and the deadlock
//! watchdog must leave machine-readable evidence in the trace.

use turnroute::core::{TurnSet, TurnSetRouting, WestFirst};
use turnroute::sim::patterns::{Transpose, Uniform};
use turnroute::sim::report::write_csv;
use turnroute::sim::{
    CellOutput, ChannelActivityObserver, DeliveryLog, Executor, FlitTraceObserver,
    LatencyHistogram, LengthDistribution, OutputSelection, SeriesJob, SimConfig, Simulation,
    TurnUsageObserver,
};
use turnroute::topology::{Mesh, Topology};

mod support;
use support::json;

fn base_config() -> SimConfig {
    SimConfig::paper()
        .warmup_cycles(500)
        .measure_cycles(3_000)
        .seed(11)
}

/// The full observer stack simulations run under in the "observed" arm
/// of the no-perturbation test.
fn full_stack() -> (
    TurnUsageObserver,
    (ChannelActivityObserver, FlitTraceObserver),
) {
    (
        TurnUsageObserver::new(TurnSet::west_first()),
        (ChannelActivityObserver::new(), FlitTraceObserver::new()),
    )
}

#[test]
fn observers_do_not_perturb_sweep_bytes() {
    let mesh = Mesh::new_2d(8, 8);
    let algo = WestFirst::minimal();
    let base = base_config();
    let loads = [0.02, 0.05, 0.08];

    let plain = SeriesJob::new(
        "west-first",
        "transpose",
        "obs|plain",
        base.seed,
        &loads,
        |load, seed| {
            let cfg = base_config().injection_rate(load).seed(seed);
            let report = Simulation::new(&mesh, &algo, &Transpose, cfg).run();
            CellOutput::from_report(&report)
        },
    );
    let observed = SeriesJob::new(
        "west-first",
        "transpose",
        "obs|observed",
        base.seed,
        &loads,
        |load, seed| {
            let cfg = base_config().injection_rate(load).seed(seed);
            let mut sim = Simulation::with_observer(&mesh, &algo, &Transpose, cfg, full_stack());
            let report = sim.run();
            // The stack really saw the run (and the turn-usage assertion
            // really screened every turn against the west-first set).
            assert!(sim.observer().0.total_turns() > 0);
            CellOutput::from_report(&report)
        },
    );

    let mut plain_ex = Executor::new(2);
    let plain_series = plain_ex.run(vec![plain]);
    let mut observed_ex = Executor::new(2);
    let observed_series = observed_ex.run(vec![observed]);

    let mut plain_bytes = Vec::new();
    write_csv(&plain_series, &mut plain_bytes).unwrap();
    let mut observed_bytes = Vec::new();
    write_csv(&observed_series, &mut observed_bytes).unwrap();
    assert_eq!(
        plain_bytes, observed_bytes,
        "attaching observers changed the sweep bytes"
    );
    // Stronger than the CSV summary: the full merged latency
    // distributions are identical too.
    assert_eq!(
        plain_ex.telemetry().latencies,
        observed_ex.telemetry().latencies
    );
}

#[test]
#[should_panic(expected = "prohibited turn taken")]
fn turn_usage_observer_catches_a_real_prohibited_turn() {
    // Fully adaptive routing offers every minimal direction; forcing the
    // highest dimension first makes the packet travel y-then-x, whose
    // final turn (dim 1 into dim 0) dimension-order routing prohibits.
    // Checking against the dimension-order set must therefore fail.
    let mesh = Mesh::new_2d(6, 6);
    let algo = TurnSetRouting::new(TurnSet::fully_adaptive(2));
    let config = SimConfig::paper()
        .injection_rate(0.0)
        .warmup_cycles(0)
        .measure_cycles(0)
        .output_selection(OutputSelection::HighestDimension);
    let obs = TurnUsageObserver::new(TurnSet::dimension_order(2));
    let mut sim = Simulation::with_observer(&mesh, &algo, &Uniform, config, obs);
    let src = mesh.node_at(&[0, 0].into());
    let dst = mesh.node_at(&[3, 3].into());
    sim.inject_message(src, dst, 4);
    for _ in 0..100 {
        sim.step();
    }
}

#[test]
fn simulate_trace_writes_valid_chrome_trace_json() {
    let dir = std::env::temp_dir().join("turnroute-obs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_turnroute"))
        .args([
            "simulate",
            "--topology",
            "mesh:6x6",
            "--algorithm",
            "west-first",
            "--pattern",
            "transpose",
            "--load",
            "0.05",
            "--cycles",
            "1500",
            "--warmup",
            "200",
            "--trace",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("the turnroute binary runs");
    assert!(
        output.status.success(),
        "simulate --trace failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let doc = json::parse(&text).expect("trace file is valid JSON");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents is an array");
    assert!(!events.is_empty());

    let mut named_lanes = std::collections::HashSet::new();
    let mut open_depth: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    let mut last_ts = 0.0_f64;
    let mut seen = (false, false, false); // (B, E, i)
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        let name = e
            .get("name")
            .and_then(|v| v.as_str())
            .expect("every event has a name");
        if ph == "M" {
            // Metadata: process/thread naming only, no timestamp.
            assert!(name == "process_name" || name == "thread_name", "{name}");
            let label = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|v| v.as_str());
            assert!(label.is_some(), "metadata without args.name");
            if name == "thread_name" {
                named_lanes.insert(e.get("tid").and_then(|v| v.as_num()).unwrap() as u64);
            }
            continue;
        }
        let tid = e.get("tid").and_then(|v| v.as_num()).expect("event tid") as u64;
        let ts = e.get("ts").and_then(|v| v.as_num()).expect("event ts");
        assert!(ts >= last_ts, "timestamps must be non-decreasing");
        last_ts = ts;
        assert!(named_lanes.contains(&tid), "lane {tid} has no thread_name");
        match ph {
            "B" => {
                seen.0 = true;
                let depth = open_depth.entry(tid).or_insert(0);
                *depth += 1;
                // Single-flit buffers: one owner per channel, no nesting.
                assert_eq!(*depth, 1, "overlapping spans in lane {tid}");
            }
            "E" => {
                seen.1 = true;
                let depth = open_depth.entry(tid).or_insert(0);
                *depth -= 1;
                assert!(*depth >= 0, "E without B in lane {tid}");
            }
            "i" => {
                seen.2 = true;
                assert_eq!(e.get("s").and_then(|v| v.as_str()), Some("t"));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(seen.0 && seen.1 && seen.2, "missing phases: {seen:?}");
    // Every opened span was closed (synthetically if necessary).
    assert!(open_depth.values().all(|&d| d == 0), "unclosed spans");
}

#[test]
fn engine_histogram_quantiles_track_exact_latencies() {
    let mesh = Mesh::new_2d(8, 8);
    let algo = WestFirst::minimal();
    let config = SimConfig::paper()
        .injection_rate(0.05)
        .warmup_cycles(0)
        .measure_cycles(4_000)
        .seed(9);
    let mut sim =
        Simulation::with_observer(&mesh, &algo, &Transpose, config, DeliveryLog::default());
    let report = sim.run();

    // With no warmup, every generated message is inside the measurement
    // window (generation stops at its end), so the exact latency list is
    // just every delivered packet's.
    let mut exact: Vec<u64> = sim
        .observer()
        .delivered()
        .iter()
        .filter_map(|p| p.latency_cycles())
        .collect();
    assert_eq!(exact.len() as u64, report.total_delivered);
    assert!(exact.len() > 50, "only {} messages delivered", exact.len());
    assert_eq!(
        report.metrics.latencies,
        LatencyHistogram::from_values(&exact),
        "the engine's histogram must record exactly the delivered latencies"
    );

    exact.sort_unstable();
    for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        let rank = ((exact.len() - 1) as f64 * q).round() as usize;
        let want = exact[rank];
        let got = report.metrics.latencies.quantile(q).unwrap();
        let (low, high) = LatencyHistogram::bucket_bounds_of(want);
        assert!(
            (low..=high).contains(&got),
            "q{q}: histogram said {got}, exact is {want} (bucket {low}..={high})"
        );
    }
}

#[test]
fn watchdog_leaves_machine_readable_trace_evidence() {
    // The Fig. 1 deadlock scenario, traced. An empty packet filter drops
    // every per-packet event, but watchdog evidence ignores the packet
    // filter — the trace carries exactly the deadlock witness.
    let mesh = Mesh::new_2d(4, 4);
    let algo = TurnSetRouting::new(TurnSet::fully_adaptive(2));
    let config = SimConfig::paper()
        .injection_rate(0.9)
        .lengths(LengthDistribution::Fixed(64))
        .warmup_cycles(0)
        .measure_cycles(0)
        .deadlock_threshold(1_000)
        .seed(3);
    let obs = FlitTraceObserver::new().packets(&[]);
    let mut sim = Simulation::with_observer(&mesh, &algo, &Uniform, config, obs);

    let mut deadlock = None;
    for _ in 0..200_000 {
        if let Some(report) = sim.step() {
            deadlock = Some(report);
            break;
        }
    }
    let report = deadlock.expect("unrestricted turns must deadlock under load");

    let doc =
        json::parse(&sim.observer().to_chrome_trace_string(&[])).expect("trace is valid JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    let watchdog = events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("watchdog: deadlock detected"))
        .expect("the watchdog event is in the trace");
    let args = watchdog.get("args").expect("watchdog carries the report");
    assert_eq!(
        args.get("detected_at").and_then(|v| v.as_num()),
        Some(report.detected_at as f64)
    );
    assert_eq!(
        args.get("blocked_packets").and_then(|v| v.as_num()),
        Some(report.blocked_packets as f64)
    );
    let wait = args
        .get("circular_wait")
        .and_then(|v| v.as_arr())
        .expect("circular_wait is an array");
    assert_eq!(wait.len(), report.cycle.len());
    for (edge_json, edge) in wait.iter().zip(&report.cycle) {
        assert_eq!(
            edge_json.get("packet").and_then(|v| v.as_num()),
            Some(edge.packet.index() as f64)
        );
        assert_eq!(
            edge_json.get("wants").and_then(|v| v.as_num()),
            Some(edge.wants.index() as f64)
        );
    }
}
