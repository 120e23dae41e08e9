//! Selection-policy behavior and engine edge cases.

use turnroute_core::{DimensionOrder, NegativeFirst, WestFirst};
use turnroute_sim::obs::DeliveryLog;
use turnroute_sim::patterns::{Transpose, Uniform};
use turnroute_sim::{InputSelection, LengthDistribution, OutputSelection, SimConfig, Simulation};
use turnroute_topology::{Mesh, Topology};

fn base() -> SimConfig {
    SimConfig::paper()
        .injection_rate(0.05)
        .warmup_cycles(500)
        .measure_cycles(4_000)
        .seed(21)
}

#[test]
fn every_policy_combination_delivers() {
    let mesh = Mesh::new_2d(5, 5);
    let algo = WestFirst::minimal();
    for input in [
        InputSelection::FirstComeFirstServed,
        InputSelection::FixedPriority,
        InputSelection::Random,
    ] {
        for output in [
            OutputSelection::LowestDimension,
            OutputSelection::HighestDimension,
            OutputSelection::StraightFirst,
            OutputSelection::Random,
        ] {
            let config = base().input_selection(input).output_selection(output);
            let report = Simulation::new(&mesh, &algo, &Uniform, config).run();
            assert!(
                report.total_delivered > 50,
                "{input:?}/{output:?}: {}",
                report.total_delivered
            );
            assert_eq!(report.stranded_packets, 0, "{input:?}/{output:?}");
        }
    }
}

#[test]
fn random_policies_are_deterministic_given_the_seed() {
    let mesh = Mesh::new_2d(5, 5);
    let algo = NegativeFirst::minimal();
    let config = base()
        .input_selection(InputSelection::Random)
        .output_selection(OutputSelection::Random)
        .seed(99);
    let r1 = Simulation::new(&mesh, &algo, &Transpose, config.clone()).run();
    let r2 = Simulation::new(&mesh, &algo, &Transpose, config).run();
    assert_eq!(r1.metrics.latencies, r2.metrics.latencies);
    assert_eq!(r1.total_delivered, r2.total_delivered);
}

/// `Random` input and output selection draw from the simulation RNG
/// inside arbitration — per requester, in collection order — and have no
/// CLI flag, so no golden file reaches them. The report below was
/// recorded from the engine as it stood before packets moved into
/// recycled slots (saturated: 88 generated, 80 delivered); any change
/// to requester order, tie-breaks or RNG draws moves it.
#[test]
fn random_policies_reproduce_the_recorded_report() {
    let mesh = Mesh::new_2d(5, 5);
    let algo = NegativeFirst::minimal();
    let config = SimConfig::paper()
        .injection_rate(0.35)
        .warmup_cycles(100)
        .measure_cycles(800)
        .seed(99)
        .input_selection(InputSelection::Random)
        .output_selection(OutputSelection::Random);
    let report = Simulation::new(&mesh, &algo, &Uniform, config).run();
    assert_eq!(format!("{report:?}"), RECORDED_RANDOM_POLICY_REPORT);
}

const RECORDED_RANDOM_POLICY_REPORT: &str = "SimReport { offered_load: 0.35, metrics: MetricsCollector { window_start: 100, window_end: 900, flits_delivered: 5502, messages_generated: 80, flits_generated: 9160, latencies: LatencyHistogram { count: 72, sum: 32086, min: Some(10), max: Some(1134), occupied_buckets: 52 }, network_latencies: LatencyHistogram { count: 72, sum: 15619, min: Some(10), max: Some(1134), occupied_buckets: 34 }, hop_counts: [2, 3, 4, 2, 3, 1, 3, 3, 2, 3, 2, 1, 2, 6, 1, 2, 3, 3, 2, 4, 2, 3, 3, 3, 2, 3, 5, 3, 1, 1, 1, 3, 2, 2, 6, 1, 1, 1, 4, 3, 1, 3, 5, 2, 6, 4, 3, 3, 2, 3, 4, 5, 3, 6, 2, 5, 5, 2, 4, 4, 5, 2, 6, 2, 5, 3, 1, 1, 3, 4, 2, 4], queue_samples: [4, 20, 27] }, outcome: Completed, stranded_packets: 0, total_delivered: 80, total_generated: 88 }";

#[test]
fn single_flit_packets_behave() {
    let mesh = Mesh::new_2d(6, 6);
    let algo = DimensionOrder::new();
    let config = base()
        .lengths(LengthDistribution::Fixed(1))
        .injection_rate(0.02);
    let mut sim = Simulation::with_observer(&mesh, &algo, &Uniform, config, DeliveryLog::default());
    let report = sim.run();
    assert!(report.total_delivered > 20);
    assert_eq!(
        sim.observer().delivered().len() as u64,
        report.total_delivered
    );
    for p in sim.observer().delivered() {
        // A 1-flit packet's latency is exactly hops + 1 consume
        // cycle - 1 (the header cycle count), all queueing aside.
        assert!(p.network_latency_cycles().unwrap() >= p.hops() as u64);
    }
}

#[test]
fn burst_of_messages_from_one_node_serializes() {
    let mesh = Mesh::new_2d(4, 4);
    let algo = DimensionOrder::new();
    let mut sim = Simulation::with_observer(
        &mesh,
        &algo,
        &Uniform,
        base().injection_rate(0.0).deadlock_threshold(1_000_000),
        DeliveryLog::default(),
    );
    let src = mesh.node_at(&[0, 0].into());
    let ids: Vec<_> = (0..5)
        .map(|i| sim.inject_message(src, mesh.node_at(&[3, (i % 3) as u16].into()), 20))
        .collect();
    for _ in 0..1_000 {
        sim.step();
    }
    let mut deliveries: Vec<u64> = ids
        .iter()
        .map(|&id| {
            sim.observer()
                .get(id)
                .expect("all delivered")
                .delivered_at
                .unwrap()
        })
        .collect();
    // Injection order is preserved: one injection channel, FIFO queue.
    let sorted = {
        let mut s = deliveries.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(deliveries, sorted);
    // Spacing of at least the packet length between consecutive
    // injections translates into spaced deliveries.
    deliveries.dedup();
    assert_eq!(deliveries.len(), 5);
}

#[test]
fn straight_first_prefers_the_current_direction() {
    // With straight-first output selection, a packet with both
    // directions productive continues straight when possible: routes
    // have at most one turn more often than with lowest-dimension.
    let mesh = Mesh::new_2d(8, 8);
    let algo = NegativeFirst::minimal();
    let count_single_turn = |output: OutputSelection| {
        let config = base().output_selection(output).injection_rate(0.01).seed(5);
        Simulation::new(&mesh, &algo, &Uniform, config)
            .run()
            .total_delivered
    };
    // Both deliver plenty; this is a smoke check that the policy wiring
    // reaches the router (behavioral differences are asserted in the
    // ablation harness).
    assert!(count_single_turn(OutputSelection::StraightFirst) > 20);
    assert!(count_single_turn(OutputSelection::LowestDimension) > 20);
}

#[test]
fn queue_growth_marks_saturation() {
    let mesh = Mesh::new_2d(4, 4);
    let algo = DimensionOrder::new();
    let config = base().injection_rate(1.5).measure_cycles(8_000);
    let report = Simulation::new(&mesh, &algo, &Uniform, config).run();
    assert!(
        !report.sustainable(),
        "1.5 flits/cycle/node is far past capacity"
    );
    // But it still delivers at the network's own rate.
    assert!(report.metrics.throughput_flits_per_usec() > 0.0);
}
