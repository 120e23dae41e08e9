//! Route tables are a pure speed optimisation: sweeping with
//! `--route-table on` must produce byte-for-byte the CSV of
//! `--route-table off`, for every algorithm in the CLI registry on
//! every topology family, at any thread count — and the size-cap
//! fallback must be equally invisible.

use turnroute::experiment::ExperimentSpec;
use turnroute::sim::report::write_csv;
use turnroute::sim::RouteTableMode::{Off, On};
use turnroute::sim::SimConfig;

fn quick() -> SimConfig {
    SimConfig::paper()
        .warmup_cycles(200)
        .measure_cycles(1_000)
        .seed(42)
}

/// CSV bytes of the spec swept under `config`.
fn csv(
    topology: &str,
    pattern: &str,
    algos: &[&str],
    config: SimConfig,
    threads: usize,
) -> Vec<u8> {
    let mut builder = ExperimentSpec::builder(topology, pattern)
        .loads(&[0.02, 0.05])
        .config(config);
    for a in algos {
        builder = builder.algorithm(*a);
    }
    let spec = builder.build().expect("spec resolves");
    let mut buf = Vec::new();
    write_csv(&spec.run(threads).expect("spec resolves"), &mut buf).expect("in-memory CSV");
    buf
}

/// Every CLI-registered algorithm that runs on the topology, swept with
/// tables on and off, 1 and 8 threads: all four byte streams equal.
fn assert_mode_invisible(topology: &str, pattern: &str, algos: &[&str]) {
    let off = csv(topology, pattern, algos, quick().route_table(Off), 1);
    for threads in [1, 8] {
        let on = csv(topology, pattern, algos, quick().route_table(On), threads);
        assert_eq!(
            off, on,
            "{topology}: route table changed sweep bytes ({threads} threads)"
        );
    }
    assert_eq!(
        off,
        csv(topology, pattern, algos, quick().route_table(Off), 8),
        "{topology}: thread count changed direct-routed bytes"
    );
}

#[test]
fn mesh_sweeps_are_identical_with_and_without_tables() {
    assert_mode_invisible(
        "mesh:6x6",
        "transpose",
        &[
            "xy",
            "west-first",
            "north-last",
            "negative-first",
            "abonf",
            "abopl",
        ],
    );
}

#[test]
fn torus_sweeps_are_identical_with_and_without_tables() {
    assert_mode_invisible(
        "torus:5,2",
        "uniform",
        &["xy", "negative-first-torus", "first-hop-wrap"],
    );
}

#[test]
fn hypercube_sweeps_are_identical_with_and_without_tables() {
    assert_mode_invisible(
        "hypercube:4",
        "hypercube-transpose",
        &["xy", "p-cube", "negative-first"],
    );
}

#[test]
fn budget_fallback_is_equally_invisible() {
    // A 1-byte budget forces Auto onto the direct path; the bytes must
    // not notice.
    let algos = ["west-first", "xy"];
    let base = csv("mesh:6x6", "transpose", &algos, quick().route_table(On), 1);
    let capped = csv(
        "mesh:6x6",
        "transpose",
        &algos,
        quick().route_table_budget(1),
        1,
    );
    assert_eq!(base, capped, "budget fallback changed sweep bytes");
}

#[test]
fn sharded_sweeps_are_identical_with_and_without_tables() {
    // Two arbitration shards per cell, and two cells at a time, fill
    // each series' table concurrently.
    let algos = ["west-first", "negative-first"];
    let off = csv("mesh:6x6", "transpose", &algos, quick().route_table(Off), 1);
    let sharded = quick().route_table(On).shards(2);
    assert_eq!(
        off,
        csv("mesh:6x6", "transpose", &algos, sharded, 2),
        "2-shard table-on sweep changed bytes"
    );
}
