//! Cross-crate integration of the virtual-channel extension: full
//! adaptivity pays off exactly where the paper's channel-free
//! algorithms run out of choices.

use turnroute::core::adaptiveness::fully_adaptive_shortest_paths;
use turnroute::core::{count_paths, NegativeFirst};
use turnroute::sim::patterns::DiagonalTranspose;
use turnroute::sim::SimConfig;
use turnroute::topology::{Mesh, Topology};
use turnroute::vc::{
    count_physical_paths, MadY, SingleClass, VcRoutingAlgorithm, VcSimulation, VcTable,
};

/// On mixed-sign pairs, negative-first allows exactly one shortest path
/// (Section 3.4) while mad-y allows them all.
#[test]
fn mixed_sign_pairs_separate_partial_from_full_adaptivity() {
    let mesh = Mesh::new_2d(8, 8);
    let nf = NegativeFirst::minimal();
    let mady = MadY::new();
    let table = VcTable::new(&mesh, &mady.provisioning(&mesh));
    let s = mesh.node_at(&[2, 6].into());
    let d = mesh.node_at(&[6, 2].into()); // dx = +4, dy = -4
    assert_eq!(count_paths(&nf, &mesh, s, d), 1);
    let full = fully_adaptive_shortest_paths(&mesh, s, d);
    assert_eq!(full, 70); // 8!/4!4!
    assert_eq!(count_physical_paths(&mady, &mesh, &table, s, d), full);
}

/// At loads past negative-first's diagonal-transpose saturation, mad-y
/// keeps latency flat and delivers more.
#[test]
fn mady_outlasts_negative_first_on_diagonal_transpose() {
    let mesh = Mesh::new_2d(8, 8);
    let config = SimConfig::paper()
        .injection_rate(0.2)
        .warmup_cycles(2_000)
        .measure_cycles(8_000)
        .seed(5);
    let mady = MadY::new();
    let mady_report = VcSimulation::new(&mesh, &mady, &DiagonalTranspose, config.clone()).run();
    let nf = SingleClass::new(NegativeFirst::minimal());
    let nf_report = VcSimulation::new(&mesh, &nf, &DiagonalTranspose, config).run();

    let (mt, nt) = (
        mady_report.metrics.throughput_flits_per_usec(),
        nf_report.metrics.throughput_flits_per_usec(),
    );
    assert!(mt > nt * 1.05, "mad-y {mt:.0} vs negative-first {nt:.0}");
    let (ml, nl) = (
        mady_report.metrics.avg_latency_usec().unwrap(),
        nf_report.metrics.avg_latency_usec().unwrap(),
    );
    assert!(
        ml < nl * 0.5,
        "mad-y {ml:.1} usec vs negative-first {nl:.1} usec"
    );
}

/// The multi-lane algorithms have no oracle, so their reports are
/// pinned: each `tests/fixtures/vc_golden/NAME.args` is a `turnroute`
/// command line whose stdout was recorded in `NAME.json` from the
/// engine before its hot path was rewritten (PR 14), and must come out
/// byte for byte. `scripts/check.sh` runs the same `cmp`.
#[test]
fn multi_lane_sweeps_reproduce_their_golden_reports() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/vc_golden");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("fixture directory") {
        let args_file = entry.expect("directory entry").path();
        if args_file.extension().is_none_or(|e| e != "args") {
            continue;
        }
        let args = std::fs::read_to_string(&args_file).expect("args file");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_turnroute"))
            .args(args.split_whitespace())
            .output()
            .expect("spawn turnroute");
        assert!(out.status.success(), "{}", args_file.display());
        let golden = std::fs::read(args_file.with_extension("json")).expect("golden report");
        assert!(out.stdout == golden, "{} drifted", args_file.display());
        checked += 1;
    }
    assert_eq!(checked, 2);
}
