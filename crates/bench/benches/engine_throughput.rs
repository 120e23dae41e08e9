//! Engine hot-path throughput, recorded to `BENCH_engine.json` at the
//! repo root: simulated cycles per second on the standard 16x16-mesh
//! transpose workloads, with the precomputed route table on and off,
//! against the last recorded pre-optimisation baseline.
//!
//! The workload itself lives in [`turnroute_bench::workloads`] so this
//! bench, the `bench_record` regression gate, and `scripts/bench.sh`
//! all measure the same thing. The baseline constants there were
//! measured on this host at commit 1dec775 (before the allocation-free
//! hot path and route tables); re-measure them from that commit if the
//! workload ever changes.

use turnroute_bench::workloads::{
    measure_engine, measure_engine_mmpp, measure_engine_sharded, measure_engine_vc,
    render_engine_json, BASELINE_WEST_FIRST_CPS, BASELINE_XY_CPS,
};

fn main() {
    let m = measure_engine(10);
    println!(
        "west-first: {:.0} cycles/sec (table off: {:.0}, baseline {BASELINE_WEST_FIRST_CPS:.0})",
        m.west_first_cps, m.west_first_cps_table_off
    );
    println!(
        "xy:         {:.0} cycles/sec (baseline {BASELINE_XY_CPS:.0})",
        m.xy_cps
    );
    let s = measure_engine_sharded(10);
    println!(
        "mesh64:     {:.0} cycles/sec sharded x{} ({:.2}x vs serial {:.0})",
        s.sharded_cps, s.shards, s.speedup, s.serial_cps
    );
    let p = measure_engine_mmpp(10);
    println!(
        "mmpp:       {:.0} cycles/sec (bursty 96/288 injection)",
        p.mmpp_cps
    );
    let v = measure_engine_vc(10);
    println!(
        "vc mad-y:   {:.0} cycles/sec (loads 0.04 + 0.16)",
        v.mady_cps
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, render_engine_json(&m, &s, &p, &v))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}
