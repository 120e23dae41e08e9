//! The perf-regression recorder and CI gate (`scripts/bench.sh`).
//!
//! Default mode re-measures the committed workloads, appends one
//! record to `bench/history.jsonl`, regenerates the trajectory
//! dashboard (`bench/dashboard.html`), and rewrites the repo-root
//! `BENCH_engine.json` / `BENCH_sweep.json` artifacts from the same
//! measurement. `--check` measures without recording: it compares the
//! fresh numbers against the last committed record and exits nonzero
//! on a >10% throughput regression, while still writing the dashboard
//! (with the fresh point appended in memory) for CI artifact upload.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use turnroute_bench::regression::{
    check, parse_history, BenchRecord, DEFAULT_TOLERANCE, RECORD_SCHEMA,
};
use turnroute_bench::workloads::{
    measure_engine, measure_engine_mmpp, measure_engine_sharded, measure_engine_vc, measure_sweep,
    measure_synth, render_engine_json, render_sweep_json,
};

const USAGE: &str = "\
usage: bench_record [--check] [--tolerance F] [--note TEXT]
  (default)     measure, append to bench/history.jsonl, rewrite the
                BENCH_*.json artifacts, regenerate bench/dashboard.html
  --check       measure and gate against the last committed record
                without writing history or BENCH artifacts; exits 1 on
                a regression beyond the tolerance (still writes the
                dashboard so CI can upload it)
  --tolerance F fractional regression allowed per metric (default 0.10)
  --note TEXT   free-form context stored in the record (record mode)";

struct Args {
    check_only: bool,
    tolerance: f64,
    note: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        check_only: false,
        tolerance: DEFAULT_TOLERANCE,
        note: String::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => args.check_only = true,
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a value")?;
                args.tolerance = v
                    .parse()
                    .map_err(|_| format!("bad --tolerance value '{v}'"))?;
                if !(0.0..1.0).contains(&args.tolerance) {
                    return Err("--tolerance must be in [0, 1)".into());
                }
            }
            "--note" => {
                args.note = it.next().ok_or("--note needs a value")?.clone();
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let root = repo_root();
    let bench_dir = root.join("bench");
    let history_path = bench_dir.join("history.jsonl");
    let dashboard_path = bench_dir.join("dashboard.html");

    let mut history = match std::fs::read_to_string(&history_path) {
        Ok(text) => match parse_history(&text) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: {}: {e}", history_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", history_path.display());
            return ExitCode::FAILURE;
        }
    };

    eprintln!("# measuring the engine-throughput workload");
    let engine = measure_engine(10);
    eprintln!("# measuring the sharded large-mesh workload");
    let sharded = measure_engine_sharded(10);
    eprintln!("# measuring the MMPP injection workload");
    let mmpp = measure_engine_mmpp(10);
    eprintln!("# measuring the virtual-channel engine workload");
    let vc = measure_engine_vc(10);
    eprintln!("# measuring the sweep-grid workload");
    let sweep = measure_sweep(5);
    eprintln!("# measuring the synthesis workload");
    let synth = measure_synth(10);

    let recorded_at_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let current = BenchRecord {
        schema: RECORD_SCHEMA,
        recorded_at_unix,
        host_cores: sweep.host_cores as u64,
        engine_west_first_cps: engine.west_first_cps.round(),
        engine_xy_cps: engine.xy_cps.round(),
        engine_mesh64_serial_cps: sharded.serial_cps.round(),
        engine_sharded_cps: sharded.sharded_cps.round(),
        engine_mmpp_cps: mmpp.mmpp_cps.round(),
        engine_vc_mady_cps: vc.mady_cps.round(),
        sharded_speedup: (sharded.speedup * 1e3).round() / 1e3,
        synth_candidates_per_sec: (synth.candidates_per_sec * 10.0).round() / 10.0,
        sweep_cells_per_sec: (sweep.cells_per_sec * 1e3).round() / 1e3,
        sweep_serial_secs: (sweep.serial_secs * 1e4).round() / 1e4,
        sweep_threads8_secs: (sweep.threads8_secs * 1e4).round() / 1e4,
        sweep_speedup_8_threads: (sweep.speedup_8 * 1e3).round() / 1e3,
        note: args.note.clone(),
    };

    println!(
        "engine west-first {:.0} cycles/s · engine xy {:.0} cycles/s · \
         sharded 64x64 {:.0} cycles/s ({} shard(s), {:.2}x vs serial {:.0}) · \
         mmpp {:.0} cycles/s · vc mad-y {:.0} cycles/s · \
         synth {:.1} candidates/s · \
         sweep {:.1} cells/s (serial {:.3}s, 8 threads {:.3}s, {} core(s))",
        current.engine_west_first_cps,
        current.engine_xy_cps,
        current.engine_sharded_cps,
        sharded.shards,
        current.sharded_speedup,
        current.engine_mesh64_serial_cps,
        current.engine_mmpp_cps,
        current.engine_vc_mady_cps,
        current.synth_candidates_per_sec,
        current.sweep_cells_per_sec,
        current.sweep_serial_secs,
        current.sweep_threads8_secs,
        current.host_cores,
    );

    let verdict = match history.last() {
        Some(last) => {
            let violations = check(last, &current, args.tolerance);
            if violations.is_empty() {
                println!(
                    "gate: PASS vs record of {} (tolerance {:.0}%)",
                    last.recorded_at_unix,
                    args.tolerance * 100.0
                );
                Ok(())
            } else {
                for v in &violations {
                    eprintln!("gate: FAIL {v}");
                }
                Err(())
            }
        }
        None => {
            println!("gate: no committed history yet; this run records the first point");
            Ok(())
        }
    };

    if args.check_only {
        // The dashboard still shows where this (unrecorded) run lands.
        history.push(current);
        if let Err(e) = write_dashboard(&dashboard_path, &history) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        return match verdict {
            Ok(()) => ExitCode::SUCCESS,
            Err(()) => ExitCode::FAILURE,
        };
    }

    // Record mode: append to history, rewrite the BENCH artifacts, and
    // regenerate the dashboard. A failing gate still records (the
    // history must tell the truth) but the exit code reports it.
    if let Err(e) = std::fs::create_dir_all(&bench_dir) {
        eprintln!("error: cannot create {}: {e}", bench_dir.display());
        return ExitCode::FAILURE;
    }
    let mut lines: String = history.iter().map(|r| r.to_json_line() + "\n").collect();
    lines.push_str(&current.to_json_line());
    lines.push('\n');
    if let Err(e) = std::fs::write(&history_path, lines) {
        eprintln!("error: cannot write {}: {e}", history_path.display());
        return ExitCode::FAILURE;
    }
    history.push(current);
    println!("recorded -> {}", history_path.display());

    for (path, body) in [
        (
            root.join("BENCH_engine.json"),
            render_engine_json(&engine, &sharded, &mmpp, &vc),
        ),
        (root.join("BENCH_sweep.json"), render_sweep_json(&sweep)),
    ] {
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote    -> {}", path.display());
    }
    if let Err(e) = write_dashboard(&dashboard_path, &history) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(()) => ExitCode::FAILURE,
    }
}

fn write_dashboard(path: &Path, history: &[BenchRecord]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, turnroute_bench::regression::render_dashboard(history))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("dashboard -> {}", path.display());
    Ok(())
}
