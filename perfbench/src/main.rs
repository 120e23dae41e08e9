//! `benchmark`: runs one workload and prints its metrics, or compares
//! two result files. `run.sh` beside this crate drives it per workload.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::gen::Scale;
use perfbench::output::compare;
use perfbench::registry::Workload;
use perfbench::workloads::{self, Options};

const USAGE: &str = "\
usage: benchmark --workload NAME [--seed N] [--seconds S | --reps R] [--trace 0|1]
                 [--quick] [--out DIR]
       benchmark --compare A.json B.json
       benchmark --list

  --workload NAME  sweep16 | mesh64 | idle_long | vc_grid | serve_mix
  --seed N         every input derives from it (default 1)
  --seconds S      time box of the measured loop (default 10)
  --reps R         fixed repetition count instead of the time box, so that
                   counts repeat exactly between two runs
  --trace 0|1      0: end-to-end metrics; 1: record spans, report per-layer
                   metrics, write DIR/NAME.trace.json (default 0)
  --quick          tiny windows and 40 jobs; for smoke tests only
  --out DIR        result files, traces and scratch stores (default
                   perfbench/out)

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Everything else goes to standard error.";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::Sweep16,
        seed: 1,
        seconds: 10.0,
        reps: None,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".to_owned());
                }
            }
            "--reps" => {
                let reps: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be at least 1".to_owned());
                }
                options.reps = Some(reps);
            }
            "--trace" => {
                options.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => options.scale = Scale::Quick,
            "--out" => options.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let found = compare(&read(a)?, &read(b)?)?;
    for d in &found {
        println!("DISAGREE {}: {}", d.metric, d.detail);
    }
    if found.is_empty() {
        println!("agree: {a} {b}");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag] if flag == "--list" => {
            for w in Workload::ALL {
                println!("{}", w.name());
            }
            Ok(ExitCode::SUCCESS)
        }
        [flag, a, b] if flag == "--compare" => run_compare(a, b),
        [] => Err(USAGE.to_owned()),
        [flag, ..] if flag == "--help" || flag == "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => parse(&args).map(|options| {
            let outcome = workloads::run(&options);
            eprint!("{}", outcome.render_human());
            let kind = if options.trace { "layers" } else { "e2e" };
            let path = options
                .out_dir
                .join(format!("{}.{kind}.json", outcome.workload));
            let written = std::fs::create_dir_all(&options.out_dir)
                .and_then(|()| std::fs::write(&path, outcome.render_file()));
            if let Err(e) = written {
                eprintln!("cannot write {}: {e}", path.display());
            }
            println!("{}", outcome.render_result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
