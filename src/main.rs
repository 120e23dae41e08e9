//! The `turnroute` command-line tool: verify, route and simulate with
//! the paper's algorithms from a shell.
//!
//! ```sh
//! turnroute verify   --topology mesh:16x16 --algorithm west-first
//! turnroute route    --topology mesh:16x16 --algorithm west-first --from 12,2 --to 3,9
//! turnroute simulate --topology hypercube:8 --algorithm p-cube \
//!                    --pattern reverse-flip --load 0.2
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;
use turnroute::cli::{
    check_pattern_fits, parse_algorithm, parse_faults, parse_node, parse_pattern, parse_topology,
    parse_traffic, ALGORITHM_NAMES, FAULT_SPECS, PATTERN_NAMES, TOPOLOGY_SPECS, TRAFFIC_SPECS,
    VC_ALGORITHM_NAMES,
};
use turnroute::core::{count_paths, walk, ChannelDependencyGraph, RoutingAlgorithm, TurnSet};
use turnroute::experiment::{Engine, ExperimentSpec};
use turnroute::serve::{client, ServeOptions, Server};
use turnroute::sim::report::{write_csv, write_report_json, write_telemetry_json};
use turnroute::sim::{
    CellCache, Executor, FlitTraceObserver, Level, Logger, RouteTableMode, RunOutcome, SimConfig,
    Simulation,
};
use turnroute::topology::{ChannelId, Topology};

const USAGE: &str = "\
usage: turnroute <command> [--option value ...]

commands:
  verify    --topology T --algorithm A [--faults SPEC]
            check deadlock freedom (channel dependency graph) for the
            algorithm's turn discipline on the topology; with --faults,
            check the pruned relation instead: the faulted dependence
            graph must stay acyclic and every (src, dst) pair reachable
  route     --topology T --algorithm A --from NODE --to NODE
            walk one route and count the allowed shortest paths
  simulate  --topology T --algorithm A --pattern P --load F[,F...]
            [--threads N] [--shards auto|N] [--cycles N] [--warmup N]
            [--seed N] [--traffic poisson|mmpp:B,I]
            [--route-table auto|on|off] [--faults SPEC]
            [--trace FILE [--trace-window START:END]]
            run the Section 6 wormhole simulation; one load reports in
            detail, several loads sweep in parallel and print CSV.
            --route-table memoises routing decisions in a dense
            lookup table, filled on first use (auto: when it fits
            64 MiB; results are bit-identical either way).
            --shards partitions one run's arbitration across worker
            threads at a cycle barrier (auto: one shard per core;
            reports are bit-identical at every shard count).
            --traffic selects the arrival process: poisson (default)
            or mmpp:B,I, bursty on-off arrivals with mean burst / idle
            sojourns of B / I cycles at the same mean offered load
            --faults injects a deterministic fault plan (see `list`)
            --trace writes a flit-level Chrome trace-event JSON file
            (open in Perfetto), optionally restricted to a cycle window
  sweep     --topology T --algorithms A[,B...] --pattern P
            --loads F[,F...] [--threads N] [--shards auto|N]
            [--engine wormhole|vc] [--format csv|json] [--cache FILE]
            [--telemetry [FILE]] [--cycles N] [--warmup N] [--seed N]
            [--traffic poisson|mmpp:B,I] [--route-table auto|on|off]
            [--faults SPEC | --fault-axis N[,N...] [--fault-seed S]]
            fan the (algorithm x load) grid across worker threads;
            deterministic for any thread count. --telemetry reports
            per-cell wall times and merged latency quantiles (to FILE
            as JSON, or to stderr without one).
            --fault-axis sweeps each algorithm under 0, N, ... random
            permanent channel faults (one seed-derived nested fault set
            per count) for degradation curves; --faults injects one
            explicit plan into every cell instead
  synth     --topology T [--seed N] [--candidates N] [--threads N]
            [--out FILE]
            search for a minimal turn-prohibition set on the topology
            (made for the graph topologies: graph:FILE, fullmesh:N,
            ring:N, dragonfly:R,G, fattree:L,S — but any topology
            works) and print the synthesized turn model: prohibited
            turns, adaptiveness score, and verification verdict.
            deterministic: the same seed prints byte-identical output
            at any thread count. the winning model is available to
            simulate/sweep/verify as --algorithm synth[:<seed>]
  serve     [--addr HOST:PORT] [--store DIR] [--threads N]
            [--log FILE|-] [--log-level debug|info|warn|error]
            run the headless job server: POST /v1/jobs submits an
            experiment spec (JSON), GET /v1/jobs/ID polls status with
            per-cell progress, GET /v1/jobs/ID/result fetches the
            versioned report; plus GET /v1/healthz, GET /v1/cache/stats
            and the Prometheus text exposition at GET /v1/metrics.
            identical specs are answered from the content-addressed
            store in DIR (default .turnroute-store) byte-identically
            with zero engine cycles; duplicate in-flight submissions
            coalesce onto one job. --log streams structured line-JSON
            events (requests, job lifecycle spans, store activity) to
            FILE, or to stderr with '-'; --log-level defaults to info
            (debug adds per-cell progress events)
  submit    --spec FILE [--addr HOST:PORT]
            validate FILE ('-' reads stdin) locally, then submit it as
            a job; prints the server's job document
  status    --job ID [--addr HOST:PORT]
            poll one job: state plus cells_completed / cells_total
  fetch     --job ID [--addr HOST:PORT] [--out FILE]
            download a finished job's report (byte-identical to
            `sweep --format json` for the same spec)
  cancel    --job ID [--addr HOST:PORT]
            cancel a queued or running job
  list      print the accepted topologies, algorithms, patterns and
            fault spec forms

nodes are dense ids (137) or coordinates (9,4);
the default server address is 127.0.0.1:7453.";

/// The default `HOST:PORT` for `serve` and the client subcommands.
const DEFAULT_ADDR: &str = "127.0.0.1:7453";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn options(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected an --option, got '{key}'"))?;
        // `--telemetry` may stand alone (report to stderr) or take a
        // file path; every other option requires a value.
        let standalone = key == "telemetry" && it.peek().is_none_or(|next| next.starts_with("--"));
        let value = if standalone {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        map.insert(key.to_owned(), value);
    }
    Ok(map)
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    match command.as_str() {
        "list" => {
            println!("topologies:\n{TOPOLOGY_SPECS}\n");
            println!("algorithms:\n{ALGORITHM_NAMES}\n");
            println!("algorithms (--engine vc only):\n{VC_ALGORITHM_NAMES}\n");
            println!("patterns:\n{PATTERN_NAMES}\n");
            println!("traffic models (--traffic):\n{TRAFFIC_SPECS}\n");
            println!("fault specs (--faults, +-separated):\n{FAULT_SPECS}");
            Ok(())
        }
        "verify" => {
            let opts = options(rest)?;
            let topo = parse_topology(required(&opts, "topology")?).map_err(|e| e.to_string())?;
            let name = required(&opts, "algorithm")?;
            let algo = parse_algorithm(name, topo.as_ref()).map_err(|e| e.to_string())?;
            if let Some(fspec) = opts.get("faults") {
                let schedule = parse_faults(fspec, topo.as_ref()).map_err(|e| e.to_string())?;
                let report = turnroute::fault::verify(
                    topo.as_ref(),
                    algo.as_ref(),
                    &schedule.failed_at_start(),
                );
                println!(
                    "{} on {} under faults '{fspec}':",
                    algo.name(),
                    topo.label()
                );
                println!(
                    "  {} of {} channels failed at cycle 0",
                    schedule.failed_count_at_start(),
                    topo.num_channels()
                );
                println!("  verdict: {report}");
                return Ok(());
            }
            verify(topo.as_ref(), algo.as_ref(), name);
            Ok(())
        }
        "synth" => {
            let opts = options(rest)?;
            let topo = parse_topology(required(&opts, "topology")?).map_err(|e| e.to_string())?;
            let seed: u64 = opts
                .get("seed")
                .map(|v| v.parse().map_err(|_| "bad --seed value".to_string()))
                .transpose()?
                .unwrap_or(0);
            let candidates: usize = opts
                .get("candidates")
                .map(|v| v.parse().map_err(|_| "bad --candidates value".to_string()))
                .transpose()?
                .unwrap_or(turnroute::synth::DEFAULT_CANDIDATES);
            let threads = if opts.contains_key("threads") {
                threads_option(&opts)?
            } else {
                0 // one worker per core
            };
            let options = turnroute::synth::SynthesisOptions {
                seed,
                candidates,
                threads,
            };
            let synthesis =
                turnroute::synth::synthesize(topo.as_ref(), &options).map_err(|e| e.to_string())?;
            let text = synthesis.report.render();
            match opts.get("out") {
                Some(path) => std::fs::write(path, &text)
                    .map_err(|e| format!("cannot write '{path}': {e}"))?,
                None => print!("{text}"),
            }
            Ok(())
        }
        "route" => {
            let opts = options(rest)?;
            let topo = parse_topology(required(&opts, "topology")?).map_err(|e| e.to_string())?;
            let algo = parse_algorithm(required(&opts, "algorithm")?, topo.as_ref())
                .map_err(|e| e.to_string())?;
            let from =
                parse_node(required(&opts, "from")?, topo.as_ref()).map_err(|e| e.to_string())?;
            let to =
                parse_node(required(&opts, "to")?, topo.as_ref()).map_err(|e| e.to_string())?;
            if from == to {
                return Err("--from and --to are the same node".into());
            }
            let path = walk(algo.as_ref(), topo.as_ref(), from, to);
            let coords: Vec<String> = path.iter().map(|&n| topo.coord_of(n).to_string()).collect();
            println!(
                "{} on {}: {} hops (distance {})",
                algo.name(),
                topo.label(),
                path.len() - 1,
                topo.distance(from, to)
            );
            println!("  {}", coords.join(" -> "));
            if algo.is_minimal() {
                println!(
                    "  shortest paths allowed: {}",
                    count_paths(algo.as_ref(), topo.as_ref(), from, to)
                );
            }
            Ok(())
        }
        "simulate" => {
            let opts = options(rest)?;
            let name = required(&opts, "algorithm")?.to_owned();
            let pattern_name = required(&opts, "pattern")?.to_owned();
            let loads = parse_loads(required(&opts, "load")?)?;
            let config = sim_config(&opts)?;
            if loads.len() > 1 {
                // Several loads: a sweep of one algorithm, in parallel.
                let mut builder =
                    ExperimentSpec::builder(required(&opts, "topology")?, &pattern_name)
                        .algorithm(&name)
                        .loads(&loads)
                        .config(config);
                if let Some(fspec) = opts.get("faults") {
                    builder = builder.faults(fspec);
                }
                let series = builder
                    .build()
                    .map_err(|e| e.to_string())?
                    .run(threads_option(&opts)?)
                    .map_err(|e| e.to_string())?;
                let mut out = std::io::stdout().lock();
                write_csv(&series, &mut out).map_err(|e| e.to_string())?;
                return Ok(());
            }
            let topo = parse_topology(required(&opts, "topology")?).map_err(|e| e.to_string())?;
            let algo = parse_algorithm(&name, topo.as_ref()).map_err(|e| e.to_string())?;
            let pattern = parse_pattern(&pattern_name).map_err(|e| e.to_string())?;
            check_pattern_fits(pattern.as_ref(), topo.as_ref()).map_err(|e| e.to_string())?;
            let load = loads[0];
            let mut config = config.injection_rate(load);
            if let Some(fspec) = opts.get("faults") {
                let schedule = parse_faults(fspec, topo.as_ref()).map_err(|e| e.to_string())?;
                let check = turnroute::fault::verify(
                    topo.as_ref(),
                    algo.as_ref(),
                    &schedule.failed_at_start(),
                );
                eprintln!(
                    "# faults: {} of {} channels failed at cycle 0; {check}",
                    schedule.failed_count_at_start(),
                    topo.num_channels()
                );
                config = config.faults(schedule);
            }
            let report = match opts.get("trace") {
                Some(trace_path) => {
                    let mut obs = FlitTraceObserver::new();
                    if let Some(window) = opts.get("trace-window") {
                        let (start, end) = parse_trace_window(window)?;
                        obs = obs.window(start, end);
                    }
                    let mut sim = Simulation::with_observer(
                        topo.as_ref(),
                        algo.as_ref(),
                        pattern.as_ref(),
                        config,
                        obs,
                    );
                    if let Some(reason) = sim.route_table_fallback_reason() {
                        eprintln!("# route table off: {reason}");
                    }
                    let report = sim.run();
                    if let Some(reason) = sim.shard_fallback_reason() {
                        eprintln!("# sharding off (serial engine): {reason}");
                    }
                    let obs = sim.into_observer();
                    let file = std::fs::File::create(trace_path)
                        .map_err(|e| format!("cannot create --trace {trace_path}: {e}"))?;
                    let mut out = std::io::BufWriter::new(file);
                    obs.write_chrome_trace(&mut out, &channel_names(topo.as_ref()))
                        .and_then(|()| out.flush())
                        .map_err(|e| format!("cannot write --trace {trace_path}: {e}"))?;
                    eprintln!("# wrote {} trace events to {trace_path}", obs.len());
                    report
                }
                None => {
                    let mut sim =
                        Simulation::new(topo.as_ref(), algo.as_ref(), pattern.as_ref(), config);
                    if let Some(reason) = sim.route_table_fallback_reason() {
                        eprintln!("# route table off: {reason}");
                    }
                    let report = sim.run();
                    if let Some(reason) = sim.shard_fallback_reason() {
                        eprintln!("# sharding off (serial engine): {reason}");
                    }
                    report
                }
            };
            println!(
                "{} / {} / {} at {load} flits/cycle/node:",
                topo.label(),
                algo.name(),
                pattern.name()
            );
            match &report.outcome {
                RunOutcome::Completed => {
                    println!(
                        "  delivered  {:>10.1} flits/usec ({} messages)",
                        report.metrics.throughput_flits_per_usec(),
                        report.total_delivered
                    );
                    if let Some(lat) = report.metrics.avg_latency_usec() {
                        println!(
                            "  latency    {:>10.2} usec avg, {:.2} usec p95",
                            lat,
                            report
                                .metrics
                                .latency_quantile_usec(0.95)
                                .unwrap_or(f64::NAN)
                        );
                    }
                    if let Some(hops) = report.metrics.avg_hops() {
                        println!("  hops       {hops:>10.2} avg");
                    }
                    if report.stranded_packets > 0 {
                        println!(
                            "  stranded   {:>10} messages (no healthy route left)",
                            report.stranded_packets
                        );
                    }
                    println!("  sustainable: {}", report.sustainable());
                }
                RunOutcome::Deadlocked(d) => {
                    println!("  DEADLOCK:");
                    print!("{d}");
                }
            }
            Ok(())
        }
        "sweep" => {
            let opts = options(rest)?;
            let loads = parse_loads(required(&opts, "loads")?)?;
            let engine = match opts.get("engine").map(String::as_str) {
                None => Engine::Wormhole,
                Some(name) => Engine::from_name(name)
                    .ok_or_else(|| format!("unknown engine '{name}' (wormhole | vc)"))?,
            };
            let mut builder =
                ExperimentSpec::builder(required(&opts, "topology")?, required(&opts, "pattern")?)
                    .loads(&loads)
                    .config(sim_config(&opts)?)
                    .engine(engine);
            for name in required(&opts, "algorithms")?.split(',') {
                let name = name.trim();
                if name.is_empty() {
                    return Err("empty algorithm name in --algorithms".into());
                }
                builder = builder.algorithm(name);
            }
            if let Some(fspec) = opts.get("faults") {
                builder = builder.faults(fspec);
            }
            if let Some(axis) = opts.get("fault-axis") {
                builder = builder.fault_axis(&parse_fault_axis(axis)?);
            }
            if let Some(seed) = opts.get("fault-seed") {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| "bad --fault-seed value".to_string())?;
                builder = builder.fault_seed(seed);
            }
            let spec = builder.build().map_err(|e| e.to_string())?;
            let mut executor = Executor::new(threads_option(&opts)?);
            if let Some(path) = opts.get("cache") {
                let cache = CellCache::at_path(path)
                    .map_err(|e| format!("cannot open --cache {path}: {e}"))?;
                executor = executor.with_cache(cache);
            }
            let series = spec.run_on(&mut executor).map_err(|e| e.to_string())?;
            let mut out = std::io::stdout().lock();
            match opts.get("format").map(String::as_str) {
                None | Some("csv") => write_csv(&series, &mut out),
                Some("json") => write_report_json(&series, &executor.stats(), &mut out),
                Some(other) => return Err(format!("unknown format '{other}' (csv | json)")),
            }
            .map_err(|e| e.to_string())?;
            let stats = executor.stats();
            eprintln!(
                "# {} simulated, {} from cache, {} skipped as saturated",
                stats.simulated, stats.cache_hits, stats.skipped
            );
            if let Some(dest) = opts.get("telemetry") {
                if dest.is_empty() {
                    let mut err = std::io::stderr().lock();
                    write_telemetry_json(executor.telemetry(), &mut err)
                        .map_err(|e| e.to_string())?;
                } else {
                    let file = std::fs::File::create(dest)
                        .map_err(|e| format!("cannot create --telemetry {dest}: {e}"))?;
                    let mut tw = std::io::BufWriter::new(file);
                    write_telemetry_json(executor.telemetry(), &mut tw)
                        .and_then(|()| tw.flush())
                        .map_err(|e| format!("cannot write --telemetry {dest}: {e}"))?;
                }
            }
            if opts.contains_key("cache") {
                executor.cache().flush().map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        "serve" => {
            let opts = options(rest)?;
            let addr = opts.get("addr").map(String::as_str).unwrap_or(DEFAULT_ADDR);
            let store_dir = opts
                .get("store")
                .map(String::as_str)
                .unwrap_or(".turnroute-store");
            let logger = serve_logger(&opts)?;
            let handle = Server::start(
                addr,
                ServeOptions {
                    store_dir: store_dir.into(),
                    threads: threads_option(&opts)?,
                    logger,
                },
            )
            .map_err(|e| format!("cannot start the server on {addr}: {e}"))?;
            println!("turnroute-serve listening on http://{}", handle.addr());
            println!("  result store: {store_dir}");
            println!("  POST /v1/jobs   GET /v1/jobs/ID   GET /v1/jobs/ID/result");
            println!("  GET /v1/healthz   GET /v1/cache/stats   GET /v1/metrics");
            if let Some(dest) = opts.get("log") {
                let dest = if dest == "-" { "stderr" } else { dest };
                println!("  structured log: {dest}   (Ctrl-C stops)");
            } else {
                println!("  (Ctrl-C stops; --log - streams structured events)");
            }
            loop {
                std::thread::park();
            }
        }
        "submit" => {
            let opts = options(rest)?;
            let spec_json = read_spec_arg(&opts)?;
            // Validate locally first: a bad spec fails with the typed
            // error without a server round-trip.
            ExperimentSpec::from_json(&spec_json).map_err(|e| e.to_string())?;
            let addr = server_addr(&opts);
            let (status, body) = client::submit(&addr, &spec_json).map_err(|e| e.to_string())?;
            print_response(status, &body)
        }
        "status" => {
            let opts = options(rest)?;
            let (status, body) = client::status(&server_addr(&opts), required(&opts, "job")?)
                .map_err(|e| e.to_string())?;
            print_response(status, &body)
        }
        "fetch" => {
            let opts = options(rest)?;
            let (status, body) = client::fetch(&server_addr(&opts), required(&opts, "job")?)
                .map_err(|e| e.to_string())?;
            match opts.get("out") {
                Some(path) if status < 400 => std::fs::write(path, &body)
                    .map_err(|e| format!("cannot write --out {path}: {e}")),
                _ => print_response(status, &body),
            }
        }
        "cancel" => {
            let opts = options(rest)?;
            let (status, body) = client::cancel(&server_addr(&opts), required(&opts, "job")?)
                .map_err(|e| e.to_string())?;
            print_response(status, &body)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Builds the `serve` logger from `--log FILE|-` and `--log-level`
/// (default `info`). Without `--log`, logging is disabled entirely.
fn serve_logger(opts: &HashMap<String, String>) -> Result<Logger, String> {
    let Some(dest) = opts.get("log") else {
        if opts.contains_key("log-level") {
            return Err("--log-level needs --log FILE|- to have somewhere to write".into());
        }
        return Ok(Logger::disabled());
    };
    let level: Level = opts
        .get("log-level")
        .map(String::as_str)
        .unwrap_or("info")
        .parse()
        .map_err(|e: String| format!("bad --log-level: {e}"))?;
    if dest == "-" {
        Ok(Logger::to_stderr(level))
    } else {
        Logger::to_file(level, dest).map_err(|e| format!("cannot open --log {dest}: {e}"))
    }
}

/// The server address for the client subcommands (`--addr`, or the
/// default).
fn server_addr(opts: &HashMap<String, String>) -> String {
    opts.get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.into())
}

/// Reads the `--spec` argument: a file path, or `-` for stdin.
fn read_spec_arg(opts: &HashMap<String, String>) -> Result<String, String> {
    let path = required(opts, "spec")?;
    if path == "-" {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut text)
            .map_err(|e| format!("cannot read the spec from stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read --spec {path}: {e}"))
    }
}

/// Prints the server's response body; 4xx/5xx answers also fail the
/// process so scripts can branch on the exit code.
fn print_response(status: u16, body: &[u8]) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    out.write_all(body)
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    if status >= 400 {
        return Err(format!("the server answered HTTP {status}"));
    }
    Ok(())
}

/// Parses `--trace-window START:END` (cycle bounds, half-open).
fn parse_trace_window(spec: &str) -> Result<(u64, u64), String> {
    let bad = || format!("bad --trace-window '{spec}' (expected START:END in cycles)");
    let (start, end) = spec.split_once(':').ok_or_else(bad)?;
    let start: u64 = start.trim().parse().map_err(|_| bad())?;
    let end: u64 = end.trim().parse().map_err(|_| bad())?;
    if start >= end {
        return Err(format!(
            "--trace-window start {start} must be below end {end}"
        ));
    }
    Ok((start, end))
}

/// Human-readable lane names for the trace viewer, one per channel:
/// `"ch12 (3,0)->(2,0) -x"`.
fn channel_names(topo: &dyn Topology) -> Vec<String> {
    (0..topo.num_channels())
        .map(|c| {
            let ch = topo.channel(ChannelId::new(c));
            format!(
                "ch{c} {}->{} {}",
                topo.coord_of(ch.src),
                topo.coord_of(ch.dst),
                ch.dir
            )
        })
        .collect()
}

/// Parses the `--fault-axis` list: comma-separated fault counts like
/// `0,2,4,8` (each sweeps every algorithm under that many random
/// permanent channel faults).
fn parse_fault_axis(spec: &str) -> Result<Vec<u64>, String> {
    let counts: Vec<u64> = spec
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("bad --fault-axis count '{p}'"))
        })
        .collect::<Result<_, _>>()?;
    if counts.is_empty() {
        return Err("--fault-axis needs at least one count".into());
    }
    Ok(counts)
}

/// Parses a comma-separated load list like `0.01,0.05,0.1`.
fn parse_loads(spec: &str) -> Result<Vec<f64>, String> {
    let loads: Vec<f64> = spec
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("bad load value '{p}'"))
        })
        .collect::<Result<_, _>>()?;
    if loads.is_empty() || loads.iter().any(|l| !l.is_finite() || *l <= 0.0) {
        return Err("loads must be positive numbers".into());
    }
    Ok(loads)
}

/// Parses `--threads N` (default 1).
fn threads_option(opts: &HashMap<String, String>) -> Result<usize, String> {
    let threads = opts
        .get("threads")
        .map(|v| v.parse().map_err(|_| "bad --threads value".to_string()))
        .transpose()?
        .unwrap_or(1);
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(threads)
}

/// Parses `--shards auto|N` (default 1, the serial engine; `auto` asks
/// for one shard per available core; results are bit-identical at
/// every value).
fn shards_option(opts: &HashMap<String, String>) -> Result<usize, String> {
    match opts.get("shards").map(String::as_str) {
        None => Ok(1),
        Some("auto") => Ok(0),
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "bad --shards value '{v}' (expected auto or N >= 1)"
            )),
        },
    }
}

/// Builds the base [`SimConfig`] from `--cycles`, `--warmup`, `--seed`,
/// `--traffic` and `--shards` (shared by `simulate` and `sweep`).
fn sim_config(opts: &HashMap<String, String>) -> Result<SimConfig, String> {
    let cycles: u64 = opts
        .get("cycles")
        .map(|v| v.parse().map_err(|_| "bad --cycles value".to_string()))
        .transpose()?
        .unwrap_or(20_000);
    let warmup: u64 = opts
        .get("warmup")
        .map(|v| v.parse().map_err(|_| "bad --warmup value".to_string()))
        .transpose()?
        .unwrap_or(cycles / 4);
    let seed: u64 = opts
        .get("seed")
        .map(|v| v.parse().map_err(|_| "bad --seed value".to_string()))
        .transpose()?
        .unwrap_or(0x7453_1DE5);
    let route_table = match opts.get("route-table").map(String::as_str) {
        None | Some("auto") => RouteTableMode::Auto,
        Some("on") => RouteTableMode::On,
        Some("off") => RouteTableMode::Off,
        Some(other) => {
            return Err(format!(
                "bad --route-table value '{other}' (expected auto, on or off)"
            ))
        }
    };
    let traffic = match opts.get("traffic") {
        None => turnroute::sim::TrafficModel::Poisson,
        Some(spec) => parse_traffic(spec).map_err(|e| e.to_string())?,
    };
    Ok(SimConfig::paper()
        .warmup_cycles(warmup)
        .measure_cycles(cycles)
        .seed(seed)
        .route_table(route_table)
        .traffic(traffic)
        .shards(shards_option(opts)?))
}

fn verify(topo: &dyn Topology, algo: &dyn RoutingAlgorithm, name: &str) {
    // Synthesized relations carry no abstract turn set; check the
    // concrete relation instead — acyclicity of its dependence graph
    // plus all-pairs deliverability, with no channels failed.
    if name == "synth" || name.starts_with("synth:") {
        println!("{} on {}:", algo.name(), topo.label());
        let report = turnroute::fault::verify(topo, algo, &vec![false; topo.num_channels()]);
        if report.is_ok() {
            println!(
                "  verdict: DEADLOCK FREE (relation acyclic; all {} pairs deliverable)",
                report.checked_pairs
            );
        } else {
            println!("  verdict: {report}");
        }
        return;
    }
    // The turn discipline to check: named constructions map to their
    // turn sets; for everything else, fall back to the most permissive
    // relation the minimal algorithm could use.
    let n = topo.num_dims();
    let set = match name {
        "xy" | "dimension-order" | "e-cube" => Some(TurnSet::dimension_order(n)),
        "west-first" | "west-first-nonminimal" => Some(TurnSet::west_first()),
        "north-last" | "north-last-nonminimal" => Some(TurnSet::north_last()),
        "negative-first"
        | "negative-first-nonminimal"
        | "p-cube"
        | "pcube"
        | "p-cube-nonminimal" => Some(TurnSet::negative_first(n)),
        "abonf" => Some(TurnSet::abonf(n)),
        "abopl" => Some(TurnSet::abopl(n)),
        _ => None,
    };
    println!("{} on {}:", algo.name(), topo.label());
    match set {
        Some(set) => {
            println!(
                "  turn set prohibits {} of {} turns",
                set.prohibited_ninety().count(),
                4 * n * (n - 1)
            );
            println!(
                "  breaks all abstract cycles: {}",
                set.breaks_all_abstract_cycles()
            );
            let cdg = ChannelDependencyGraph::from_turn_set(topo, &set);
            println!(
                "  channel dependency graph: {} channels, {} dependencies",
                cdg.num_channels(),
                cdg.num_dependencies()
            );
            match cdg.find_cycle() {
                None => println!("  verdict: DEADLOCK FREE (acyclic; monotone numbering exists)"),
                Some(cycle) => {
                    println!(
                        "  verdict: NOT deadlock free; {}-channel cycle found",
                        cycle.len()
                    )
                }
            }
        }
        None => {
            println!(
                "  (torus discipline: verified by the relation-specific checks in the test suite)"
            );
        }
    }
}
