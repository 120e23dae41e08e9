//! `serve_mix`: a closed loop of cache-hit and cache-miss jobs against
//! the job server, in process, over loopback.
//!
//! One client thread submits a job, polls its status every millisecond
//! until it is terminal, and fetches the result before submitting the
//! next — callers of a job server wait for their reply, so the loop is
//! closed and a slow server receives less load. With the server's one
//! runner thread that makes two busy threads, which is what this host
//! has. The engine does a few milliseconds of work per miss and none
//! per hit; HTTP parsing, spec JSON, fingerprinting, the store and the
//! runner queue do the rest.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use turnroute::cli::parse_topology;
use turnroute::experiment::ExperimentSpec;
use turnroute::serve::{client, ResultStore, ServeOptions, Server, ServerHandle};
use turnroute::sim::report::write_report_json;
use turnroute::sim::{Executor, Logger};
use turnroute_experiment::json;

use super::{end_to_end, guarded, zero_unset_layers, LoopClock, Options, Rep, Tally};
use crate::gen::{fnv1a64, Job, ServeInputs};
use crate::layers;
use crate::output::{Metrics, Outcome};
use crate::spans::{span, Recorder};
use crate::stats;

/// A running server on a fresh store directory.
pub struct Served {
    handle: ServerHandle,
    /// `host:port` of the listener.
    pub addr: String,
    dir: PathBuf,
}

impl Served {
    /// Starts the server as the workload defines it: one executor
    /// thread per job, logging off, an empty store under `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or the port not bound.
    pub fn start(dir: &Path) -> std::io::Result<Served> {
        let handle = Server::start(
            "127.0.0.1:0",
            ServeOptions {
                store_dir: dir.to_path_buf(),
                threads: 1,
                logger: Logger::disabled(),
            },
        )?;
        Ok(Served {
            addr: handle.addr().to_string(),
            handle,
            dir: dir.to_path_buf(),
        })
    }

    /// Stops the server, joins its threads and removes the store.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A store directory no other run or sample shares.
pub fn fresh_store_dir(options: &Options, tag: &str) -> PathBuf {
    options.out_dir.join("tmp").join(format!(
        "{}-{}-{tag}",
        options.workload.name(),
        std::process::id()
    ))
}

/// What one job cost the client, phase by phase.
#[derive(Debug, Clone, Default)]
struct JobTimes {
    submit_ms: f64,
    wait_ms: f64,
    fetch_ms: f64,
    polls: u32,
    /// Whether the server answered the submission from its store.
    cached: bool,
    /// FNV digest of the fetched result bytes.
    digest: u64,
}

impl JobTimes {
    fn total_ms(&self) -> f64 {
        self.submit_ms + self.wait_ms + self.fetch_ms
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One job, start to bytes in hand: `POST /v1/jobs`, `GET
/// /v1/jobs/{id}` every millisecond until terminal, `GET
/// /v1/jobs/{id}/result`. Any transport error, non-2xx answer or
/// non-`done` terminal state is an `Err`.
fn do_job(
    addr: &str,
    spec_json: &str,
    recorder: Option<&Recorder>,
    op: u64,
) -> Result<JobTimes, String> {
    span(recorder, "bench.job", op, None, |root| {
        let mut t = JobTimes::default();
        let started = Instant::now();
        let (code, body) = span(recorder, "serve.submit", op, root, |_| {
            client::submit(addr, spec_json)
        })
        .map_err(|e| format!("submit: {e}"))?;
        t.submit_ms = ms(started);
        if !(200..300).contains(&code) {
            return Err(format!("submit answered {code}"));
        }
        let doc = std::str::from_utf8(&body)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .ok_or("submit answered something that is not JSON")?;
        let id = doc
            .get("job_id")
            .and_then(|v| v.as_str())
            .ok_or("submit answer has no job_id")?
            .to_owned();
        t.cached = doc.get("cached").and_then(|v| v.as_bool()) == Some(true);

        let waiting = Instant::now();
        span(recorder, "serve.wait", op, root, |wait| loop {
            let (code, body) = span(recorder, "serve.status", op, wait, |_| {
                client::status(addr, &id)
            })
            .map_err(|e| format!("status: {e}"))?;
            t.polls += 1;
            if !(200..300).contains(&code) {
                return Err(format!("status answered {code}"));
            }
            let text = String::from_utf8_lossy(&body);
            if text.contains("\"status\":\"done\"") {
                return Ok(());
            }
            if !text.contains("\"status\":\"queued\"") && !text.contains("\"status\":\"running\"") {
                return Err(format!("job ended as {}", text.trim()));
            }
            std::thread::sleep(Duration::from_millis(1));
        })?;
        t.wait_ms = ms(waiting);

        let fetching = Instant::now();
        let (code, body) = span(recorder, "serve.fetch", op, root, |_| {
            client::fetch(addr, &id)
        })
        .map_err(|e| format!("fetch: {e}"))?;
        t.fetch_ms = ms(fetching);
        if !(200..300).contains(&code) {
            return Err(format!("fetch answered {code}"));
        }
        t.digest = fnv1a64(&body);
        Ok(t)
    })
}

/// The bytes the CLI would print for `spec`: one local run through the
/// shared serializer. Returns them with the serialization time.
pub fn local_report(spec: &ExperimentSpec) -> (Vec<u8>, f64) {
    let mut executor = Executor::new(1);
    let series = spec.run_on(&mut executor).expect("validated specs resolve");
    let mut bytes = Vec::new();
    let start = Instant::now();
    write_report_json(&series, &executor.stats(), &mut bytes).expect("Vec write");
    (bytes, ms(start))
}

/// The running workload: the server, the specs submitted so far (as
/// JSON) and the digest each returned, so every hit can be held to its
/// miss's bytes.
struct Mix {
    inputs: ServeInputs,
    addr: String,
    submitted: Vec<(String, u64)>,
    next_op: u64,
}

/// Client-side timings of the jobs of one or more blocks, by class.
#[derive(Default)]
struct Classes {
    miss: Vec<JobTimes>,
    hit: Vec<JobTimes>,
}

impl Mix {
    /// Runs `jobs` in order. Every job is one operation; it fails on an
    /// error from [`do_job`], a hit the server did not answer from its
    /// store (or a miss it did), or a hit whose bytes differ from its
    /// miss's.
    fn run_jobs(
        &mut self,
        jobs: &[Job],
        recorder: Option<&Recorder>,
        tally: &mut Tally,
        classes: &mut Classes,
    ) -> Rep {
        let spec0 = self.inputs.miss_spec(0);
        let nodes = parse_topology(&spec0.topology)
            .expect("validated specs resolve")
            .num_nodes() as u64;
        let node_cycles_per_miss = spec0.num_cells() as u64
            * nodes
            * (spec0.config.warmup_cycles + spec0.config.measure_cycles);
        let mut rep = Rep::default();
        let start = Instant::now();
        for job in jobs {
            self.next_op += 1;
            let (spec_json, expect) = match *job {
                Job::Miss(k) => {
                    assert_eq!(k, self.submitted.len(), "misses arrive in order");
                    (self.inputs.miss_spec(k).to_json(), None)
                }
                Job::Hit(k) => {
                    let (spec_json, digest) = &self.submitted[k];
                    (spec_json.clone(), Some(*digest))
                }
            };
            let done = guarded(|| do_job(&self.addr, &spec_json, recorder, self.next_op))
                .unwrap_or_else(|| Err("the client panicked".to_owned()));
            match done {
                Ok(t) => {
                    let digest = t.digest;
                    let ok = t.cached == expect.is_some() && expect.is_none_or(|d| d == digest);
                    tally.check(
                        "job served from the expected place with its miss's bytes",
                        ok,
                    );
                    rep.op_ms.push(t.total_ms());
                    if expect.is_none() {
                        self.submitted.push((spec_json, digest));
                        rep.node_cycles += node_cycles_per_miss;
                        classes.miss.push(t);
                    } else {
                        classes.hit.push(t);
                    }
                }
                Err(why) => {
                    tally.check(&format!("job: {why}"), false);
                    if expect.is_none() {
                        // Keep miss numbering aligned for later hits.
                        self.submitted.push((spec_json, 0));
                    }
                }
            }
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep
    }
}

/// The correctness gate: the first two distinct specs, fetched from the
/// server, must equal a local `write_report_json` byte for byte.
fn gate(mix: &Mix, tally: &mut Tally, metrics: &mut Metrics) {
    for k in 0..2 {
        let (local, serialize_ms) = local_report(&mix.inputs.miss_spec(k));
        let served = mix.submitted.get(k).map(|(_, digest)| *digest);
        tally.check(
            "served result bytes equal the local report's",
            served == Some(fnv1a64(&local)),
        );
        metrics.set("report.serialize_ms", serialize_ms);
        metrics.set("report.bytes", local.len() as f64);
    }
}

/// Reads one un-labelled sample from a Prometheus text page.
fn prometheus_sample(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// The `serve.*` layer: where the client's time went per phase, job
/// latency by class, what the server's own `/v1/metrics` says, the
/// store's end state, and what recording spans cost (untraced against
/// traced blocks, as jobs per second).
fn server_layers(
    served: &Served,
    classes: &Classes,
    plain: &[Rep],
    traced: &[Rep],
    m: &mut Metrics,
) {
    let jobs_per_s = |reps: &[Rep]| {
        let rates: Vec<f64> = reps
            .iter()
            .map(|r| r.op_ms.len() as f64 / r.wall_s)
            .collect();
        stats::median(&rates)
    };
    if !traced.is_empty() {
        m.set_stat(
            "host.trace_overhead_frac",
            jobs_per_s(plain) / jobs_per_s(traced) - 1.0,
            traced.len(),
        );
    }

    let column = |jobs: &[&JobTimes], f: fn(&JobTimes) -> f64| -> Vec<f64> {
        stats::sorted(&jobs.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    let (miss, hit): (Vec<&JobTimes>, Vec<&JobTimes>) =
        (classes.miss.iter().collect(), classes.hit.iter().collect());
    let all: Vec<&JobTimes> = miss.iter().chain(&hit).copied().collect();
    let mut phase_p50 = |name, phase: fn(&JobTimes) -> f64| {
        let v = column(&all, phase);
        m.set_stat(name, stats::percentile_sorted(&v, 50.0), v.len());
    };
    phase_p50("serve.submit_ms_p50", |t| t.submit_ms);
    phase_p50("serve.wait_ms_p50", |t| t.wait_ms);
    phase_p50("serve.fetch_ms_p50", |t| t.fetch_ms);
    let polls: f64 = all.iter().map(|t| f64::from(t.polls)).sum();
    m.set_stat(
        "serve.polls_per_job",
        polls / all.len().max(1) as f64,
        all.len(),
    );
    let (miss, hit) = (
        column(&miss, JobTimes::total_ms),
        column(&hit, JobTimes::total_ms),
    );
    let by_class = [
        (
            &miss,
            [
                "serve.job_miss_p50_ms",
                "serve.job_miss_p90_ms",
                "serve.job_miss_p99_ms",
            ],
        ),
        (
            &hit,
            [
                "serve.job_hit_p50_ms",
                "serve.job_hit_p90_ms",
                "serve.job_hit_p99_ms",
            ],
        ),
    ];
    for (v, names) in by_class {
        for (name, p) in names.into_iter().zip([50.0, 90.0, 99.0]) {
            m.set_stat(name, stats::percentile_sorted(v, p), v.len());
        }
    }

    if let Ok((200, page)) = client::metrics(&served.addr) {
        let page = String::from_utf8_lossy(&page);
        let count = prometheus_sample(&page, "turnroute_job_duration_seconds_count");
        let sum = prometheus_sample(&page, "turnroute_job_duration_seconds_sum");
        let exec_ms = if count > 0.0 { sum / count * 1e3 } else { 0.0 };
        m.set_stat("serve.exec_ms_mean", exec_ms, count as usize);
        m.set_stat(
            "serve.overhead_ms_p50",
            stats::percentile_sorted(&miss, 50.0) - exec_ms,
            miss.len(),
        );
        for (name, family) in [
            ("serve.store_hits", "turnroute_store_hits_total"),
            ("serve.store_misses", "turnroute_store_misses_total"),
            (
                "serve.cells_simulated",
                "turnroute_engine_cells_simulated_total",
            ),
        ] {
            m.set(name, prometheus_sample(&page, family));
        }
    }
    if let Ok(store) = ResultStore::open(&served.dir) {
        m.set("store.entries_end", store.len().unwrap_or(0) as f64);
        m.set("store.bytes_end", store.total_bytes().unwrap_or(0) as f64);
    }
}

/// Runs `serve_mix`.
pub fn run(options: &Options) -> Outcome {
    let inputs = ServeInputs::new(options.seed, options.scale);
    let mut tally = Tally::default();

    // Set-up is what a restarted server pays: bind, open the store,
    // start the accept and runner threads. The (empty) store directory
    // is created beforehand, untimed: on a journalling filesystem a
    // `mkdir` waits on whatever the previous run's thousands of unlinks
    // left in the journal, which is the host's state, not the server's.
    // The last server started stays up for the run.
    let mut setup_s = Vec::new();
    let mut served = None;
    let sampling = Instant::now();
    while options.wants_setup_sample(setup_s.len(), sampling) {
        if let Some(previous) = served.take() {
            Served::stop(previous);
        }
        let dir = fresh_store_dir(options, &setup_s.len().to_string());
        std::fs::create_dir_all(&dir).expect("the output directory is writable");
        let start = Instant::now();
        let up = Served::start(&dir);
        setup_s.push(start.elapsed().as_secs_f64());
        served = Some(up.expect("the server starts on a loopback port"));
    }
    let served = served.expect("at least one set-up sample");

    let mut mix = Mix {
        inputs,
        addr: served.addr.clone(),
        submitted: Vec::new(),
        next_op: 0,
    };
    // The untimed warm-up doubles as the store prefill: half a block of
    // distinct specs, which the gate then checks against local runs.
    mix.run_jobs(&inputs.prefill(), None, &mut tally, &mut Classes::default());
    let mut gate_metrics = Metrics::default();
    let verify = Instant::now();
    if guarded(|| gate(&mix, &mut tally, &mut gate_metrics)).is_none() {
        tally.check("gate panicked", false);
    }
    gate_metrics.set("host.verify_s", verify.elapsed().as_secs_f64());

    let half = inputs.block_len() / 2;
    let recorder = options.trace.then(Recorder::default);
    let clock = LoopClock::start();
    let (mut reps, mut traced_reps) = (Vec::new(), Vec::new());
    let mut classes = Classes::default();
    let mut block = 1;
    while options.wants_more(block - 1, clock.started, 3) {
        // In a traced run every second block records spans; the other
        // blocks are the untraced reference for the overhead.
        let traced = options.trace && block % 2 == 0;
        let jobs = inputs.block(block, block * half);
        let rep = mix.run_jobs(
            &jobs,
            recorder.as_ref().filter(|_| traced),
            &mut tally,
            &mut classes,
        );
        if traced {
            traced_reps.push(rep);
        } else {
            reps.push(rep);
        }
        block += 1;
    }
    // The digest covers the prefill's results: the one part of the job
    // sequence whose length does not depend on the time box.
    let prefill_digests: Vec<u8> = mix.submitted[..half.min(mix.submitted.len())]
        .iter()
        .flat_map(|(_, digest)| digest.to_le_bytes())
        .collect();
    let digest = fnv1a64(&prefill_digests);

    let metrics = match &recorder {
        Some(recorder) => {
            let mut m = layers::micro_probes(options);
            m.absorb(gate_metrics);
            server_layers(&served, &classes, &reps, &traced_reps, &mut m);
            zero_unset_layers(&mut m);
            layers::write_trace(options, &recorder.take());
            m
        }
        None => end_to_end(&setup_s, &reps, clock),
    };

    served.stop();
    let _ = std::fs::remove_dir(options.out_dir.join("tmp"));
    Outcome {
        workload: options.workload.name(),
        seed: options.seed,
        traced: options.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        report_fnv: digest,
        metrics,
    }
}
