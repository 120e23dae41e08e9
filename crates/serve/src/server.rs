//! The job server: an HTTP/JSON API over the deterministic executor.
//!
//! # Job lifecycle
//!
//! `POST /v1/jobs` validates the submitted spec at the boundary
//! (typed [`SpecError`] → 4xx), computes its content key, and then:
//!
//! * **store hit** — the key is already on disk: the job is born
//!   `done` and `cached`, and `/result` serves the stored bytes with
//!   zero engine cycles;
//! * **coalesce** — an identical spec is already queued or running:
//!   the submission returns that job's id instead of enqueueing a
//!   duplicate;
//! * **enqueue** — otherwise the job enters the queue and a single
//!   background runner executes it on a fresh [`Executor`] wired to an
//!   [`ExecProgress`] surface, so `GET /v1/jobs/{id}` reports live
//!   per-cell progress and `DELETE /v1/jobs/{id}` cancels.
//!
//! # Job retention
//!
//! The job table is bounded: only the most recent
//! [`RETAINED_TERMINAL_JOBS`] finished (done, failed or cancelled) jobs
//! stay queryable. An older id answers 404 exactly like one that never
//! existed; its result is still in the store, so resubmitting the spec
//! is a store hit. Queued and running jobs are never forgotten.
//!
//! # Cache keying
//!
//! The store key is [`ExperimentSpec::fingerprint`] (which already
//! folds in fault-plan identity and the full engine configuration)
//! suffixed with [`REPORT_SCHEMA_VERSION`], so bumping the report
//! schema can never serve stale-schema bytes. Results are serialized
//! once, through the same [`report::write_report_json`] the CLI uses —
//! a server result is byte-identical to the CLI's `--format json` for
//! the same experiment.
//!
//! # Observability
//!
//! The server threads a [`Logger`] through every layer: each
//! connection gets an access-log `request` event (method, path,
//! status, bytes, duration, peer) under a fresh `r<N>` span, and each
//! job's lifecycle (`job_submitted` → `job_queued` → `job_running` →
//! per-cell `cell` debug events from the executor → `job_done` /
//! `job_failed` / `job_cancelled`) shares the job id as its span, so
//! one `grep '"span":"j3"'` reconstructs a job end to end. Store
//! outcomes emit `store_hit` / `store_miss` / `store_corrupt` /
//! `store_write` events. `GET /v1/metrics` exposes the same signals as
//! Prometheus text: request counts by route and status, request/job
//! duration histograms, queue depth and in-flight gauges, store
//! hit/miss/heal counters, and engine cells simulated. None of this
//! feeds back into results: report bytes are identical with logging
//! enabled or disabled.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::http::{read_request, write_response, Request, Response};
use crate::metrics::{DurationHistogram, Expo, LabeledCounter};
use crate::store::{ResultStore, StoreLookup};
use turnroute_experiment::json::escape;
use turnroute_experiment::{ExperimentSpec, SpecError};
use turnroute_sim::report::{self, REPORT_SCHEMA_VERSION};
use turnroute_sim::{ExecProgress, Executor, Level, Logger};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Directory of the content-addressed result store.
    pub store_dir: PathBuf,
    /// Worker threads per job's executor.
    pub threads: usize,
    /// Structured-log sink; [`Logger::disabled`] for none.
    pub logger: Logger,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

struct Job {
    key: String,
    spec: ExperimentSpec,
    status: JobStatus,
    progress: Arc<ExecProgress>,
    /// `true` if the submission was answered straight from the store.
    cached: bool,
    /// `true` if this run replaces a corrupt store entry.
    heal: bool,
    error: Option<String>,
}

/// Finished jobs kept for status and result queries. A long-lived
/// server otherwise holds every spec it ever ran (about 1 KiB each).
pub const RETAINED_TERMINAL_JOBS: usize = 256;

#[derive(Default)]
struct Inner {
    jobs: HashMap<String, Job>,
    /// Ids of terminal jobs still in `jobs`, oldest first.
    finished: VecDeque<String>,
    /// Content key → job id, for coalescing in-flight duplicates.
    inflight: HashMap<String, String>,
    queue: VecDeque<String>,
    next_id: u64,
    shutdown: bool,
}

/// Service counters, exposed at `GET /v1/cache/stats` and
/// `GET /v1/metrics`. All monotonic over the server's lifetime.
#[derive(Default)]
struct Counters {
    jobs_submitted: AtomicU64,
    coalesced: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    /// Jobs whose execution panicked (reported `failed` to the client,
    /// counted apart: a panic is a bug, a failure may be the spec's).
    jobs_panicked: AtomicU64,
    jobs_cancelled: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    corrupt_detected: AtomicU64,
    /// Corrupt entries overwritten by a successful recompute.
    corrupt_healed: AtomicU64,
    /// Cells the engine actually simulated (speculation included);
    /// stays flat across store hits — the acceptance proof that cached
    /// submissions cost zero engine cycles.
    engine_cells_simulated: AtomicU64,
    /// Finished jobs dropped from the table by the retention bound.
    jobs_evicted: AtomicU64,
}

/// Scrape-side aggregates that are histograms or labeled families
/// rather than scalar atomics.
#[derive(Default)]
struct ServiceMetrics {
    /// Requests by (route, status-code) label pair.
    http_requests: LabeledCounter,
    /// End-to-end request handling time.
    http_duration: DurationHistogram,
    /// Queued→terminal runtime of executed (non-cached) jobs.
    job_duration: DurationHistogram,
}

struct State {
    store: ResultStore,
    threads: usize,
    inner: Mutex<Inner>,
    wake_runner: Condvar,
    counters: Counters,
    metrics: ServiceMetrics,
    log: Logger,
}

impl State {
    /// The job table. A panic while it was held (a handler bug; job
    /// execution itself is isolated in [`run_jobs`]) poisons the mutex.
    /// Every update under the lock is a sequence of single inserts,
    /// removes and field writes, so the worst an interrupted one leaves
    /// is one orphaned job in an otherwise valid table: the poison is
    /// cleared rather than spread to every later request.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records that job `id` reached a terminal state, and forgets the
    /// oldest finished jobs beyond the retention bound.
    fn retire(&self, inner: &mut Inner, id: &str) {
        inner.finished.push_back(id.to_owned());
        while inner.finished.len() > RETAINED_TERMINAL_JOBS {
            let oldest = inner.finished.pop_front().expect("length checked");
            inner.jobs.remove(&oldest);
            self.counters.jobs_evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The job server. Construct with [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// A running server: its bound address plus the shutdown handle.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    runner_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), opens
    /// the result store, and starts the accept loop and the job
    /// runner.
    pub fn start(addr: &str, options: ServeOptions) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(State {
            store: ResultStore::open(&options.store_dir)?,
            threads: options.threads.max(1),
            inner: Mutex::new(Inner::default()),
            wake_runner: Condvar::new(),
            counters: Counters::default(),
            metrics: ServiceMetrics::default(),
            log: options.logger,
        });
        state
            .log
            .event(Level::Info, "server_started")
            .str("addr", &local.to_string())
            .u64("threads", state.threads as u64)
            .str("store_dir", &options.store_dir.display().to_string())
            .emit();
        let stop = Arc::new(AtomicBool::new(false));

        let accept_state = state.clone();
        let accept_stop = stop.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let state = accept_state.clone();
                std::thread::spawn(move || handle_connection(stream, &state));
            }
        });

        let runner_state = state.clone();
        let runner_thread = std::thread::spawn(move || run_jobs(&runner_state));

        Ok(ServerHandle {
            addr: local,
            state,
            stop,
            accept_thread: Some(accept_thread),
            runner_thread: Some(runner_thread),
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, cancels any running job, drains the runner,
    /// and joins both threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        {
            let mut inner = self.state.lock();
            inner.shutdown = true;
            for job in inner.jobs.values() {
                if job.status == JobStatus::Running {
                    job.progress.cancel();
                }
            }
            self.state.wake_runner.notify_all();
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.runner_thread.take() {
            let _ = t.join();
        }
        self.state
            .log
            .event(Level::Info, "server_stopped")
            .str("addr", &self.addr.to_string())
            .emit();
    }
}

/// The single job runner: pops queued jobs and executes them one at a
/// time (each job parallelizes internally across executor threads).
fn run_jobs(state: &State) {
    loop {
        let (id, spec, key, progress, heal) = {
            let mut inner = state.lock();
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    // Cancelled while waiting: terminal already, and
                    // possibly evicted since.
                    let Some(job) = inner.jobs.get_mut(&id) else {
                        continue;
                    };
                    if job.status != JobStatus::Queued {
                        continue;
                    }
                    job.status = JobStatus::Running;
                    break (
                        id,
                        job.spec.clone(),
                        job.key.clone(),
                        job.progress.clone(),
                        job.heal,
                    );
                }
                if inner.shutdown {
                    return;
                }
                inner = state
                    .wake_runner
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        state
            .log
            .event(Level::Info, "job_running")
            .span(&id)
            .u64("cells_total", spec.num_cells() as u64)
            .u64("threads", state.threads as u64)
            .emit();
        let started = Instant::now();

        // Fresh executor, fresh in-memory cell cache: the emitted
        // counters — which go into the report — are exactly what a
        // cold CLI run produces, so stored bytes match the CLI's.
        let mut executor = Executor::new(state.threads)
            .with_progress(progress.clone())
            .with_oplog(state.log.clone(), id.clone());
        // An engine `assert!` or out-of-range index reached through a
        // spec must cost that job, not the runner thread (every later
        // job would queue forever): the panic becomes the job's error.
        let outcome = catch_unwind(AssertUnwindSafe(|| spec.run_on(&mut executor)));
        let cells_simulated = executor.stats().simulated as u64;
        state
            .counters
            .engine_cells_simulated
            .fetch_add(cells_simulated, Ordering::AcqRel);

        let panicked = outcome.is_err();
        let (status, error) = match outcome {
            Err(payload) => (
                JobStatus::Failed,
                Some(format!("job panicked: {}", panic_message(&*payload))),
            ),
            _ if progress.is_cancelled() => (JobStatus::Cancelled, None),
            Ok(Err(e)) => (JobStatus::Failed, Some(e.to_string())),
            Ok(Ok(series)) => {
                let mut body = Vec::new();
                report::write_report_json(&series, &executor.stats(), &mut body)
                    .expect("writing to a Vec cannot fail");
                match state.store.put(&key, &body) {
                    Ok(()) => {
                        if heal {
                            state.counters.corrupt_healed.fetch_add(1, Ordering::AcqRel);
                        }
                        state
                            .log
                            .event(Level::Info, "store_write")
                            .span(&id)
                            .str("key", &key)
                            .u64("bytes", body.len() as u64)
                            .bool("heal", heal)
                            .emit();
                        (JobStatus::Done, None)
                    }
                    Err(e) => (JobStatus::Failed, Some(format!("store write failed: {e}"))),
                }
            }
        };

        let wall_secs = started.elapsed().as_secs_f64();
        state
            .metrics
            .job_duration
            .record_micros(started.elapsed().as_micros() as u64);
        let (event, counter) = match status {
            JobStatus::Done => ("job_done", &state.counters.jobs_done),
            JobStatus::Cancelled => ("job_cancelled", &state.counters.jobs_cancelled),
            _ if panicked => ("job_failed", &state.counters.jobs_panicked),
            _ => ("job_failed", &state.counters.jobs_failed),
        };
        counter.fetch_add(1, Ordering::AcqRel);
        let mut ev = state
            .log
            .event(
                if status == JobStatus::Failed {
                    Level::Error
                } else {
                    Level::Info
                },
                event,
            )
            .span(&id)
            .u64("cells_simulated", cells_simulated)
            .f64("wall_secs", wall_secs);
        if let Some(e) = &error {
            ev = ev.str("error", e);
        }
        ev.emit();

        let mut inner = state.lock();
        inner.inflight.remove(&key);
        let job = inner.jobs.get_mut(&id).expect("running jobs are retained");
        job.status = status;
        job.error = error;
        state.retire(&mut inner, &id);
    }
}

/// What a caught panic said: `panic!`/`assert!` payloads are a `&str`
/// or a `String`; anything else is opaque.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The bounded route label set for the request counter — never the
/// raw path, so label cardinality cannot grow with job ids or typos.
fn route_label(method: &str, path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        (_, ["v1", "healthz"]) => "healthz",
        (_, ["v1", "cache", "stats"]) => "cache_stats",
        (_, ["v1", "metrics"]) => "metrics",
        ("POST", ["v1", "jobs"]) => "jobs_submit",
        ("GET", ["v1", "jobs", _, "result"]) => "job_result",
        ("GET", ["v1", "jobs", _]) => "job_status",
        ("DELETE", ["v1", "jobs", _]) => "job_cancel",
        _ => "other",
    }
}

/// The error `kind` for boundary failures, matching what `route`
/// produces for the same status elsewhere in the API.
fn kind_for_status(status: u16) -> &'static str {
    match status {
        400 => "malformed",
        413 => "too_large",
        _ => "http",
    }
}

fn handle_connection(mut stream: TcpStream, state: &State) {
    let started = Instant::now();
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_owned(), |a| a.to_string());
    let span = state.log.next_span("r");
    let request = match read_request(&mut stream) {
        Ok(Ok(request)) => request,
        Ok(Err(e)) => {
            // A malformed request is a client bug worth surfacing, not
            // something to swallow: log it and answer with the same
            // typed 4xx shape every other API error uses.
            state
                .log
                .event(Level::Warn, "bad_request")
                .span(&span)
                .str("peer", &peer)
                .u64("status", u64::from(e.status))
                .str("reason", &e.message)
                .emit();
            state
                .metrics
                .http_requests
                .increment("malformed", &e.status.to_string());
            let response = Response::error(e.status, kind_for_status(e.status), &e.message);
            if let Err(werr) = write_response(&mut stream, &response) {
                state
                    .log
                    .event(Level::Warn, "io_error")
                    .span(&span)
                    .str("peer", &peer)
                    .str("error", &werr.to_string())
                    .emit();
            }
            return;
        }
        Err(e) => {
            state
                .log
                .event(Level::Warn, "io_error")
                .span(&span)
                .str("peer", &peer)
                .str("error", &e.to_string())
                .emit();
            return;
        }
    };
    let response = route(&request, state, &span);
    let route = route_label(&request.method, &request.path);
    state
        .metrics
        .http_requests
        .increment(route, &response.status.to_string());
    let elapsed = started.elapsed();
    state
        .metrics
        .http_duration
        .record_micros(elapsed.as_micros() as u64);
    state
        .log
        .event(Level::Info, "request")
        .span(&span)
        .str("peer", &peer)
        .str("method", &request.method)
        .str("path", &request.path)
        .u64("status", u64::from(response.status))
        .u64("bytes", response.body.len() as u64)
        .f64("duration_ms", elapsed.as_secs_f64() * 1e3)
        .emit();
    if let Err(werr) = write_response(&mut stream, &response) {
        state
            .log
            .event(Level::Warn, "io_error")
            .span(&span)
            .str("peer", &peer)
            .str("error", &werr.to_string())
            .emit();
    }
}

fn route(request: &Request, state: &State, span: &str) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => healthz(state),
        ("GET", ["v1", "cache", "stats"]) => cache_stats(state),
        ("GET", ["v1", "metrics"]) => metrics_page(state),
        ("POST", ["v1", "jobs"]) => submit(request, state, span),
        ("GET", ["v1", "jobs", id]) => job_status(id, state),
        ("GET", ["v1", "jobs", id, "result"]) => job_result(id, state),
        ("DELETE", ["v1", "jobs", id]) => cancel_job(id, state),
        (_, ["v1", "jobs", ..])
        | (_, ["v1", "healthz"])
        | (_, ["v1", "cache", "stats"])
        | (_, ["v1", "metrics"]) => {
            Response::error(405, "method_not_allowed", "wrong method for this path")
        }
        _ => Response::error(404, "not_found", "unknown path"),
    }
}

fn healthz(state: &State) -> Response {
    let inner = state.lock();
    let body = format!(
        "{{\"status\":\"ok\",\"jobs\":{},\"queued\":{}}}\n",
        inner.jobs.len(),
        inner.queue.len()
    );
    Response::json(200, body.into_bytes())
}

fn cache_stats(state: &State) -> Response {
    let entries = state.store.len().unwrap_or(0);
    let store_bytes = state.store.total_bytes().unwrap_or(0);
    let c = &state.counters;
    let jobs = state.lock().jobs.len();
    let body = format!(
        "{{\"entries\":{},\"jobs_submitted\":{},\"coalesced\":{},\"store_hits\":{},\
         \"store_misses\":{},\"corrupt_detected\":{},\"engine_cells_simulated\":{},\
         \"store_bytes\":{},\"corrupt_healed\":{},\"jobs\":{jobs}}}\n",
        entries,
        c.jobs_submitted.load(Ordering::Acquire),
        c.coalesced.load(Ordering::Acquire),
        c.store_hits.load(Ordering::Acquire),
        c.store_misses.load(Ordering::Acquire),
        c.corrupt_detected.load(Ordering::Acquire),
        c.engine_cells_simulated.load(Ordering::Acquire),
        store_bytes,
        c.corrupt_healed.load(Ordering::Acquire),
    );
    Response::json(200, body.into_bytes())
}

/// Renders the full Prometheus exposition for `GET /v1/metrics`.
fn metrics_page(state: &State) -> Response {
    let c = &state.counters;
    let (queue_depth, jobs_running) = {
        let inner = state.lock();
        let running = inner
            .jobs
            .values()
            .filter(|j| j.status == JobStatus::Running)
            .count();
        (inner.queue.len() as u64, running as u64)
    };
    let mut e = Expo::new();

    e.family(
        "turnroute_http_requests_total",
        "HTTP requests handled, by route and status code.",
        "counter",
    );
    for ((route, code), count) in state.metrics.http_requests.snapshot() {
        e.sample(
            "turnroute_http_requests_total",
            &[("route", &route), ("code", &code)],
            count,
        );
    }
    e.duration_histogram(
        "turnroute_http_request_duration_seconds",
        "End-to-end request handling time.",
        &state.metrics.http_duration.snapshot(),
    );

    e.family(
        "turnroute_jobs_submitted_total",
        "Job submissions accepted (cached and coalesced included).",
        "counter",
    );
    e.sample(
        "turnroute_jobs_submitted_total",
        &[],
        c.jobs_submitted.load(Ordering::Acquire),
    );
    e.family(
        "turnroute_jobs_coalesced_total",
        "Submissions coalesced onto an identical in-flight job.",
        "counter",
    );
    e.sample(
        "turnroute_jobs_coalesced_total",
        &[],
        c.coalesced.load(Ordering::Acquire),
    );
    e.family(
        "turnroute_jobs_total",
        "Executed jobs reaching a terminal state, by outcome.",
        "counter",
    );
    for (status, counter) in [
        ("done", &c.jobs_done),
        ("failed", &c.jobs_failed),
        ("panicked", &c.jobs_panicked),
        ("cancelled", &c.jobs_cancelled),
    ] {
        e.sample(
            "turnroute_jobs_total",
            &[("status", status)],
            counter.load(Ordering::Acquire),
        );
    }
    e.family(
        "turnroute_jobs_evicted_total",
        "Finished jobs dropped from the job table by the retention bound.",
        "counter",
    );
    e.sample(
        "turnroute_jobs_evicted_total",
        &[],
        c.jobs_evicted.load(Ordering::Relaxed),
    );
    e.duration_histogram(
        "turnroute_job_duration_seconds",
        "Wall time of executed (non-cached) jobs.",
        &state.metrics.job_duration.snapshot(),
    );

    e.family(
        "turnroute_queue_depth",
        "Jobs waiting in the run queue.",
        "gauge",
    );
    e.sample("turnroute_queue_depth", &[], queue_depth);
    e.family(
        "turnroute_jobs_running",
        "Jobs currently executing.",
        "gauge",
    );
    e.sample("turnroute_jobs_running", &[], jobs_running);

    e.family(
        "turnroute_store_hits_total",
        "Submissions answered straight from the result store.",
        "counter",
    );
    e.sample(
        "turnroute_store_hits_total",
        &[],
        c.store_hits.load(Ordering::Acquire),
    );
    e.family(
        "turnroute_store_misses_total",
        "Submissions that required engine execution.",
        "counter",
    );
    e.sample(
        "turnroute_store_misses_total",
        &[],
        c.store_misses.load(Ordering::Acquire),
    );
    e.family(
        "turnroute_store_corrupt_detected_total",
        "Store entries that failed fingerprint verification.",
        "counter",
    );
    e.sample(
        "turnroute_store_corrupt_detected_total",
        &[],
        c.corrupt_detected.load(Ordering::Acquire),
    );
    e.family(
        "turnroute_store_corrupt_healed_total",
        "Corrupt entries overwritten by a successful recompute.",
        "counter",
    );
    e.sample(
        "turnroute_store_corrupt_healed_total",
        &[],
        c.corrupt_healed.load(Ordering::Acquire),
    );
    e.family(
        "turnroute_store_entries",
        "Result entries currently on disk.",
        "gauge",
    );
    e.sample(
        "turnroute_store_entries",
        &[],
        state.store.len().unwrap_or(0),
    );
    e.family(
        "turnroute_store_bytes",
        "On-disk footprint of the result store, in bytes.",
        "gauge",
    );
    e.sample(
        "turnroute_store_bytes",
        &[],
        state.store.total_bytes().unwrap_or(0),
    );

    e.family(
        "turnroute_engine_cells_simulated_total",
        "Sweep cells the engine actually simulated (flat across cache hits).",
        "counter",
    );
    e.sample(
        "turnroute_engine_cells_simulated_total",
        &[],
        c.engine_cells_simulated.load(Ordering::Acquire),
    );

    Response::metrics_text(200, e.finish().into_bytes())
}

/// The content-addressed store key for a spec under the current report
/// schema.
fn content_key(spec: &ExperimentSpec) -> String {
    format!("{}-r{}", spec.fingerprint(), REPORT_SCHEMA_VERSION)
}

fn spec_error_response(e: &SpecError) -> Response {
    Response::error(400, e.kind(), &e.to_string())
}

fn submit(request: &Request, state: &State, span: &str) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "malformed", "the body is not UTF-8");
    };
    let spec = match ExperimentSpec::from_json(text) {
        Ok(spec) => spec,
        Err(e) => return spec_error_response(&e),
    };
    let key = content_key(&spec);
    state.counters.jobs_submitted.fetch_add(1, Ordering::AcqRel);

    let mut inner = state.lock();

    // Coalesce onto an identical queued/running job first: no store
    // read, no second enqueue.
    if let Some(existing) = inner.inflight.get(&key) {
        let id = existing.clone();
        let status = inner.jobs[&id].status;
        state.counters.coalesced.fetch_add(1, Ordering::AcqRel);
        state
            .log
            .event(Level::Info, "job_coalesced")
            .span(&id)
            .str("request", span)
            .str("key", &key)
            .emit();
        return Response::json(
            202,
            format!(
                "{{\"job_id\":{},\"span\":{},\"status\":\"{}\",\"cached\":false,\"coalesced\":true}}\n",
                escape(&id),
                escape(&id),
                status.as_str()
            )
            .into_bytes(),
        );
    }

    let lookup = state.store.get(&key);
    let (served_from_store, heal) = match lookup {
        StoreLookup::Hit(_) => {
            state.counters.store_hits.fetch_add(1, Ordering::AcqRel);
            (true, false)
        }
        StoreLookup::Corrupt => {
            // Detected by the entry fingerprint: recompute and heal.
            state
                .counters
                .corrupt_detected
                .fetch_add(1, Ordering::AcqRel);
            state.counters.store_misses.fetch_add(1, Ordering::AcqRel);
            (false, true)
        }
        StoreLookup::Miss => {
            state.counters.store_misses.fetch_add(1, Ordering::AcqRel);
            (false, false)
        }
    };

    inner.next_id += 1;
    let id = format!("j{}", inner.next_id);
    let store_event = match (served_from_store, heal) {
        (true, _) => "store_hit",
        (false, true) => "store_corrupt",
        (false, false) => "store_miss",
    };
    state
        .log
        .event(Level::Info, "job_submitted")
        .span(&id)
        .str("request", span)
        .str("key", &key)
        .u64("cells_total", spec.num_cells() as u64)
        .emit();
    state
        .log
        .event(if heal { Level::Warn } else { Level::Info }, store_event)
        .span(&id)
        .str("key", &key)
        .emit();
    let job = Job {
        key: key.clone(),
        spec,
        status: if served_from_store {
            JobStatus::Done
        } else {
            JobStatus::Queued
        },
        progress: ExecProgress::new(),
        cached: served_from_store,
        heal,
        error: None,
    };
    inner.jobs.insert(id.clone(), job);
    if served_from_store {
        state.retire(&mut inner, &id);
        state
            .log
            .event(Level::Info, "job_done")
            .span(&id)
            .bool("cached", true)
            .u64("cells_simulated", 0)
            .emit();
        return Response::json(
            200,
            format!(
                "{{\"job_id\":{},\"span\":{},\"status\":\"done\",\"cached\":true}}\n",
                escape(&id),
                escape(&id)
            )
            .into_bytes(),
        );
    }
    inner.inflight.insert(key, id.clone());
    inner.queue.push_back(id.clone());
    state
        .log
        .event(Level::Info, "job_queued")
        .span(&id)
        .u64("queue_depth", inner.queue.len() as u64)
        .emit();
    state.wake_runner.notify_all();
    Response::json(
        202,
        format!(
            "{{\"job_id\":{},\"span\":{},\"status\":\"queued\",\"cached\":false}}\n",
            escape(&id),
            escape(&id)
        )
        .into_bytes(),
    )
}

fn status_doc(id: &str, job: &Job) -> String {
    let total = job.spec.num_cells() as u64;
    let completed = if job.status == JobStatus::Done {
        total
    } else {
        job.progress.completed().min(total)
    };
    let error = job
        .error
        .as_deref()
        .map_or(String::new(), |e| format!(",\"error\":{}", escape(e)));
    format!(
        "{{\"job_id\":{},\"span\":{},\"status\":\"{}\",\"cached\":{},\
         \"cells_total\":{total},\"cells_completed\":{completed}{error}}}\n",
        escape(id),
        escape(id),
        job.status.as_str(),
        job.cached,
    )
}

fn job_status(id: &str, state: &State) -> Response {
    let inner = state.lock();
    match inner.jobs.get(id) {
        Some(job) => Response::json(200, status_doc(id, job).into_bytes()),
        None => Response::error(404, "not_found", "no such job"),
    }
}

fn job_result(id: &str, state: &State) -> Response {
    let (key, status) = {
        let inner = state.lock();
        match inner.jobs.get(id) {
            Some(job) => (job.key.clone(), job.status),
            None => return Response::error(404, "not_found", "no such job"),
        }
    };
    match status {
        JobStatus::Done => match state.store.get(&key) {
            StoreLookup::Hit(body) => Response::json(200, body),
            StoreLookup::Miss | StoreLookup::Corrupt => {
                state
                    .counters
                    .corrupt_detected
                    .fetch_add(1, Ordering::AcqRel);
                state
                    .log
                    .event(Level::Warn, "store_corrupt")
                    .span(id)
                    .str("key", &key)
                    .emit();
                Response::error(
                    410,
                    "corrupt",
                    "the stored result failed verification; resubmit to recompute",
                )
            }
        },
        JobStatus::Failed => Response::error(409, "failed", "the job failed; see its status"),
        JobStatus::Cancelled => Response::error(409, "cancelled", "the job was cancelled"),
        JobStatus::Queued | JobStatus::Running => {
            Response::error(409, "not_done", "the job has not finished yet")
        }
    }
}

fn cancel_job(id: &str, state: &State) -> Response {
    let mut inner = state.lock();
    let Some(job) = inner.jobs.get_mut(id) else {
        return Response::error(404, "not_found", "no such job");
    };
    match job.status {
        JobStatus::Queued => {
            job.status = JobStatus::Cancelled;
            job.progress.cancel();
            let key = job.key.clone();
            inner.inflight.remove(&key);
            state.retire(&mut inner, id);
            state.counters.jobs_cancelled.fetch_add(1, Ordering::AcqRel);
            state
                .log
                .event(Level::Info, "job_cancelled")
                .span(id)
                .bool("while_queued", true)
                .emit();
            let doc = status_doc(id, &inner.jobs[id]);
            Response::json(200, doc.into_bytes())
        }
        JobStatus::Running => {
            job.progress.cancel();
            Response::json(202, status_doc(id, job).into_bytes())
        }
        // Terminal states: cancellation is a no-op, report as-is.
        JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled => {
            Response::json(200, status_doc(id, job).into_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_state_lock_keeps_serving() {
        let store_dir =
            std::env::temp_dir().join(format!("turnroute-serve-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let handle = Server::start(
            "127.0.0.1:0",
            ServeOptions {
                store_dir: store_dir.clone(),
                threads: 1,
                logger: Logger::disabled(),
            },
        )
        .expect("server starts");
        let state = handle.state.clone();
        let poisoner = std::thread::spawn(move || {
            let _held = state.inner.lock().unwrap();
            panic!("a handler bug under the state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(handle.state.inner.is_poisoned());

        let addr = handle.addr().to_string();
        let (status, _) = crate::client::cache_stats(&addr).expect("request served");
        assert_eq!(status, 200);
        let (status, _) = crate::client::status(&addr, "j1").expect("request served");
        assert_eq!(status, 404);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}
