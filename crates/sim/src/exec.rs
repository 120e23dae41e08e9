//! A work-distributing parallel experiment executor.
//!
//! Every figure and table regenerates by sweeping a grid of
//! (algorithm × pattern × offered load) cells. This module fans that
//! grid out across [`std::thread::scope`] workers with three guarantees:
//!
//! * **Determinism.** Each cell's simulation seed is derived from the
//!   series' base seed and the cell's identity (algorithm, pattern,
//!   load), never from scheduling order. Results are bit-identical to a
//!   single-threaded run and invariant under thread count.
//! * **Saturation-aware skipping.** Loads within a series ascend; once
//!   a load proves unsustainable, every higher load in that series is
//!   monotonically unsustainable too, so the executor stops claiming
//!   them and reports them as skipped. Speculative cells computed past
//!   the cutoff before it was known are also reported skipped, so the
//!   output never depends on how far ahead the workers raced.
//! * **Cell caching.** Completed cells can be recorded in a
//!   [`CellCache`] (in memory or backed by a file), so re-running a
//!   figure with an extended load grid only simulates the new points.
//!
//! The executor is engine-agnostic: a [`SeriesJob`] bundles the load
//! grid with a runner closure `(load, seed) -> SweepPoint`, so the
//! plain wormhole engine, the virtual-channel engine, and tests all
//! schedule through the same machinery.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::config::SimConfig;
use crate::engine::{SimReport, Simulation};
use crate::hist::LatencyHistogram;
use crate::lut::{RouteTable, RouteTableMode, DEFAULT_ROUTE_TABLE_BUDGET};
use crate::obs::NoopObserver;
use crate::oplog::{Level, Logger};
use crate::patterns::TrafficPattern;
use crate::sweep::{SweepPoint, SweepSeries};
use turnroute_core::RoutingAlgorithm;
use turnroute_rng::split_mix_64;
use turnroute_topology::Topology;

/// Derives the simulation seed for one sweep cell.
///
/// The seed depends only on the cell's identity — base seed, algorithm
/// name, pattern name, and offered load — so any schedule (serial,
/// parallel, cached) simulates the identical experiment.
pub fn derive_cell_seed(base: u64, algorithm: &str, pattern: &str, load: f64) -> u64 {
    let mut state = base;
    let mut feed = |bytes: &[u8]| {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            state ^= u64::from_le_bytes(word);
            split_mix_64(&mut state);
        }
        // Length-delimit so ("ab", "c") and ("a", "bc") differ.
        state ^= bytes.len() as u64;
        split_mix_64(&mut state);
    };
    feed(algorithm.as_bytes());
    feed(pattern.as_bytes());
    feed(&load.to_bits().to_le_bytes());
    split_mix_64(&mut state)
}

/// What one sweep cell produces: the summary [`SweepPoint`] plus the
/// full latency histogram, kept so the executor can merge per-cell
/// distributions into cheap cross-run p50/p95/p99 telemetry.
///
/// Runners that only have a point (tests, cache replay) convert via
/// `From<SweepPoint>`, attaching an empty histogram.
#[derive(Debug, Clone)]
pub struct CellOutput {
    /// The cell's summary operating point.
    pub point: SweepPoint,
    /// The full message-latency distribution behind the point, in
    /// cycles. Empty for cache hits (the cache stores summaries only).
    pub latencies: LatencyHistogram,
}

impl CellOutput {
    /// The output of a finished engine run: summary point plus the
    /// measured latency histogram.
    pub fn from_report(report: &SimReport) -> Self {
        CellOutput {
            point: SweepPoint::from_report(report),
            latencies: report.metrics.latencies.clone(),
        }
    }
}

impl From<SweepPoint> for CellOutput {
    fn from(point: SweepPoint) -> Self {
        CellOutput {
            point,
            latencies: LatencyHistogram::default(),
        }
    }
}

/// One series of an experiment: a single (algorithm, pattern) pairing
/// swept over ascending offered loads by a runner closure.
pub struct SeriesJob<'a> {
    /// The routing algorithm's display name (also seeds cell identity).
    pub algorithm: String,
    /// The traffic pattern's display name (also seeds cell identity).
    pub pattern: String,
    /// Everything that identifies a cell's result besides the load:
    /// topology, configuration windows, base seed. Used as the cache
    /// key prefix; must not contain tabs or newlines.
    pub cache_key: String,
    /// The seed cell seeds are derived from.
    pub base_seed: u64,
    /// Offered loads, strictly ascending (required by the monotone
    /// saturation skip).
    pub loads: Vec<f64>,
    /// Channels failed at cycle 0 by this series' fault plan (0 for a
    /// healthy network); copied verbatim onto the output series.
    pub faults: u64,
    /// (src, dst) pairs `turnroute_fault::verify` found unroutable
    /// under this series' fault set; copied verbatim onto the output
    /// series.
    pub disconnected: u64,
    /// Simulates one cell: `(offered_load, derived_seed) -> output`.
    pub runner: Box<dyn Fn(f64, u64) -> CellOutput + Sync + 'a>,
}

impl<'a> SeriesJob<'a> {
    /// A series job with a custom runner (used by the virtual-channel
    /// engine and by tests). The runner may return anything convertible
    /// to a [`CellOutput`] — a bare [`SweepPoint`] works and attaches
    /// an empty latency histogram.
    ///
    /// # Panics
    ///
    /// Panics if `loads` is not strictly ascending or `cache_key`
    /// contains a tab or newline.
    pub fn new<R: Into<CellOutput>>(
        algorithm: impl Into<String>,
        pattern: impl Into<String>,
        cache_key: impl Into<String>,
        base_seed: u64,
        loads: &[f64],
        runner: impl Fn(f64, u64) -> R + Sync + 'a,
    ) -> Self {
        let cache_key = cache_key.into();
        assert!(
            loads.windows(2).all(|w| w[0] < w[1]),
            "sweep loads must be strictly ascending"
        );
        assert!(
            !cache_key.contains(['\t', '\n']),
            "cache key must not contain tabs or newlines"
        );
        SeriesJob {
            algorithm: algorithm.into(),
            pattern: pattern.into(),
            cache_key,
            base_seed,
            loads: loads.to_vec(),
            faults: 0,
            disconnected: 0,
            runner: Box::new(move |load, seed| runner(load, seed).into()),
        }
    }

    /// Labels this series with its fault-sweep coordinates: how many
    /// channels its plan fails at cycle 0 and how many (src, dst) pairs
    /// the verifier found unroutable. Both default to 0 (healthy).
    pub fn with_fault_info(mut self, faults: u64, disconnected: u64) -> Self {
        self.faults = faults;
        self.disconnected = disconnected;
        self
    }

    /// A series job running the plain wormhole engine.
    ///
    /// `base.injection_rate` and `base.seed` are overridden per cell;
    /// everything else (windows, lengths, selection policies) is kept.
    pub fn simulation(
        topo: &'a dyn Topology,
        algorithm: &'a dyn RoutingAlgorithm,
        pattern: &'a dyn TrafficPattern,
        base: &SimConfig,
        loads: &[f64],
    ) -> Self {
        let config = base.clone();
        let cache_key = sim_cache_key(topo.label(), &algorithm.name(), &pattern.name(), base);
        // One route table per series, made by whichever worker reaches
        // the first uncached cell (a fully cached series never allocates
        // it) and filled by all the series' cells.
        let table: OnceLock<Option<Arc<RouteTable<'a>>>> = OnceLock::new();
        SeriesJob::new(
            algorithm.name(),
            pattern.name(),
            cache_key,
            base.seed,
            loads,
            move |load, seed| {
                let table = table
                    .get_or_init(|| RouteTable::for_config(topo, algorithm, &config))
                    .clone();
                let cfg = config.clone().injection_rate(load).seed(seed);
                let report = Simulation::with_observer_and_table(
                    topo,
                    algorithm,
                    pattern,
                    cfg,
                    NoopObserver,
                    table,
                )
                .run();
                CellOutput::from_report(&report)
            },
        )
    }
}

/// Builds the cache key prefix for an engine run: topology, names, and
/// a fingerprint of every config field except the per-cell overrides.
pub fn sim_cache_key(
    topo_label: String,
    algorithm: &str,
    pattern: &str,
    base: &SimConfig,
) -> String {
    // The Debug rendering covers every field; zero the per-cell ones so
    // the fingerprint identifies the shared configuration only. The
    // route-table policy is canonicalized away too: table-driven and
    // direct routing produce bit-identical points, so cells cached
    // under one mode are valid under every other. Likewise the shard
    // count: reports are bit-identical at every value.
    let canonical = format!(
        "{:?}",
        base.clone()
            .injection_rate(0.0)
            .seed(0)
            .route_table(RouteTableMode::Auto)
            .route_table_budget(DEFAULT_ROUTE_TABLE_BUDGET)
            .shards(1)
    );
    let mut fp = 0x5EED_CE11u64;
    for chunk in canonical.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fp ^= u64::from_le_bytes(word);
        split_mix_64(&mut fp);
    }
    format!(
        "{topo_label}|{algorithm}|{pattern}|s{:016x}|c{fp:016x}",
        base.seed
    )
}

/// A store of completed sweep cells, optionally backed by a file.
///
/// Keys identify a cell completely (series cache key + load), so a hit
/// is always safe to reuse. Skipped placeholders are never stored.
#[derive(Debug, Default)]
pub struct CellCache {
    map: HashMap<String, SweepPoint>,
    path: Option<PathBuf>,
}

impl CellCache {
    /// An empty cache that lives only for this process.
    pub fn in_memory() -> Self {
        CellCache::default()
    }

    /// A cache backed by `path`: loads existing entries if the file
    /// exists, and [`CellCache::flush`] writes back to it.
    pub fn at_path(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut cache = CellCache {
            map: HashMap::new(),
            path: Some(path.clone()),
        };
        match std::fs::File::open(&path) {
            Ok(file) => {
                for line in BufReader::new(file).lines() {
                    let line = line?;
                    if let Some((key, point)) = parse_cache_line(&line) {
                        cache.map.insert(key, point);
                    }
                }
                Ok(cache)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(cache),
            Err(e) => Err(e),
        }
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no cells are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Writes every entry to the backing file (no-op for in-memory
    /// caches). Entries are sorted by key so the file is reproducible.
    pub fn flush(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut entries: Vec<(&String, &SweepPoint)> = self.map.iter().collect();
        entries.sort_by_key(|(k, _)| k.as_str());
        let mut out = Vec::new();
        for (key, point) in entries {
            writeln!(out, "{}", render_cache_line(key, point))?;
        }
        std::fs::write(path, out)
    }

    fn get(&self, key: &str) -> Option<SweepPoint> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: String, point: SweepPoint) {
        debug_assert!(!point.skipped, "skipped placeholders are not results");
        self.map.insert(key, point);
    }
}

fn cell_key(cache_key: &str, load: f64) -> String {
    format!("{cache_key}|l{:016x}", load.to_bits())
}

/// Serializes a cell as one tab-separated line. Floats are stored as
/// their IEEE-754 bits so round trips are exact (cache reuse must not
/// perturb CSV bytes).
fn render_cache_line(key: &str, p: &SweepPoint) -> String {
    let opt = |v: Option<f64>| v.map_or("-".to_owned(), |x| format!("{:016x}", x.to_bits()));
    format!(
        "{key}\t{:016x}\t{:016x}\t{}\t{}\t{}\t{}\t{}\t{}",
        p.offered_load.to_bits(),
        p.throughput.to_bits(),
        opt(p.avg_latency_usec),
        opt(p.p95_latency_usec),
        opt(p.avg_hops),
        p.delivered,
        p.stranded,
        p.sustainable,
    )
}

fn parse_cache_line(line: &str) -> Option<(String, SweepPoint)> {
    let mut fields = line.split('\t');
    let key = fields.next()?.to_owned();
    let f64_field = |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits);
    let opt_field = |s: &str| -> Option<Option<f64>> {
        if s == "-" {
            Some(None)
        } else {
            f64_field(s).map(Some)
        }
    };
    let offered_load = f64_field(fields.next()?)?;
    let throughput = f64_field(fields.next()?)?;
    let avg_latency_usec = opt_field(fields.next()?)?;
    let p95_latency_usec = opt_field(fields.next()?)?;
    let avg_hops = opt_field(fields.next()?)?;
    // Pre-fault-sweep cache files lack the delivered/stranded columns;
    // their lines fail to parse here and the cells re-simulate.
    let delivered = fields.next()?.parse::<u64>().ok()?;
    let stranded = fields.next()?.parse::<u64>().ok()?;
    let sustainable = match fields.next()? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    if fields.next().is_some() {
        return None;
    }
    Some((
        key,
        SweepPoint {
            offered_load,
            throughput,
            avg_latency_usec,
            p95_latency_usec,
            avg_hops,
            delivered,
            stranded,
            sustainable,
            skipped: false,
        },
    ))
}

/// Counters describing what one [`Executor::run`] actually did.
///
/// `cache_hits`, `skipped`, and the `emitted_*` counters depend only on
/// the jobs and the cache contents, so they are safe to put in
/// deterministic output. `simulated` additionally counts speculative
/// cells workers computed past a cutoff before it was known, which can
/// vary with thread count — report it to humans (stderr), never into
/// byte-compared files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Cells simulated by a runner this run, speculation included.
    /// Thread-count-dependent; see the type docs.
    pub simulated: usize,
    /// Cells satisfied from the cache.
    pub cache_hits: usize,
    /// Cells reported as skipped by the saturation rule.
    pub skipped: usize,
    /// Emitted (non-skipped) points that came from the cache.
    /// Deterministic.
    pub emitted_from_cache: usize,
    /// Emitted (non-skipped) points simulated this run. Deterministic.
    pub emitted_simulated: usize,
}

/// A live progress and cancellation surface for one [`Executor::run`].
///
/// Attach with [`Executor::with_progress`] and share the [`Arc`] with
/// whoever needs to watch the run (the job server polls it for per-cell
/// progress and flips [`ExecProgress::cancel`] to abandon a job). All
/// counters are monotonic within one run; `run` resets them at entry.
///
/// Cancellation is cooperative and cell-granular: workers stop claiming
/// new cells, finish the one they are on, and the assembled series
/// report every uncomputed cell as a skipped placeholder.
#[derive(Debug, Default)]
pub struct ExecProgress {
    total: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicBool,
}

impl ExecProgress {
    /// A fresh surface, ready to attach to an executor.
    pub fn new() -> Arc<Self> {
        Arc::new(ExecProgress::default())
    }

    /// Total cells the current run will account for (0 before a run
    /// starts).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }

    /// Cells accounted for so far: simulated, served from the cache, or
    /// written off by the saturation skip / cancellation.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// Asks the running executor to stop claiming new cells.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// `true` once [`ExecProgress::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Wall-time accounting for one emitted sweep cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// The series' algorithm name.
    pub algorithm: String,
    /// The series' pattern name.
    pub pattern: String,
    /// The cell's offered load.
    pub offered_load: f64,
    /// Wall-clock seconds the runner spent on this cell (0 for cache
    /// hits).
    pub wall_secs: f64,
    /// `true` if the cell was satisfied from the cache.
    pub from_cache: bool,
}

/// Telemetry from the most recent [`Executor::run`]: per-cell wall
/// times plus the merged latency histogram of every emitted cell.
///
/// Cells appear in deterministic (series, load) order; the wall-time
/// *values* are measurements and naturally vary run to run.
#[derive(Debug, Clone, Default)]
pub struct ExecTelemetry {
    /// One entry per emitted (non-skipped) cell, in output order.
    pub cells: Vec<CellTiming>,
    /// Message-latency histograms of every emitted cell, merged.
    /// Cache hits contribute nothing (the cache stores summaries only).
    pub latencies: LatencyHistogram,
}

impl ExecTelemetry {
    /// Total runner wall-clock seconds across all emitted cells (the
    /// serial cost the thread pool amortized).
    pub fn total_wall_secs(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_secs).sum()
    }
}

/// Per-series scheduling state shared by the workers.
struct SeriesState {
    /// Next unclaimed load index (indices below are claimed or filled).
    next: usize,
    /// Lowest load index known unsustainable (`usize::MAX` if none).
    /// Claims stop above it; monotone saturation makes higher loads
    /// redundant.
    cutoff: usize,
    results: Vec<Option<CellOutput>>,
    /// Which results were prefilled from the cache.
    cached: Vec<bool>,
    /// Runner wall-clock seconds per simulated cell.
    wall: Vec<f64>,
}

struct Shared {
    states: Vec<SeriesState>,
    cache: CellCache,
    simulated: usize,
}

impl Shared {
    /// Claims the lowest-index unclaimed cell of the least-advanced
    /// series (breadth-first across series, ascending within one).
    fn claim(&mut self) -> Option<(usize, usize)> {
        loop {
            let candidate = self
                .states
                .iter()
                .enumerate()
                .filter(|(_, st)| st.next < st.results.len() && st.next <= st.cutoff)
                .min_by_key(|(_, st)| st.next)
                .map(|(j, _)| j);
            let j = candidate?;
            let st = &mut self.states[j];
            let i = st.next;
            st.next += 1;
            if st.results[i].is_none() {
                return Some((j, i));
            }
            // Already filled from the cache: advance and look again.
        }
    }
}

/// The parallel experiment executor.
///
/// # Example
///
/// ```
/// use turnroute_core::DimensionOrder;
/// use turnroute_sim::exec::{Executor, SeriesJob};
/// use turnroute_sim::{patterns::Uniform, SimConfig};
/// use turnroute_topology::Mesh;
///
/// let mesh = Mesh::new_2d(4, 4);
/// let algo = DimensionOrder::new();
/// let config = SimConfig::paper().warmup_cycles(200).measure_cycles(1_000);
/// let job = SeriesJob::simulation(&mesh, &algo, &Uniform, &config, &[0.01, 0.02]);
/// let series = Executor::new(2).run(vec![job]).remove(0);
/// assert_eq!(series.points.len(), 2);
/// ```
pub struct Executor {
    threads: usize,
    cache: CellCache,
    stats: ExecStats,
    telemetry: ExecTelemetry,
    progress: Option<Arc<ExecProgress>>,
    log: Logger,
    span: String,
}

impl Executor {
    /// An executor running `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            cache: CellCache::in_memory(),
            stats: ExecStats::default(),
            telemetry: ExecTelemetry::default(),
            progress: None,
            log: Logger::disabled(),
            span: String::new(),
        }
    }

    /// How many worker threads this executor runs cells on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Resolves a per-cell shard request against this executor's thread
    /// budget, so intra-run sharding composes with cell-level
    /// parallelism instead of multiplying it: `0` (auto) becomes the
    /// cores left over per worker (1 when the sweep already saturates
    /// the host), an explicit count is respected as-is. Purely a speed
    /// decision — cell results are bit-identical at every shard count.
    #[must_use]
    pub fn cell_shards(&self, requested: usize) -> usize {
        match requested {
            0 => {
                let cores = std::thread::available_parallelism().map_or(1, usize::from);
                (cores / self.threads).max(1)
            }
            n => n,
        }
    }

    /// Replaces the (empty, in-memory) cell cache.
    pub fn with_cache(mut self, cache: CellCache) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a progress/cancellation surface; each [`Executor::run`]
    /// resets its counters and keeps them live while cells complete.
    pub fn with_progress(mut self, progress: Arc<ExecProgress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Attaches a structured logger: every completed cell emits a
    /// debug-level `"cell"` event tagged with `span` (the job server
    /// passes the job id, so one job's cell progress greps as one
    /// span). Disabled loggers cost nothing.
    pub fn with_oplog(mut self, log: Logger, span: impl Into<String>) -> Self {
        self.log = log;
        self.span = span.into();
        self
    }

    /// What the most recent [`Executor::run`] did.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Telemetry from the most recent [`Executor::run`]: per-cell wall
    /// times and the merged latency histogram of all emitted cells.
    pub fn telemetry(&self) -> &ExecTelemetry {
        &self.telemetry
    }

    /// The cell cache (e.g. to [`CellCache::flush`] after a run).
    pub fn cache(&self) -> &CellCache {
        &self.cache
    }

    /// Consumes the executor, returning the cache for reuse.
    pub fn into_cache(self) -> CellCache {
        self.cache
    }

    /// Runs every cell of every job and assembles one [`SweepSeries`]
    /// per job, in job order.
    ///
    /// Output is identical for any thread count: cell seeds derive from
    /// cell identity, and every point past a series' first unsustainable
    /// load is reported as a skipped placeholder even if a worker had
    /// already computed it speculatively.
    pub fn run(&mut self, jobs: Vec<SeriesJob<'_>>) -> Vec<SweepSeries> {
        self.stats = ExecStats::default();
        self.telemetry = ExecTelemetry::default();
        if let Some(p) = &self.progress {
            let total: u64 = jobs.iter().map(|j| j.loads.len() as u64).sum();
            p.completed.store(0, Ordering::Release);
            p.total.store(total, Ordering::Release);
        }

        // Prefill from the cache; a cached unsustainable point bounds
        // the series immediately.
        let mut states = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let mut st = SeriesState {
                next: 0,
                cutoff: usize::MAX,
                results: vec![None; job.loads.len()],
                cached: vec![false; job.loads.len()],
                wall: vec![0.0; job.loads.len()],
            };
            for (i, &load) in job.loads.iter().enumerate() {
                if let Some(point) = self.cache.get(&cell_key(&job.cache_key, load)) {
                    if !point.sustainable {
                        st.cutoff = st.cutoff.min(i);
                    }
                    st.results[i] = Some(point.into());
                    st.cached[i] = true;
                    self.stats.cache_hits += 1;
                    if let Some(p) = &self.progress {
                        p.completed.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
            states.push(st);
        }

        let shared = Mutex::new(Shared {
            states,
            cache: std::mem::take(&mut self.cache),
            simulated: 0,
        });

        let progress = self.progress.clone();
        let log = self.log.clone();
        let span = self.span.clone();
        let work = |shared: &Mutex<Shared>| loop {
            if progress.as_deref().is_some_and(ExecProgress::is_cancelled) {
                break;
            }
            let claim = shared.lock().expect("executor poisoned").claim();
            let Some((j, i)) = claim else { break };
            let job = &jobs[j];
            let load = job.loads[i];
            let seed = derive_cell_seed(job.base_seed, &job.algorithm, &job.pattern, load);
            let started = Instant::now();
            let output = (job.runner)(load, seed);
            let wall_secs = started.elapsed().as_secs_f64();
            let mut guard = shared.lock().expect("executor poisoned");
            guard
                .cache
                .insert(cell_key(&job.cache_key, load), output.point.clone());
            guard.simulated += 1;
            let st = &mut guard.states[j];
            if !output.point.sustainable {
                st.cutoff = st.cutoff.min(i);
            }
            st.results[i] = Some(output);
            st.wall[i] = wall_secs;
            drop(guard);
            if let Some(p) = &progress {
                p.completed.fetch_add(1, Ordering::AcqRel);
            }
            if log.enabled(Level::Debug) {
                let mut ev = log
                    .event(Level::Debug, "cell")
                    .span(&span)
                    .str("algorithm", &job.algorithm)
                    .str("pattern", &job.pattern)
                    .f64("offered_load", load)
                    .f64("wall_secs", wall_secs);
                if let Some(p) = &progress {
                    ev = ev
                        .u64("cells_completed", p.completed())
                        .u64("cells_total", p.total());
                }
                ev.emit();
            }
        };

        if self.threads == 1 {
            work(&shared);
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..self.threads)
                    .map(|_| scope.spawn(|| work(&shared)))
                    .collect();
                // Joined by hand so a cell's panic reaches the caller
                // with its own message, not the scope's generic one.
                for worker in workers {
                    if let Err(payload) = worker.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }

        let mut shared = shared.into_inner().expect("executor poisoned");
        self.stats.simulated = shared.simulated;
        self.cache = std::mem::take(&mut shared.cache);

        let cancelled = self
            .progress
            .as_deref()
            .is_some_and(ExecProgress::is_cancelled);

        // Assemble: everything past a series' first unsustainable load
        // is a skipped placeholder, computed or not. Telemetry is built
        // here, from emitted cells only, so its cell order — and which
        // histograms merge — never depends on worker scheduling.
        let mut out = Vec::with_capacity(jobs.len());
        for (job, st) in jobs.iter().zip(shared.states.iter_mut()) {
            let mut points = Vec::with_capacity(job.loads.len());
            for (i, &load) in job.loads.iter().enumerate() {
                if i <= st.cutoff {
                    let Some(output) = st.results[i].take() else {
                        // Only a cancelled run leaves holes at or below
                        // the cutoff; report them as skipped.
                        assert!(
                            cancelled,
                            "cells at or below the cutoff are always computed"
                        );
                        self.stats.skipped += 1;
                        points.push(SweepPoint::skipped_at(load));
                        continue;
                    };
                    if st.cached[i] {
                        self.stats.emitted_from_cache += 1;
                    } else {
                        self.stats.emitted_simulated += 1;
                    }
                    self.telemetry.latencies.merge(&output.latencies);
                    self.telemetry.cells.push(CellTiming {
                        algorithm: job.algorithm.clone(),
                        pattern: job.pattern.clone(),
                        offered_load: load,
                        wall_secs: st.wall[i],
                        from_cache: st.cached[i],
                    });
                    points.push(output.point);
                } else {
                    self.stats.skipped += 1;
                    points.push(SweepPoint::skipped_at(load));
                }
            }
            out.push(SweepSeries {
                algorithm: job.algorithm.clone(),
                pattern: job.pattern.clone(),
                faults: job.faults,
                disconnected: job.disconnected,
                points,
            });
        }
        if let Some(p) = &self.progress {
            if !cancelled {
                // Saturation-skipped cells count as accounted for: a
                // finished run always reads completed == total.
                p.completed.store(p.total(), Ordering::Release);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fake runner: sustainable below `sat`, counting invocations.
    fn fake_job<'a>(
        name: &str,
        loads: &'a [f64],
        sat: f64,
        calls: &'a AtomicUsize,
    ) -> SeriesJob<'a> {
        SeriesJob::new(
            name.to_owned(),
            "fake",
            format!("test|{name}"),
            7,
            loads,
            move |load, seed| {
                calls.fetch_add(1, Ordering::SeqCst);
                SweepPoint {
                    offered_load: load,
                    throughput: load * 100.0 + (seed % 7) as f64,
                    avg_latency_usec: Some(load * 2.0),
                    p95_latency_usec: None,
                    avg_hops: Some(3.0),
                    delivered: (load * 1000.0) as u64,
                    stranded: 0,
                    sustainable: load < sat,
                    skipped: false,
                }
            },
        )
    }

    #[test]
    fn seeds_depend_on_every_component() {
        let s = derive_cell_seed(1, "a", "u", 0.1);
        assert_ne!(s, derive_cell_seed(2, "a", "u", 0.1));
        assert_ne!(s, derive_cell_seed(1, "b", "u", 0.1));
        assert_ne!(s, derive_cell_seed(1, "a", "v", 0.1));
        assert_ne!(s, derive_cell_seed(1, "a", "u", 0.2));
        assert_eq!(s, derive_cell_seed(1, "a", "u", 0.1));
        // Length-delimited: shifting a byte between names changes it.
        assert_ne!(
            derive_cell_seed(1, "ab", "c", 0.1),
            derive_cell_seed(1, "a", "bc", 0.1)
        );
    }

    #[test]
    fn skip_rule_reports_everything_past_the_first_unsustainable() {
        let loads = [0.1, 0.2, 0.3, 0.4, 0.5];
        let calls = AtomicUsize::new(0);
        for threads in [1, 2, 8] {
            calls.store(0, Ordering::SeqCst);
            let mut ex = Executor::new(threads);
            let series = ex
                .run(vec![fake_job("algo", &loads, 0.25, &calls)])
                .remove(0);
            assert_eq!(series.points.len(), 5);
            assert!(series.points[0].sustainable && !series.points[0].skipped);
            assert!(series.points[1].sustainable && !series.points[1].skipped);
            assert!(!series.points[2].sustainable && !series.points[2].skipped);
            assert!(series.points[3].skipped && series.points[4].skipped);
            assert_eq!(ex.stats().skipped, 2);
            // Serial never runs past the cutoff; parallel may
            // speculate, but never claims beyond one past it.
            if threads == 1 {
                assert_eq!(calls.load(Ordering::SeqCst), 3);
            }
        }
    }

    #[test]
    fn results_are_invariant_under_thread_count() {
        let loads = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3];
        let calls = AtomicUsize::new(0);
        let runs: Vec<Vec<SweepSeries>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                Executor::new(threads).run(vec![
                    fake_job("a", &loads, 0.22, &calls),
                    fake_job("b", &loads, 1.0, &calls),
                ])
            })
            .collect();
        for other in &runs[1..] {
            for (x, y) in runs[0].iter().zip(other.iter()) {
                assert_eq!(x.to_csv(), y.to_csv());
            }
        }
    }

    #[test]
    fn cache_avoids_resimulation_and_preserves_bytes() {
        let calls = AtomicUsize::new(0);
        let mut ex = Executor::new(2);
        let first = ex
            .run(vec![fake_job("algo", &[0.1, 0.2], 1.0, &calls)])
            .remove(0);
        assert_eq!(ex.stats().simulated, 2);
        let cache = ex.into_cache();
        assert_eq!(cache.len(), 2);

        // Extended grid: only the new point simulates.
        let mut ex = Executor::new(2).with_cache(cache);
        let second = ex
            .run(vec![fake_job("algo", &[0.1, 0.2, 0.3], 1.0, &calls)])
            .remove(0);
        assert_eq!(ex.stats().cache_hits, 2);
        assert_eq!(ex.stats().simulated, 1);
        assert_eq!(
            first.to_csv(),
            second
                .to_csv()
                .lines()
                .take(2)
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        );
    }

    #[test]
    fn cache_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("turnroute-exec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cache-{}.tsv", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let calls = AtomicUsize::new(0);
        let mut ex = Executor::new(1).with_cache(CellCache::at_path(&path).unwrap());
        let first = ex
            .run(vec![fake_job("algo", &[0.1, 0.2], 0.15, &calls)])
            .remove(0);
        ex.cache().flush().unwrap();

        let mut ex2 = Executor::new(4).with_cache(CellCache::at_path(&path).unwrap());
        let second = ex2
            .run(vec![fake_job("algo", &[0.1, 0.2], 0.15, &calls)])
            .remove(0);
        assert_eq!(ex2.stats().simulated, 0);
        assert_eq!(first.to_csv(), second.to_csv());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cached_unsustainable_points_bound_the_series() {
        let calls = AtomicUsize::new(0);
        let mut ex = Executor::new(1);
        ex.run(vec![fake_job("algo", &[0.1, 0.2, 0.3], 0.15, &calls)]);
        let cache = ex.into_cache();

        // Re-run the same grid: the cached unsustainable 0.2 bounds the
        // series, so nothing simulates at all.
        calls.store(0, Ordering::SeqCst);
        let mut ex = Executor::new(2).with_cache(cache);
        let series = ex
            .run(vec![fake_job("algo", &[0.1, 0.2, 0.3], 0.15, &calls)])
            .remove(0);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert!(series.points[2].skipped);
    }

    /// A fake runner whose cells carry a one-value latency histogram
    /// (`load * 1000` cycles), so merge behaviour is observable.
    fn hist_job<'a>(loads: &'a [f64], sat: f64) -> SeriesJob<'a> {
        SeriesJob::new("h", "fake", "test|h", 7, loads, move |load, _seed| {
            CellOutput {
                point: SweepPoint {
                    offered_load: load,
                    throughput: load * 100.0,
                    avg_latency_usec: Some(load),
                    p95_latency_usec: None,
                    avg_hops: None,
                    delivered: 0,
                    stranded: 0,
                    sustainable: load < sat,
                    skipped: false,
                },
                latencies: LatencyHistogram::from_values(&[(load * 1000.0) as u64]),
            }
        })
    }

    #[test]
    fn telemetry_lists_emitted_cells_in_output_order() {
        let calls = AtomicUsize::new(0);
        let mut ex = Executor::new(2);
        ex.run(vec![fake_job("algo", &[0.1, 0.2], 1.0, &calls)]);
        let cache = ex.into_cache();

        // Extended grid over a warm cache: two cache hits, one fresh.
        let mut ex = Executor::new(2).with_cache(cache);
        ex.run(vec![fake_job("algo", &[0.1, 0.2, 0.3], 1.0, &calls)]);
        let stats = ex.stats();
        assert_eq!(stats.emitted_from_cache, 2);
        assert_eq!(stats.emitted_simulated, 1);

        let cells = &ex.telemetry().cells;
        assert_eq!(cells.len(), 3);
        let loads: Vec<f64> = cells.iter().map(|c| c.offered_load).collect();
        assert_eq!(loads, vec![0.1, 0.2, 0.3]);
        assert!(cells[0].from_cache && cells[1].from_cache);
        assert!(!cells[2].from_cache);
        // Cache hits cost no runner time; fresh cells are timed.
        assert_eq!(cells[0].wall_secs, 0.0);
        assert_eq!(cells[1].wall_secs, 0.0);
        assert!(cells[2].wall_secs >= 0.0);
        assert_eq!(ex.telemetry().total_wall_secs(), cells[2].wall_secs);
    }

    #[test]
    fn telemetry_merges_histograms_of_emitted_cells_only() {
        for threads in [1, 4] {
            let mut ex = Executor::new(threads);
            ex.run(vec![hist_job(&[0.1, 0.2, 0.3], 0.15)]);
            // 0.1 is sustainable, 0.2 is the first unsustainable (still
            // emitted), 0.3 is past the cutoff: even if a worker
            // speculatively computed it, its histogram must not merge.
            let h = &ex.telemetry().latencies;
            assert_eq!(h.len(), 2, "threads={threads}");
            assert_eq!(h.min(), Some(100));
            assert_eq!(h.max(), Some(200));
        }
    }

    #[test]
    fn progress_counts_every_cell_and_finishes_full() {
        let calls = AtomicUsize::new(0);
        let progress = ExecProgress::new();
        let mut ex = Executor::new(2).with_progress(progress.clone());
        // Saturates at 0.15: the cells past the cutoff are skipped, but
        // a finished run still reads completed == total.
        ex.run(vec![fake_job("algo", &[0.1, 0.2, 0.3, 0.4], 0.15, &calls)]);
        assert_eq!(progress.total(), 4);
        assert_eq!(progress.completed(), 4);
        assert!(!progress.is_cancelled());

        // Cache prefills count as completed cells on the next run.
        let cache = ex.into_cache();
        let progress = ExecProgress::new();
        let mut ex = Executor::new(1)
            .with_cache(cache)
            .with_progress(progress.clone());
        ex.run(vec![fake_job("algo", &[0.1, 0.2, 0.3, 0.4], 0.15, &calls)]);
        assert_eq!(progress.completed(), 4);
    }

    #[test]
    fn cancellation_stops_claiming_and_reports_skips() {
        let calls = AtomicUsize::new(0);
        let progress = ExecProgress::new();
        // Cancel before the run even starts: no cell may simulate.
        progress.cancel();
        let mut ex = Executor::new(2).with_progress(progress.clone());
        let series = ex
            .run(vec![fake_job("algo", &[0.1, 0.2, 0.3], 1.0, &calls)])
            .remove(0);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(series.points.len(), 3);
        assert!(series.points.iter().all(|p| p.skipped));
        assert_eq!(ex.stats().skipped, 3);
        assert!(progress.completed() < progress.total());
    }

    #[test]
    fn ascending_loads_are_enforced() {
        let result = std::panic::catch_unwind(|| {
            SeriesJob::new("a", "p", "k", 1, &[0.2, 0.1], |_, _| -> SweepPoint {
                unreachable!()
            })
        });
        assert!(result.is_err());
    }
}
