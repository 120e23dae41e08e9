//! The sharded (multi-threaded) run path: one simulation partitioned
//! into contiguous node ranges whose arbitration runs on worker threads
//! between cycle barriers.
//!
//! Determinism is by construction, not by luck (full argument in
//! `DESIGN.md` §11): every channel a requester can ask for exits its
//! head node, so grant conflicts only ever occur between requesters
//! sharing a head node — and the partition assigns all of those to the
//! same shard. Each shard therefore computes exactly the serial greedy
//! grant sequence restricted to its nodes, and a single merge sort by
//! the global input-selection key reproduces the serial grant list
//! verbatim. All RNG draws stay in the serial phases (traffic
//! generation, in node order), so the stream is untouched. Reports are
//! bit-identical at every shard count; the conformance suite and the
//! `shard_determinism` integration test enforce this.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use super::{RunOutcome, SimReport, Simulation, Who, MAX_DIRS};
use crate::config::InputSelection;
use crate::obs::SimObserver;
use turnroute_topology::ChannelId;

/// Hard cap on worker threads per run, far above any sensible core
/// count; keeps a corrupt `--shards` value from exhausting the OS.
const MAX_SHARDS: usize = 256;

/// Per-shard arbitration output and scratch, double-buffered behind a
/// `Mutex` only for ownership (each is touched by exactly one worker at
/// a time, then the coordinator — never concurrently).
struct ShardScratch {
    /// Requester buffer, kept across cycles to avoid reallocation.
    requesters: Vec<Who>,
    /// This shard's grants, in global-key order within the shard.
    grants: Vec<(Who, ChannelId)>,
    /// Headers whose pruned direction set came up permanently empty.
    newly_stranded: Vec<Who>,
    /// Headers found with a non-empty permitted set and no free
    /// in-service candidate: the merge puts them to sleep.
    newly_blocked: Vec<Who>,
    /// Shard-local epoch-stamped "granted this cycle" marks (see
    /// [`super::Scratch::granted_epoch`]).
    granted_epoch: Vec<u64>,
}

/// Splits `nodes` into `shards` contiguous ranges whose sizes differ by
/// at most one.
fn partition(nodes: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = nodes / shards;
    let extra = nodes % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 0;
    for k in 0..shards {
        let hi = lo + base + usize::from(k < extra);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

impl<'a, O: SimObserver + Send + Sync> Simulation<'a, O> {
    /// Runs warmup, the measurement window, then a drain phase (with
    /// generation disabled) so that measured messages can finish.
    ///
    /// When [`SimConfig::shards`](crate::SimConfig::shards) asks for
    /// more than one shard, arbitration is partitioned across worker
    /// threads at a cycle barrier; the report is bit-identical to the
    /// serial engine's at every shard count. Configurations the sharded
    /// arbitrator cannot split deterministically fall back to serial
    /// with the reason recorded in
    /// [`Simulation::shard_fallback_reason`].
    pub fn run(&mut self) -> SimReport {
        self.metrics.window_start = self.config.warmup_cycles;
        self.metrics.window_end = self.config.warmup_cycles + self.config.measure_cycles;
        let shards = self.effective_shards();
        if shards <= 1 {
            self.run_serial()
        } else {
            self.run_sharded(shards)
        }
    }

    /// Resolves the configured shard count against the host and this
    /// run's configuration; `1` means "use the serial path" (recording
    /// why in `shard_fallback` when sharding was requested but refused).
    fn effective_shards(&mut self) -> usize {
        let requested = match self.config.shards {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let requested = requested.min(MAX_SHARDS).min(self.topo.num_nodes());
        if requested <= 1 {
            return 1;
        }
        // Per-requester observer events and RNG draws happen *during*
        // arbitration, in global priority order; splitting that stream
        // would reorder it.
        self.shard_fallback = self.per_requester_effects();
        if self.shard_fallback.is_some() {
            return 1;
        }
        requested
    }

    /// The multi-threaded run loop: persistent workers arbitrate their
    /// node ranges between two barriers per cycle; everything else
    /// (fault replay, generation, grant commit, metrics, the watchdog)
    /// stays serial in the coordinator, preserving the exact serial
    /// order of every mutation and RNG draw.
    fn run_sharded(&mut self, shards: usize) -> SimReport {
        let drain_limit = self.metrics.window_end + self.config.measure_cycles;
        let ranges = partition(self.topo.num_nodes(), shards);
        let num_channels = self.topo.num_channels();
        let outs: Vec<Mutex<ShardScratch>> = (0..shards)
            .map(|_| {
                Mutex::new(ShardScratch {
                    requesters: Vec::new(),
                    grants: Vec::new(),
                    newly_stranded: Vec::new(),
                    newly_blocked: Vec::new(),
                    granted_epoch: vec![0; num_channels],
                })
            })
            .collect();
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(shards + 1);
        let mut outcome = RunOutcome::Completed;
        {
            // Scoped so the lock's `&mut *self` reborrow ends before
            // `build_report` borrows `self` again below.
            let lock = RwLock::new(&mut *self);
            std::thread::scope(|scope| {
                for (k, &(lo, hi)) in ranges.iter().enumerate() {
                    let (lock, barrier, done, out) = (&lock, &barrier, &done, &outs[k]);
                    scope.spawn(move || loop {
                        barrier.wait();
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        let sim = lock.read().unwrap();
                        sim.arbitrate_shard(lo, hi, &mut out.lock().unwrap());
                        drop(sim);
                        barrier.wait();
                    });
                }
                loop {
                    // Serial head of the cycle, under the write lock (all
                    // workers are parked at the cycle-start barrier).
                    let stop = {
                        let mut guard = lock.write().unwrap();
                        let sim = &mut **guard;
                        if sim.cycle >= drain_limit {
                            true
                        } else {
                            if sim.cycle == sim.metrics.window_end {
                                sim.disable_generation();
                            }
                            sim.begin_cycle();
                            false
                        }
                    };
                    if stop {
                        done.store(true, Ordering::Release);
                        barrier.wait();
                        break;
                    }
                    barrier.wait(); // release workers into arbitration
                    barrier.wait(); // all shards done; read locks dropped
                    let finished = {
                        let mut guard = lock.write().unwrap();
                        let sim = &mut **guard;
                        sim.merge_shards(&outs);
                        if let Some(report) = sim.finish_cycle() {
                            outcome = RunOutcome::Deadlocked(report);
                            true
                        } else {
                            // Stop draining early once the network is empty.
                            sim.cycle > sim.metrics.window_end
                                && sim.in_flight.is_empty()
                                && sim.queued_messages() == 0
                        }
                    };
                    if finished {
                        done.store(true, Ordering::Release);
                        barrier.wait();
                        break;
                    }
                }
            });
        }
        self.build_report(outcome)
    }

    /// One shard's arbitration: the serial grant loop restricted to
    /// requesters whose head node lies in `[lo, hi)`, writing grants
    /// and stranding candidates to `out` instead of mutating the
    /// simulation. Read-only on `self`, so every shard runs
    /// concurrently under the read lock.
    fn arbitrate_shard(&self, lo: usize, hi: usize, out: &mut ShardScratch) {
        out.requesters.clear();
        self.collect_requesters(lo, hi, &mut out.requesters);
        // Disjoint subsets sorted by the same total order: each shard's
        // sequence is the serial sequence restricted to its nodes.
        self.sort_requesters(&mut out.requesters);
        out.grants.clear();
        out.newly_stranded.clear();
        out.newly_blocked.clear();
        let epoch = self.cycle + 1;
        let mut candidates = [ChannelId::new(0); MAX_DIRS];
        for &who in &out.requesters {
            let (count, permitted) = self.candidates_deterministic(who, &mut candidates);
            if count == 0 {
                // Candidate channels all exit the head node, so "free"
                // here can only be invalidated by an earlier grant in
                // *this* shard — which the epoch marks below record.
                if !permitted.is_empty() {
                    out.newly_blocked.push(who);
                } else if self.strands_permanently(who) {
                    out.newly_stranded.push(who);
                }
                continue;
            }
            if let Some(&channel) = candidates[..count]
                .iter()
                .find(|c| out.granted_epoch[c.index()] != epoch)
            {
                out.granted_epoch[channel.index()] = epoch;
                out.grants.push((who, channel));
            }
        }
    }

    /// Commits the shards' outputs as if the serial arbitrator had
    /// produced them: strands flagged headers, then rebuilds the global
    /// grant list by sorting the disjoint per-shard lists with the same
    /// key the serial path sorts requesters by — reproducing the serial
    /// grant order exactly (which [`Simulation::advance`] relies on for
    /// in-flight ordering).
    fn merge_shards(&mut self, outs: &[Mutex<ShardScratch>]) {
        let mut grants = std::mem::take(&mut self.scratch.grants);
        grants.clear();
        for out in outs {
            let out = out.lock().unwrap();
            grants.extend_from_slice(&out.grants);
            for &who in &out.newly_stranded {
                self.strand(who);
            }
            for &who in &out.newly_blocked {
                self.park(who);
            }
            self.requesters_evaluated += out.requesters.len() as u64;
        }
        match self.config.input_selection {
            InputSelection::FirstComeFirstServed => {
                grants.sort_unstable_by_key(|&(who, _)| self.fcfs_key(who));
            }
            InputSelection::FixedPriority => {
                grants.sort_unstable_by_key(|&(who, _)| self.fixed_priority_key(who));
            }
            InputSelection::Random => unreachable!("Random falls back to the serial path"),
        }
        self.scratch.grants = grants;
    }
}

#[cfg(test)]
mod tests {
    use super::partition;

    #[test]
    fn partition_covers_contiguously() {
        for nodes in [1usize, 2, 7, 64, 255, 256] {
            for shards in 1..=nodes.min(9) {
                let ranges = partition(nodes, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges[shards - 1].1, nodes);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
                let (min, max) = ranges
                    .iter()
                    .map(|&(lo, hi)| hi - lo)
                    .fold((usize::MAX, 0), |(mn, mx), len| (mn.min(len), mx.max(len)));
                assert!(max - min <= 1, "uneven partition: {ranges:?}");
                assert!(min >= 1, "empty shard: {ranges:?}");
            }
        }
    }
}
