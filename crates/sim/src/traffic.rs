//! Message generation: Poisson or MMPP (bursty on-off) arrivals with
//! the paper's bimodal lengths.
//!
//! [`TrafficSource`] is the single entry point both the optimized
//! engine and the `turnroute-check` naive oracle construct — with the
//! same arguments, in the same order — so the arrival/length RNG
//! stream is bit-identical between them *by construction*. The source
//! IS the specification of that stream: any change here changes both
//! sides at once.
//!
//! Per-node [`TrafficSource::poll`] is that specification. Engines call
//! [`TrafficSource::poll_due`], which polls only the nodes whose next
//! arrival (or MMPP toggle) has come due and therefore costs what
//! arrives, not what exists; the oracle keeps calling `poll` on every
//! node every cycle, so every conformance case cross-checks the
//! schedule against the specification.

use crate::config::{LengthDistribution, SimConfig, TrafficModel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use turnroute_rng::{split_mix_64, Rng, RngCore, StdRng};

/// Per-node Poisson message source: inter-arrival times are drawn from a
/// negative exponential distribution (Section 6), message lengths from
/// the configured [`LengthDistribution`].
#[derive(Debug, Clone)]
pub struct PoissonSource {
    mean_interarrival: Option<f64>,
    lengths: LengthDistribution,
    /// Next arrival cycle per node (fractional cycles accumulate so the
    /// rate is exact in the long run).
    next_arrival: Vec<f64>,
}

impl PoissonSource {
    /// Creates a source for `num_nodes` nodes. `mean_interarrival` is in
    /// cycles; `None` disables generation. Initial phases are staggered
    /// by drawing the first arrival of each node from the same
    /// exponential.
    pub fn new(
        num_nodes: usize,
        mean_interarrival: Option<f64>,
        lengths: LengthDistribution,
        rng: &mut dyn RngCore,
    ) -> Self {
        let next_arrival = match mean_interarrival {
            None => vec![f64::INFINITY; num_nodes],
            Some(mean) => (0..num_nodes).map(|_| exponential(rng, mean)).collect(),
        };
        PoissonSource {
            mean_interarrival,
            lengths,
            next_arrival,
        }
    }

    /// Calls `emit(length)` once per message node `node` generates up to
    /// and including `cycle`.
    pub fn poll(
        &mut self,
        node: usize,
        cycle: u64,
        rng: &mut dyn RngCore,
        mut emit: impl FnMut(u32),
    ) {
        let Some(mean) = self.mean_interarrival else {
            return;
        };
        while self.next_arrival[node] <= cycle as f64 {
            emit(self.sample_length(rng));
            self.next_arrival[node] += exponential(rng, mean);
        }
    }

    /// The first cycle at which [`PoissonSource::poll`] of `node` does
    /// anything: the ceiling of its next arrival. `None` at zero rate.
    fn next_due(&self, node: usize) -> Option<u64> {
        self.mean_interarrival
            .map(|_| due_cycle(self.next_arrival[node]))
    }

    /// Draws a message length.
    pub fn sample_length(&self, rng: &mut dyn RngCore) -> u32 {
        match self.lengths {
            LengthDistribution::Fixed(l) => l,
            LengthDistribution::Bimodal { short, long } => {
                if rng.random_bool(0.5) {
                    short
                } else {
                    long
                }
            }
        }
    }
}

/// The first whole cycle at or after the fractional event time `at`
/// (saturating: an event beyond `u64::MAX` is never due). Spelled with
/// a cast and a compare because `f64::ceil` is a libm call on baseline
/// x86-64 and this runs once per polled node.
fn due_cycle(at: f64) -> u64 {
    let whole = at as u64;
    whole.saturating_add(u64::from((whole as f64) < at))
}

/// An exponential variate with the given mean, via inverse transform.
fn exponential(rng: &mut dyn RngCore, mean: f64) -> f64 {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -u.ln() * mean
}

/// One node's lane of an [`MmppSource`]: its private RNG stream plus
/// the state of its on-off modulating chain.
#[derive(Debug, Clone)]
struct MmppLane {
    /// This node's private generator. Every draw the node ever makes —
    /// initial state, sojourn lengths, arrivals, message lengths —
    /// comes from here, so the sequence is independent of every other
    /// node and of how the run is threaded or sharded.
    rng: StdRng,
    /// Whether the node is currently in the ON (bursting) state.
    on: bool,
    /// Cycle (fractional) at which the current sojourn ends.
    next_toggle: f64,
    /// Next arrival cycle; `INFINITY` while OFF.
    next_arrival: f64,
}

/// Domain-separation tag folded into per-node traffic seeds so the
/// streams can never collide with the fault schedule's or the
/// executor's seed derivations.
const MMPP_SEED_TAG: u64 = 0x7472_6166_6669_633A; // "traffic:"

/// Per-node 2-state Markov-modulated Poisson source (bursty on-off
/// arrivals), normalized so the long-run mean rate equals the
/// configured injection rate.
///
/// Unlike [`PoissonSource`], which interleaves every node's draws on
/// one shared stream, each node here owns a private [`StdRng`] seeded
/// prefix-nested from `(run seed, node)` — the same discipline as the
/// fault schedule — so the arrival sequence of a node is a pure
/// function of `(seed, node)` and reports stay byte-identical at any
/// `--threads` / `--shards`.
#[derive(Debug, Clone)]
pub struct MmppSource {
    on_mean_interarrival: Option<f64>,
    burst_cycles: f64,
    idle_cycles: f64,
    lengths: LengthDistribution,
    lanes: Vec<MmppLane>,
}

impl MmppSource {
    /// Creates a source for `num_nodes` nodes. `mean_interarrival` is
    /// the *long-run* mean in cycles (same convention as
    /// [`PoissonSource::new`]); `None` disables generation. While ON,
    /// arrivals are exponential with mean `mean_interarrival * duty`
    /// where `duty = burst / (burst + idle)`, which restores the
    /// configured long-run rate. Initial states are drawn with the
    /// chain's stationary probability so the process starts in
    /// equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if `burst_cycles` or `idle_cycles` is not positive and
    /// finite (spec layers reject these earlier with typed errors).
    pub fn new(
        num_nodes: usize,
        mean_interarrival: Option<f64>,
        lengths: LengthDistribution,
        burst_cycles: f64,
        idle_cycles: f64,
        seed: u64,
    ) -> Self {
        let model = TrafficModel::Mmpp {
            burst_cycles,
            idle_cycles,
        };
        if let Err(e) = model.check() {
            panic!("{e}");
        }
        let duty = model.duty();
        let on_mean = mean_interarrival.map(|m| m * duty);
        let lanes = (0..num_nodes)
            .map(|node| {
                // Prefix-nested per-node seed: tag, then run seed, then
                // node index, each stirred in before use.
                let mut s = MMPP_SEED_TAG;
                s ^= seed;
                split_mix_64(&mut s);
                s ^= node as u64;
                let mut rng = StdRng::seed_from_u64(split_mix_64(&mut s));
                let on = rng.random_bool(duty);
                let sojourn = if on { burst_cycles } else { idle_cycles };
                let next_toggle = exponential(&mut rng, sojourn);
                let next_arrival = match (on, on_mean) {
                    (true, Some(m)) => exponential(&mut rng, m),
                    _ => f64::INFINITY,
                };
                MmppLane {
                    rng,
                    on,
                    next_toggle,
                    next_arrival,
                }
            })
            .collect();
        MmppSource {
            on_mean_interarrival: on_mean,
            burst_cycles,
            idle_cycles,
            lengths,
            lanes,
        }
    }

    /// Calls `emit(length)` once per message node `node` generates up
    /// to and including `cycle`. All draws use the node's private
    /// stream; the shared engine RNG is never touched.
    pub fn poll(&mut self, node: usize, cycle: u64, mut emit: impl FnMut(u32)) {
        let Some(on_mean) = self.on_mean_interarrival else {
            return;
        };
        let lane = &mut self.lanes[node];
        let now = cycle as f64;
        loop {
            // Arrivals win ties with toggles: an arrival drawn at or
            // before the sojourn boundary belongs to the current ON
            // period. The rule is arbitrary but shared (engine and
            // oracle run this very code), so it cannot diverge.
            if lane.next_arrival <= now && lane.next_arrival <= lane.next_toggle {
                emit(sample_length(self.lengths, &mut lane.rng));
                lane.next_arrival += exponential(&mut lane.rng, on_mean);
            } else if lane.next_toggle <= now {
                let at = lane.next_toggle;
                lane.on = !lane.on;
                if lane.on {
                    lane.next_toggle = at + exponential(&mut lane.rng, self.burst_cycles);
                    lane.next_arrival = at + exponential(&mut lane.rng, on_mean);
                } else {
                    lane.next_toggle = at + exponential(&mut lane.rng, self.idle_cycles);
                    // Any arrival drawn past the ON period is discarded:
                    // exponential memorylessness makes redrawing at the
                    // next ON entry distribution-identical.
                    lane.next_arrival = f64::INFINITY;
                }
            } else {
                return;
            }
        }
    }

    /// The first cycle at which [`MmppSource::poll`] of `node` does
    /// anything: the ceiling of its next arrival or toggle, whichever
    /// comes first. `None` at zero rate.
    fn next_due(&self, node: usize) -> Option<u64> {
        let lane = &self.lanes[node];
        self.on_mean_interarrival
            .map(|_| due_cycle(lane.next_arrival.min(lane.next_toggle)))
    }
}

/// Draws a message length from `lengths` using `rng`.
fn sample_length(lengths: LengthDistribution, rng: &mut dyn RngCore) -> u32 {
    match lengths {
        LengthDistribution::Fixed(l) => l,
        LengthDistribution::Bimodal { short, long } => {
            if rng.random_bool(0.5) {
                short
            } else {
                long
            }
        }
    }
}

/// The per-node arrival process behind a [`TrafficSource`].
#[derive(Debug, Clone)]
enum Arrivals {
    /// Stationary Poisson arrivals on the shared engine stream (the
    /// paper's model; draw-for-draw identical to the pre-axis engine).
    Poisson(PoissonSource),
    /// Bursty on-off arrivals on per-node private streams.
    Mmpp(MmppSource),
}

/// The arrival process of one run, dispatching on
/// [`SimConfig::traffic`](crate::SimConfig), plus the wake-up schedule
/// that lets an engine poll only the nodes with something due.
///
/// Both the optimized engine and the conformance oracle build this via
/// [`TrafficSource::for_config`] with identical arguments, which makes
/// their arrival/length RNG streams bit-identical by construction.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    arrivals: Arrivals,
    /// Wake-up schedule: a min-heap holding exactly one `(due cycle,
    /// node)` entry per generating node, with `due` never later than
    /// the node's `next_due`. A node whose entry is not yet due would
    /// draw and emit nothing if polled, so skipping it is exact; an
    /// entry that is early (the node was polled directly in between)
    /// only costs a wake that does nothing.
    wake: BinaryHeap<Reverse<(u64, usize)>>,
    /// The nodes of one [`TrafficSource::poll_due`] batch (scratch).
    due: Vec<usize>,
}

impl TrafficSource {
    /// Builds the source `config` asks for. For [`TrafficModel::Poisson`]
    /// this draws each node's initial phase from `rng` — exactly the
    /// draws [`PoissonSource::new`] always made, so legacy seeds
    /// reproduce. For [`TrafficModel::Mmpp`] the shared `rng` is left
    /// untouched; all state derives from per-node streams.
    pub fn for_config(num_nodes: usize, config: &SimConfig, rng: &mut dyn RngCore) -> Self {
        let arrivals = match config.traffic {
            TrafficModel::Poisson => Arrivals::Poisson(PoissonSource::new(
                num_nodes,
                config.mean_interarrival_cycles(),
                config.lengths,
                rng,
            )),
            TrafficModel::Mmpp {
                burst_cycles,
                idle_cycles,
            } => Arrivals::Mmpp(MmppSource::new(
                num_nodes,
                config.mean_interarrival_cycles(),
                config.lengths,
                burst_cycles,
                idle_cycles,
                config.seed,
            )),
        };
        let mut source = TrafficSource {
            arrivals,
            wake: BinaryHeap::new(),
            due: Vec::new(),
        };
        // One O(nodes) heapify, not a push per node.
        let mut entries = Vec::with_capacity(num_nodes);
        entries.extend(
            (0..num_nodes).filter_map(|node| Some(Reverse((source.next_due(node)?, node)))),
        );
        source.wake = BinaryHeap::from(entries);
        source
    }

    /// Calls `emit(length)` once per message node `node` generates up
    /// to and including `cycle`. `rng` is the shared engine stream;
    /// only the Poisson model consumes it.
    ///
    /// This is the specification of the arrival stream: a full run is
    /// `for cycle { for node { poll } }`. It does not consult or update
    /// the wake-up schedule.
    pub fn poll(&mut self, node: usize, cycle: u64, rng: &mut dyn RngCore, emit: impl FnMut(u32)) {
        match &mut self.arrivals {
            Arrivals::Poisson(src) => src.poll(node, cycle, rng, emit),
            Arrivals::Mmpp(src) => src.poll(node, cycle, emit),
        }
    }

    /// The first cycle at which [`TrafficSource::poll`] of `node` does
    /// anything (draws, emits or toggles), or `None` if it never will
    /// (zero rate).
    fn next_due(&self, node: usize) -> Option<u64> {
        match &self.arrivals {
            Arrivals::Poisson(src) => src.next_due(node),
            Arrivals::Mmpp(src) => src.next_due(node),
        }
    }

    /// [`TrafficSource::poll`] of every node, in node order, skipping
    /// the nodes the schedule shows have nothing due by `cycle`: calls
    /// `emit(node, length)` exactly as the full `for node { poll }`
    /// loop would and leaves `rng` in the same state. Returns how many
    /// nodes were polled.
    pub fn poll_due(
        &mut self,
        cycle: u64,
        rng: &mut dyn RngCore,
        mut emit: impl FnMut(usize, u32),
    ) -> usize {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        while let Some(&Reverse((at, node))) = self.wake.peek() {
            if at > cycle {
                break;
            }
            self.wake.pop();
            due.push(node);
        }
        // The heap yields (due cycle, node) order; after skipped cycles
        // or an early entry one batch mixes due cycles, and the shared
        // stream must still be drawn in node order.
        due.sort_unstable();
        for &node in &due {
            self.poll(node, cycle, rng, |len| emit(node, len));
            if let Some(at) = self.next_due(node) {
                self.wake.push(Reverse((at, node)));
            }
        }
        let polled = due.len();
        self.due = due;
        polled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_rng::StdRng;

    #[test]
    fn rate_is_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = PoissonSource::new(1, Some(50.0), LengthDistribution::Fixed(10), &mut rng);
        let mut count = 0u32;
        for cycle in 0..100_000u64 {
            src.poll(0, cycle, &mut rng, |_| count += 1);
        }
        // Expected 2000 messages; Poisson sd is ~45.
        assert!((1800..2200).contains(&count), "got {count}");
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = PoissonSource::new(4, None, LengthDistribution::paper(), &mut rng);
        for cycle in 0..1000 {
            src.poll(2, cycle, &mut rng, |_| panic!("no messages at zero load"));
        }
    }

    #[test]
    fn bimodal_lengths_are_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let src = PoissonSource::new(1, Some(1.0), LengthDistribution::paper(), &mut rng);
        let mut shorts = 0;
        for _ in 0..1000 {
            let l = src.sample_length(&mut rng);
            assert!(l == 10 || l == 200);
            if l == 10 {
                shorts += 1;
            }
        }
        assert!((420..580).contains(&shorts), "got {shorts}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean: f64 = (0..20_000).map(|_| exponential(&mut rng, 7.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 7.0).abs() < 0.2, "got {mean}");
    }

    #[test]
    fn bursts_in_one_poll_are_possible() {
        // With a tiny mean, one poll spanning many cycles emits several
        // messages.
        let mut rng = StdRng::seed_from_u64(4);
        let mut src = PoissonSource::new(1, Some(0.5), LengthDistribution::Fixed(1), &mut rng);
        let mut count = 0;
        src.poll(0, 100, &mut rng, |_| count += 1);
        assert!(count > 50, "got {count}");
    }

    #[test]
    fn mmpp_long_run_rate_matches_poisson_mean() {
        // Mean inter-arrival 50 cycles over 200k cycles: expect ~4000
        // messages. MMPP clumps them, but the long-run mean must match.
        let mut src = MmppSource::new(
            1,
            Some(50.0),
            LengthDistribution::Fixed(10),
            400.0,
            1200.0,
            7,
        );
        let mut count = 0u32;
        for cycle in 0..200_000u64 {
            src.poll(0, cycle, |_| count += 1);
        }
        assert!((3400..4600).contains(&count), "got {count}");
    }

    #[test]
    fn mmpp_zero_rate_generates_nothing() {
        let mut src = MmppSource::new(4, None, LengthDistribution::paper(), 100.0, 100.0, 1);
        for cycle in 0..1000 {
            src.poll(2, cycle, |_| panic!("no messages at zero load"));
        }
    }

    #[test]
    fn mmpp_nodes_are_independent_streams() {
        // Polling other nodes (or not) must not perturb node 0's
        // arrivals — that independence is what makes the draws
        // shard-layout-invariant.
        let lengths = LengthDistribution::Bimodal { short: 3, long: 9 };
        let collect_node0 = |poll_others: bool| {
            let mut src = MmppSource::new(8, Some(20.0), lengths, 150.0, 450.0, 99);
            let mut seen = Vec::new();
            for cycle in 0..50_000u64 {
                if poll_others {
                    for node in 1..8 {
                        src.poll(node, cycle, |_| {});
                    }
                }
                src.poll(0, cycle, |len| seen.push((cycle, len)));
            }
            seen
        };
        let alone = collect_node0(false);
        let crowded = collect_node0(true);
        assert!(!alone.is_empty());
        assert_eq!(alone, crowded);
    }

    #[test]
    fn mmpp_arrivals_are_burstier_than_poisson() {
        // Dispersion test: with duty 0.2 the per-window message counts
        // must be overdispersed relative to Poisson (variance well
        // above mean).
        let mut src = MmppSource::new(
            1,
            Some(10.0),
            LengthDistribution::Fixed(1),
            500.0,
            2000.0,
            5,
        );
        const WINDOW: u64 = 200;
        let mut counts = Vec::new();
        let mut current = 0u64;
        for cycle in 0..400_000u64 {
            src.poll(0, cycle, |_| current += 1);
            if (cycle + 1) % WINDOW == 0 {
                counts.push(current as f64);
                current = 0;
            }
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
        assert!(
            var > 2.0 * mean,
            "expected overdispersion, got mean {mean:.2} var {var:.2}"
        );
    }

    #[test]
    fn traffic_source_dispatches_on_the_config_model() {
        use crate::config::{SimConfig, TrafficModel};
        let base = SimConfig::paper().injection_rate(0.1).seed(11);
        let mut rng = StdRng::seed_from_u64(base.seed);
        let poisson = TrafficSource::for_config(16, &base, &mut rng);
        assert!(matches!(poisson.arrivals, Arrivals::Poisson(_)));
        let mmpp_cfg = base.clone().traffic(TrafficModel::Mmpp {
            burst_cycles: 100.0,
            idle_cycles: 300.0,
        });
        let mut rng2 = StdRng::seed_from_u64(mmpp_cfg.seed);
        let before = rng2.clone().next_u64();
        let mmpp = TrafficSource::for_config(16, &mmpp_cfg, &mut rng2);
        assert!(matches!(mmpp.arrivals, Arrivals::Mmpp(_)));
        // MMPP construction must not consume the shared stream.
        assert_eq!(rng2.next_u64(), before);
    }

    #[test]
    fn due_cycle_is_a_saturating_ceiling() {
        for (at, due) in [
            (0.0, 0),
            (0.2, 1),
            (3.0, 3),
            (3.000_000_1, 4),
            (9_007_199_254_740_992.0, 9_007_199_254_740_992),
            (1e30, u64::MAX),
            (f64::INFINITY, u64::MAX),
        ] {
            assert_eq!(due_cycle(at), due, "{at}");
        }
    }

    /// `(cycle, node, length)` of every message, plus the next draw of
    /// the shared stream afterwards.
    type Emitted = (Vec<(u64, usize, u32)>, u64);

    /// Runs generation over `cycles` twice — the specification's
    /// `for node { poll }` scan and `poll_due` — with the same direct
    /// `poll(node, at)` call (if `direct` names one) made before each
    /// cycle, and asserts both emit the same messages in the same order
    /// and leave the shared stream in the same state. Returns what was
    /// emitted and how many nodes the schedule polled.
    fn assert_schedule_matches_full_scan(
        nodes: usize,
        config: &SimConfig,
        cycles: &[u64],
        direct: impl Fn(u64) -> Option<(usize, u64)>,
    ) -> (Emitted, usize) {
        let run = |scheduled: bool| -> (Emitted, usize) {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut source = TrafficSource::for_config(nodes, config, &mut rng);
            let mut seen = Vec::new();
            let mut polled = 0;
            for &cycle in cycles {
                if let Some((node, at)) = direct(cycle) {
                    source.poll(node, at, &mut rng, |len| seen.push((at, node, len)));
                }
                if scheduled {
                    polled += source.poll_due(cycle, &mut rng, |node, len| {
                        seen.push((cycle, node, len));
                    });
                } else {
                    for node in 0..nodes {
                        source.poll(node, cycle, &mut rng, |len| seen.push((cycle, node, len)));
                    }
                    polled += nodes;
                }
            }
            ((seen, rng.next_u64()), polled)
        };
        let (spec, _) = run(false);
        let (scheduled, polled) = run(true);
        assert_eq!(spec.0, scheduled.0, "emitted sequences differ");
        assert_eq!(
            spec.1, scheduled.1,
            "shared stream left in different states"
        );
        (scheduled, polled)
    }

    fn mmpp(config: SimConfig) -> SimConfig {
        config.traffic(TrafficModel::Mmpp {
            burst_cycles: 40.0,
            idle_cycles: 120.0,
        })
    }

    #[test]
    fn schedule_matches_full_scan_for_poisson_and_mmpp() {
        let every: Vec<u64> = (0..4_000).collect();
        let base = SimConfig::paper().injection_rate(0.05).seed(17);
        for config in [base.clone(), mmpp(base)] {
            let ((seen, _), polled) =
                assert_schedule_matches_full_scan(48, &config, &every, |_| None);
            assert!(seen.len() > 50, "only {} messages", seen.len());
            // The point of the schedule: far fewer polls than
            // nodes x cycles.
            assert!(polled < 48 * 4_000 / 10, "polled {polled}");
        }
    }

    #[test]
    fn schedule_matches_full_scan_with_several_arrivals_per_cycle() {
        // Mean inter-arrival 0.4 cycles: every node is due every cycle
        // and emits a few messages per poll.
        let every: Vec<u64> = (0..300).collect();
        let base = SimConfig::paper()
            .injection_rate(2.5)
            .lengths(LengthDistribution::Fixed(1))
            .seed(3);
        for config in [base.clone(), mmpp(base)] {
            let ((seen, _), _) = assert_schedule_matches_full_scan(9, &config, &every, |_| None);
            assert!(seen.len() > 9 * 300, "only {} messages", seen.len());
        }
    }

    #[test]
    fn schedule_is_empty_at_zero_rate() {
        let every: Vec<u64> = (0..500).collect();
        let base = SimConfig::paper().seed(5);
        for config in [base.clone(), mmpp(base)] {
            let ((seen, _), polled) =
                assert_schedule_matches_full_scan(12, &config, &every, |_| None);
            assert!(seen.is_empty());
            assert_eq!(polled, 0);
        }
    }

    #[test]
    fn schedule_matches_full_scan_on_one_node() {
        let every: Vec<u64> = (0..20_000).collect();
        let base = SimConfig::paper().injection_rate(0.2).seed(8);
        for config in [base.clone(), mmpp(base)] {
            let ((seen, _), _) = assert_schedule_matches_full_scan(1, &config, &every, |_| None);
            assert!(!seen.is_empty());
        }
    }

    #[test]
    fn direct_polls_leave_only_harmless_early_wakes() {
        // Every 13th cycle some node is polled directly, 40 cycles
        // ahead: its schedule entry is then early, and the wake it
        // causes must draw and emit nothing.
        let every: Vec<u64> = (0..6_000).collect();
        let base = SimConfig::paper().injection_rate(0.3).seed(29);
        for config in [base.clone(), mmpp(base)] {
            let ((seen, _), _) = assert_schedule_matches_full_scan(16, &config, &every, |c| {
                (c % 13 == 5).then_some(((c / 13) as usize % 16, c + 40))
            });
            assert!(seen.len() > 100, "only {} messages", seen.len());
        }
    }

    #[test]
    fn a_batch_after_skipped_cycles_comes_out_in_node_order() {
        // Polling resumes after gaps, so one batch holds entries with
        // many different due cycles; the heap pops those by due cycle,
        // the shared stream needs them by node.
        let mut cycles: Vec<u64> = Vec::new();
        let mut at = 0;
        for gap in [1u64, 1, 250, 1, 90, 3, 1_000, 1, 1, 400]
            .iter()
            .cycle()
            .take(60)
        {
            at += gap;
            cycles.push(at);
        }
        let base = SimConfig::paper().injection_rate(0.1).seed(41);
        for config in [base.clone(), mmpp(base)] {
            let ((seen, _), _) = assert_schedule_matches_full_scan(32, &config, &cycles, |_| None);
            let out_of_order = seen.windows(2).any(|w| w[0].0 == w[1].0 && w[0].1 > w[1].1);
            assert!(!out_of_order);
            assert!(seen.len() > 100, "only {} messages", seen.len());
        }
    }

    #[test]
    #[should_panic(expected = "burst_cycles")]
    fn mmpp_rejects_nonpositive_sojourns() {
        MmppSource::new(1, Some(10.0), LengthDistribution::Fixed(1), 0.0, 10.0, 1);
    }
}
