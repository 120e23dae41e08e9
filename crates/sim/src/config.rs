//! Simulation configuration.

use std::sync::Arc;

use crate::lut::{RouteTableMode, DEFAULT_ROUTE_TABLE_BUDGET};
use turnroute_fault::FaultSchedule;

/// Channel bandwidth used throughout the paper's Section 6: 20 flits/µs,
/// i.e. one flit crosses one channel per 0.05 µs cycle.
pub const FLITS_PER_USEC: f64 = 20.0;

/// Converts simulator cycles to microseconds at the paper's channel
/// bandwidth.
pub fn cycles_to_usec(cycles: u64) -> f64 {
    cycles as f64 / FLITS_PER_USEC
}

/// How message lengths are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDistribution {
    /// Every message has the same length.
    Fixed(u32),
    /// Each message is `short` or `long` with equal probability — the
    /// paper uses 10 or 200 flits.
    Bimodal {
        /// The short length (paper: 10 flits).
        short: u32,
        /// The long length (paper: 200 flits).
        long: u32,
    },
}

impl LengthDistribution {
    /// The paper's Section 6 distribution: 10 or 200 flits, equally
    /// likely.
    pub fn paper() -> Self {
        LengthDistribution::Bimodal {
            short: 10,
            long: 200,
        }
    }

    /// The mean length in flits.
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDistribution::Fixed(l) => l as f64,
            LengthDistribution::Bimodal { short, long } => (short + long) as f64 / 2.0,
        }
    }
}

/// How message arrivals are generated at each node.
///
/// The model is orthogonal to the offered load: every model is
/// normalized so the *long-run mean* injection rate equals
/// [`SimConfig::injection_rate_flits`], which keeps sweep load axes and
/// saturation comparisons meaningful across models.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficModel {
    /// Stationary Poisson arrivals — the paper's Section 6 model.
    /// Inter-arrival times are exponential with mean
    /// `mean_length / injection_rate_flits` cycles.
    #[default]
    Poisson,
    /// A 2-state Markov-modulated Poisson process (bursty on-off
    /// traffic). Each node alternates between an ON state, where
    /// arrivals are Poisson at a rate boosted by `1 / duty` (duty =
    /// `burst_cycles / (burst_cycles + idle_cycles)`), and an OFF state
    /// with no arrivals. Sojourn times are exponential with the given
    /// means, so the long-run mean rate matches the configured load.
    ///
    /// Draws come from per-node seeded streams (prefix-nested from the
    /// run seed, the same discipline as the fault schedule), so the
    /// arrival sequence is invariant under threading and sharding.
    Mmpp {
        /// Mean ON-state sojourn, in cycles (positive, finite).
        burst_cycles: f64,
        /// Mean OFF-state sojourn, in cycles (positive, finite).
        idle_cycles: f64,
    },
}

impl TrafficModel {
    /// The canonical spec string: `poisson` or `mmpp:<burst>,<idle>`.
    /// Round-trips through the CLI / wire-format parser.
    pub fn as_spec(&self) -> String {
        match *self {
            TrafficModel::Poisson => "poisson".to_owned(),
            TrafficModel::Mmpp {
                burst_cycles,
                idle_cycles,
            } => format!("mmpp:{burst_cycles},{idle_cycles}"),
        }
    }

    /// The fraction of time a node spends in the ON state (`1.0` for
    /// Poisson).
    pub fn duty(&self) -> f64 {
        match *self {
            TrafficModel::Poisson => 1.0,
            TrafficModel::Mmpp {
                burst_cycles,
                idle_cycles,
            } => burst_cycles / (burst_cycles + idle_cycles),
        }
    }

    /// Checks the model's parameters, returning a human-readable
    /// complaint for non-positive or non-finite sojourn means.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            TrafficModel::Poisson => Ok(()),
            TrafficModel::Mmpp {
                burst_cycles,
                idle_cycles,
            } => {
                for (name, v) in [("burst_cycles", burst_cycles), ("idle_cycles", idle_cycles)] {
                    if !v.is_finite() || v <= 0.0 {
                        return Err(format!(
                            "mmpp {name} must be a positive finite number of cycles, got {v}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Which header wins when several compete for one output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputSelection {
    /// Local first-come-first-served: the header that has waited at the
    /// router longest wins. Fair, so indefinite postponement is
    /// impossible — the paper's policy.
    #[default]
    FirstComeFirstServed,
    /// The header that arrived over the lowest-indexed direction wins
    /// (injection beats every network input). Unfair; can postpone
    /// indefinitely. Included for the selection-policy ablation.
    FixedPriority,
    /// A uniformly random contender wins each cycle.
    Random,
}

/// Which output channel a header takes when several are permitted and
/// free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputSelection {
    /// Prefer the lowest dimension (minus before plus) — the paper's
    /// "xy" policy.
    #[default]
    LowestDimension,
    /// Prefer the highest dimension.
    HighestDimension,
    /// Prefer continuing in the arrival direction, then lowest
    /// dimension.
    StraightFirst,
    /// Pick uniformly at random among the free permitted channels.
    Random,
}

/// Full configuration of one simulation run.
///
/// The defaults reproduce the paper's Section 6 setup: 20 flits/µs
/// channels, single-flit buffers, bimodal 10/200-flit messages,
/// local-FCFS input selection and "xy" output selection.
///
/// # Example
///
/// ```
/// use turnroute_sim::SimConfig;
///
/// let config = SimConfig::paper()
///     .injection_rate(0.1)
///     .seed(7)
///     .warmup_cycles(1_000)
///     .measure_cycles(10_000);
/// assert_eq!(config.injection_rate_flits, 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Offered load per node, in flits per cycle (1 flit/cycle = the
    /// full 20 flits/µs channel bandwidth). Messages are generated with
    /// exponentially distributed inter-arrival times whose mean is
    /// `mean_length / injection_rate_flits` cycles.
    pub injection_rate_flits: f64,
    /// The arrival process generating messages at each node. Every
    /// model is normalized to the same long-run mean rate, so this axis
    /// changes *when* messages arrive, never how many on average.
    pub traffic: TrafficModel,
    /// Message length distribution.
    pub lengths: LengthDistribution,
    /// Input (arbitration) policy.
    pub input_selection: InputSelection,
    /// Output (channel choice) policy.
    pub output_selection: OutputSelection,
    /// RNG seed — runs are fully deterministic given the seed.
    pub seed: u64,
    /// Cycles to run before statistics collection starts.
    pub warmup_cycles: u64,
    /// Cycles of the measurement window.
    pub measure_cycles: u64,
    /// Cycles of no in-flight progress after which deadlock is declared.
    pub deadlock_threshold: u64,
    /// Whether routing decisions come from a memoised
    /// [`RouteTable`](crate::RouteTable) instead of live `route()`
    /// calls. Purely a speed knob: reports and RNG streams are
    /// bit-identical either way.
    pub route_table: RouteTableMode,
    /// Memory cap, in bytes, above which [`RouteTableMode::Auto`] falls
    /// back to direct routing.
    pub route_table_budget: usize,
    /// Compiled fault schedule to replay during the run, `None` for a
    /// healthy network. The engine applies each event at the start of
    /// its cycle and prunes failed channels out of the offered
    /// direction set. A schedule participates in experiment cache
    /// identity through its content fingerprint.
    pub faults: Option<Arc<FaultSchedule>>,
    /// How many topology shards arbitrate in parallel inside one run:
    /// `1` is the serial engine, `0` means "auto" (one shard per
    /// available core). Purely a speed knob — reports are bit-identical
    /// at every shard count (see `DESIGN.md` §11), so cache keys and
    /// spec fingerprints canonicalize it away. Configurations the
    /// sharded arbitrator cannot split deterministically (RNG-consuming
    /// selection policies, attached observers) fall back to serial with
    /// a recorded reason.
    pub shards: usize,
}

impl SimConfig {
    /// The paper's Section 6 configuration at zero load; set
    /// [`injection_rate`](Self::injection_rate) before running.
    pub fn paper() -> Self {
        SimConfig {
            injection_rate_flits: 0.0,
            traffic: TrafficModel::Poisson,
            lengths: LengthDistribution::paper(),
            input_selection: InputSelection::FirstComeFirstServed,
            output_selection: OutputSelection::LowestDimension,
            seed: 0x7453_1DE5,
            warmup_cycles: 20_000,
            measure_cycles: 60_000,
            deadlock_threshold: 50_000,
            route_table: RouteTableMode::Auto,
            route_table_budget: DEFAULT_ROUTE_TABLE_BUDGET,
            faults: None,
            shards: 1,
        }
    }

    /// Sets the offered load per node in flits per cycle.
    pub fn injection_rate(mut self, flits_per_cycle: f64) -> Self {
        assert!(flits_per_cycle >= 0.0, "negative injection rate");
        self.injection_rate_flits = flits_per_cycle;
        self
    }

    /// Sets the arrival process (see [`TrafficModel`]).
    pub fn traffic(mut self, model: TrafficModel) -> Self {
        self.traffic = model;
        self
    }

    /// Sets the message length distribution.
    pub fn lengths(mut self, lengths: LengthDistribution) -> Self {
        self.lengths = lengths;
        self
    }

    /// Sets the input selection policy.
    pub fn input_selection(mut self, policy: InputSelection) -> Self {
        self.input_selection = policy;
        self
    }

    /// Sets the output selection policy.
    pub fn output_selection(mut self, policy: OutputSelection) -> Self {
        self.output_selection = policy;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the warmup length in cycles.
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.warmup_cycles = cycles;
        self
    }

    /// Sets the measurement window in cycles.
    pub fn measure_cycles(mut self, cycles: u64) -> Self {
        self.measure_cycles = cycles;
        self
    }

    /// Sets the deadlock watchdog threshold in cycles.
    pub fn deadlock_threshold(mut self, cycles: u64) -> Self {
        self.deadlock_threshold = cycles;
        self
    }

    /// Sets the route-table policy.
    pub fn route_table(mut self, mode: RouteTableMode) -> Self {
        self.route_table = mode;
        self
    }

    /// Sets the [`RouteTableMode::Auto`] memory cap in bytes.
    pub fn route_table_budget(mut self, bytes: usize) -> Self {
        self.route_table_budget = bytes;
        self
    }

    /// Attaches a compiled fault schedule; an empty schedule is
    /// equivalent to `None`.
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = (!schedule.is_empty()).then(|| Arc::new(schedule));
        self
    }

    /// Attaches an already-shared fault schedule (or clears it).
    pub fn fault_schedule(mut self, schedule: Option<Arc<FaultSchedule>>) -> Self {
        self.faults = schedule.filter(|s| !s.is_empty());
        self
    }

    /// Sets the intra-run shard count: `1` = serial, `0` = auto (one
    /// shard per available core). Reports are bit-identical at every
    /// value.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Mean message inter-arrival time per node, in cycles; `None` at
    /// zero load.
    pub fn mean_interarrival_cycles(&self) -> Option<f64> {
        (self.injection_rate_flits > 0.0).then(|| self.lengths.mean() / self.injection_rate_flits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper();
        assert_eq!(c.lengths, LengthDistribution::paper());
        assert_eq!(c.lengths.mean(), 105.0);
        assert_eq!(c.input_selection, InputSelection::FirstComeFirstServed);
        assert_eq!(c.output_selection, OutputSelection::LowestDimension);
    }

    #[test]
    fn interarrival_matches_load() {
        let c = SimConfig::paper().injection_rate(0.5);
        // 105-flit mean messages at 0.5 flits/cycle: one message every
        // 210 cycles.
        assert_eq!(c.mean_interarrival_cycles(), Some(210.0));
        assert_eq!(SimConfig::paper().mean_interarrival_cycles(), None);
    }

    #[test]
    fn traffic_model_specs_and_duty() {
        assert_eq!(TrafficModel::Poisson.as_spec(), "poisson");
        assert_eq!(TrafficModel::Poisson.duty(), 1.0);
        let mmpp = TrafficModel::Mmpp {
            burst_cycles: 200.0,
            idle_cycles: 600.0,
        };
        assert_eq!(mmpp.as_spec(), "mmpp:200,600");
        assert_eq!(mmpp.duty(), 0.25);
        assert!(mmpp.check().is_ok());
        for bad in [
            (0.0, 100.0),
            (100.0, 0.0),
            (-1.0, 100.0),
            (f64::NAN, 100.0),
            (100.0, f64::INFINITY),
        ] {
            let m = TrafficModel::Mmpp {
                burst_cycles: bad.0,
                idle_cycles: bad.1,
            };
            assert!(m.check().is_err(), "{bad:?}");
        }
        assert_eq!(SimConfig::paper().traffic, TrafficModel::Poisson);
        assert_eq!(SimConfig::paper().traffic(mmpp).traffic, mmpp);
    }

    #[test]
    fn cycles_convert_to_usec() {
        assert_eq!(cycles_to_usec(20), 1.0);
        assert_eq!(cycles_to_usec(0), 0.0);
    }

    #[test]
    fn builder_chains() {
        let c = SimConfig::paper()
            .injection_rate(0.25)
            .seed(42)
            .warmup_cycles(5)
            .measure_cycles(10)
            .deadlock_threshold(99)
            .output_selection(OutputSelection::Random)
            .input_selection(InputSelection::Random)
            .lengths(LengthDistribution::Fixed(16));
        assert_eq!(c.injection_rate_flits, 0.25);
        assert_eq!(c.seed, 42);
        assert_eq!(c.warmup_cycles, 5);
        assert_eq!(c.measure_cycles, 10);
        assert_eq!(c.deadlock_threshold, 99);
        assert_eq!(c.lengths.mean(), 16.0);
    }
}
