//! A flit-level wormhole-routed network simulator.
//!
//! Reproduces the experimental setup of Glass & Ni, *"The Turn Model for
//! Adaptive Routing"* (ISCA 1992), Section 6:
//!
//! * channels carry 20 flits/µs (one flit per 0.05 µs cycle);
//! * every router input channel buffers a single flit, so blocked worms
//!   stall in place;
//! * each router has one injection and one ejection channel to its local
//!   processor; blocked messages queue at the source and destinations
//!   consume immediately;
//! * messages arrive per node with exponential inter-arrival times and
//!   are one packet of 10 or 200 flits with equal probability;
//! * arbitration is local first-come-first-served, channel choice
//!   prefers the lowest dimension ("xy") — both swappable for the
//!   selection-policy ablation.
//!
//! The engine models each packet as a *worm*: the contiguous chain of
//! channels its flits occupy (one flit per channel, matching the paper's
//! single-flit buffers). This is behaviourally identical to per-flit
//! simulation but considerably faster.
//!
//! # Example
//!
//! ```
//! use turnroute_core::NegativeFirst;
//! use turnroute_sim::{patterns::Transpose, SimConfig, Simulation};
//! use turnroute_topology::Mesh;
//!
//! let mesh = Mesh::new_2d(8, 8);
//! let algo = NegativeFirst::minimal();
//! let config = SimConfig::paper()
//!     .injection_rate(0.05)
//!     .warmup_cycles(1_000)
//!     .measure_cycles(4_000);
//! let report = Simulation::new(&mesh, &algo, &Transpose, config).run();
//! assert!(report.sustainable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod deadlock;
mod engine;
pub mod exec;
pub mod hist;
pub mod lut;
mod metrics;
pub mod obs;
pub mod oplog;
mod packet;
pub mod patterns;
pub mod report;
mod sweep;
mod traffic;

pub use config::{
    cycles_to_usec, InputSelection, LengthDistribution, OutputSelection, SimConfig, TrafficModel,
    FLITS_PER_USEC,
};
pub use deadlock::{DeadlockReport, WaitEdge};
pub use engine::{RunOutcome, SimReport, Simulation};
pub use exec::{
    CellCache, CellOutput, CellTiming, ExecProgress, ExecStats, ExecTelemetry, Executor, SeriesJob,
};
pub use hist::LatencyHistogram;
pub use lut::{RouteTable, RouteTableMode, DEFAULT_ROUTE_TABLE_BUDGET};
pub use metrics::MetricsCollector;
pub use obs::{
    ChannelActivityObserver, DeliveryLog, FaultObserver, FlitTraceObserver, NoopObserver,
    SimObserver, TurnUsageObserver,
};
pub use oplog::{Level, Logger};
pub use packet::{Packet, PacketId, PacketState};
pub use sweep::{sweep, SweepPoint, SweepSeries};
pub use traffic::{MmppSource, PoissonSource, TrafficSource};
