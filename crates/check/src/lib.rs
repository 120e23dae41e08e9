//! Model-based conformance testing for the turnroute engine.
//!
//! The optimized wormhole engine in `turnroute-sim` has three fast
//! paths that must agree bit-for-bit: the scratch-buffer hot path, the
//! memoised [`RouteTable`](turnroute_sim::RouteTable), and the
//! fault-pruned relation. This crate pins that agreement with a
//! differential net:
//!
//! * [`oracle`] — a deliberately naive reference engine (~300 lines,
//!   dyn-dispatched routing, fresh allocations everywhere) that is the
//!   executable specification of the simulation semantics;
//! * [`case`] — a text-serializable description of one scenario
//!   (topology × algorithm × pattern × policies × faults);
//! * [`gen`] — bounded random case generation on the vendored RNG
//!   (these would be proptest strategies; the offline build rolls its
//!   own);
//! * [`invariants`] — the per-case battery: oracle-vs-engine bit
//!   identity across route-table modes, prohibited-turn absence, flit
//!   conservation, fault-free deadlock freedom, zero-load minimality
//!   and executor thread invariance;
//! * [`shrink`] / [`runner`] — greedy counterexample shrinking and the
//!   regression-file replay that keeps shrunk cases alive forever.
//!
//! The `conformance` binary soaks the suite with a case budget and a
//! JSON report; `scripts/check.sh` runs it with a fixed seed on every
//! pre-merge check.

#![warn(missing_docs)]

pub mod case;
pub mod gen;
pub mod invariants;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use case::{AlgoSpec, BuiltCase, ConformanceCase, LengthSpec, PatternSpec, TopoSpec};
pub use invariants::check_case;
pub use oracle::{Oracle, OracleReport};
pub use runner::{default_regression_path, run, run_case, Failure, RunConfig, RunSummary};
