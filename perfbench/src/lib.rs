//! The turnroute benchmark suite: five workloads, seven end-to-end
//! metrics, and a number per layer.
//!
//! Everything is measured **from outside** the program under test: by
//! timing calls into each crate's public functions (reached through the
//! `turnroute` facade) and with a bench-side `SimObserver` that only
//! counts. Nothing here is linked into the product, and nothing in the
//! product knows it is being measured.
//!
//! * [`registry`] — workload and metric names, units, bounds;
//! * [`gen`] — inputs generated from `--seed`;
//! * [`workloads`] — the five workloads and their correctness gates;
//! * [`layers`] — per-layer micro-probes and the trace writer;
//! * [`spans`] — bench-side spans, self time, Chrome trace output;
//! * [`stats`], [`host`] — order statistics; `/proc` and calibration;
//! * [`output`] — the result line, result files and `--compare`.
//!
//! `README.md` beside this crate is the glossary and the prediction
//! table; `BENCHMARK.json` at the repo root is the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod host;
pub mod layers;
pub mod output;
pub mod registry;
pub mod spans;
pub mod stats;
pub mod workloads;
