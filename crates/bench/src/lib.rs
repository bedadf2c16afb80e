//! The Decibel versioning benchmark (§4) and experiment harness (§5).
//!
//! "To evaluate Decibel, we developed a new versioning benchmark to measure
//! the performance of our versioned storage systems ... The benchmark
//! consists of four types of queries run on a synthetic versioned dataset,
//! generated using one of four branching strategies" (§4). This crate
//! provides:
//!
//! * [`spec::WorkloadSpec`] + [`strategy::Strategy`] — the four branching
//!   strategies (deep, flat, science, curation) with the paper's knobs
//!   (80/20 insert/update mix, commit interval, 2:1 science skew,
//!   interleaved vs clustered loading);
//! * [`loader`] — the deterministic single-threaded driver that loads a
//!   [`VersionedStore`](decibel_core::VersionedStore) and records the
//!   branch roles queries select from;
//! * [`queries`] — timed runners for the benchmark's Q1–Q4 (§4.3);
//! * [`experiments`] — one module per paper table/figure, each printing
//!   the paper-style rows (the `decibel-bench` binary lists them);
//! * [`report`] — fixed-width table formatting.

pub mod experiments;
pub mod loader;
pub mod queries;
pub mod report;
pub mod spec;
pub mod strategy;

pub use loader::{load, BranchRole, LoadReport};
pub use spec::WorkloadSpec;
pub use strategy::Strategy;
