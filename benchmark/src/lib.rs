//! The repo's benchmark harness.  See `README.md` for the metric and
//! workload definitions; `BENCHMARK.json` at the repo root is the contract
//! the CI driver runs it under.

pub mod calibrate;
pub mod compare;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod program;
pub mod provenance;
pub mod replay;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
