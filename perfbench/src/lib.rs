//! End-to-end and per-layer benchmark of the CME engine, with the LRU
//! trace simulator as the floor. See `README.md` in this directory.

pub mod cold;
pub mod harness;
pub mod layout;
pub mod report;
pub mod rng;
pub mod serve;
pub mod trace;

use harness::{drive, Report, RunConfig};

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &[
    "cold-uniform",
    "cold-nonuniform",
    "layout-search",
    "serve-replay",
];

/// Runs one named workload.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Report, String> {
    match workload {
        "cold-uniform" => drive::<cold::ColdUniform>(cfg),
        "cold-nonuniform" => drive::<cold::ColdNonuniform>(cfg),
        "layout-search" => drive::<layout::LayoutSearch>(cfg),
        "serve-replay" => drive::<serve::ServeReplay>(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
