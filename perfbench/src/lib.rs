//! The libspector benchmark: three workloads that each drive a whole
//! user-facing path of the program, measured from outside.
//!
//! * [`campaign`] — `libspector run --store` at the paper's §IV scale;
//! * [`live_ingest`] — recorded runs streamed through the TCP ingest
//!   service into the live engine;
//! * [`store_history`] — appends, point queries and full-history scans
//!   against a durable store of many campaigns.
//!
//! Every workload prints its end-to-end metrics with units, checks its
//! outputs with the [`gates`], and counts failed operations against
//! attempted ones. A traced run ([`trace`]) adds per-layer metrics.

pub mod alloc;
pub mod campaign;
pub mod common;
pub mod gates;
pub mod live_ingest;
pub mod output;
pub mod stats;
pub mod store_history;
pub mod trace;

pub use common::{Outcome, RunArgs, Scale};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["campaign", "live_ingest", "store_history"];

/// Runs workload `name`.
pub fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = match name {
        "campaign" => campaign::run(args),
        "live_ingest" => live_ingest::run(args),
        "store_history" => store_history::run(args),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }?;
    outcome.correct = outcome.gates.iter().all(|(_, result)| result.is_ok());
    Ok(outcome)
}
