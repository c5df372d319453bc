//! Lifecycle benchmark of the bandwidth-clusters workspace.
//!
//! Three seeded workloads drive the public API — `DynamicSystem`,
//! `ClusterService`, `Coordinator`, `SnapshotStore` and `SystemSnapshot` —
//! through set-up, queries, churn, checkpoints and warm restarts, check
//! every answer, and report end-to-end metrics (timed runs, obs off) or
//! per-layer attribution (traced runs). See `README.md` beside this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod churn;
pub mod client;
pub mod gen;
pub mod report;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod trace;

/// Workload names, in report order.
pub const WORKLOADS: &[&str] = &["serve-umd317", "churn-tier512", "shard-block512"];

/// Runs workload `name`.
///
/// # Panics
///
/// On an unknown name (the command line validates it first).
pub fn run(name: &str, opts: &report::Opts) -> report::Run {
    bcc_par::set_threads(opts.threads);
    match name {
        "serve-umd317" => serve::run(opts),
        "churn-tier512" => churn::run(opts),
        "shard-block512" => shard::run(opts),
        other => panic!("unknown workload {other}"),
    }
}
