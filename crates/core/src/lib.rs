//! Bandwidth-constrained clustering — the primary contribution of
//! *Searching for Bandwidth-Constrained Clusters* (Song, Keleher, Sussman;
//! ICDCS 2011).
//!
//! Given `n` hosts, a pairwise bandwidth function and a query `(k, b)`, find
//! `k` hosts whose pairwise bandwidth is at least `b`. On general graphs
//! this is `k`-Clique; on a tree metric space (which Internet bandwidth
//! approximates) it is polynomial. This crate provides:
//!
//! - [`find_cluster`] / [`max_cluster_size`] — Algorithm 1, the `O(n³)`
//!   centralized search, plus the binary-search variant from Algorithm 3.
//!   Each hot kernel has a `_par` twin ([`find_cluster_par`],
//!   [`max_cluster_size_par`], [`min_diameter_cluster_par`]) on the
//!   `bcc-par` pool that returns bit-identical results with deterministic
//!   early exit;
//! - [`ClusterNode`] — per-host protocol state implementing Algorithm 2
//!   (close-node aggregation) and Algorithm 3 (cluster routing tables);
//! - [`process_query`] — Algorithm 4, decentralized query routing;
//! - [`BandwidthClasses`] — the quantized constraint classes CRTs are keyed
//!   by;
//! - [`find_cluster_euclidean`] — the paper's comparison model: exact
//!   `k`-diameter clustering in the Vivaldi plane via lune decomposition and
//!   bipartite maximum independent sets ([`bipartite`]).
//!
//! # Example: centralized search
//!
//! ```
//! use bcc_core::find_cluster;
//! use bcc_metric::{BandwidthMatrix, RationalTransform};
//!
//! // Hosts 0-2 share 100 Mbps; host 3 is behind a 10 Mbps link.
//! let caps = [100.0f64, 100.0, 100.0, 10.0];
//! let bw = BandwidthMatrix::from_fn(4, |i, j| caps[i].min(caps[j]));
//! let t = RationalTransform::default();
//! let d = t.distance_matrix(&bw);
//!
//! // Query: 3 hosts with pairwise bandwidth >= 50 Mbps.
//! let cluster = find_cluster(&d, 3, t.distance_constraint(50.0));
//! assert_eq!(cluster, Some(vec![0, 1, 2]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bipartite;
pub mod hub;
pub mod sword;

mod classes;
mod error;
mod euclidean;
mod find_cluster;
mod index;
mod node;
mod query;

pub use classes::BandwidthClasses;
pub use error::{ClusterError, QueryError};
pub use euclidean::{find_cluster_euclidean, max_cluster_size_euclidean};
pub use find_cluster::{
    diameter, exists_cluster_brute_force, find_cluster, find_cluster_among, find_cluster_budgeted,
    find_cluster_ordered, find_cluster_ordered_par, find_cluster_par, max_cluster_size,
    max_cluster_size_binary_search, max_cluster_size_budgeted, max_cluster_size_par,
    min_diameter_cluster, min_diameter_cluster_par, Budgeted, PairOrder, Query, WorkMeter,
    BUDGET_BLOCK, PAR_SERIAL_CUTOFF,
};
pub use index::{
    find_cluster_indexed, find_cluster_indexed_par, max_cluster_size_indexed,
    max_cluster_size_indexed_par, ClusterIndex, IndexError, IndexStats,
};
pub use node::{ClusterNode, ProtocolConfig, RoutePolicy};
pub use query::{
    process_query, process_query_resilient, process_query_resilient_budgeted, Degradation,
    QueryOutcome, QueryRequest, RetryPolicy,
};
