//! Dynamic membership: hosts joining and leaving a live system.
//!
//! The paper's fifth requirement (*dynamic clustering*) asks that cluster
//! membership adapt as network conditions change. [`DynamicSystem`] layers
//! that on top of the static stack: the prediction framework restructures
//! incrementally on every join/leave (re-embedding orphaned anchor
//! subtrees), and the gossip overlay repairs itself *incrementally* — only
//! the aggregation state along the anchor-tree paths the op actually
//! touched is rebuilt, and gossip re-converges over that disturbed region
//! alone ([`SimNetwork::reconverge_focused`]) instead of restarting the
//! whole overlay from blank. The fixpoint reached is bit-identical to a
//! cold restart of the same membership (the chaos liveness oracle), because
//! the dynamic overlay's predicted metric is the *label* distance
//! ([`fw_label_dist`]): a host's label is immutable while it stays
//! embedded, so churn of other hosts can never move an untouched pair's
//! distance — the same property that makes the cluster index's incremental
//! maintenance sound.
//!
//! Failures reuse the same machinery: [`DynamicSystem::crash`] is an
//! *involuntary* departure — the host's anchor descendants are re-adopted
//! exactly as for a graceful leave, but the host is remembered as crashed
//! so queries submitted there fail with a typed error and
//! [`DynamicSystem::recover`] can bring it back (a cold restart through the
//! ordinary join path).

use std::collections::BTreeSet;

use bcc_core::{
    Budgeted, ClusterError, ClusterIndex, IndexError, QueryOutcome, RetryPolicy, WorkMeter,
};
use bcc_embed::{EmbedError, PredictionFramework};
use bcc_metric::{BandwidthMatrix, DistanceMatrix, FiniteMetric, NodeId};

use crate::config::ConfigError;
use crate::engine::{NodeGossipState, OverlayDelta, SimNetwork};
use crate::system::SystemConfig;

/// Everything [`DynamicSystem::from_restored_parts`] needs to reassemble
/// a system from a checkpoint: the caller-supplied ground truth
/// (`bandwidth`, `config`) plus the checkpointed runtime state.
pub(crate) struct RestoredParts {
    pub bandwidth: BandwidthMatrix,
    pub config: SystemConfig,
    pub framework: PredictionFramework,
    pub active: BTreeSet<NodeId>,
    pub crashed: BTreeSet<NodeId>,
    pub index: ClusterIndex,
    pub gossip: Vec<NodeGossipState>,
    pub work_cost: u64,
    pub last_convergence_rounds: Option<usize>,
}

/// An error from a membership operation on a [`DynamicSystem`].
///
/// Churn is a two-step act — restructure the embedding, then re-converge
/// the gossip overlay — and either step can fail: the embedding with a
/// typed [`EmbedError`], the overlay by exhausting the configured round
/// cap. Both surface here instead of panicking mid-operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnError {
    /// The prediction-framework restructuring was rejected (duplicate
    /// join, unknown host, host outside the universe, ...).
    Embed(EmbedError),
    /// The overlay failed to re-converge within
    /// [`SystemConfig::max_rounds`] after the membership change.
    Convergence {
        /// The round cap that was exhausted.
        max_rounds: usize,
    },
    /// The cluster index rejected the membership delta
    /// ([`bcc_core::IndexError`]). Unreachable through the public churn
    /// methods — they validate membership before building the delta — but
    /// propagated as a typed error rather than a panic so the library
    /// boundary stays honest.
    Index(IndexError),
}

impl From<EmbedError> for ChurnError {
    fn from(e: EmbedError) -> Self {
        ChurnError::Embed(e)
    }
}

impl From<IndexError> for ChurnError {
    fn from(e: IndexError) -> Self {
        ChurnError::Index(e)
    }
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Embed(e) => write!(f, "membership change rejected: {e}"),
            ChurnError::Convergence { max_rounds } => {
                write!(
                    f,
                    "overlay did not re-converge within {max_rounds} rounds after churn"
                )
            }
            ChurnError::Index(e) => write!(f, "cluster index rejected the churn delta: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChurnError::Embed(e) => Some(e),
            ChurnError::Convergence { .. } => None,
            ChurnError::Index(e) => Some(e),
        }
    }
}

/// Lifetime overlay-maintenance counters of one [`DynamicSystem`] — the
/// gossip-side mirror of [`bcc_core::IndexStats`]. Instance-local, so a
/// chaos oracle can assert *this* system never took the full-rebuild path
/// (`full_reconvergences` stays 0 across churn) without cross-talk.
///
/// Not persisted: a snapshot restore starts the counters at zero, exactly
/// like the index's `full_builds` discipline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlayStats {
    /// Cold from-blank overlay convergences. Only
    /// [`DynamicSystem::bootstrap`] takes this path; every join, leave,
    /// crash and recovery on a live system repairs incrementally and
    /// reports 0 here forever — the "no full rebuild on the hot path"
    /// guarantee the chaos `overlay` oracle pins.
    pub full_reconvergences: u64,
    /// Incremental churn repairs ([focused reconvergence]
    /// (`SimNetwork::reconverge_focused`)).
    pub incremental_ops: u64,
    /// Focused gossip rounds of the most recent churn op.
    pub last_rounds: u64,
    /// Gossip messages the most recent churn op sent.
    pub last_messages: u64,
    /// Predicted-matrix entries the most recent churn op rewrote.
    pub last_predicted_entries: u64,
    /// Seed hosts of the most recent churn op's disturbed region.
    pub last_region: u64,
    /// Gossip messages across all churn ops.
    pub messages: u64,
    /// Predicted-matrix entries rewritten across all churn ops.
    pub predicted_entries: u64,
}

/// Measured cost of one *full rebuild* of the overlay — the cold path
/// incremental maintenance replaced, in the same units [`OverlayStats`]
/// reports for the incremental path. Benchmarks compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildCost {
    /// Gossip rounds a blank overlay needs to converge.
    pub rounds: u64,
    /// Gossip messages sent on the way there.
    pub messages: u64,
    /// Predicted-matrix entries a cold rebuild computes (all active
    /// pairs).
    pub predicted_entries: u64,
}

/// Canonical predicted distance for the cluster index: the *label*
/// distance between two universe ids, always evaluated in `(lo, hi)`
/// order so both index construction paths (incremental, cold rebuild)
/// see bit-identical values regardless of argument order.
///
/// Label distances depend only on the two endpoints' labels, and churn
/// of *other* hosts never touches an untouched host's label — which is
/// exactly what makes incremental index maintenance sound: a membership
/// delta can only change distances involving the delta's own hosts.
pub fn fw_label_dist(fw: &PredictionFramework, a: u32, b: u32) -> f64 {
    if a == b {
        return 0.0;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    fw.label_distance(NodeId::new(lo as usize), NodeId::new(hi as usize))
        .unwrap_or(0.0)
}

/// The dynamic overlay's predicted metric: a universe-indexed matrix
/// whose *active × active* block holds label distances and whose inactive
/// rows stay 0.0 (never read while their host is out). Filling only the
/// live pairs keeps a cold build `O(|active|²)` even when the membership
/// is a sliver of the universe, and the label metric (unlike a tree BFS,
/// whose fold order moves with every splice) makes each entry a pure
/// function of its two endpoints' immutable labels — the property that
/// lets incremental maintenance rewrite only the touched rows and still
/// land bit-identical to this cold fill.
fn label_universe_matrix(
    fw: &PredictionFramework,
    universe: usize,
    active: &BTreeSet<NodeId>,
) -> DistanceMatrix {
    let mut m = DistanceMatrix::new(universe);
    let ids: Vec<u32> = active.iter().map(|h| h.index() as u32).collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            m.set(a as usize, b as usize, fw_label_dist(fw, a, b));
        }
    }
    m
}

/// The predicted label-distance metric over the index's active members,
/// renumbered to index slots — the space the system-wide `_indexed`
/// probes run on.
struct ActiveLabelMetric<'a> {
    fw: &'a PredictionFramework,
    ids: &'a [u32],
}

impl FiniteMetric for ActiveLabelMetric<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        fw_label_dist(self.fw, self.ids[i], self.ids[j])
    }
}

/// A clustering system whose membership changes over time.
///
/// The full host population and their pairwise bandwidth are fixed up
/// front (the measurement "universe"); hosts then join and leave freely.
#[derive(Debug, Clone)]
pub struct DynamicSystem {
    bandwidth: BandwidthMatrix,
    real_distance: DistanceMatrix,
    config: SystemConfig,
    framework: PredictionFramework,
    network: Option<SimNetwork>,
    active: BTreeSet<NodeId>,
    crashed: BTreeSet<NodeId>,
    last_convergence_rounds: Option<usize>,
    /// Work units charged per pair examined by budgeted queries (>= 1).
    /// Chaos nemeses inflate this to model a slow region deterministically
    /// — logical cost, never wall-clock.
    work_cost: u64,
    /// Sorted distance labels over the active membership, maintained
    /// incrementally on every churn op — never rebuilt from scratch on the
    /// hot path (asserted by the chaos oracles via
    /// [`bcc_core::IndexStats::full_builds`]).
    index: ClusterIndex,
    /// Overlay-maintenance counters — the gossip-side `full_builds == 0`
    /// discipline (asserted by the chaos `overlay` oracle).
    overlay_stats: OverlayStats,
}

impl DynamicSystem {
    /// Creates an empty system over a measurement universe of
    /// `bandwidth.len()` potential hosts.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration — use [`DynamicSystem::try_new`]
    /// for a typed error instead.
    pub fn new(bandwidth: BandwidthMatrix, config: SystemConfig) -> Self {
        Self::try_new(bandwidth, config).expect("valid SystemConfig")
    }

    /// [`DynamicSystem::new`] with up-front configuration validation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when a field is invalid (see
    /// [`SystemConfig::validate`]).
    pub fn try_new(bandwidth: BandwidthMatrix, config: SystemConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let real_distance = config.transform.distance_matrix(&bandwidth);
        let framework = PredictionFramework::new(config.framework);
        let index = ClusterIndex::empty(bandwidth.len());
        Ok(DynamicSystem {
            bandwidth,
            real_distance,
            config,
            framework,
            network: None,
            active: BTreeSet::new(),
            crashed: BTreeSet::new(),
            last_convergence_rounds: None,
            work_cost: 1,
            index,
            overlay_stats: OverlayStats::default(),
        })
    }

    /// Builds a fully-joined system in one shot: every host in `hosts`
    /// joins the prediction framework, the cluster index is built once,
    /// and the overlay converges once at the end.
    ///
    /// This is the cheapest possible *cold restart* of a membership — no
    /// per-join overlay re-convergence, no incremental index splicing —
    /// and therefore the honest baseline the recovery benchmark compares
    /// warm (snapshot-restore) restarts against.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] if a host is outside the universe or listed
    /// twice; [`ChurnError::Convergence`] if the overlay fails to
    /// converge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, like [`DynamicSystem::new`].
    pub fn bootstrap(
        bandwidth: BandwidthMatrix,
        config: SystemConfig,
        hosts: &[NodeId],
    ) -> Result<Self, ChurnError> {
        let mut sys = Self::new(bandwidth, config);
        for &h in hosts {
            if h.index() >= sys.bandwidth.len() {
                return Err(EmbedError::UnknownHost(h).into());
            }
            let real = &sys.real_distance;
            sys.framework
                .join(h, |a, b| real.get(a.index(), b.index()))?;
            sys.active.insert(h);
        }
        let ids: Vec<u32> = sys.active.iter().map(|h| h.index() as u32).collect();
        let fw = &sys.framework;
        sys.index = ClusterIndex::build(sys.bandwidth.len(), &ids, |a, b| fw_label_dist(fw, a, b));
        sys.rebuild()?;
        Ok(sys)
    }

    /// Reassembles a system from checkpointed parts without re-running
    /// any of the expensive construction paths: the framework arrives
    /// bit-identical (restructure revision, RNG state and all), the index
    /// is installed as-is (no full build is counted), and the overlay is
    /// recreated by importing the checkpointed gossip state instead of
    /// re-converging. The persist layer is the only caller; it guards the
    /// inputs with per-section checksums before trusting them here.
    pub(crate) fn from_restored_parts(parts: RestoredParts) -> Result<Self, String> {
        let RestoredParts {
            bandwidth,
            config,
            framework,
            active,
            crashed,
            index,
            gossip,
            work_cost,
            last_convergence_rounds,
        } = parts;
        config.validate().map_err(|e| e.to_string())?;
        if index.universe() != bandwidth.len() {
            return Err(format!(
                "index universe {} does not match bandwidth universe {}",
                index.universe(),
                bandwidth.len()
            ));
        }
        let ids: Vec<u32> = active.iter().map(|h| h.index() as u32).collect();
        if let Some(&id) = ids.last() {
            if id as usize >= bandwidth.len() {
                return Err(format!("active host {id} outside the universe"));
            }
        }
        if index.ids() != ids.as_slice() {
            return Err("index membership does not match the active set".into());
        }
        let mut fw_hosts = framework.tree().hosts();
        fw_hosts.sort_unstable();
        if fw_hosts != active.iter().copied().collect::<Vec<_>>() {
            return Err("framework membership does not match the active set".into());
        }
        if let Some(&h) = crashed.iter().next_back() {
            if h.index() >= bandwidth.len() {
                return Err(format!("crashed host {h} outside the universe"));
            }
        }
        if !active.is_disjoint(&crashed) {
            return Err("a host is both active and crashed".into());
        }
        let real_distance = config.transform.distance_matrix(&bandwidth);
        let network = if active.is_empty() {
            if !gossip.is_empty() {
                return Err("gossip state present for an empty membership".into());
            }
            None
        } else {
            let predicted = label_universe_matrix(&framework, bandwidth.len(), &active);
            let mut net = SimNetwork::new(framework.anchor(), predicted, config.protocol.clone());
            net.import_gossip(gossip)?;
            Some(net)
        };
        Ok(DynamicSystem {
            bandwidth,
            real_distance,
            config,
            framework,
            network,
            active,
            crashed,
            last_convergence_rounds,
            work_cost: work_cost.max(1),
            index,
            overlay_stats: OverlayStats::default(),
        })
    }

    /// The work-cost factor budgeted queries are charged per pair (>= 1).
    pub fn work_cost(&self) -> u64 {
        self.work_cost
    }

    /// Sets the work-cost factor (clamped to >= 1). A slow-lane nemesis
    /// raises it during its window and restores it afterwards; unbudgeted
    /// queries are unaffected.
    pub fn set_work_cost(&mut self, cost: u64) {
        self.work_cost = cost.max(1);
    }

    /// Hosts currently participating.
    pub fn active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.active.iter().copied()
    }

    /// Whether `host` is currently active (joined and not crashed).
    pub fn is_active(&self, host: NodeId) -> bool {
        self.active.contains(&host)
    }

    /// Number of hosts in the measurement universe (joined or not) — the
    /// valid id range for joins and query submit nodes.
    pub fn universe_size(&self) -> usize {
        self.bandwidth.len()
    }

    /// Number of participating hosts.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Returns `true` when nobody has joined.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Joins a host from the universe, measuring against the ground truth.
    ///
    /// # Errors
    ///
    /// - [`ChurnError::Embed`] wrapping [`EmbedError::HostExists`] if the
    ///   host is already active, or [`EmbedError::UnknownHost`] if the id
    ///   is outside the universe.
    /// - [`ChurnError::Convergence`] if the overlay fails to re-converge.
    pub fn join(&mut self, host: NodeId) -> Result<(), ChurnError> {
        if host.index() >= self.bandwidth.len() {
            return Err(EmbedError::UnknownHost(host).into());
        }
        let real = &self.real_distance;
        self.framework
            .join(host, |a, b| real.get(a.index(), b.index()))?;
        self.active.insert(host);
        // Joining is also how a crashed host comes back.
        self.crashed.remove(&host);
        // One new labeled host: splice its distances into every index row.
        let fw = &self.framework;
        self.index
            .apply_churn(&[], &[host.index() as u32], |a, b| fw_label_dist(fw, a, b))?;
        self.reconverge_after_churn(&[host], None)
    }

    /// Removes a host; its anchor descendants are re-embedded
    /// automatically.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] wrapping [`EmbedError::UnknownHost`] if the
    /// host is not active; [`ChurnError::Convergence`] if the overlay fails
    /// to re-converge.
    pub fn leave(&mut self, host: NodeId) -> Result<(), ChurnError> {
        let orphans = self.detach(host)?;
        self.active.remove(&host);
        self.update_index_after_departure(host, &orphans)?;
        self.reconverge_after_churn(&orphans, Some(host))
    }

    /// The shared framework-departure step of [`DynamicSystem::leave`] and
    /// [`DynamicSystem::crash`]: detaches `host`, re-embeds its orphaned
    /// anchor descendants and reports them.
    fn detach(&mut self, host: NodeId) -> Result<Vec<NodeId>, ChurnError> {
        let real = &self.real_distance;
        Ok(self
            .framework
            .leave_reporting(host, |a, b| real.get(a.index(), b.index()))?)
    }

    /// Incremental index delta for a departure: the departed host's rows
    /// and entries vanish, the re-embedded orphans' distances are
    /// recomputed; every other row slice survives untouched.
    fn update_index_after_departure(
        &mut self,
        host: NodeId,
        orphans: &[NodeId],
    ) -> Result<(), ChurnError> {
        let removed = [host.index() as u32];
        let reembedded: Vec<u32> = orphans.iter().map(|h| h.index() as u32).collect();
        let fw = &self.framework;
        self.index
            .apply_churn(&removed, &reembedded, |a, b| fw_label_dist(fw, a, b))?;
        Ok(())
    }

    /// Crashes a host: an *involuntary* departure. Its anchor descendants
    /// are re-adopted exactly as in [`DynamicSystem::leave`], the overlay
    /// re-converges without it, and the host is remembered as crashed:
    /// queries submitted there fail with
    /// [`ClusterError::NodeUnavailable`] until [`DynamicSystem::recover`].
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] wrapping [`EmbedError::UnknownHost`] if the
    /// host is not active; [`ChurnError::Convergence`] if the overlay fails
    /// to re-converge.
    pub fn crash(&mut self, host: NodeId) -> Result<(), ChurnError> {
        let orphans = self.detach(host)?;
        self.active.remove(&host);
        self.crashed.insert(host);
        self.update_index_after_departure(host, &orphans)?;
        self.reconverge_after_churn(&orphans, Some(host))
    }

    /// Brings a crashed host back: a cold restart through the ordinary
    /// join path (fresh embedding, overlay re-convergence).
    ///
    /// # Errors
    ///
    /// [`ChurnError::Embed`] wrapping [`EmbedError::UnknownHost`] if the
    /// host is not crashed; [`ChurnError::Convergence`] if the overlay
    /// fails to re-converge.
    pub fn recover(&mut self, host: NodeId) -> Result<(), ChurnError> {
        if !self.crashed.contains(&host) {
            return Err(EmbedError::UnknownHost(host).into());
        }
        self.join(host)
    }

    /// Hosts currently crashed (and not yet recovered).
    pub fn crashed(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.crashed.iter().copied()
    }

    /// Whether `host` is currently crashed.
    pub fn is_crashed(&self, host: NodeId) -> bool {
        self.crashed.contains(&host)
    }

    /// Gossip rounds the overlay needed to re-converge after the most
    /// recent membership change (join, leave, crash or recovery) — the
    /// quantity the robustness evaluation reports as re-convergence cost.
    pub fn last_convergence_rounds(&self) -> Option<usize> {
        self.last_convergence_rounds
    }

    /// The overlay a query submitted at `start` walks, after the same
    /// membership check [`DynamicSystem::cluster_near`] makes.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeUnavailable`] when `start` is crashed, and
    /// [`ClusterError::UnknownNeighbor`] when `start` never joined or has
    /// left.
    fn entry_network(&self, start: NodeId) -> Result<&SimNetwork, ClusterError> {
        if self.crashed.contains(&start) {
            return Err(ClusterError::NodeUnavailable {
                node: start.index(),
            });
        }
        match &self.network {
            Some(net) if self.active.contains(&start) => Ok(net),
            _ => Err(ClusterError::UnknownNeighbor {
                neighbor: start.index(),
            }),
        }
    }

    /// Decentralized query against the current membership.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeUnavailable`] when submitted at a crashed host,
    /// [`ClusterError::UnknownNeighbor`] when submitted at a host that is
    /// not a member, plus the usual validation errors of
    /// [`bcc_core::process_query`].
    pub fn query(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<QueryOutcome, ClusterError> {
        self.entry_network(start)?.query(start, k, bandwidth)
    }

    /// Failure-aware query with retry/backoff and degradation reporting
    /// (see [`bcc_core::process_query_resilient`]).
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSystem::query`].
    pub fn query_resilient(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
    ) -> Result<QueryOutcome, ClusterError> {
        self.entry_network(start)?
            .query_resilient(start, k, bandwidth, retry)
    }

    /// Alias of [`DynamicSystem::query_resilient`]. The name stays because
    /// the lifecycle benchmark in `perfbench/` calls it, and that
    /// benchmark's sources are frozen so runs stay comparable.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSystem::query`].
    pub fn query_resilient_indexed(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
    ) -> Result<QueryOutcome, ClusterError> {
        self.query_resilient(start, k, bandwidth, retry)
    }

    /// Region-scoped query: `k` active hosts with predicted pairwise
    /// bandwidth ≥ the class `bandwidth` snaps up to, drawn from the ball
    /// `B(start, 2l)` in the label metric (`l` the snapped class's
    /// distance constraint). The triangle inequality guarantees the ball
    /// covers *every* diameter-`≤ l` cluster that intersects
    /// `B(start, l)`, so the answer depends only on membership and
    /// labels — never on how the membership is partitioned. That
    /// membership-purity is exactly what lets a sharded coordinator
    /// reproduce it bit for bit from per-shard region indexes
    /// (see `bcc-shard`).
    ///
    /// Candidates are enumerated from the live [`ClusterIndex`] row of
    /// `start` and canonicalized to ascending id order before the shared
    /// merge kernel [`bcc_core::find_cluster_among`] runs.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NodeUnavailable`] when `start` is crashed, the
    /// validation errors of [`bcc_core::QueryRequest::validate`], and
    /// [`ClusterError::UnknownNeighbor`] when `start` is not active.
    pub fn cluster_near(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<Option<Vec<NodeId>>, ClusterError> {
        if self.crashed.contains(&start) {
            return Err(ClusterError::NodeUnavailable {
                node: start.index(),
            });
        }
        let classes = &self.config.protocol.classes;
        let class_idx = bcc_core::QueryRequest::new(start, k, bandwidth)
            .validate(classes, self.bandwidth.len())?;
        let Some(slot) = self.index.slot(start.index() as u32) else {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: start.index(),
            });
        };
        let l = classes.distance_of(class_idx);
        let (_, ids) = self.index.ball(slot, 2.0 * l);
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        let fw = &self.framework;
        Ok(
            bcc_core::find_cluster_among(&ids, k, l, |a, b| fw_label_dist(fw, a, b))
                .map(|c| c.into_iter().map(|id| NodeId::new(id as usize)).collect()),
        )
    }

    /// [`DynamicSystem::query_resilient`] under a work budget: the query
    /// may charge at most `budget` units, where each pair examined costs
    /// the system's current [`DynamicSystem::work_cost`] — so a slow-lane
    /// nemesis makes the same query exhaust sooner, deterministically.
    /// Returns [`Budgeted::Exhausted`] with the degraded outcome when the
    /// budget runs dry.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSystem::query`].
    pub fn query_budgeted(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
        budget: u64,
    ) -> Result<Budgeted<QueryOutcome>, ClusterError> {
        let mut meter = WorkMeter::with_cost(budget, self.work_cost);
        self.entry_network(start)?
            .query_resilient_budgeted(start, k, bandwidth, retry, &mut meter)
    }

    /// The current overlay, if any host is active.
    pub fn network(&self) -> Option<&SimNetwork> {
        self.network.as_ref()
    }

    /// Mutable access to the current overlay — the hook chaos harnesses use
    /// to attach fault injectors, enable tracing, or run extra gossip
    /// rounds against the live membership.
    pub fn network_mut(&mut self) -> Option<&mut SimNetwork> {
        self.network.as_mut()
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The prediction framework (restructured incrementally under churn).
    pub fn framework(&self) -> &PredictionFramework {
        &self.framework
    }

    /// Ground-truth bandwidth between two universe hosts.
    pub fn real_bandwidth(&self, u: NodeId, v: NodeId) -> f64 {
        self.bandwidth.get(u.index(), v.index())
    }

    /// Monotone membership epoch: bumps exactly once on every successful
    /// [`DynamicSystem::join`], [`DynamicSystem::leave`],
    /// [`DynamicSystem::crash`] and [`DynamicSystem::recover`] (it is the
    /// prediction framework's restructure revision). Serving layers use it
    /// as the cheap churn signal for cache invalidation; pair it with
    /// [`DynamicSystem::live_digest`] to also catch overlay-state
    /// disturbances that leave membership unchanged.
    pub fn epoch(&self) -> u64 {
        self.framework.revision()
    }

    /// Digest of the live overlay's gossip state — the exact value
    /// [`SimNetwork::digest`] reports — or `None` before any host joins.
    /// Changes whenever membership, aggregation state or CRTs change,
    /// including mid-fault windows injected through
    /// [`DynamicSystem::network_mut`].
    pub fn live_digest(&self) -> Option<u64> {
        self.network.as_ref().map(SimNetwork::digest)
    }

    /// The incrementally-maintained cluster index over the active
    /// membership: one sorted distance row per active host in the
    /// predicted (label) metric, slot order = ascending host id.
    pub fn cluster_index(&self) -> &ClusterIndex {
        &self.index
    }

    /// The `(epoch, digest)` stamp of the live index — the same discipline
    /// the service cache keys results by: the epoch is
    /// [`DynamicSystem::epoch`] and the digest is the index content digest,
    /// so a stamp match means the index answers are valid for the cached
    /// membership.
    pub fn index_stamp(&self) -> (u64, u64) {
        (self.epoch(), self.index.digest())
    }

    /// Builds the index the current membership would get *from scratch* —
    /// the `O(n² log n)` cold path the incremental maintenance avoids.
    /// Chaos oracles compare its digest against the live
    /// [`DynamicSystem::cluster_index`] after every churn schedule; the
    /// two are equal because untouched hosts keep their labels bit-for-bit
    /// across other hosts' churn.
    pub fn rebuild_index_cold(&self) -> ClusterIndex {
        let ids: Vec<u32> = self.active.iter().map(|h| h.index() as u32).collect();
        let fw = &self.framework;
        ClusterIndex::build(self.bandwidth.len(), &ids, |a, b| fw_label_dist(fw, a, b))
    }

    /// Centralized indexed probe: `k` active hosts with predicted pairwise
    /// bandwidth ≥ `bandwidth`, answered through the live index in its
    /// slot order (ascending host id) — bit-identical members to the
    /// brute-force pair sweep over the same predicted metric. Returns
    /// `None` when no such cluster exists (or `bandwidth` is not positive
    /// and finite).
    pub fn find_cluster_indexed(&self, k: usize, bandwidth: f64) -> Option<Vec<NodeId>> {
        if !bandwidth.is_finite() || bandwidth <= 0.0 {
            return None;
        }
        let l = self.config.transform.distance_constraint(bandwidth);
        let metric = ActiveLabelMetric {
            fw: &self.framework,
            ids: self.index.ids(),
        };
        bcc_core::find_cluster_indexed(&metric, &self.index, k, l).map(|slots| {
            slots
                .into_iter()
                .map(|s| NodeId::new(self.index.ids()[s] as usize))
                .collect()
        })
    }

    /// Centralized indexed `max_cluster_size` over the active membership:
    /// the largest `k` for which [`DynamicSystem::find_cluster_indexed`]
    /// would succeed at `bandwidth`. `0` when the system is empty or the
    /// bandwidth is invalid.
    pub fn max_cluster_size_indexed(&self, bandwidth: f64) -> usize {
        if !bandwidth.is_finite() || bandwidth <= 0.0 || self.index.is_empty() {
            return 0;
        }
        let l = self.config.transform.distance_constraint(bandwidth);
        let metric = ActiveLabelMetric {
            fw: &self.framework,
            ids: self.index.ids(),
        };
        bcc_core::max_cluster_size_indexed(&metric, &self.index, l)
    }

    /// The gossip digest a *cold restart* of the current membership would
    /// reach: a fresh fault-free overlay built from the live framework and
    /// run to its fixpoint. Liveness oracles compare the live network's
    /// digest against this after all faults heal. `None` when no host is
    /// active.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Convergence`] if the fresh overlay fails to converge
    /// within [`SystemConfig::max_rounds`].
    pub fn cold_restart_digest(&self) -> Result<Option<u64>, ChurnError> {
        if self.active.is_empty() {
            return Ok(None);
        }
        let (net, _) = self.fresh_network()?;
        Ok(Some(net.digest()))
    }

    /// Builds a fresh converged fault-free overlay from the live framework,
    /// returning it with the rounds it needed.
    fn fresh_network(&self) -> Result<(SimNetwork, usize), ChurnError> {
        // Predicted distances indexed by universe id; inactive rows unused.
        let fw = &self.framework;
        let predicted = label_universe_matrix(fw, self.bandwidth.len(), &self.active);
        let mut net = SimNetwork::new(fw.anchor(), predicted, self.config.protocol.clone());
        let rounds =
            net.run_to_convergence(self.config.max_rounds)
                .ok_or(ChurnError::Convergence {
                    max_rounds: self.config.max_rounds,
                })?;
        Ok((net, rounds))
    }

    /// Full from-blank overlay convergence — the cold path. Only
    /// [`DynamicSystem::bootstrap`] calls this; churn on a live system goes
    /// through [`DynamicSystem::reconverge_after_churn`] instead, and the
    /// `full_reconvergences` counter bumped here is the tripwire proving
    /// it stays that way.
    fn rebuild(&mut self) -> Result<(), ChurnError> {
        if self.active.is_empty() {
            self.network = None;
            self.last_convergence_rounds = None;
            return Ok(());
        }
        let (net, rounds) = self.fresh_network()?;
        self.overlay_stats.full_reconvergences += 1;
        self.last_convergence_rounds = Some(rounds);
        self.network = Some(net);
        Ok(())
    }

    /// Incremental overlay repair after one membership op — the hot path
    /// that replaced the per-op full rebuild.
    ///
    /// `touched` is the set of hosts whose labels were (re)computed by the
    /// framework restructure: the joiner on a join, the re-embedded
    /// orphans on a leave/crash. `departed` is the host that left, if any.
    /// The repair is three cheap steps against the *persistent* overlay:
    ///
    /// 1. rewrite the predicted-matrix rows of `touched` against the live
    ///    membership (`O(|touched| · |active|)` — untouched pairs keep
    ///    their label distances bit-for-bit, so nothing else moved);
    /// 2. build an [`OverlayDelta`]: reset the touched + departed hosts'
    ///    aggregation state, splice the anchor adjacency edits (every
    ///    added or removed anchor edge has a touched/departed endpoint, so
    ///    comparing old overlay lists against the new anchor around that
    ///    set covers all edits);
    /// 3. re-converge *focused* on the disturbed region
    ///    ([`SimNetwork::reconverge_focused`]): change-driven gossip that
    ///    expands exactly as far as records differ from the old fixpoint
    ///    and lands on the unique fixpoint a cold restart would reach —
    ///    the `live digest == cold_restart_digest` invariant the chaos
    ///    liveness oracle pins after every op.
    fn reconverge_after_churn(
        &mut self,
        touched: &[NodeId],
        departed: Option<NodeId>,
    ) -> Result<(), ChurnError> {
        if self.active.is_empty() {
            self.network = None;
            self.last_convergence_rounds = None;
            self.overlay_stats.incremental_ops += 1;
            self.overlay_stats.last_rounds = 0;
            self.overlay_stats.last_messages = 0;
            self.overlay_stats.last_predicted_entries = 0;
            self.overlay_stats.last_region = 0;
            return Ok(());
        }
        if self.network.is_none() {
            // First host: a blank overlay (no gossip state to preserve, so
            // nothing to repair — the focused pass below converges it).
            self.network = Some(SimNetwork::new(
                self.framework.anchor(),
                DistanceMatrix::new(self.bandwidth.len()),
                self.config.protocol.clone(),
            ));
        }
        let active: Vec<NodeId> = self.active.iter().copied().collect();
        let fw = &self.framework;
        let anchor = fw.anchor();
        let net = self.network.as_mut().expect("overlay exists");

        let entries = net.update_predicted_rows(touched, &active, |a, b| {
            fw_label_dist(fw, a.index() as u32, b.index() as u32)
        });

        let mut delta = OverlayDelta {
            reset: touched.to_vec(),
            neighbors: Vec::new(),
        };
        if let Some(d) = departed {
            delta.reset.push(d);
        }
        // Hosts whose anchor adjacency could have changed: the reset hosts
        // themselves plus their overlay neighbors old and new. Every
        // spliced edge has a reset endpoint, so this closure is complete.
        let mut affected: BTreeSet<NodeId> = BTreeSet::new();
        for &h in &delta.reset {
            affected.insert(h);
            affected.extend(net.nodes()[h.index()].neighbors().iter().copied());
            if anchor.contains(h) {
                affected.extend(anchor.neighbors(h));
            }
        }
        for &a in &affected {
            let new_list = if anchor.contains(a) {
                anchor.neighbors(a)
            } else {
                Vec::new()
            };
            if net.nodes()[a.index()].neighbors() != new_list.as_slice() {
                delta.neighbors.push((a, new_list));
            }
        }

        let messages_before = net.traffic().messages;
        let seeds = net.apply_churn_delta(&delta, &active);
        let rounds = net
            .reconverge_focused(&seeds, self.config.max_rounds)
            .ok_or(ChurnError::Convergence {
                max_rounds: self.config.max_rounds,
            })?;
        let messages = net.traffic().messages - messages_before;

        self.last_convergence_rounds = Some(rounds);
        let st = &mut self.overlay_stats;
        st.incremental_ops += 1;
        st.last_rounds = rounds as u64;
        st.last_messages = messages;
        st.last_predicted_entries = entries;
        st.last_region = seeds.len() as u64;
        st.messages += messages;
        st.predicted_entries += entries;
        Ok(())
    }

    /// Lifetime overlay-maintenance counters of this system (see
    /// [`OverlayStats`]). `full_reconvergences` stays 0 across arbitrary
    /// churn on a live system — only [`DynamicSystem::bootstrap`]'s single
    /// cold convergence counts there.
    pub fn overlay_stats(&self) -> OverlayStats {
        self.overlay_stats
    }

    /// Measures what one *full rebuild* of the current overlay costs — the
    /// cold path every churn op used to pay before incremental maintenance
    /// — without touching the live system. `None` when nobody is active.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Convergence`] if the probe overlay fails to converge
    /// within [`SystemConfig::max_rounds`].
    pub fn rebuild_cost_probe(&self) -> Result<Option<RebuildCost>, ChurnError> {
        if self.active.is_empty() {
            return Ok(None);
        }
        let (net, rounds) = self.fresh_network()?;
        let a = self.active.len() as u64;
        Ok(Some(RebuildCost {
            rounds: rounds as u64,
            messages: net.traffic().messages,
            predicted_entries: a * (a - 1) / 2,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::BandwidthClasses;
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn universe() -> BandwidthMatrix {
        // Access-link model: 0-2 fast (100), 3-4 medium (30), 5 slow (10).
        let caps = [100.0f64, 100.0, 100.0, 30.0, 30.0, 10.0];
        BandwidthMatrix::from_fn(6, |i, j| caps[i].min(caps[j]))
    }

    fn dynamic() -> DynamicSystem {
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        DynamicSystem::new(universe(), SystemConfig::new(cls))
    }

    #[test]
    fn empty_system_rejects_queries() {
        let s = dynamic();
        assert!(s.is_empty());
        assert!(s.query(n(0), 2, 40.0).is_err());
    }

    #[test]
    fn query_reflects_membership_growth() {
        let mut s = dynamic();
        s.join(n(0)).unwrap();
        s.join(n(3)).unwrap();
        // Only one fast host: no 2-cluster at 80 Mbps yet.
        assert!(!s.query(n(0), 2, 80.0).unwrap().found());
        s.join(n(1)).unwrap();
        // Now hosts 0 and 1 share 100 Mbps.
        let out = s.query(n(3), 2, 80.0).unwrap();
        assert!(out.found());
        let c = out.cluster.unwrap();
        assert_eq!(c, vec![n(0), n(1)]);
    }

    #[test]
    fn query_reflects_departures() {
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        assert!(s.query(n(3), 3, 80.0).unwrap().found());
        s.leave(n(1)).unwrap();
        assert_eq!(s.len(), 3);
        // Only two fast hosts remain: the 3-cluster is gone.
        assert!(!s.query(n(3), 3, 80.0).unwrap().found());
        assert!(s.query(n(3), 2, 80.0).unwrap().found());
    }

    #[test]
    fn rejoin_after_leave() {
        let mut s = dynamic();
        for i in 0..3 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(2)).unwrap();
        s.join(n(2)).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.query(n(0), 3, 80.0).unwrap().found());
    }

    #[test]
    fn join_validation() {
        let mut s = dynamic();
        s.join(n(0)).unwrap();
        assert!(matches!(
            s.join(n(0)),
            Err(ChurnError::Embed(EmbedError::HostExists(_)))
        ));
        assert!(matches!(
            s.join(n(99)),
            Err(ChurnError::Embed(EmbedError::UnknownHost(_)))
        ));
        assert!(matches!(
            s.leave(n(5)),
            Err(ChurnError::Embed(EmbedError::UnknownHost(_)))
        ));
    }

    #[test]
    fn churn_error_display_and_source() {
        let e = ChurnError::from(EmbedError::UnknownHost(n(7)));
        assert!(e.to_string().contains("n7"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ChurnError::Convergence { max_rounds: 64 };
        assert!(e.to_string().contains("64"));
        assert!(std::error::Error::source(&e).is_none());
        let e = ChurnError::from(bcc_core::IndexError::NotAMember(9));
        assert!(e.to_string().contains("index"));
        assert!(e.to_string().contains('9'));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn epoch_bumps_once_per_membership_change() {
        let mut s = dynamic();
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.live_digest(), None);
        s.join(n(0)).unwrap();
        s.join(n(1)).unwrap();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.live_digest(), Some(s.network().unwrap().digest()));
        s.join(n(2)).unwrap();
        s.leave(n(2)).unwrap();
        assert_eq!(s.epoch(), 4, "a leave re-embeds orphans but bumps once");
        s.crash(n(1)).unwrap();
        assert_eq!(s.epoch(), 5);
        s.recover(n(1)).unwrap();
        assert_eq!(s.epoch(), 6);
        // Failed operations leave the epoch alone.
        assert!(s.join(n(0)).is_err());
        assert!(s.recover(n(3)).is_err());
        assert_eq!(s.epoch(), 6);
    }

    #[test]
    fn cold_restart_digest_matches_live_fixpoint() {
        let mut s = dynamic();
        assert_eq!(s.cold_restart_digest().unwrap(), None);
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        let live = s.network().unwrap().digest();
        assert_eq!(s.cold_restart_digest().unwrap(), Some(live));
    }

    #[test]
    fn crash_is_an_involuntary_leave() {
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        assert!(s.query(n(3), 3, 80.0).unwrap().found());
        s.crash(n(1)).unwrap();
        assert!(s.is_crashed(n(1)));
        assert_eq!(s.crashed().collect::<Vec<_>>(), vec![n(1)]);
        assert_eq!(s.len(), 3, "a crashed host is not active");
        // Orphan re-adoption: survivors still form a valid overlay.
        assert!(s.query(n(3), 2, 80.0).unwrap().found());
        // The 3-cluster needed host 1.
        assert!(!s.query(n(3), 3, 80.0).unwrap().found());
        // Queries *at* the crashed host fail with the typed error.
        assert!(matches!(
            s.query(n(1), 2, 80.0),
            Err(ClusterError::NodeUnavailable { node: 1 })
        ));
        assert!(matches!(
            s.query_resilient(n(1), 2, 80.0, &RetryPolicy::default()),
            Err(ClusterError::NodeUnavailable { node: 1 })
        ));
        // Crashing a host that is not active is an error.
        assert!(s.crash(n(1)).is_err());
        assert!(s.crash(n(5)).is_err());
    }

    #[test]
    fn recover_restores_full_capability() {
        let mut s = dynamic();
        for i in 0..4 {
            s.join(n(i)).unwrap();
        }
        s.crash(n(1)).unwrap();
        // Only crashed hosts can recover.
        assert!(s.recover(n(2)).is_err());
        s.recover(n(1)).unwrap();
        assert!(!s.is_crashed(n(1)));
        assert_eq!(s.len(), 4);
        assert!(s.query(n(3), 3, 80.0).unwrap().found());
        assert!(s.query(n(1), 2, 80.0).is_ok());
        assert!(
            s.last_convergence_rounds().unwrap() >= 1,
            "recovery forces re-convergence"
        );
    }

    #[test]
    fn resilient_query_reports_clean_degradation_on_healthy_system() {
        let mut s = dynamic();
        for i in 0..3 {
            s.join(n(i)).unwrap();
        }
        let out = s
            .query_resilient(n(0), 3, 80.0, &RetryPolicy::default())
            .unwrap();
        assert!(out.found());
        assert!(
            out.clean(),
            "no faults → no degradation: {:?}",
            out.degradation
        );
    }

    #[test]
    fn index_tracks_churn_incrementally() {
        let mut s = dynamic();
        // Every kind of churn op, with the digest checked against a cold
        // rebuild after each one.
        let check = |s: &DynamicSystem, what: &str| {
            let cold = s.rebuild_index_cold();
            assert_eq!(
                s.cluster_index().digest(),
                cold.digest(),
                "incremental digest diverged after {what}"
            );
            assert_eq!(
                s.cluster_index().ids().len(),
                s.len(),
                "index membership mismatch after {what}"
            );
        };
        for i in 0..5 {
            s.join(n(i)).unwrap();
            check(&s, "join");
        }
        s.leave(n(1)).unwrap();
        check(&s, "leave");
        s.crash(n(0)).unwrap();
        check(&s, "crash of the overlay root");
        s.recover(n(0)).unwrap();
        check(&s, "recover");
        s.join(n(5)).unwrap();
        s.leave(n(3)).unwrap();
        check(&s, "mixed churn");
        // The live index was never rebuilt from scratch: every op was an
        // incremental delta. 5 joins + leave + crash + recover + join +
        // leave = 10 updates.
        let stats = s.cluster_index().stats();
        assert_eq!(
            stats.full_builds, 0,
            "no O(n² log n) rebuild on the hot path"
        );
        assert_eq!(stats.incremental_updates, 10);
    }

    #[test]
    fn index_stamp_follows_epoch() {
        let mut s = dynamic();
        assert_eq!(s.index_stamp(), (0, s.cluster_index().digest()));
        s.join(n(0)).unwrap();
        s.join(n(2)).unwrap();
        let (epoch, digest) = s.index_stamp();
        assert_eq!(epoch, s.epoch());
        assert_eq!(digest, s.cluster_index().digest());
        let before = s.index_stamp();
        s.leave(n(2)).unwrap();
        assert_ne!(s.index_stamp(), before, "churn moves the stamp");
    }

    #[test]
    fn indexed_probe_matches_pair_sweep_on_live_metric() {
        use bcc_core::{find_cluster, max_cluster_size};
        let mut s = dynamic();
        for i in 0..6 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(4)).unwrap();
        // Materialize the same predicted label metric the index serves,
        // in index slot order, and compare against the brute-force oracle.
        let ids: Vec<u32> = s.cluster_index().ids().to_vec();
        let fw = s.framework();
        let d = DistanceMatrix::from_fn(ids.len(), |i, j| fw_label_dist(fw, ids[i], ids[j]));
        for bw in [10.0, 30.0, 40.0, 80.0, 100.0] {
            let l = s.config().transform.distance_constraint(bw);
            for k in 2..=ids.len() {
                let expect = find_cluster(&d, k, l).map(|slots| {
                    slots
                        .into_iter()
                        .map(|i| n(ids[i] as usize))
                        .collect::<Vec<_>>()
                });
                assert_eq!(s.find_cluster_indexed(k, bw), expect, "k={k} bw={bw}");
            }
            assert_eq!(
                s.max_cluster_size_indexed(bw),
                max_cluster_size(&d, l),
                "bw={bw}"
            );
        }
        // Invalid bandwidths degrade to the empty answer, not a panic.
        assert_eq!(s.find_cluster_indexed(2, f64::NAN), None);
        assert_eq!(s.max_cluster_size_indexed(-1.0), 0);
    }

    #[test]
    fn bootstrap_matches_sequential_joins() {
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        let hosts: Vec<NodeId> = (0..5).map(n).collect();
        let boot = DynamicSystem::bootstrap(universe(), SystemConfig::new(cls), &hosts).unwrap();
        let mut seq = dynamic();
        for &h in &hosts {
            seq.join(h).unwrap();
        }
        // Same framework joins in the same order: identical embedding,
        // overlay fixpoint and index content — only the construction cost
        // differs (one convergence and one index build instead of five).
        assert_eq!(boot.epoch(), seq.epoch());
        assert_eq!(boot.live_digest(), seq.live_digest());
        assert_eq!(boot.cluster_index().digest(), seq.cluster_index().digest());
        assert_eq!(boot.cluster_index().stats().full_builds, 1);
        assert_eq!(boot.cluster_index().stats().incremental_updates, 0);
        assert_eq!(boot.overlay_stats().full_reconvergences, 1);
        assert_eq!(boot.overlay_stats().incremental_ops, 0);
        assert_eq!(seq.overlay_stats().full_reconvergences, 0);
        assert_eq!(seq.overlay_stats().incremental_ops, 5);
        // Bad memberships are rejected, not embedded.
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        assert!(matches!(
            DynamicSystem::bootstrap(universe(), SystemConfig::new(cls), &[n(0), n(99)]),
            Err(ChurnError::Embed(EmbedError::UnknownHost(_)))
        ));
        let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
        assert!(matches!(
            DynamicSystem::bootstrap(universe(), SystemConfig::new(cls), &[n(0), n(0)]),
            Err(ChurnError::Embed(EmbedError::HostExists(_)))
        ));
    }

    #[test]
    fn queries_at_non_members_are_rejected_like_cluster_near() {
        let mut s = dynamic();
        for i in 0..5 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(4)).unwrap();
        s.crash(n(3)).unwrap();
        let retry = RetryPolicy::default();
        // Host 5 never joined and host 4 has left: no entry point may
        // answer `Ok` with an empty walk, which a cache would keep as exact.
        for (host, err) in [
            (5, ClusterError::UnknownNeighbor { neighbor: 5 }),
            (4, ClusterError::UnknownNeighbor { neighbor: 4 }),
            (3, ClusterError::NodeUnavailable { node: 3 }),
        ] {
            let start = n(host);
            assert_eq!(s.cluster_near(start, 2, 40.0), Err(err.clone()));
            assert_eq!(s.query(start, 2, 40.0), Err(err.clone()));
            assert_eq!(s.query_resilient(start, 2, 40.0, &retry), Err(err.clone()));
            assert_eq!(
                s.query_resilient_indexed(start, 2, 40.0, &retry),
                Err(err.clone())
            );
            assert_eq!(s.query_budgeted(start, 2, 40.0, &retry, 1_000), Err(err));
        }
        // Members still answer.
        for start in 0..3 {
            assert!(s.query(n(start), 2, 80.0).unwrap().found());
            assert!(s
                .query_resilient(n(start), 2, 80.0, &retry)
                .unwrap()
                .found());
        }
    }

    #[test]
    fn cluster_near_matches_brute_force_ball() {
        let mut s = dynamic();
        for i in 0..6 {
            s.join(n(i)).unwrap();
        }
        s.leave(n(4)).unwrap();
        let classes = &s.config().protocol.classes;
        let members: Vec<u32> = s.cluster_index().ids().to_vec();
        for &start in &members {
            for k in 2..=4 {
                for bw in [40.0, 80.0] {
                    let class_idx = classes.snap_up(bw).unwrap();
                    let l = classes.distance_of(class_idx);
                    // Oracle: linear scan of the whole membership for the
                    // 2l-ball, then the same kernel.
                    let fw = s.framework();
                    let ball: Vec<u32> = members
                        .iter()
                        .copied()
                        .filter(|&x| fw_label_dist(fw, start, x) <= 2.0 * l)
                        .collect();
                    let expect =
                        bcc_core::find_cluster_among(&ball, k, l, |a, b| fw_label_dist(fw, a, b))
                            .map(|c| c.into_iter().map(|id| n(id as usize)).collect::<Vec<_>>());
                    assert_eq!(
                        s.cluster_near(n(start as usize), k, bw).unwrap(),
                        expect,
                        "start={start} k={k} bw={bw}"
                    );
                }
            }
        }
        // Every found cluster satisfies the constraint for real.
        if let Some(c) = s.cluster_near(n(0), 3, 80.0).unwrap() {
            let fw = s.framework();
            for i in 0..c.len() {
                for j in i + 1..c.len() {
                    let d = fw_label_dist(fw, c[i].index() as u32, c[j].index() as u32);
                    let l = classes.distance_of(classes.snap_up(80.0).unwrap());
                    assert!(d <= l, "cluster pair exceeds the constraint");
                }
            }
        }
        // Error-order parity with the serving layers: crashed first, then
        // validation, then membership.
        s.crash(n(3)).unwrap();
        assert!(matches!(
            s.cluster_near(n(3), 2, 40.0),
            Err(ClusterError::NodeUnavailable { node: 3 })
        ));
        assert!(matches!(
            s.cluster_near(n(4), 1, 40.0),
            Err(ClusterError::InvalidSizeConstraint { k: 1 })
        ));
        assert!(matches!(
            s.cluster_near(n(4), 2, -1.0),
            Err(ClusterError::InvalidBandwidthConstraint { .. })
        ));
        assert!(matches!(
            s.cluster_near(n(4), 2, 40.0),
            Err(ClusterError::UnknownNeighbor { neighbor: 4 })
        ));
    }

    #[test]
    fn overlay_repairs_incrementally_and_lands_on_the_cold_fixpoint() {
        let mut s = dynamic();
        let check = |s: &DynamicSystem, what: &str| {
            assert_eq!(
                s.live_digest(),
                s.cold_restart_digest().unwrap(),
                "live overlay diverged from the cold-restart fixpoint after {what}"
            );
        };
        for i in 0..5 {
            s.join(n(i)).unwrap();
            check(&s, "join");
        }
        s.leave(n(1)).unwrap();
        check(&s, "leave");
        s.crash(n(0)).unwrap();
        check(&s, "crash of the overlay root");
        s.recover(n(0)).unwrap();
        check(&s, "recover");
        s.join(n(5)).unwrap();
        s.leave(n(3)).unwrap();
        check(&s, "mixed churn");
        // Every one of the 10 ops repaired the overlay in place: the only
        // gossip run since construction was change-driven and focused.
        let stats = s.overlay_stats();
        assert_eq!(
            stats.full_reconvergences, 0,
            "no from-blank overlay rebuild on the hot path"
        );
        assert_eq!(stats.incremental_ops, 10);
        assert!(stats.last_rounds >= 1, "churn forces re-convergence");
        assert!(stats.last_region >= 1);
        assert!(stats.messages >= 1);
        // Draining the membership drops the overlay without a rebuild.
        for h in s.active().collect::<Vec<_>>() {
            s.leave(h).unwrap();
        }
        assert_eq!(s.live_digest(), None);
        assert_eq!(s.cold_restart_digest().unwrap(), None);
        assert_eq!(s.overlay_stats().full_reconvergences, 0);
        // And the system comes back from empty on the incremental path too.
        s.join(n(2)).unwrap();
        s.join(n(4)).unwrap();
        check(&s, "rejoin after draining");
        assert_eq!(s.overlay_stats().full_reconvergences, 0);
    }

    #[test]
    fn rebuild_cost_probe_reports_the_cold_path() {
        let mut s = dynamic();
        assert_eq!(s.rebuild_cost_probe().unwrap(), None);
        for i in 0..6 {
            s.join(n(i)).unwrap();
        }
        let cost = s.rebuild_cost_probe().unwrap().unwrap();
        assert!(cost.rounds >= 2);
        assert!(cost.messages > 0);
        assert_eq!(cost.predicted_entries, 15, "6 active hosts = 15 pairs");
        // The probe is read-only: the live overlay and counters are
        // untouched, and a single-host op costs less than the full rebuild
        // it replaced.
        let before = s.overlay_stats();
        let digest = s.live_digest();
        assert_eq!(s.rebuild_cost_probe().unwrap().unwrap(), cost);
        assert_eq!(s.overlay_stats(), before);
        assert_eq!(s.live_digest(), digest);
        s.leave(n(5)).unwrap();
        assert!(
            s.overlay_stats().last_messages < cost.messages,
            "incremental repair ({} msgs) must beat the cold rebuild ({} msgs)",
            s.overlay_stats().last_messages,
            cost.messages
        );
    }

    #[test]
    fn op_cost_is_independent_of_universe_size() {
        // Two universes, 24 and 96 potential hosts, agreeing on the
        // bandwidth of every pair the schedule ever activates. The same
        // churn schedule must cost the same in both: per-op work scales
        // with the live membership and the disturbed region, never with
        // the universe.
        let cap = |i: usize| -> f64 {
            match i % 3 {
                0 => 100.0,
                1 => 30.0,
                _ => 10.0,
            }
        };
        let mk = |universe: usize| {
            let bw = BandwidthMatrix::from_fn(universe, |i, j| cap(i).min(cap(j)));
            let cls = BandwidthClasses::new(vec![40.0, 80.0], RationalTransform::default());
            DynamicSystem::new(bw, SystemConfig::new(cls))
        };
        let mut small = mk(24);
        let mut large = mk(96);
        let op = |small: &mut DynamicSystem,
                  large: &mut DynamicSystem,
                  f: &dyn Fn(&mut DynamicSystem) -> Result<(), ChurnError>,
                  what: &str| {
            f(small).unwrap();
            f(large).unwrap();
            assert_eq!(
                small.overlay_stats(),
                large.overlay_stats(),
                "overlay op cost moved with the universe size after {what}"
            );
            assert_eq!(
                small.last_convergence_rounds(),
                large.last_convergence_rounds(),
                "round count moved with the universe size after {what}"
            );
        };
        for i in 0..12 {
            op(&mut small, &mut large, &|s| s.join(n(i)), "join");
        }
        op(&mut small, &mut large, &|s| s.leave(n(3)), "leave");
        op(&mut small, &mut large, &|s| s.crash(n(5)), "crash");
        op(&mut small, &mut large, &|s| s.recover(n(5)), "recover");
        op(&mut small, &mut large, &|s| s.leave(n(0)), "root leave");
        // Both systems also hold the digest invariant independently.
        assert_eq!(small.live_digest(), small.cold_restart_digest().unwrap());
        assert_eq!(large.live_digest(), large.cold_restart_digest().unwrap());
    }

    #[test]
    fn departure_of_overlay_root_survives() {
        let mut s = dynamic();
        for i in 0..5 {
            s.join(n(i)).unwrap();
        }
        // Host 0 joined first: it is the overlay root.
        s.leave(n(0)).unwrap();
        assert_eq!(s.len(), 4);
        let out = s.query(n(4), 2, 80.0).unwrap();
        assert!(out.found(), "hosts 1 and 2 still share 100 Mbps");
    }
}
