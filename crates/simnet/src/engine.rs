//! The round-based gossip engine (PeerSim-style cycle-driven simulation).
//!
//! Each round has two phases, mirroring the paper's background mechanisms:
//!
//! 1. **Close-node aggregation** (Algorithm 2): every overlay edge carries a
//!    `NodeInfo` message in both directions.
//! 2. **CRT aggregation** (Algorithm 3): every node recomputes its local
//!    maximum cluster sizes (only when its clustering space changed), then
//!    every edge carries a `CrtRow` message in both directions.
//!
//! Rounds repeat until a fixpoint: information needs at most one overlay
//! diameter of rounds to flood, and the CRTs one more. The engine tracks
//! message and byte counts so the evaluation can report communication costs.
//!
//! A [`FaultInjector`] (see [`crate::fault`]) can be plugged in with
//! [`SimNetwork::inject_faults`]: crashed nodes fall silent (state frozen,
//! or cleared on recovery), partitioned/lossy links drop messages, and
//! latency spikes defer deliveries to later rounds. Every injected fault is
//! recorded in the [`Trace`] when tracing is enabled.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use bcc_core::{
    process_query, process_query_resilient, process_query_resilient_budgeted, Budgeted,
    ClusterNode, ProtocolConfig, QueryOutcome, RetryPolicy, RoutePolicy, WorkMeter,
};
use bcc_embed::AnchorTree;
use bcc_metric::{DistanceMatrix, NodeId};

use crate::fault::{FaultInjector, FaultPlan, FaultTransition, MessageFate};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::wire::Message;

/// Communication statistics accumulated by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Gossip messages sent (including copies injected by duplication
    /// faults).
    pub messages: u64,
    /// Total serialized payload bytes.
    pub bytes: u64,
    /// Messages lost in flight to injected faults.
    pub dropped: u64,
}

/// A message deferred to a later round by a latency-spike fault.
#[derive(Debug, Clone)]
struct PendingDelivery {
    due_round: usize,
    to: usize,
    from: NodeId,
    msg: Message,
}

/// Plain-data gossip state of one node — everything
/// [`SimNetwork::digest`] covers for it, keyed by overlay neighbor.
///
/// Exported by [`SimNetwork::export_gossip`] and restored by
/// [`SimNetwork::import_gossip`]; the persistence layer serializes these
/// records so a warm restart reproduces the pre-kill digest with zero
/// gossip rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeGossipState {
    /// `aggrNode[v]` records, in overlay-neighbor order (only directions a
    /// message has actually arrived from).
    pub aggr_node: Vec<(NodeId, Vec<NodeId>)>,
    /// `aggrCRT[x]`: the locally-computed maximum cluster size per class.
    pub own_max: Vec<usize>,
    /// `aggrCRT[v]` rows, one per overlay neighbor. Directions that never
    /// delivered a row export as zeros — the protocol treats a zero row and
    /// an absent row identically (max-fold and routing gates ignore both).
    pub crt: Vec<(NodeId, Vec<usize>)>,
}

/// One churn op's disturbance, in engine terms: which hosts must restart
/// their gossip state and which hosts' overlay neighbor lists changed.
/// Built by [`crate::DynamicSystem`] from an anchor-tree edit and applied
/// with [`SimNetwork::apply_churn_delta`].
#[derive(Debug, Clone, Default)]
pub struct OverlayDelta {
    /// Hosts whose gossip state is stale beyond repair — re-embedded
    /// orphans, a fresh joiner, or the departed host's placeholder. Each is
    /// reset to blank exactly like a crash recovery.
    pub reset: Vec<NodeId>,
    /// Hosts whose overlay neighbor list changed, with the new list (empty
    /// for a departed host). Aggregated records of dropped directions are
    /// pruned.
    pub neighbors: Vec<(NodeId, Vec<NodeId>)>,
}

/// The simulated overlay network running the clustering protocol.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    nodes: Vec<ClusterNode>,
    predicted: DistanceMatrix,
    config: ProtocolConfig,
    rounds_run: usize,
    traffic: TrafficStats,
    space_digest: Vec<u64>,
    trace: Option<Trace>,
    injector: Option<Box<dyn FaultInjector>>,
    pending: Vec<PendingDelivery>,
}

impl SimNetwork {
    /// Builds the network over an anchor-tree overlay with a predicted
    /// distance matrix indexed by host id.
    ///
    /// Ids in `0..predicted.len()` that are absent from the overlay become
    /// isolated placeholders: they carry no gossip and answer no queries.
    /// This is what lets a dynamic system keep stable host ids across joins
    /// and departures (see [`crate::DynamicSystem`]).
    pub fn new(anchor: &AnchorTree, predicted: DistanceMatrix, config: ProtocolConfig) -> Self {
        let n = predicted.len();
        let mut nodes = Vec::with_capacity(n);
        let mut space_digest = vec![0u64; n];
        for (i, digest) in space_digest.iter_mut().enumerate() {
            let id = NodeId::new(i);
            let neighbors = if anchor.contains(id) {
                anchor.neighbors(id)
            } else {
                Vec::new()
            };
            let mut node = ClusterNode::new(id, neighbors, config.classes.len());
            // A blank node is already at its fixpoint for the singleton
            // space {self}: a cluster of one per class. Computing that here
            // (and priming the space-change gate to match) means nodes no
            // round ever visits — isolated placeholders in a persistent
            // dynamic overlay — hold the exact state a cold convergence
            // would leave them with. Active nodes' spaces grow on their
            // first delivery, so the gate re-fires for them as before.
            node.recompute_own_max(&config.classes, |a, b| predicted.get(a.index(), b.index()));
            let mut h = DefaultHasher::new();
            node.clustering_space().hash(&mut h);
            *digest = h.finish();
            nodes.push(node);
        }
        SimNetwork {
            nodes,
            predicted,
            config,
            rounds_run: 0,
            traffic: TrafficStats::default(),
            space_digest,
            trace: None,
            injector: None,
            pending: Vec::new(),
        }
    }

    /// Turns on message tracing with a bounded buffer (see [`Trace`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Turns on message tracing with an O(1)-eviction ring buffer (see
    /// [`Trace::ring`]) — the right mode for long soak runs where only the
    /// most recent events matter.
    pub fn enable_ring_tracing(&mut self, capacity: usize) {
        self.trace = Some(Trace::ring(capacity));
    }

    /// The message trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Plugs in a fault injector; faults activate as rounds pass their
    /// scheduled ticks (1 tick = 1 round).
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Convenience: [`SimNetwork::set_fault_injector`] from a [`FaultPlan`].
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        self.set_fault_injector(Box::new(plan.injector()));
    }

    /// The active fault injector, if any.
    pub fn fault_injector(&self) -> Option<&dyn FaultInjector> {
        self.injector.as_deref()
    }

    /// Removes the fault injector: every fault still active (crashes,
    /// partitions, link rules) heals immediately and no further scheduled
    /// fault activates. Messages already deferred by a latency spike stay
    /// in flight and deliver at their due round.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Mutable access to the protocol nodes — a testing/nemesis hook for
    /// harnesses that corrupt state on purpose (e.g. the chaos harness's
    /// broken-build self-check). Not part of the simulation contract:
    /// ordinary runs never mutate nodes from outside the engine.
    #[doc(hidden)]
    pub fn nodes_mut(&mut self) -> &mut [ClusterNode] {
        &mut self.nodes
    }

    /// Whether `node` is currently crashed (always `false` without an
    /// injector).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.injector.as_ref().is_some_and(|i| i.is_down(node))
    }

    /// Number of participating hosts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for an empty network.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Accumulated traffic.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Immutable view of the protocol nodes.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    fn predicted_dist(&self) -> impl Fn(NodeId, NodeId) -> f64 + '_ {
        move |a, b| self.predicted.get(a.index(), b.index())
    }

    /// Applies fault lifecycle transitions scheduled up to the current
    /// round: crashed nodes fall silent, recovered nodes cold-restart.
    fn apply_fault_transitions(&mut self) {
        let Some(injector) = &mut self.injector else {
            return;
        };
        let transitions = injector.advance(self.rounds_run as f64);
        for t in transitions {
            let (kind, node, entries) = match &t {
                FaultTransition::Crashed(node) => (TraceKind::Crash, *node, 0),
                FaultTransition::Recovered(node) => (TraceKind::Recover, *node, 0),
                FaultTransition::PartitionStarted(group) => (
                    TraceKind::PartitionStart,
                    group.first().copied().unwrap_or(NodeId::new(0)),
                    group.len(),
                ),
                FaultTransition::PartitionHealed(group) => (
                    TraceKind::PartitionHeal,
                    group.first().copied().unwrap_or(NodeId::new(0)),
                    group.len(),
                ),
            };
            if let FaultTransition::Recovered(node) = &t {
                // Cold restart: gossip state is rebuilt from scratch.
                self.nodes[node.index()].reset();
                self.space_digest[node.index()] = 0;
            }
            if let Some(trace) = &mut self.trace {
                trace.record(TraceEvent {
                    round: self.rounds_run,
                    from: node,
                    to: node,
                    kind,
                    entries,
                    bytes: 0,
                });
            }
        }
    }

    /// Sends one message through the (possibly faulty) wire: accounts
    /// traffic, consults the injector for drops/duplicates/delays, and
    /// either applies it immediately or defers it to a later round.
    fn send(&mut self, to: usize, from: NodeId, msg: Message) {
        self.traffic.messages += 1;
        self.traffic.bytes += msg.wire_len() as u64;
        let fate = match &mut self.injector {
            Some(inj) => inj.message_fate(from, NodeId::new(to), self.rounds_run as f64),
            None => MessageFate::deliver(),
        };
        if fate.is_dropped() {
            self.traffic.dropped += 1;
            self.record(to, from, &msg, TraceKind::Dropped);
            return;
        }
        let delay_rounds = if fate.extra_delay > 0.0 {
            fate.extra_delay.ceil() as usize
        } else {
            0
        };
        for copy in 0..fate.copies {
            if copy > 0 {
                self.traffic.messages += 1;
                self.traffic.bytes += msg.wire_len() as u64;
                self.record(to, from, &msg, TraceKind::Duplicated);
            }
            if delay_rounds == 0 {
                self.apply_message(to, from, msg.clone());
            } else {
                self.record(to, from, &msg, TraceKind::Delayed);
                self.pending.push(PendingDelivery {
                    due_round: self.rounds_run + delay_rounds,
                    to,
                    from,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Decodes and applies one message to its receiver, recording it.
    fn apply_message(&mut self, to: usize, from: NodeId, msg: Message) {
        let decoded = Message::decode(msg.encode()).expect("self-produced message decodes");
        match decoded {
            Message::NodeInfo { nodes } => {
                self.record_sized(to, from, &msg, TraceKind::NodeInfo, nodes.len());
                self.nodes[to]
                    .receive_node_info(from, nodes)
                    .expect("valid neighbor");
            }
            Message::CrtRow { sizes } => {
                self.record_sized(to, from, &msg, TraceKind::CrtRow, sizes.len());
                let row = sizes.into_iter().map(|s| s as usize).collect();
                self.nodes[to]
                    .receive_crt(from, row)
                    .expect("valid neighbor");
            }
        }
    }

    fn record(&mut self, to: usize, from: NodeId, msg: &Message, kind: TraceKind) {
        let entries = match msg {
            Message::NodeInfo { nodes } => nodes.len(),
            Message::CrtRow { sizes } => sizes.len(),
        };
        self.record_sized(to, from, msg, kind, entries);
    }

    fn record_sized(
        &mut self,
        to: usize,
        from: NodeId,
        msg: &Message,
        kind: TraceKind,
        entries: usize,
    ) {
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent {
                round: self.rounds_run,
                from,
                to: NodeId::new(to),
                kind,
                entries,
                bytes: msg.wire_len(),
            });
        }
    }

    /// Runs one gossip round. Returns `true` if any node's state changed or
    /// deliveries are still in flight (i.e. the protocol has not yet
    /// converged).
    pub fn run_round(&mut self) -> bool {
        let digest_before = self.digest();
        let n_cut = self.config.n_cut;
        let n = self.nodes.len();

        // Fault lifecycle scheduled up to this round, then any deliveries
        // a latency spike deferred to it. Late messages may find their
        // receiver dead by now — those drop like any other.
        self.apply_fault_transitions();
        let mut due: Vec<PendingDelivery> = Vec::new();
        let round = self.rounds_run;
        self.pending.retain(|p| {
            if p.due_round <= round {
                due.push(p.clone());
                false
            } else {
                true
            }
        });
        for p in due {
            if self.is_down(NodeId::new(p.to)) {
                self.traffic.dropped += 1;
                self.record(p.to, p.from, &p.msg, TraceKind::Dropped);
            } else {
                self.apply_message(p.to, p.from, p.msg);
            }
        }

        // Phase 1: NodeInfo along every directed overlay edge. Messages are
        // produced from the pre-round state (synchronous rounds), encoded to
        // bytes for accounting, then delivered. Crashed nodes are silent.
        let mut deliveries: Vec<(usize, NodeId, Message)> = Vec::new();
        for m in 0..n {
            let sender = &self.nodes[m];
            if self.is_down(sender.id()) {
                continue;
            }
            for &x in sender.neighbors() {
                let info = sender
                    .node_info_for(x, n_cut, |a, b| self.predicted.get(a.index(), b.index()))
                    .expect("overlay neighbors are mutual");
                deliveries.push((x.index(), sender.id(), Message::NodeInfo { nodes: info }));
            }
        }
        for (to, from, msg) in deliveries {
            self.send(to, from, msg);
        }

        // Phase 2: recompute local maxima (only where the space changed),
        // then CrtRow along every directed edge.
        for i in 0..n {
            if self.is_down(NodeId::new(i)) {
                continue;
            }
            let space = self.nodes[i].clustering_space();
            let mut h = DefaultHasher::new();
            space.hash(&mut h);
            let d = h.finish();
            if d != self.space_digest[i] {
                self.space_digest[i] = d;
                let predicted = &self.predicted;
                self.nodes[i].recompute_own_max(&self.config.classes, |a, b| {
                    predicted.get(a.index(), b.index())
                });
            }
        }
        let mut deliveries: Vec<(usize, NodeId, Message)> = Vec::new();
        for m in 0..n {
            let sender = &self.nodes[m];
            if self.is_down(sender.id()) {
                continue;
            }
            for &x in sender.neighbors() {
                let row = sender.crt_for(x).expect("overlay neighbors are mutual");
                let sizes = row
                    .iter()
                    .map(|&s| u32::try_from(s).expect("cluster size fits u32"))
                    .collect();
                deliveries.push((x.index(), sender.id(), Message::CrtRow { sizes }));
            }
        }
        for (to, from, msg) in deliveries {
            self.send(to, from, msg);
        }

        self.rounds_run += 1;
        self.digest() != digest_before || !self.pending.is_empty()
    }

    /// Runs rounds until a fixpoint, up to `max_rounds`.
    ///
    /// Returns the number of rounds executed, or `None` if the state was
    /// still changing at the cap (which indicates a bug or a pathological
    /// overlay — gossip on a tree converges within `2 × diameter + 2`
    /// rounds; with active faults it may legitimately never settle).
    pub fn run_to_convergence(&mut self, max_rounds: usize) -> Option<usize> {
        let _span = bcc_obs::span!("simnet.run_to_convergence");
        let start = self.rounds_run;
        for _ in 0..max_rounds {
            if !self.run_round() {
                let rounds = self.rounds_run - start;
                bcc_obs::observe!("simnet.convergence_rounds", rounds as u64);
                return Some(rounds);
            }
        }
        None
    }

    /// Submits a query `(k, bandwidth)` at `start` and routes it through the
    /// overlay (Algorithm 4).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of
    /// [`bcc_core::process_query`].
    pub fn query(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
    ) -> Result<QueryOutcome, bcc_core::ClusterError> {
        process_query(
            &self.nodes,
            start,
            k,
            bandwidth,
            &self.config.classes,
            self.predicted_dist(),
        )
    }

    /// [`SimNetwork::query`] with an explicit forwarding policy.
    ///
    /// # Errors
    ///
    /// Same as [`SimNetwork::query`].
    pub fn query_with_policy(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        policy: bcc_core::RoutePolicy,
    ) -> Result<QueryOutcome, bcc_core::ClusterError> {
        process_query_resilient(
            &self.nodes,
            start,
            k,
            bandwidth,
            &self.config.classes,
            self.predicted_dist(),
            policy,
            &RetryPolicy::single_attempt(),
            |_| true,
        )
    }

    /// Failure-aware query: Algorithm 4 with retry/backoff and rerouting
    /// around nodes the fault injector reports dead (see
    /// [`bcc_core::process_query_resilient`]). Without an injector this
    /// behaves like [`SimNetwork::query`] plus hop budgeting.
    ///
    /// # Errors
    ///
    /// See [`bcc_core::process_query_resilient`].
    pub fn query_resilient(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
    ) -> Result<QueryOutcome, bcc_core::ClusterError> {
        process_query_resilient(
            &self.nodes,
            start,
            k,
            bandwidth,
            &self.config.classes,
            self.predicted_dist(),
            RoutePolicy::FirstFit,
            retry,
            |u| !self.is_down(u),
        )
    }

    /// [`SimNetwork::query_resilient`] under a caller-supplied
    /// [`WorkMeter`]: the walk's local cluster searches charge the meter
    /// and the query degrades to [`Budgeted::Exhausted`] when it runs dry
    /// (see [`bcc_core::process_query_resilient_budgeted`]).
    ///
    /// # Errors
    ///
    /// See [`bcc_core::process_query_resilient`].
    pub fn query_resilient_budgeted(
        &self,
        start: NodeId,
        k: usize,
        bandwidth: f64,
        retry: &RetryPolicy,
        meter: &mut WorkMeter,
    ) -> Result<Budgeted<QueryOutcome>, bcc_core::ClusterError> {
        process_query_resilient_budgeted(
            &self.nodes,
            start,
            k,
            bandwidth,
            &self.config.classes,
            self.predicted_dist(),
            RoutePolicy::FirstFit,
            retry,
            |u| !self.is_down(u),
            meter,
        )
    }

    /// Rewrites the predicted-distance rows of `touched` hosts against
    /// every host in `targets` (both orientations — the matrix is
    /// symmetric). Returns the number of entries written, the churn-cost
    /// unit the benches report.
    ///
    /// This is the incremental counterpart of rebuilding the whole matrix:
    /// a membership change re-embeds only `touched` hosts, so only their
    /// rows can differ — `O(|touched| · |targets|)` work instead of
    /// `O(n²)`.
    pub fn update_predicted_rows(
        &mut self,
        touched: &[NodeId],
        targets: &[NodeId],
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> u64 {
        let mut entries = 0u64;
        for &t in touched {
            for &u in targets {
                if t == u {
                    continue;
                }
                self.predicted.set(t.index(), u.index(), dist(t, u));
                entries += 1;
            }
        }
        entries
    }

    /// Applies one churn op's disturbance to the live overlay and returns
    /// the seed set for [`SimNetwork::reconverge_focused`] — every host
    /// whose local gossip inputs changed:
    ///
    /// - the reset and neighbor-edited hosts themselves;
    /// - neighbors of reset hosts (they must re-send their reports so a
    ///   blank host can rebuild its records, and their reports toward a
    ///   re-embedded host sort by that host's new distance row);
    /// - every host in `scan` whose clustering space intersects the reset
    ///   set — a changed distance row silently invalidates its local
    ///   maxima, which the space-hash gate alone cannot see, so those
    ///   hosts get their change-detection digest zeroed to force one
    ///   recomputation.
    ///
    /// Every other host's reports, local maxima and CRT rows are
    /// bit-identical to the pre-churn fixpoint (untouched label distances
    /// are bit-stable across churn), so focused gossip from these seeds
    /// reaches the same fixpoint a cold restart would — change detection
    /// carries the wave exactly as far as records actually differ.
    ///
    /// `scan` is the *live membership* (the caller's active list), not the
    /// id universe: per-op cost scales with the number of participating
    /// hosts, never with the universe size.
    ///
    /// Wire state from before the membership change is void: in-flight
    /// deliveries are cleared and any fault injector is removed, matching
    /// the semantics of the full-rebuild path this replaces (which dropped
    /// the whole network).
    pub fn apply_churn_delta(&mut self, delta: &OverlayDelta, scan: &[NodeId]) -> Vec<NodeId> {
        self.injector = None;
        self.pending.clear();

        let mut seeds: BTreeSet<usize> = BTreeSet::new();
        for (id, list) in &delta.neighbors {
            self.nodes[id.index()].set_neighbors(list.clone());
            self.space_digest[id.index()] = 0;
            seeds.insert(id.index());
        }
        for &id in &delta.reset {
            self.nodes[id.index()].reset();
            self.space_digest[id.index()] = 0;
            seeds.insert(id.index());
        }
        // Neighbors of reset hosts (collected after the neighbor edits, so
        // these are the *new* overlay edges).
        let mut reset_neighbors: Vec<usize> = Vec::new();
        for &id in &delta.reset {
            reset_neighbors.extend(self.nodes[id.index()].neighbors().iter().map(|v| v.index()));
        }
        seeds.extend(reset_neighbors);

        let disturbed: BTreeSet<NodeId> = delta.reset.iter().copied().collect();
        for &i in scan {
            if seeds.contains(&i.index()) && self.space_digest[i.index()] == 0 {
                continue;
            }
            if self.nodes[i.index()]
                .clustering_space()
                .iter()
                .any(|u| disturbed.contains(u))
            {
                self.space_digest[i.index()] = 0;
                seeds.insert(i.index());
            }
        }
        seeds.into_iter().map(NodeId::new).collect()
    }

    /// Runs focused gossip rounds over the disturbed region until no
    /// seeded or newly-disturbed host changes state, up to `max_rounds`.
    /// Returns the number of rounds executed, or `None` at the cap.
    ///
    /// Each round mirrors [`SimNetwork::run_round`]'s two phases but only
    /// *dirty* hosts send; a receiver joins the next round's dirty set
    /// exactly when a delivered record, its local maxima, or a stored CRT
    /// entry actually changed. Fault-free by construction —
    /// [`SimNetwork::apply_churn_delta`] cleared the injector — so every
    /// message delivers immediately and the fixpoint reached is the unique
    /// one a cold restart of the same membership computes.
    pub fn reconverge_focused(&mut self, seeds: &[NodeId], max_rounds: usize) -> Option<usize> {
        let _span = bcc_obs::span!("simnet.reconverge_focused");
        let start = self.rounds_run;
        let mut dirty: BTreeSet<usize> = seeds.iter().map(|s| s.index()).collect();
        while !dirty.is_empty() {
            if self.rounds_run - start >= max_rounds {
                return None;
            }
            dirty = self.run_focused_round(&dirty);
        }
        let rounds = self.rounds_run - start;
        bcc_obs::observe!("simnet.focused_rounds", rounds as u64);
        Some(rounds)
    }

    /// One focused round: dirty hosts send, receivers that changed come
    /// back as the next dirty set.
    fn run_focused_round(&mut self, dirty: &BTreeSet<usize>) -> BTreeSet<usize> {
        let n_cut = self.config.n_cut;
        let mut next: BTreeSet<usize> = BTreeSet::new();

        // Phase 1: NodeInfo from every dirty sender, produced from the
        // pre-round state (synchronous rounds, like `run_round`).
        let mut deliveries: Vec<(usize, NodeId, Message)> = Vec::new();
        for &m in dirty {
            let sender = &self.nodes[m];
            for &x in sender.neighbors() {
                let info = sender
                    .node_info_for(x, n_cut, |a, b| self.predicted.get(a.index(), b.index()))
                    .expect("overlay neighbors are mutual");
                deliveries.push((x.index(), sender.id(), Message::NodeInfo { nodes: info }));
            }
        }
        for (to, from, msg) in deliveries {
            let before = self.nodes[to].aggr_node_for(from).map(<[NodeId]>::to_vec);
            self.send(to, from, msg);
            if self.nodes[to].aggr_node_for(from).map(<[NodeId]>::to_vec) != before {
                next.insert(to);
            }
        }

        // Phase 2: recompute local maxima where the clustering space
        // changed — dirty senders and every receiver phase 1 just updated.
        let mut check: BTreeSet<usize> = dirty.clone();
        check.extend(next.iter().copied());
        for &i in &check {
            let space = self.nodes[i].clustering_space();
            let mut h = DefaultHasher::new();
            space.hash(&mut h);
            let d = h.finish();
            if d != self.space_digest[i] {
                self.space_digest[i] = d;
                let before = self.nodes[i].own_max().to_vec();
                let predicted = &self.predicted;
                self.nodes[i].recompute_own_max(&self.config.classes, |a, b| {
                    predicted.get(a.index(), b.index())
                });
                if self.nodes[i].own_max() != before.as_slice() {
                    next.insert(i);
                }
            }
        }

        // Phase 3: CrtRow from every host whose CRT inputs may have moved
        // this round (the check set covers both last round's receivers and
        // this round's own-max changes).
        let mut deliveries: Vec<(usize, NodeId, Message)> = Vec::new();
        for &m in &check {
            let sender = &self.nodes[m];
            for &x in sender.neighbors() {
                let row = sender.crt_for(x).expect("overlay neighbors are mutual");
                let sizes = row
                    .iter()
                    .map(|&s| u32::try_from(s).expect("cluster size fits u32"))
                    .collect();
                deliveries.push((x.index(), sender.id(), Message::CrtRow { sizes }));
            }
        }
        let classes = self.config.classes.len();
        for (to, from, msg) in deliveries {
            let before: Vec<usize> = (0..classes)
                .map(|c| self.nodes[to].crt_entry(from, c))
                .collect();
            self.send(to, from, msg);
            let changed = (0..classes).any(|c| self.nodes[to].crt_entry(from, c) != before[c]);
            if changed {
                next.insert(to);
            }
        }

        self.rounds_run += 1;
        next
    }

    /// Exports every node's aggregated gossip state as plain data, in node
    /// order. Together with the overlay (anchor tree) and the predicted
    /// matrix this is the network's complete protocol state: feeding it
    /// back through [`SimNetwork::import_gossip`] on a freshly-built
    /// network reproduces [`SimNetwork::digest`] exactly, without running
    /// a single round.
    pub fn export_gossip(&self) -> Vec<NodeGossipState> {
        self.nodes
            .iter()
            .map(|node| {
                let classes = node.class_count();
                NodeGossipState {
                    aggr_node: node
                        .neighbors()
                        .iter()
                        .filter_map(|&v| node.aggr_node_for(v).map(|rec| (v, rec.to_vec())))
                        .collect(),
                    own_max: node.own_max().to_vec(),
                    crt: node
                        .neighbors()
                        .iter()
                        .map(|&v| (v, (0..classes).map(|c| node.crt_entry(v, c)).collect()))
                        .collect(),
                }
            })
            .collect()
    }

    /// Restores gossip state captured by [`SimNetwork::export_gossip`] into
    /// this network, which must have been built over the same overlay (same
    /// anchor tree, same id space). Local maxima are installed verbatim —
    /// no cluster searches run — and the per-node change-detection digests
    /// are refreshed so the next round does not mistake the restored spaces
    /// for fresh information.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch (wrong node count, a
    /// record naming a non-neighbor, a CRT row of the wrong width) —
    /// symptoms of restoring against a different overlay than the one
    /// exported from.
    pub fn import_gossip(&mut self, states: Vec<NodeGossipState>) -> Result<(), String> {
        if states.len() != self.nodes.len() {
            return Err(format!(
                "{} gossip records for {} nodes",
                states.len(),
                self.nodes.len()
            ));
        }
        for (i, st) in states.into_iter().enumerate() {
            let node = &mut self.nodes[i];
            for (v, rec) in st.aggr_node {
                node.receive_node_info(v, rec)
                    .map_err(|e| format!("node {i}: {e}"))?;
            }
            for (v, row) in st.crt {
                node.receive_crt(v, row)
                    .map_err(|e| format!("node {i}: {e}"))?;
            }
            node.restore_own_max(st.own_max)
                .map_err(|e| format!("node {i}: {e}"))?;
            let mut h = DefaultHasher::new();
            self.nodes[i].clustering_space().hash(&mut h);
            self.space_digest[i] = h.finish();
        }
        Ok(())
    }

    /// Hash of all protocol state (spaces + CRTs), used for convergence
    /// detection and determinism tests.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for node in &self.nodes {
            node.clustering_space().hash(&mut h);
            node.own_max().hash(&mut h);
            for &v in node.neighbors() {
                for c in 0..self.config.classes.len() {
                    node.crt_entry(v, c).hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::BandwidthClasses;
    use bcc_embed::{FrameworkConfig, PredictionFramework};
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Line tree metric over 6 hosts: ids at positions 0, 2, 4, …
    fn line_matrix(count: usize) -> DistanceMatrix {
        DistanceMatrix::from_fn(count, |i, j| 2.0 * (i as f64 - j as f64).abs())
    }

    fn build(count: usize, n_cut: usize, classes: Vec<f64>) -> SimNetwork {
        let d = line_matrix(count);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let cls = BandwidthClasses::new(classes, RationalTransform::new(100.0));
        let cfg = ProtocolConfig::new(n_cut, cls);
        SimNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg)
    }

    #[test]
    fn converges_on_small_overlay() {
        let mut net = build(6, 3, vec![25.0, 50.0]);
        let rounds = net.run_to_convergence(50).expect("must converge");
        assert!(
            rounds >= 2,
            "needs at least a couple of rounds, got {rounds}"
        );
        // Converged: one more round changes nothing.
        assert!(!net.run_round());
    }

    #[test]
    fn traffic_is_counted() {
        let mut net = build(5, 3, vec![50.0]);
        assert_eq!(net.traffic(), TrafficStats::default());
        net.run_round();
        let t = net.traffic();
        // 4 overlay edges × 2 directions × 2 phases = 16 messages.
        assert_eq!(t.messages, 16);
        assert!(t.bytes >= 16 * 5);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn deterministic_digest() {
        let mut a = build(6, 3, vec![25.0, 50.0]);
        let mut b = build(6, 3, vec![25.0, 50.0]);
        a.run_to_convergence(50).unwrap();
        b.run_to_convergence(50).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn query_after_convergence_finds_cluster() {
        // Line positions 0..10 step 2; class b=50 → l=2: adjacent pairs.
        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.run_to_convergence(50).unwrap();
        for start in 0..6 {
            let out = net.query(n(start), 2, 50.0).unwrap();
            assert!(out.found(), "start n{start}");
            let c = out.cluster.unwrap();
            assert_eq!(c.len(), 2);
            assert!((c[0].index() as f64 - c[1].index() as f64).abs() <= 1.0);
        }
    }

    #[test]
    fn query_for_impossible_cluster_is_empty() {
        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.run_to_convergence(50).unwrap();
        // l=2 only admits adjacent pairs; k=4 is impossible anywhere.
        let out = net.query(n(0), 4, 50.0).unwrap();
        assert!(!out.found());
    }

    #[test]
    fn ncut_bounds_message_size() {
        let mut small = build(8, 2, vec![25.0]);
        let mut large = build(8, 6, vec![25.0]);
        small.run_to_convergence(50).unwrap();
        large.run_to_convergence(50).unwrap();
        let per_msg_small = small.traffic().bytes as f64 / small.traffic().messages as f64;
        let per_msg_large = large.traffic().bytes as f64 / large.traffic().messages as f64;
        assert!(per_msg_small < per_msg_large);
    }

    #[test]
    fn tracing_records_every_delivery() {
        let mut net = build(5, 3, vec![50.0]);
        net.enable_tracing(1024);
        net.run_round();
        let trace = net.trace().expect("enabled");
        assert_eq!(trace.len() as u64, net.traffic().messages);
        // Both phases present, bytes match the wire.
        use crate::trace::TraceKind;
        assert!(trace.events().iter().any(|e| e.kind == TraceKind::NodeInfo));
        assert!(trace.events().iter().any(|e| e.kind == TraceKind::CrtRow));
        let traced_bytes: u64 = trace.events().iter().map(|e| e.bytes as u64).sum();
        assert_eq!(traced_bytes, net.traffic().bytes);
        // Rendering works and mentions an edge.
        assert!(trace.render(4).contains("->"));
        // Per-edge symmetry: every edge carries traffic both ways.
        for ((a, b), _) in trace.per_edge_counts() {
            assert!(trace.per_edge_counts().contains_key(&(b, a)));
        }
    }

    #[test]
    fn gossip_export_import_reproduces_digest_without_rounds() {
        let mut live = build(8, 3, vec![25.0, 50.0]);
        live.run_to_convergence(100).unwrap();

        let d = line_matrix(8);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let cls = BandwidthClasses::new(vec![25.0, 50.0], RationalTransform::new(100.0));
        let mut fresh = SimNetwork::new(
            fw.anchor(),
            fw.predicted_matrix(),
            ProtocolConfig::new(3, cls),
        );
        assert_ne!(fresh.digest(), live.digest(), "cold network starts blank");

        fresh.import_gossip(live.export_gossip()).unwrap();
        assert_eq!(fresh.rounds_run(), 0, "no rounds ran");
        assert_eq!(fresh.digest(), live.digest(), "warm restore is exact");
        // The restored network is at the same fixpoint: a round is a no-op,
        // and both continue identically.
        assert!(!fresh.run_round());
        assert!(!live.run_round());
        assert_eq!(fresh.digest(), live.digest());
        // Queries answer identically.
        assert_eq!(
            fresh.query(n(2), 2, 50.0).unwrap().cluster,
            live.query(n(2), 2, 50.0).unwrap().cluster
        );
    }

    #[test]
    fn gossip_import_rejects_mismatched_overlay() {
        let mut live = build(6, 3, vec![25.0, 50.0]);
        live.run_to_convergence(100).unwrap();
        let exported = live.export_gossip();

        // Wrong node count.
        let mut other = build(5, 3, vec![25.0, 50.0]);
        assert!(other.import_gossip(exported.clone()).is_err());

        // Wrong class count: CRT rows are too wide.
        let mut other = build(6, 3, vec![25.0]);
        assert!(other.import_gossip(exported).is_err());
    }

    #[test]
    fn absent_hosts_are_isolated_placeholders() {
        // Overlay holds hosts 0..3 but the id space is 0..4: host 3 exists
        // as an inert placeholder.
        let d = line_matrix(4);
        let fw =
            PredictionFramework::build_from_matrix(&line_matrix(3), FrameworkConfig::default());
        let cls = BandwidthClasses::new(vec![50.0], RationalTransform::new(100.0));
        let mut net = SimNetwork::new(fw.anchor(), d, ProtocolConfig::new(2, cls));
        net.run_to_convergence(20).unwrap();
        assert!(net.nodes()[3].neighbors().is_empty());
        // A query submitted at the placeholder finds nothing.
        let out = net.query(n(3), 2, 50.0).unwrap();
        assert!(!out.found());
        // Active hosts still answer.
        assert!(net.query(n(0), 2, 50.0).unwrap().found());
    }

    #[test]
    fn crashed_node_falls_silent_and_is_traced() {
        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.enable_tracing(4096);
        net.inject_faults(&FaultPlan::new(1).crash(0.0, n(2)));
        let _ = net.run_to_convergence(50);
        assert!(net.is_down(n(2)));
        let trace = net.trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::Crash && e.from == n(2)));
        // Messages aimed at the dead node are dropped and visible.
        assert!(trace.dropped_messages() > 0);
        assert_eq!(net.traffic().dropped, trace.dropped_messages());
        // The dead node never sends: no NodeInfo from n2 after round 0.
        assert!(!trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::NodeInfo && e.from == n(2)));
    }

    #[test]
    fn crash_recovery_reconverges_to_fault_free_fixpoint() {
        let mut reference = build(8, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.inject_faults(&FaultPlan::new(5).crash_recover(3.0, n(4), 10.0));
        for _ in 0..100 {
            net.run_round();
        }
        assert!(!net.is_down(n(4)));
        assert_eq!(
            net.digest(),
            reference.digest(),
            "cold restart must rebuild the same fixpoint"
        );
    }

    #[test]
    fn churn_delta_reset_reconverges_to_cold_fixpoint() {
        let mut reference = build(8, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        // Blow away one host's gossip state through the churn-delta path
        // (the shape of a re-embedding) and heal it with focused rounds.
        let delta = OverlayDelta {
            reset: vec![n(4)],
            neighbors: vec![],
        };
        let scan: Vec<NodeId> = (0..8).map(n).collect();
        let seeds = net.apply_churn_delta(&delta, &scan);
        assert!(seeds.contains(&n(4)), "reset host seeds itself");
        let before_messages = net.traffic().messages;
        let rounds = net
            .reconverge_focused(&seeds, 100)
            .expect("focused gossip settles");
        assert!(rounds >= 1);
        assert_eq!(net.digest(), reference.digest(), "same fixpoint as cold");
        // Focused repair talks less than the full re-convergence did.
        assert!(net.traffic().messages - before_messages < reference.traffic().messages);
    }

    #[test]
    fn partition_blocks_convergence_until_heal() {
        let mut reference = build(8, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        // Cut {0, 1} off for 30 rounds, then heal.
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.inject_faults(&FaultPlan::new(2).partition(0.0, vec![n(0), n(1)], Some(30.0)));
        for _ in 0..20 {
            net.run_round();
        }
        assert_ne!(net.digest(), reference.digest(), "cut overlay cannot agree");
        for _ in 0..60 {
            net.run_round();
        }
        assert_eq!(net.digest(), reference.digest(), "healed overlay agrees");
    }

    #[test]
    fn delayed_messages_arrive_in_later_rounds() {
        let mut reference = build(6, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.enable_tracing(1 << 14);
        // Every message on 0→1 is late by 3 rounds until the spike heals at
        // round 50; gossip still converges to the same fixpoint, just
        // later. (While the spike lasts there are always messages in
        // flight, so convergence can only be declared after the heal.)
        net.inject_faults(&FaultPlan::new(3).latency_spike(
            0.0,
            n(0),
            n(1),
            (3.0, 3.0),
            Some(50.0),
        ));
        let rounds = net.run_to_convergence(200).expect("still converges");
        assert!(rounds >= 3);
        assert_eq!(net.digest(), reference.digest());
        let trace = net.trace().unwrap();
        assert!(trace.events().iter().any(|e| e.kind == TraceKind::Delayed));
    }

    #[test]
    fn duplicated_messages_are_idempotent_and_counted() {
        let mut reference = build(6, 3, vec![25.0, 50.0]);
        reference.run_to_convergence(100).unwrap();

        let mut net = build(6, 3, vec![25.0, 50.0]);
        net.enable_tracing(1 << 14);
        net.inject_faults(&FaultPlan::new(4).link_duplicate(0.0, n(0), n(1), 1.0, None));
        net.run_to_convergence(100).unwrap();
        assert_eq!(net.digest(), reference.digest(), "duplicates are harmless");
        let trace = net.trace().unwrap();
        assert!(trace
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::Duplicated));
        assert!(net.traffic().messages > reference.traffic().messages);
    }

    #[test]
    fn resilient_query_routes_around_crashed_interior_node() {
        // Converge first, then crash an interior host without letting the
        // overlay re-gossip: CRT state is now stale. The plain query walks
        // into the dead node; the resilient one reroutes or degrades.
        let mut net = build(8, 3, vec![25.0, 50.0]);
        net.run_to_convergence(100).unwrap();
        let dead = n(3);
        net.inject_faults(&FaultPlan::new(6).crash(net.rounds_run() as f64, dead));
        net.apply_fault_transitions();
        assert!(net.is_down(dead));

        let retry = RetryPolicy::default();
        for start in [0usize, 1, 5, 7] {
            let out = net.query_resilient(n(start), 2, 50.0, &retry).unwrap();
            assert!(out.found(), "start n{start} must still find a pair");
            let c = out.cluster.as_ref().unwrap();
            assert!(!c.contains(&dead), "no dead member in {c:?}");
        }
        // Submitting at the dead node is a typed error.
        assert!(matches!(
            net.query_resilient(dead, 2, 50.0, &retry),
            Err(bcc_core::ClusterError::NodeUnavailable { node: 3 })
        ));
    }
}
