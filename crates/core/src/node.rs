//! Per-node protocol state for decentralized clustering (Sec. III-B).
//!
//! Each participating host keeps:
//!
//! - `aggrNode[v]` for every overlay neighbor `v` — the `n_cut` closest
//!   nodes reachable through `v` (Algorithm 2, *dynamic aggregation of close
//!   nodes*);
//! - its own *clustering space* `V_x = {x} ∪ ⋃_v aggrNode[v]`, the only
//!   nodes it may put in a cluster;
//! - `aggrCRT[v][l]` for every neighbor and bandwidth class — the maximum
//!   cluster size available through `v` (Algorithm 3, the *cluster routing
//!   table*), plus `aggrCRT[x][l]`, the maximum it can build locally.
//!
//! [`ClusterNode`] is pure state plus message construction/consumption; it
//! performs no I/O. The round engine in `bcc-simnet` moves the messages, and
//! [`crate::process_query`] walks the overlay using the CRTs.

use std::collections::BTreeMap;

use bcc_metric::{DistanceMatrix, NodeId};

use crate::classes::BandwidthClasses;
use crate::error::ClusterError;
use crate::find_cluster::{self, Budgeted, WorkMeter};

/// Configuration shared by every node of a clustering overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Maximum number of node records per neighbor direction (the paper's
    /// `n_cut`; its tradeoff experiment uses 10).
    pub n_cut: usize,
    /// The quantized bandwidth constraints every CRT is keyed by.
    pub classes: BandwidthClasses,
}

impl ProtocolConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `n_cut` is zero.
    pub fn new(n_cut: usize, classes: BandwidthClasses) -> Self {
        assert!(n_cut > 0, "n_cut must be positive");
        ProtocolConfig { n_cut, classes }
    }
}

/// Protocol state of one host.
#[derive(Debug, Clone)]
pub struct ClusterNode {
    id: NodeId,
    neighbors: Vec<NodeId>,
    /// aggrNode[v]: closest nodes reachable via neighbor v.
    aggr_node: BTreeMap<NodeId, Vec<NodeId>>,
    /// aggrCRT[x][l]: the max cluster size buildable from the local space.
    own_max: Vec<usize>,
    /// aggrCRT[v][l] for each neighbor v.
    aggr_crt: BTreeMap<NodeId, Vec<usize>>,
    class_count: usize,
}

impl ClusterNode {
    /// Creates a node with its overlay neighbor set.
    pub fn new(id: NodeId, neighbors: Vec<NodeId>, class_count: usize) -> Self {
        ClusterNode {
            id,
            neighbors,
            aggr_node: BTreeMap::new(),
            own_max: vec![0; class_count],
            aggr_crt: BTreeMap::new(),
            class_count,
        }
    }

    /// This node's host id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Overlay neighbors.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Clears all aggregated protocol state (a cold restart after a crash).
    ///
    /// The id and overlay neighbor set survive — they come from the anchor
    /// tree, not from gossip — but `aggrNode`, `aggrCRT` and the local
    /// maxima are rebuilt from scratch by subsequent gossip rounds.
    pub fn reset(&mut self) {
        self.aggr_node.clear();
        self.aggr_crt.clear();
        self.own_max = vec![0; self.class_count];
    }

    /// Replaces the overlay neighbor list (an anchor-tree edit adjacent to
    /// this host) and drops the aggregated records of any direction that no
    /// longer exists — stale `aggrNode[v]`/`aggrCRT[v]` entries for a
    /// departed neighbor would otherwise keep polluting
    /// [`ClusterNode::clustering_space`] and the CRT folds forever.
    ///
    /// Records for neighbors that remain are kept as-is: they stay valid
    /// gossip state and focused reconvergence refreshes them only where the
    /// senders' reports actually changed.
    pub fn set_neighbors(&mut self, neighbors: Vec<NodeId>) {
        self.aggr_node.retain(|v, _| neighbors.contains(v));
        self.aggr_crt.retain(|v, _| neighbors.contains(v));
        self.neighbors = neighbors;
    }

    /// Algorithm 2, sender side: the `propNode` message for neighbor `to` —
    /// the `n_cut` candidates closest to `to` among `{self} ∪
    /// ⋃_{v ≠ to} aggrNode[v]`.
    ///
    /// `dist` must return the *predicted* distance between two hosts (tree
    /// or label distance).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `to` is not a neighbor.
    pub fn node_info_for(
        &self,
        to: NodeId,
        n_cut: usize,
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) -> Result<Vec<NodeId>, ClusterError> {
        if !self.neighbors.contains(&to) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: to.index(),
            });
        }
        let mut cand: Vec<NodeId> = vec![self.id];
        for (&v, nodes) in &self.aggr_node {
            if v == to {
                continue;
            }
            cand.extend(nodes.iter().copied());
        }
        cand.sort_unstable();
        cand.dedup();
        cand.retain(|&u| u != to);
        // Top n_cut by predicted distance to `to`; ties break by id so the
        // protocol is deterministic.
        let mut keyed: Vec<(f64, NodeId)> = cand.into_iter().map(|u| (dist(to, u), u)).collect();
        keyed.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("distances are comparable")
                .then(a.1.cmp(&b.1))
        });
        keyed.truncate(n_cut);
        Ok(keyed.into_iter().map(|(_, u)| u).collect())
    }

    /// Algorithm 2, receiver side: stores `propNode` received from `from`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `from` is not a
    /// neighbor.
    pub fn receive_node_info(
        &mut self,
        from: NodeId,
        info: Vec<NodeId>,
    ) -> Result<(), ClusterError> {
        if !self.neighbors.contains(&from) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: from.index(),
            });
        }
        self.aggr_node.insert(from, info);
        Ok(())
    }

    /// The node's clustering space `V_x = {x} ∪ ⋃_v aggrNode[v]`, sorted.
    pub fn clustering_space(&self) -> Vec<NodeId> {
        let mut space: Vec<NodeId> = vec![self.id];
        for nodes in self.aggr_node.values() {
            space.extend(nodes.iter().copied());
        }
        space.sort_unstable();
        space.dedup();
        space
    }

    /// Algorithm 3, line 8: recomputes `aggrCRT[x][l]` for every class by
    /// running the centralized search over the local clustering space.
    pub fn recompute_own_max(
        &mut self,
        classes: &BandwidthClasses,
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
    ) {
        let space = self.clustering_space();
        let local = DistanceMatrix::from_fn(space.len(), |i, j| dist(space[i], space[j]));
        self.own_max = classes
            .distances()
            .iter()
            .map(|&l| find_cluster::max_cluster_size(&local, l))
            .collect();
    }

    /// `aggrCRT[x][l]` — the maximum cluster size this node can build
    /// locally, per class index.
    pub fn own_max(&self) -> &[usize] {
        &self.own_max
    }

    /// Restores `aggrCRT[x]` from a checkpoint without recomputing it —
    /// the warm-restart path, which must reproduce the exporting node's
    /// state bit-for-bit (and skip the local cluster searches
    /// [`ClusterNode::recompute_own_max`] would run).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoMatchingClass`] if the row length does not
    /// match the class count.
    pub fn restore_own_max(&mut self, own_max: Vec<usize>) -> Result<(), ClusterError> {
        if own_max.len() != self.class_count {
            return Err(ClusterError::NoMatchingClass {
                bandwidth: f64::NAN,
            });
        }
        self.own_max = own_max;
        Ok(())
    }

    /// Algorithm 3, sender side: the `propCRT` row for neighbor `to` —
    /// per class, the best cluster size among this node and every direction
    /// except `to`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `to` is not a neighbor.
    pub fn crt_for(&self, to: NodeId) -> Result<Vec<usize>, ClusterError> {
        if !self.neighbors.contains(&to) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: to.index(),
            });
        }
        let mut row = self.own_max.clone();
        for (&v, crt) in &self.aggr_crt {
            if v == to {
                continue;
            }
            for (slot, &val) in row.iter_mut().zip(crt) {
                *slot = (*slot).max(val);
            }
        }
        Ok(row)
    }

    /// Algorithm 3, receiver side: stores the `propCRT` row from `from`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNeighbor`] if `from` is not a
    /// neighbor, and [`ClusterError::NoMatchingClass`] if the row length
    /// does not match the class count.
    pub fn receive_crt(&mut self, from: NodeId, row: Vec<usize>) -> Result<(), ClusterError> {
        if !self.neighbors.contains(&from) {
            return Err(ClusterError::UnknownNeighbor {
                neighbor: from.index(),
            });
        }
        if row.len() != self.class_count {
            return Err(ClusterError::NoMatchingClass {
                bandwidth: f64::NAN,
            });
        }
        self.aggr_crt.insert(from, row);
        Ok(())
    }

    /// `aggrCRT[v][class_idx]` for a neighbor, `0` when nothing has been
    /// received yet.
    pub fn crt_entry(&self, v: NodeId, class_idx: usize) -> usize {
        self.aggr_crt.get(&v).map_or(0, |row| row[class_idx])
    }

    /// Audit accessor: the `aggrNode[v]` record currently stored for
    /// neighbor `v`, or `None` when no Algorithm 2 message from `v` has
    /// been received yet. Used by consistency oracles to cross-check the
    /// gossip state against the live framework without mutating the node.
    pub fn aggr_node_for(&self, v: NodeId) -> Option<&[NodeId]> {
        self.aggr_node.get(&v).map(Vec::as_slice)
    }

    /// Audit accessor: the number of bandwidth classes this node tracks
    /// (the length of every CRT row).
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Algorithm 4, local half: answers `(k, class_idx)` from the live part
    /// of the local clustering space if `aggrCRT[x][l]` admits it, by
    /// Algorithm 1's row-major pair sweep. The node-local kernel of
    /// [`crate::process_query_resilient_budgeted`].
    ///
    /// The clustering space may contain crashed hosts (close-node records
    /// are only as fresh as the last gossip round), so only hosts the
    /// caller believes alive are searched. Any subset of a feasible
    /// cluster is feasible, so filtering keeps the answer valid.
    ///
    /// The search charges the meter per pair examined. On exhaustion it
    /// reports the largest live subset (size ≥ 2) assembled so far as the
    /// `best_partial` instead of a full answer.
    pub fn answer_locally_filtered_budgeted(
        &self,
        k: usize,
        class_idx: usize,
        classes: &BandwidthClasses,
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
        alive: impl FnMut(NodeId) -> bool,
        meter: &mut WorkMeter,
    ) -> Budgeted<Option<Vec<NodeId>>> {
        if k == 0 || k > self.own_max[class_idx] {
            return Budgeted::Done(None);
        }
        let space = self.live_space(alive);
        if space.len() < k {
            return Budgeted::Done(None);
        }
        let local = DistanceMatrix::from_fn(space.len(), |i, j| dist(space[i], space[j]));
        let l = classes.distance_of(class_idx);
        to_hosts(
            &space,
            find_cluster::find_cluster_budgeted(&local, k, l, meter),
        )
    }

    /// The largest cluster buildable from the *live* part of the local
    /// clustering space, if any of size ≥ 2 exists — the source of partial
    /// results when the full `k` cannot be assembled.
    ///
    /// Both the sizing pass and the member search charge the meter. On
    /// exhaustion during sizing no members are known yet
    /// (`best_partial: None`); on exhaustion during the search the largest
    /// subset seen is reported.
    pub fn best_partial_budgeted(
        &self,
        class_idx: usize,
        classes: &BandwidthClasses,
        mut dist: impl FnMut(NodeId, NodeId) -> f64,
        alive: impl FnMut(NodeId) -> bool,
        meter: &mut WorkMeter,
    ) -> Budgeted<Option<Vec<NodeId>>> {
        let space = self.live_space(alive);
        if space.len() < 2 {
            return Budgeted::Done(None);
        }
        let local = DistanceMatrix::from_fn(space.len(), |i, j| dist(space[i], space[j]));
        let l = classes.distance_of(class_idx);
        let m = match find_cluster::max_cluster_size_budgeted(&local, l, meter) {
            Budgeted::Done(m) => m,
            Budgeted::Exhausted { pairs_done, .. } => {
                return Budgeted::Exhausted {
                    pairs_done,
                    best_partial: None,
                }
            }
        };
        if m < 2 {
            return Budgeted::Done(None);
        }
        to_hosts(
            &space,
            find_cluster::find_cluster_budgeted(&local, m, l, meter),
        )
    }

    /// The hosts of the clustering space that `alive` admits, ascending.
    fn live_space(&self, mut alive: impl FnMut(NodeId) -> bool) -> Vec<NodeId> {
        let mut space = self.clustering_space();
        space.retain(|&u| alive(u));
        space
    }

    /// Algorithm 4, routing half: a neighbor (≠ `exclude`) whose direction
    /// promises a cluster of size ≥ `k` for this class.
    pub fn route(&self, k: usize, class_idx: usize, exclude: Option<NodeId>) -> Option<NodeId> {
        self.route_with_policy(k, class_idx, exclude, RoutePolicy::FirstFit)
    }

    /// Like [`ClusterNode::route`] but with an explicit neighbor-selection
    /// policy.
    pub fn route_with_policy(
        &self,
        k: usize,
        class_idx: usize,
        exclude: Option<NodeId>,
        policy: RoutePolicy,
    ) -> Option<NodeId> {
        self.route_excluding(k, class_idx, exclude, &[], policy)
    }

    /// Like [`ClusterNode::route_with_policy`] but also skipping every
    /// neighbor in `blacklist` — hosts discovered dead while the query was
    /// in flight, which the walk reroutes around.
    pub fn route_excluding(
        &self,
        k: usize,
        class_idx: usize,
        exclude: Option<NodeId>,
        blacklist: &[NodeId],
        policy: RoutePolicy,
    ) -> Option<NodeId> {
        let eligible = self
            .neighbors
            .iter()
            .copied()
            .filter(|&v| Some(v) != exclude)
            .filter(|v| !blacklist.contains(v))
            .filter(|&v| self.crt_entry(v, class_idx) >= k);
        match policy {
            RoutePolicy::FirstFit => eligible.min_by_key(|&v| {
                // Neighbor order = parent first, then children (join order):
                // the paper's "any neighbor" reading, made deterministic.
                self.neighbors
                    .iter()
                    .position(|&n| n == v)
                    .expect("eligible is a neighbor")
            }),
            RoutePolicy::BestFit => eligible.max_by_key(|&v| (self.crt_entry(v, class_idx), v)),
            RoutePolicy::TightestFit => eligible.min_by_key(|&v| (self.crt_entry(v, class_idx), v)),
        }
    }
}

/// Maps a kernel's answer over the slots of `space` back to host ids.
fn to_hosts(
    space: &[NodeId],
    found: Budgeted<Option<Vec<usize>>>,
) -> Budgeted<Option<Vec<NodeId>>> {
    let hosts = |c: Option<Vec<usize>>| c.map(|idxs| idxs.into_iter().map(|i| space[i]).collect());
    match found {
        Budgeted::Done(c) => Budgeted::Done(hosts(c)),
        Budgeted::Exhausted {
            pairs_done,
            best_partial,
        } => Budgeted::Exhausted {
            pairs_done,
            best_partial: hosts(best_partial),
        },
    }
}

/// How a node picks among multiple neighbors whose CRT promises a
/// satisfying cluster (the paper says "any"; the choice affects hop counts
/// but never correctness — measured by the `ablations` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// The first eligible neighbor in overlay order (parent, then children).
    #[default]
    FirstFit,
    /// The neighbor promising the *largest* cluster — heads toward dense
    /// regions, usually minimizing hops.
    BestFit,
    /// The neighbor promising the *smallest* sufficient cluster — leaves
    /// dense regions available for harder queries.
    TightestFit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_metric::RationalTransform;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn classes() -> BandwidthClasses {
        BandwidthClasses::new(vec![25.0, 50.0], RationalTransform::new(100.0))
    }

    /// Line metric over ids: d(i, j) = |i − j|.
    fn line_dist(a: NodeId, b: NodeId) -> f64 {
        (a.index() as f64 - b.index() as f64).abs()
    }

    /// The node-local probe under a meter that never runs dry.
    fn answer(
        x: &ClusterNode,
        k: usize,
        class_idx: usize,
        alive: impl FnMut(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        let mut meter = WorkMeter::unlimited();
        match x.answer_locally_filtered_budgeted(
            k,
            class_idx,
            &classes(),
            line_dist,
            alive,
            &mut meter,
        ) {
            Budgeted::Done(r) => r,
            cut => panic!("an unlimited meter never runs dry: {cut:?}"),
        }
    }

    /// The best live partial under a meter that never runs dry.
    fn partial(
        x: &ClusterNode,
        class_idx: usize,
        alive: impl FnMut(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        let mut meter = WorkMeter::unlimited();
        match x.best_partial_budgeted(class_idx, &classes(), line_dist, alive, &mut meter) {
            Budgeted::Done(r) => r,
            cut => panic!("an unlimited meter never runs dry: {cut:?}"),
        }
    }

    #[test]
    fn config_rejects_zero_ncut() {
        let result = std::panic::catch_unwind(|| ProtocolConfig::new(0, classes()));
        assert!(result.is_err());
    }

    #[test]
    fn node_info_includes_self_and_caps_at_ncut() {
        let mut m = ClusterNode::new(n(1), vec![n(0), n(2)], 2);
        m.receive_node_info(n(2), vec![n(3), n(4), n(5)]).unwrap();
        // Info for n0: candidates {1} ∪ aggrNode[2] = {1, 3, 4, 5}, closest
        // two to n0 under the line metric are 1 and 3.
        let info = m.node_info_for(n(0), 2, line_dist).unwrap();
        assert_eq!(info, vec![n(1), n(3)]);
    }

    #[test]
    fn node_info_excludes_target_direction() {
        let mut m = ClusterNode::new(n(1), vec![n(0), n(2)], 2);
        m.receive_node_info(n(0), vec![n(9)]).unwrap();
        m.receive_node_info(n(2), vec![n(3)]).unwrap();
        // Info destined to n0 must not echo what came from n0.
        let info = m.node_info_for(n(0), 10, line_dist).unwrap();
        assert_eq!(info, vec![n(1), n(3)]);
    }

    #[test]
    fn node_info_rejects_strangers() {
        let m = ClusterNode::new(n(1), vec![n(0)], 1);
        assert!(matches!(
            m.node_info_for(n(7), 3, line_dist),
            Err(ClusterError::UnknownNeighbor { neighbor: 7 })
        ));
        let mut m2 = m.clone();
        assert!(m2.receive_node_info(n(7), vec![]).is_err());
    }

    #[test]
    fn clustering_space_dedups() {
        let mut x = ClusterNode::new(n(0), vec![n(1), n(2)], 2);
        x.receive_node_info(n(1), vec![n(3), n(4)]).unwrap();
        x.receive_node_info(n(2), vec![n(4), n(5)]).unwrap();
        assert_eq!(x.clustering_space(), vec![n(0), n(3), n(4), n(5)]);
    }

    #[test]
    fn own_max_over_local_space() {
        // Space {0, 1, 2, 3} on a line; class distances are 4 (b=25) and
        // 2 (b=50): max sizes 4 and 3.
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        assert_eq!(x.own_max(), &[4, 3]);
    }

    #[test]
    fn crt_row_takes_max_over_other_directions() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2), n(3)], 2);
        x.receive_crt(n(0), vec![5, 1]).unwrap();
        x.receive_crt(n(2), vec![2, 4]).unwrap();
        x.receive_crt(n(3), vec![3, 3]).unwrap();
        // Row for n0 excludes n0's own direction.
        assert_eq!(x.crt_for(n(0)).unwrap(), vec![3, 4]);
        // Row for n2 excludes n2: max(own=0, n0, n3).
        assert_eq!(x.crt_for(n(2)).unwrap(), vec![5, 3]);
    }

    #[test]
    fn crt_row_length_checked() {
        let mut x = ClusterNode::new(n(1), vec![n(0)], 2);
        assert!(x.receive_crt(n(0), vec![1]).is_err());
        assert!(x.receive_crt(n(0), vec![1, 2]).is_ok());
    }

    #[test]
    fn answer_locally_respects_crt_gate() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        // Class 1 (b = 50, l = 2): max is 3.
        let got = answer(&x, 3, 1, |_| true).unwrap();
        assert_eq!(got.len(), 3);
        assert!(answer(&x, 4, 1, |_| true).is_none());
        assert!(answer(&x, 0, 1, |_| true).is_none());
        // Class 0 (l = 4): all four fit.
        assert_eq!(answer(&x, 4, 0, |_| true).unwrap().len(), 4);
    }

    #[test]
    fn answered_cluster_satisfies_constraint() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3), n(7), n(8)])
            .unwrap();
        x.recompute_own_max(&classes(), line_dist);
        let got = answer(&x, 3, 1, |_| true).unwrap();
        for (i, &a) in got.iter().enumerate() {
            for &b in &got[i + 1..] {
                assert!(line_dist(a, b) <= 2.0, "pair ({a}, {b}) violates l");
            }
        }
    }

    #[test]
    fn routing_skips_excluded_neighbor() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2)], 1);
        x.receive_crt(n(0), vec![5]).unwrap();
        x.receive_crt(n(2), vec![5]).unwrap();
        assert_eq!(x.route(4, 0, Some(n(0))), Some(n(2)));
        assert_eq!(x.route(4, 0, None), Some(n(0)));
        assert_eq!(x.route(6, 0, None), None);
    }

    #[test]
    fn routing_before_any_crt_is_none() {
        let x = ClusterNode::new(n(1), vec![n(0), n(2)], 1);
        assert_eq!(x.route(2, 0, None), None);
        assert_eq!(x.crt_entry(n(0), 0), 0);
    }

    #[test]
    fn reset_clears_aggregated_state_but_keeps_identity() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2)]).unwrap();
        x.receive_crt(n(1), vec![3, 2]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        assert!(x.own_max().iter().any(|&m| m > 0));
        x.reset();
        assert_eq!(x.id(), n(0));
        assert_eq!(x.neighbors(), &[n(1)]);
        assert_eq!(x.clustering_space(), vec![n(0)]);
        assert_eq!(x.own_max(), &[0, 0]);
        assert_eq!(x.crt_entry(n(1), 0), 0);
    }

    #[test]
    fn set_neighbors_prunes_stale_directions() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2)], 2);
        x.receive_node_info(n(0), vec![n(0), n(9)]).unwrap();
        x.receive_node_info(n(2), vec![n(2), n(3)]).unwrap();
        x.receive_crt(n(0), vec![5, 4]).unwrap();
        x.receive_crt(n(2), vec![2, 2]).unwrap();
        // An anchor edit swaps neighbor 0 for neighbor 4: records from the
        // kept direction survive, the departed direction's vanish — from
        // the clustering space and the CRT folds alike.
        x.set_neighbors(vec![n(2), n(4)]);
        assert_eq!(x.neighbors(), &[n(2), n(4)]);
        assert_eq!(x.clustering_space(), vec![n(1), n(2), n(3)]);
        assert_eq!(x.crt_entry(n(0), 0), 0);
        assert_eq!(x.crt_entry(n(2), 0), 2);
        assert_eq!(x.aggr_node_for(n(0)), None);
        assert_eq!(x.aggr_node_for(n(2)), Some([n(2), n(3)].as_slice()));
        // Gossip toward the new neighbor works immediately.
        assert!(x.node_info_for(n(4), 2, line_dist).is_ok());
    }

    #[test]
    fn filtered_answer_skips_dead_hosts() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        // Class 1 (l = 2) admits {0, 1, 2}; with host 1 dead only pairs
        // remain, so a live 3-cluster no longer exists.
        let full = answer(&x, 3, 1, |_| true).unwrap();
        assert_eq!(full.len(), 3);
        assert!(answer(&x, 3, 1, |u| u != n(1)).is_none());
        let pair = answer(&x, 2, 1, |u| u != n(1)).unwrap();
        assert!(!pair.contains(&n(1)));
    }

    #[test]
    fn best_partial_returns_largest_live_cluster() {
        let mut x = ClusterNode::new(n(0), vec![n(1)], 2);
        x.receive_node_info(n(1), vec![n(1), n(2), n(3)]).unwrap();
        x.recompute_own_max(&classes(), line_dist);
        let best = partial(&x, 1, |u| u != n(1)).unwrap();
        assert_eq!(best.len(), 2, "live space {{0, 2, 3}} admits a pair");
        // Everything dead but the node itself: no partial of size >= 2.
        assert!(partial(&x, 1, |u| u == n(0)).is_none());
    }

    #[test]
    fn route_excluding_skips_blacklisted_neighbors() {
        let mut x = ClusterNode::new(n(1), vec![n(0), n(2), n(3)], 1);
        x.receive_crt(n(0), vec![5]).unwrap();
        x.receive_crt(n(2), vec![5]).unwrap();
        x.receive_crt(n(3), vec![5]).unwrap();
        assert_eq!(
            x.route_excluding(4, 0, None, &[], RoutePolicy::FirstFit),
            Some(n(0))
        );
        assert_eq!(
            x.route_excluding(4, 0, None, &[n(0)], RoutePolicy::FirstFit),
            Some(n(2))
        );
        assert_eq!(
            x.route_excluding(4, 0, Some(n(2)), &[n(0), n(3)], RoutePolicy::FirstFit),
            None
        );
    }
}
