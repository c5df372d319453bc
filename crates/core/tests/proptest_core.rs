//! Property tests for the clustering algorithms.

use bcc_core::{
    diameter, exists_cluster_brute_force, find_cluster, find_cluster_euclidean,
    find_cluster_ordered, max_cluster_size, max_cluster_size_binary_search, ClusterNode, PairOrder,
};
use bcc_metric::{DistanceMatrix, EuclideanPoints, FiniteMetric, NodeId};
use proptest::prelude::*;

/// Random tree metric from a random parent array + edge weights.
fn tree_metric(parents: &[usize], weights: &[f64]) -> DistanceMatrix {
    let n = parents.len() + 1;
    let mut dist_to_root = vec![0.0; n];
    let mut depth = vec![0usize; n];
    for i in 1..n {
        dist_to_root[i] = dist_to_root[parents[i - 1]] + weights[i - 1];
        depth[i] = depth[parents[i - 1]] + 1;
    }
    let parent_of = |i: usize| if i == 0 { None } else { Some(parents[i - 1]) };
    DistanceMatrix::from_fn(n, |a, b| {
        let (mut x, mut y) = (a, b);
        while depth[x] > depth[y] {
            x = parent_of(x).unwrap();
        }
        while depth[y] > depth[x] {
            y = parent_of(y).unwrap();
        }
        while x != y {
            x = parent_of(x).unwrap();
            y = parent_of(y).unwrap();
        }
        dist_to_root[a] + dist_to_root[b] - 2.0 * dist_to_root[x]
    })
}

fn arb_tree_metric(max: usize) -> impl Strategy<Value = DistanceMatrix> {
    (4usize..=max)
        .prop_flat_map(|n| {
            let parents = (1..n).map(|i| 0..i).collect::<Vec<_>>();
            let weights = proptest::collection::vec(0.1f64..10.0, n - 1);
            (parents, weights)
        })
        .prop_map(|(parents, weights)| tree_metric(&parents, &weights))
}

/// Any symmetric "metric-ish" matrix (may violate triangle inequality).
fn arb_any_metric(max: usize) -> impl Strategy<Value = DistanceMatrix> {
    (2usize..=max)
        .prop_flat_map(|n| proptest::collection::vec(0.01f64..100.0, n * (n - 1) / 2))
        .prop_map(|values| {
            let n = (1.0 + (1.0 + 8.0 * values.len() as f64).sqrt()) as usize / 2 + 1;
            // Recover n from the triangular count.
            let mut n_fit = 2;
            while n_fit * (n_fit - 1) / 2 < values.len() {
                n_fit += 1;
            }
            let _ = n;
            let mut it = values.into_iter();
            DistanceMatrix::from_fn(n_fit, |_, _| it.next().unwrap_or(1.0))
        })
}

fn arb_points(max: usize) -> impl Strategy<Value = EuclideanPoints> {
    (2usize..=max)
        .prop_flat_map(|n| proptest::collection::vec(-50.0f64..50.0, n * 2))
        .prop_map(|coords| EuclideanPoints::new(2, coords))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn find_cluster_result_satisfies_constraints_on_any_metric(
        d in arb_any_metric(12),
        k in 2usize..6,
        l in 1.0f64..150.0,
    ) {
        // On arbitrary (non-tree) metrics the *pair-bounded* guarantee
        // still holds: every returned member is within d(p,q) <= l of the
        // defining pair, so diameter is at most... only on tree metrics.
        // What must hold universally: the result has exactly k members,
        // all distinct and in range.
        if let Some(x) = find_cluster(&d, k, l) {
            prop_assert_eq!(x.len(), k);
            let mut sorted = x.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k, "duplicate members");
            prop_assert!(x.iter().all(|&u| u < d.len()));
        }
    }

    #[test]
    fn find_cluster_complete_on_tree_metrics(d in arb_tree_metric(9), k in 2usize..5) {
        let values = d.pair_values();
        for &l in values.iter().take(6) {
            let ours = find_cluster(&d, k, l).is_some();
            let brute = exists_cluster_brute_force(&d, k, l);
            prop_assert_eq!(ours, brute, "k={}, l={}", k, l);
        }
    }

    #[test]
    fn tree_metric_results_meet_diameter(d in arb_tree_metric(12), k in 2usize..6, l in 0.5f64..40.0) {
        if let Some(x) = find_cluster(&d, k, l) {
            prop_assert!(diameter(&d, &x) <= l + 1e-9);
        }
    }

    #[test]
    fn pair_orders_agree_on_feasibility(d in arb_tree_metric(10), k in 2usize..5, l in 0.5f64..40.0) {
        let row = find_cluster_ordered(&d, k, l, PairOrder::RowMajor).is_some();
        let asc = find_cluster_ordered(&d, k, l, PairOrder::AscendingDiameter).is_some();
        prop_assert_eq!(row, asc);
    }

    #[test]
    fn max_cluster_size_consistent(d in arb_any_metric(10), l in 0.5f64..120.0) {
        let m = max_cluster_size(&d, l);
        prop_assert_eq!(m, max_cluster_size_binary_search(&d, l));
        prop_assert!(m >= 1);
        if m >= 2 {
            prop_assert!(find_cluster(&d, m, l).is_some());
        }
        if m < d.len() {
            prop_assert!(find_cluster(&d, m + 1, l).is_none());
        }
    }

    #[test]
    fn node_info_matches_full_sort_at_every_cut(
        records in proptest::collection::vec(proptest::collection::vec(0usize..24, 0..12), 3),
        table in proptest::collection::vec(0u8..4, 24 * 24),
    ) {
        // Host 0 reports to neighbor 1 over neighbors 1..=3. Distances take
        // four integer values, so most cuts fall inside a run of ties and
        // only the id tie-break decides who is kept.
        let dist = |a: NodeId, b: NodeId| {
            let (i, j) = (a.index().min(b.index()), a.index().max(b.index()));
            if i == j { 0.0 } else { f64::from(table[i * 24 + j]) }
        };
        let (x, to) = (NodeId::new(0), NodeId::new(1));
        let mut node = ClusterNode::new(x, (1..=3).map(NodeId::new).collect(), 1);
        for (v, record) in (1..=3).zip(&records) {
            node.receive_node_info(NodeId::new(v), record.iter().map(|&u| NodeId::new(u)).collect())
                .unwrap();
        }
        let mut reference: Vec<NodeId> = std::iter::once(x)
            .chain(records[1..].iter().flatten().map(|&u| NodeId::new(u)))
            .filter(|&u| u != to)
            .collect();
        reference.sort_unstable();
        reference.dedup();
        reference.sort_by(|&a, &b| dist(to, a).total_cmp(&dist(to, b)).then(a.cmp(&b)));
        for n_cut in 1..=reference.len() + 1 {
            let info = node.node_info_for(to, n_cut, dist).unwrap();
            let expected = &reference[..n_cut.min(reference.len())];
            prop_assert_eq!(info.as_slice(), expected, "n_cut={}", n_cut);
        }
    }

    #[test]
    fn batched_reports_equal_per_edge_reports(
        degree in 1usize..6,
        records in proptest::collection::vec(proptest::collection::vec(0usize..16, 0..10), 5),
        present in proptest::collection::vec(0u8..4, 5),
        shared in 0usize..16,
        table in proptest::collection::vec(0u8..4, 16 * 16),
        n_cut in 1usize..24,
        own in proptest::collection::vec(0usize..4, 3),
        rows in proptest::collection::vec(proptest::collection::vec(0usize..4, 3), 5),
        tie in (0usize..3, 0usize..5, 0usize..5),
    ) {
        // Host 0 with neighbors 1..=degree. A neighbor's record is absent
        // (0), empty (1), or a random list that usually also carries the
        // `shared` id, so ids repeat within and across records and may
        // name the host itself or another neighbor. Distances take four
        // integer values, so `n_cut` often cuts a run of ties, and it
        // often exceeds the candidate count.
        let dist = |a: NodeId, b: NodeId| {
            let (i, j) = (a.index().min(b.index()), a.index().max(b.index()));
            if i == j { 0.0 } else { f64::from(table[i * 16 + j]) }
        };
        let neighbors: Vec<NodeId> = (1..=degree).map(NodeId::new).collect();
        let mut node = ClusterNode::new(NodeId::new(0), neighbors.clone(), 3);
        node.restore_own_max(own).unwrap();
        for (i, &v) in neighbors.iter().enumerate() {
            let record: Vec<NodeId> = match present[i] {
                0 => continue,
                1 => Vec::new(),
                2 => records[i].iter().map(|&u| NodeId::new(u)).collect(),
                _ => records[i].iter().chain([&shared]).map(|&u| NodeId::new(u)).collect(),
            };
            node.receive_node_info(v, record).unwrap();
        }
        // CRT rows: neighbor `i` stores a row unless `present[i] == 0`;
        // two neighbors (when distinct) share the top value of one class.
        let (class, a, b) = (tie.0, tie.1 % degree, tie.2 % degree);
        let top = rows.iter().flatten().copied().max().unwrap_or(0) + 1;
        for (i, &v) in neighbors.iter().enumerate() {
            if present[i] == 0 {
                continue;
            }
            let mut row = rows[i].clone();
            if i == a || i == b {
                row[class] = top;
            }
            node.receive_crt(v, row).unwrap();
        }

        for cut in [n_cut, 64] {
            let all = node.node_info_all(cut, dist);
            prop_assert_eq!(all.len(), neighbors.len());
            for (&v, info) in neighbors.iter().zip(&all) {
                prop_assert_eq!(
                    info, &node.node_info_for(v, cut, dist).unwrap(),
                    "NodeInfo to {} at n_cut={}", v, cut
                );
            }
        }
        let all = node.crt_all();
        prop_assert_eq!(all.len(), neighbors.len());
        for (&v, row) in neighbors.iter().zip(&all) {
            prop_assert_eq!(row, &node.crt_for(v).unwrap(), "CRT row to {}", v);
        }
    }

    #[test]
    fn euclidean_clustering_exact(pts in arb_points(8), k in 2usize..5, l in 1.0f64..80.0) {
        let d = DistanceMatrix::from_fn(pts.len(), |i, j| pts.distance(i, j));
        let ours = find_cluster_euclidean(&pts, k, l);
        let brute = exists_cluster_brute_force(&d, k, l);
        prop_assert_eq!(ours.is_some(), brute);
        if let Some(x) = ours {
            prop_assert_eq!(x.len(), k);
            prop_assert!(diameter(&d, &x) <= l + 1e-9, "diam {} > {}", diameter(&d, &x), l);
        }
    }
}
