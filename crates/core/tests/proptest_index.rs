//! Property tests pinning the indexed kernels to the brute-force sweeps:
//! bit-identity on random tree metrics *and* arbitrary symmetric matrices,
//! across thread counts, and digest equality between incremental index
//! maintenance and from-scratch rebuilds.

use bcc_core::{
    find_cluster, find_cluster_indexed, find_cluster_indexed_par, max_cluster_size,
    max_cluster_size_indexed, max_cluster_size_indexed_par, ClusterIndex,
};
use bcc_metric::DistanceMatrix;
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

/// Any symmetric "metric-ish" matrix (may violate triangle inequality) —
/// the indexed kernels must stay exact even without tree structure.
fn arb_any_metric(max: usize) -> impl Strategy<Value = DistanceMatrix> {
    (2usize..=max)
        .prop_flat_map(|n| proptest::collection::vec(0.01f64..100.0, n * (n - 1) / 2))
        .prop_map(|values| {
            let mut n_fit = 2;
            while n_fit * (n_fit - 1) / 2 < values.len() {
                n_fit += 1;
            }
            let mut it = values.into_iter();
            DistanceMatrix::from_fn(n_fit, |_, _| it.next().unwrap_or(1.0))
        })
}

/// A symmetric matrix with distances in `1..=4`: long runs of equal
/// distances, so row scans cross tie runs at every threshold.
fn arb_tied_metric(max: usize) -> impl Strategy<Value = DistanceMatrix> {
    (2usize..=max)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec(1u8..=4, n * (n - 1) / 2)))
        .prop_map(|(n, values)| {
            let mut it = values.into_iter();
            DistanceMatrix::from_fn(n, |_, _| f64::from(it.next().unwrap()))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_bit_identical_on_tree_metrics_across_threads(
        d in arb_tree_metric(10),
        k in 2usize..6,
    ) {
        let index = ClusterIndex::from_metric(&d);
        let values = d.pair_values();
        for &l in values.iter().take(5) {
            let expect = find_cluster(&d, k, l);
            prop_assert_eq!(
                find_cluster_indexed(&d, &index, k, l), expect.clone(),
                "serial k={} l={}", k, l
            );
            let expect_max = max_cluster_size(&d, l);
            prop_assert_eq!(
                max_cluster_size_indexed(&d, &index, l), expect_max,
                "serial max l={}", l
            );
            for threads in [1usize, 2, 8] {
                bcc_par::set_threads(threads);
                prop_assert_eq!(
                    find_cluster_indexed_par(&d, &index, k, l), expect.clone(),
                    "par k={} l={} threads={}", k, l, threads
                );
                prop_assert_eq!(
                    max_cluster_size_indexed_par(&d, &index, l), expect_max,
                    "par max l={} threads={}", l, threads
                );
            }
            bcc_par::set_threads(0);
        }
    }

    #[test]
    fn indexed_bit_identical_on_arbitrary_metrics(
        d in arb_any_metric(12),
        tied in arb_tied_metric(12),
        k in 2usize..6,
        l in 1.0f64..150.0,
    ) {
        // No tree structure at all: the ball-size prunes must still be
        // sound, so results match the sweep bit for bit.
        let index = ClusterIndex::from_metric(&d);
        prop_assert_eq!(find_cluster_indexed(&d, &index, k, l), find_cluster(&d, k, l));
        prop_assert_eq!(max_cluster_size_indexed(&d, &index, l), max_cluster_size(&d, l));
        // Every threshold of the tied matrix lands on a run of equal
        // distances.
        let index = ClusterIndex::from_metric(&tied);
        for l in [1.0, 2.0, 3.0, 4.0] {
            prop_assert_eq!(
                max_cluster_size_indexed(&tied, &index, l), max_cluster_size(&tied, l),
                "tied max l={}", l
            );
        }
    }

    #[test]
    fn incremental_digest_equals_rebuild_under_random_churn(
        d in arb_tree_metric(10),
        ops in proptest::collection::vec((0usize..10, any::<bool>()), 1..12),
    ) {
        // Random insert/remove schedule over the metric's points; after
        // every op the incrementally-maintained digest must equal a
        // from-scratch build of the same membership.
        let n = d.len();
        let dist = |a: u32, b: u32| d.get(a as usize, b as usize);
        let mut live = ClusterIndex::empty(n);
        let mut members: Vec<u32> = Vec::new();
        for (raw, insert) in ops {
            let id = (raw % n) as u32;
            let present = members.contains(&id);
            if insert && !present {
                live.apply_churn(&[], &[id], dist).unwrap();
                members.push(id);
            } else if !insert && present {
                live.apply_churn(&[id], &[], dist).unwrap();
                members.retain(|&m| m != id);
            } else {
                continue;
            }
            let fresh = ClusterIndex::build(n, &members, dist);
            prop_assert_eq!(live.digest(), fresh.digest(), "after op on id {}", id);
        }
        prop_assert_eq!(live.stats().full_builds, 0);
    }

    #[test]
    fn lazy_digest_equals_eager_digest_and_cold_build(
        d in arb_tree_metric(10),
        seed in proptest::collection::vec(any::<bool>(), 10),
        ops in proptest::collection::vec((0usize..10, 0u8..3), 1..12),
        fork_at in 0usize..12,
    ) {
        // Two copies run the same churn schedule; `eager` reads its digest
        // after every step, `lazy` only at the end. The digest is computed
        // on read, so when it is read must not change what it is.
        let n = d.len();
        let dist = |a: u32, b: u32| d.get(a as usize, b as usize);
        let mut members: Vec<u32> = (0..n as u32).filter(|&i| seed[i as usize]).collect();
        let mut eager = ClusterIndex::build(n, &members, dist);
        let mut lazy = eager.clone();
        let mut fork: Option<ClusterIndex> = None;
        for (step, (raw, op)) in ops.iter().enumerate() {
            if step == fork_at {
                fork = Some(lazy.clone());
            }
            let id = (raw % n) as u32;
            let present = members.contains(&id);
            let (removed, reembedded): (&[u32], &[u32]) = match (op, present) {
                (0, false) => (&[], &[id]),
                (1, true) => (&[id], &[]),
                // Re-embedding an existing member re-sorts its row.
                (2, true) => (&[], &[id]),
                _ => continue,
            };
            eager.apply_churn(removed, reembedded, dist).unwrap();
            lazy.apply_churn(removed, reembedded, dist).unwrap();
            if removed.is_empty() && !present {
                members.push(id);
            }
            members.retain(|m| !removed.contains(m));
            prop_assert_eq!(
                eager.digest(),
                ClusterIndex::build(n, &members, dist).digest(),
                "eager digest after step {}", step
            );
        }
        let cold = ClusterIndex::build(n, &members, dist).digest();
        // A clone taken before any read, then read first.
        let unread = lazy.clone();
        prop_assert_eq!(unread.digest(), cold);
        prop_assert_eq!(lazy.digest(), cold);
        prop_assert_eq!(eager.digest(), cold);
        // A clone forked mid-schedule (never read) digests like the
        // membership it froze.
        if let Some(fork) = fork {
            let ids = fork.ids().to_vec();
            prop_assert_eq!(fork.digest(), ClusterIndex::build(n, &ids, dist).digest());
        }
    }
}
