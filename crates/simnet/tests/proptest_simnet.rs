//! Property tests for the simulated overlay: convergence, determinism, and
//! query-answer validity on randomized datasets.

use bcc_core::{BandwidthClasses, Budgeted, ProtocolConfig, WorkMeter};
use bcc_embed::{FrameworkConfig, PredictionFramework};
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_simnet::{ClusterSystem, SimNetwork, SystemConfig};
use proptest::prelude::*;

/// Random access-link bandwidth matrix (perfect tree metric) with optional
/// multiplicative jitter.
fn arb_bandwidth(max: usize) -> impl Strategy<Value = BandwidthMatrix> {
    (
        proptest::collection::vec(5.0f64..200.0, 4..max),
        proptest::collection::vec(0.8f64..1.2, 512),
        any::<bool>(),
    )
        .prop_map(|(caps, jitter, noisy)| {
            let n = caps.len();
            BandwidthMatrix::from_fn(n, |i, j| {
                let base = caps[i].min(caps[j]);
                if noisy {
                    base * jitter[(i * 31 + j * 17) % jitter.len()]
                } else {
                    base
                }
            })
        })
}

fn classes() -> BandwidthClasses {
    BandwidthClasses::linspace(10.0, 150.0, 8, RationalTransform::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gossip_always_converges(bw in arb_bandwidth(16)) {
        let d = RationalTransform::default().distance_matrix(&bw);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let proto = ProtocolConfig::new(4, classes());
        let mut net = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto);
        let rounds = net.run_to_convergence(300);
        prop_assert!(rounds.is_some(), "gossip failed to converge");
        // Convergence is a fixpoint.
        prop_assert!(!net.run_round());
    }

    #[test]
    fn converged_state_is_order_independent_of_threads(bw in arb_bandwidth(12)) {
        // Building twice gives bit-identical protocol state.
        let build = || {
            let sys = ClusterSystem::build(bw.clone(), SystemConfig::new(classes()));
            sys.network().digest()
        };
        prop_assert_eq!(build(), build());
    }

    #[test]
    fn query_answers_respect_predicted_constraint(
        bw in arb_bandwidth(14),
        k in 2usize..5,
        b in 15.0f64..120.0,
        start_pick in any::<u32>(),
    ) {
        let sys = ClusterSystem::build(bw.clone(), SystemConfig::new(classes()));
        let n = sys.len();
        let start = NodeId::new(start_pick as usize % n);
        let out = sys.query(start, k, b).expect("valid query");
        if let Some(cluster) = out.cluster {
            prop_assert_eq!(cluster.len(), k);
            // Predicted bandwidth of every pair meets the requested b
            // (classes snap *up*, so the promise is at least b).
            for (i, &u) in cluster.iter().enumerate() {
                for &v in &cluster[i + 1..] {
                    let pred = sys.predicted_bandwidth(u, v);
                    prop_assert!(
                        pred >= b - 1e-6,
                        "predicted BW({u},{v}) = {pred} < requested {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn noiseless_systems_never_return_wrong_pairs(
        caps in proptest::collection::vec(5.0f64..200.0, 6..14),
        k in 2usize..4,
        b in 15.0f64..120.0,
    ) {
        // Access-link model without jitter: perfect tree metric, so every
        // returned pair truly satisfies the constraint.
        let n = caps.len();
        let bw = BandwidthMatrix::from_fn(n, |i, j| caps[i].min(caps[j]));
        let sys = ClusterSystem::build(bw, SystemConfig::new(classes()));
        for start in 0..n {
            let out = sys.query(NodeId::new(start), k, b).expect("valid query");
            if let Some(cluster) = out.cluster {
                let (wrong, _) = sys.score_cluster(&cluster, b);
                prop_assert_eq!(wrong, 0);
            }
        }
    }

    #[test]
    fn crt_gate_admits_only_satisfiable_probes(bw in arb_bandwidth(14)) {
        // On a converged, fault-free overlay every node-local probe the
        // routing-table gate admits (k ≤ own_max) finds a cluster. The
        // query walk answers these probes with the first-hit pair sweep
        // rather than an index because of this fact.
        let d = RationalTransform::default().distance_matrix(&bw);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let predicted = fw.predicted_matrix();
        let proto = ProtocolConfig::new(4, classes());
        let mut net = SimNetwork::new(fw.anchor(), predicted.clone(), proto);
        net.run_to_convergence(300).expect("gossip converges");
        let dist = |a: NodeId, b: NodeId| predicted.get(a.index(), b.index());
        for node in net.nodes() {
            for (class_idx, &own_max) in node.own_max().iter().enumerate() {
                for k in 2..=own_max {
                    let mut meter = WorkMeter::unlimited();
                    let probe = node.answer_locally_filtered_budgeted(
                        k, class_idx, &classes(), dist, |_| true, &mut meter,
                    );
                    prop_assert!(
                        matches!(probe, Budgeted::Done(Some(ref c)) if c.len() == k),
                        "node {} class {class_idx} k={k} (own_max {own_max}): {probe:?}",
                        node.id()
                    );
                }
            }
        }
    }

    #[test]
    fn hops_bounded_by_overlay_size(bw in arb_bandwidth(14), k in 2usize..6, b in 15.0f64..120.0) {
        let sys = ClusterSystem::build(bw.clone(), SystemConfig::new(classes()));
        let out = sys.query(NodeId::new(0), k, b).expect("valid query");
        prop_assert!(out.hops < sys.len());
        prop_assert_eq!(out.path.len(), out.hops + 1);
    }

    #[test]
    fn healed_fault_plan_reaches_fault_free_fixpoint(
        bw in arb_bandwidth(10),
        crash_pick in any::<u32>(),
        part_pick in any::<u32>(),
        loss in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        // A random healed fault schedule (crash + recovery, a temporary
        // partition, a transient loss window) run on the *event* engine
        // must leave no residue: once everything heals, gossip rebuilds
        // exactly the unique fixpoint the fault-free *cycle* engine
        // computes. This is the cross-engine guarantee that makes fault
        // scenarios trustworthy.
        use bcc_simnet::{AsyncConfig, AsyncNetwork, FaultPlan};
        let d = RationalTransform::default().distance_matrix(&bw);
        let fw = PredictionFramework::build_from_matrix(&d, FrameworkConfig::default());
        let proto = ProtocolConfig::new(4, classes());
        let mut sync = SimNetwork::new(fw.anchor(), fw.predicted_matrix(), proto.clone());
        sync.run_to_convergence(300).expect("sync converges");

        let n = bw.len();
        let crash = NodeId::new(crash_pick as usize % n);
        let pa = part_pick as usize % n;
        let plan = FaultPlan::new(seed)
            .crash_recover(5.0, crash, 20.0)
            .partition(10.0, vec![NodeId::new(pa), NodeId::new((pa + 1) % n)], Some(15.0))
            .uniform_loss(0.0, loss, Some(40.0));

        let mut cfg = AsyncConfig::new(proto);
        cfg.seed = seed ^ 0xF00D;
        let mut a = AsyncNetwork::new(fw.anchor(), fw.predicted_matrix(), cfg);
        a.inject_faults(&plan);
        a.run_until(400.0);
        prop_assert_eq!(a.digest(), sync.digest(), "healed faults leave no residue");
    }
}
