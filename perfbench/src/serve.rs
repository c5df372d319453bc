//! `serve-umd317`: a query stream through `ClusterService` on the
//! UMD-like preset, with a leave or join every few hundred queries.

use std::time::{Duration, Instant};

use bcc_core::BandwidthClasses;
use bcc_metric::{NodeId, RationalTransform};
use bcc_service::{ClusterQuery, ClusterService, ServiceConfig};
use bcc_simnet::{DynamicSystem, MemStorage, SnapshotStore, SystemConfig};

use crate::client::{checkpoint, replay_check, restart, service_churn, Client, Ctx};
use crate::gen::{KeySpace, Membership, Rng};
use crate::report::{Opts, Run};

/// UMD-like preset seed (the universe is fixed; `--seed` drives traffic).
pub const UNIVERSE_SEED: u64 = 2011;
/// Bandwidth classes spanning the preset's 30–110 Mbps query band.
const CLASSES: [f64; 5] = [30.0, 50.0, 70.0, 90.0, 110.0];
/// Requested cluster sizes and bandwidths: nine query shapes.
const KS: [usize; 3] = [4, 16, 64];
const BANDS: [f64; 3] = [30.0, 70.0, 110.0];
/// Zipf exponent of key popularity, and draws between two re-rankings.
const ZIPF_S: f64 = 1.2;
const RERANK_EVERY: u64 = 1_000;
/// Seed of the background membership schedule: part of the workload, like
/// the universe, so every traffic seed meets the same churn.
const SCHEDULE_SEED: u64 = 0x5E21_0317;
/// Queries the client keeps outstanding.
const WINDOW: usize = 2;
/// Queries between two membership changes.
const CHURN_EVERY: u64 = 400;
/// Hosts away (left or crashed) at most at once.
const MAX_AWAY: usize = 8;
/// Membership changes between two checkpoints, and between two warm
/// restarts (a restart checkpoints, kills and recovers the service).
const CHECKPOINT_EVERY: u64 = 2;
const RESTART_EVERY: u64 = 4;
/// Share of queries carrying a work budget, and the budget.
const BUDGET_SHARE: f64 = 0.2;
const BUDGET: u64 = 50;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 9;
/// Responses folded into the stream digest.
const DIGEST_LIMIT: u64 = 600;

/// The workload's system configuration.
pub fn config() -> SystemConfig {
    SystemConfig::new(BandwidthClasses::new(
        CLASSES.to_vec(),
        RationalTransform::default(),
    ))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Run {
    let bw = bcc_datasets::umd_planetlab(opts.universe_seed.unwrap_or(UNIVERSE_SEED));
    let n = bw.len();
    let cfg = config();
    let hosts: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut ctx = Ctx::new(opts.trace, DIGEST_LIMIT);

    let mut svc = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so only one system is alive.
        drop(svc.take());
        let (b, c) = (bw.clone(), cfg.clone());
        let (built, ms) = ctx.tracer.time("setup", "setup", true, || {
            DynamicSystem::bootstrap(b, c, &hosts)
                .map_err(|e| e.to_string())
                .and_then(|sys| {
                    ClusterService::new(sys, ServiceConfig::default()).map_err(|e| e.to_string())
                })
        });
        ctx.samples.setup_s.push(ms / 1e3);
        svc = Some(built.expect("bootstrap of a full membership succeeds"));
    }
    let mut svc = svc.expect("at least one set-up");
    let mut run = Run::new("serve-umd317", "service.tick");
    let mut store = SnapshotStore::new(MemStorage::new());
    checkpoint(&mut ctx, &mut store, svc.system());

    let mut rng = Rng::new(opts.seed);
    let mut schedule = Rng::new(SCHEDULE_SEED);
    let mut members = Membership::full(n);
    let all: Vec<usize> = (0..n).collect();
    let mut keys = KeySpace::new(&all, &KS, &BANDS, ZIPF_S, RERANK_EVERY, &mut rng);
    let mut client = Client::new(WINDOW, "query");
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (mut since_churn, mut churn_ops) = (0u64, 0u64);
    while Instant::now() < deadline || !ctx.digest_full() {
        if since_churn == CHURN_EVERY {
            client.drain(&mut ctx, &mut svc);
            let step = members.next_churn(&mut schedule, MAX_AWAY);
            service_churn(&mut ctx, &mut svc, &mut store, step);
            ctx.overlay(svc.system());
            churn_ops += 1;
            since_churn = 0;
            if churn_ops.is_multiple_of(RESTART_EVERY) {
                run.add_service(&svc);
                match restart(&mut ctx, svc, &mut store, &bw, &cfg) {
                    Some(restarted) => svc = restarted,
                    None => return run.finish(ctx),
                }
            } else if churn_ops.is_multiple_of(CHECKPOINT_EVERY) {
                checkpoint(&mut ctx, &mut store, svc.system());
            }
            continue;
        }
        let key = keys.draw(&mut rng, &members);
        let mut q = ClusterQuery::new(key.host, key.k, key.bandwidth);
        if rng.unit() < BUDGET_SHARE {
            q = q.with_budget(BUDGET);
        }
        client.offer(&mut ctx, &mut svc, q);
        since_churn += 1;
    }
    client.drain(&mut ctx, &mut svc);
    run.add_service(&svc);
    run.add_client(&client);
    run.space_sizes([svc.system()]);
    replay_check(&mut ctx, svc.system(), &store, &bw, &cfg);
    run.finish(ctx)
}
