//! `shard-block512`: a `Coordinator` at four shards over the hierarchical
//! block universe, serving group-local narrow-band queries (shard-local,
//! every other shard pruned) and super-group wide-band queries (a
//! two-shard scatter), cached and uncached, with light churn, budgeted
//! shard-direct traffic, and a warm restart of every shard at the end.

use std::time::{Duration, Instant};

use bcc_core::BandwidthClasses;
use bcc_metric::{BandwidthMatrix, NodeId, RationalTransform};
use bcc_service::{ClusterQuery, ServiceConfig};
use bcc_shard::{Coordinator, ShardPlan};
use bcc_simnet::{fw_label_dist, DynamicSystem, MemStorage, SnapshotStore, SystemConfig};

use crate::check::check_cluster;
use crate::client::{
    apply_to_system, churn_outcome, journal_op, replay_check, Client, Ctx, AUDIT_EVERY,
};
use crate::gen::{block_universe, ChurnStep, KeySpace, Membership, OpKind, Rng};
use crate::report::{Opts, Run};
use crate::stats::mean;

/// Universe size and shard count.
pub const HOSTS: usize = 512;
const SHARDS: usize = 4;
/// The shard bench's classes: 60 Mbps balls stay inside a group, 25 Mbps
/// balls span a super-group.
const CLASSES: [f64; 2] = [25.0, 60.0];
/// Requested cluster sizes.
const KS: [usize; 3] = [4, 16, 64];
/// Zipf exponent of key popularity, and draws between two re-rankings.
const ZIPF_S: f64 = 0.7;
const RERANK_EVERY: u64 = 1_000;
/// Seed of the background membership schedule: part of the workload, like
/// the universe, so every traffic seed meets the same churn.
const SCHEDULE_SEED: u64 = 0x5E21_0512;
/// Share of steps that are a burst of budgeted shard-direct queries, the
/// burst size, and the budget.
const DIRECT_SHARE: f64 = 0.1;
const DIRECT_BURST: usize = 4;
const BUDGET: u64 = 50;
/// Coordinator queries between two membership changes.
const CHURN_EVERY: u64 = 100;
/// Hosts away (left or crashed) at most at once.
const MAX_AWAY: usize = 8;
/// Membership changes between two checkpoints of the changed shard, and
/// between two warm restarts of it (checkpoint, kill, recover in place).
const CHECKPOINT_EVERY: u64 = 2;
const RESTART_EVERY: u64 = 4;
/// Every how many coordinator queries one is recomputed unsharded.
const MIRROR_EVERY: u64 = 16;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 3;
/// Answers folded into the stream digest.
const DIGEST_LIMIT: u64 = 600;

/// The workload's system configuration.
pub fn config() -> SystemConfig {
    SystemConfig::new(BandwidthClasses::new(
        CLASSES.to_vec(),
        RationalTransform::default(),
    ))
}

/// Runs the workload. The universe has no seed: `--universe-seed` is
/// rejected for it upstream.
pub fn run(opts: &Opts) -> Run {
    let bw = block_universe(HOSTS);
    let cfg = config();
    let hosts: Vec<NodeId> = (0..HOSTS).map(NodeId::new).collect();
    let mut ctx = Ctx::new(opts.trace, DIGEST_LIMIT);

    let mut coord = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so only one system is alive.
        drop(coord.take());
        let (b, c) = (bw.clone(), cfg.clone());
        let (built, ms) = ctx.tracer.time("setup", "setup", true, || {
            Coordinator::bootstrap(
                b,
                c,
                ShardPlan::contiguous(HOSTS, SHARDS),
                ServiceConfig::default(),
                &hosts,
            )
        });
        ctx.samples.setup_s.push(ms / 1e3);
        coord = Some(built.expect("bootstrap of a full membership succeeds"));
    }
    let mut coord = coord.expect("at least one set-up");
    // The unsharded reference, fed the same ops outside every timed call.
    let mut mirror = DynamicSystem::bootstrap(bw.clone(), cfg.clone(), &hosts)
        .expect("unsharded bootstrap succeeds");
    let mut stores: Vec<SnapshotStore<MemStorage>> = (0..SHARDS)
        .map(|_| SnapshotStore::new(MemStorage::new()))
        .collect();
    for (s, store) in stores.iter_mut().enumerate() {
        let sys = coord.shard(s).service().system();
        ctx.tracer
            .time("checkpoint", "persist.checkpoint", false, || {
                store.snapshot(sys)
            });
    }

    let mut rng = Rng::new(opts.seed);
    let mut members = Membership::full(HOSTS);
    let all: Vec<usize> = (0..HOSTS).collect();
    let mut keys = KeySpace::new(&all, &KS, &CLASSES, ZIPF_S, RERANK_EVERY, &mut rng);
    let mut schedule = Rng::new(SCHEDULE_SEED);
    let mut direct_keys: Vec<KeySpace> = (0..SHARDS)
        .map(|s| {
            let own: Vec<usize> = coord
                .plan()
                .members_of(s)
                .into_iter()
                .map(|id| id as usize)
                .collect();
            KeySpace::new(&own, &KS, &CLASSES, ZIPF_S, RERANK_EVERY, &mut rng)
        })
        .collect();
    let mut direct = Client::new(DIRECT_BURST, "direct");
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (mut since_churn, mut churn_ops, mut coord_queries) = (0u64, 0u64, 0u64);
    let mut join_ms = Vec::new();
    while Instant::now() < deadline || !ctx.digest_full() {
        if since_churn == CHURN_EVERY {
            let step = members.next_churn(&mut schedule, MAX_AWAY);
            let ms = coord_churn(&mut ctx, &mut coord, &mut stores, step);
            if step.kind == OpKind::Join {
                join_ms.push(ms);
            }
            let owner = coord.plan().owner(step.host);
            ctx.overlay(coord.shard(owner).service().system());
            ctx.checks.record(
                "mirror op applied",
                apply_to_system(&mut mirror, step).map_err(|e| e.to_string()),
            );
            churn_ops += 1;
            since_churn = 0;
            if churn_ops.is_multiple_of(RESTART_EVERY) {
                restart_shard(&mut ctx, &mut coord, owner, &mut stores[owner], &bw, &cfg);
            } else if churn_ops.is_multiple_of(CHECKPOINT_EVERY) {
                let store = &mut stores[owner];
                let sys = coord.shard(owner).service().system();
                ctx.tracer
                    .time("checkpoint", "persist.checkpoint", false, || {
                        store.snapshot(sys)
                    });
            }
            continue;
        }
        if rng.unit() < DIRECT_SHARE {
            let s = rng.below(SHARDS);
            for _ in 0..DIRECT_BURST {
                let key = direct_keys[s].draw(&mut rng, &members);
                let q = ClusterQuery::new(key.host, key.k, key.bandwidth).with_budget(BUDGET);
                direct.offer(&mut ctx, coord.shard_mut(s).service_mut(), q);
            }
            direct.drain(&mut ctx, coord.shard_mut(s).service_mut());
            continue;
        }
        let key = keys.draw(&mut rng, &members);
        coord_query(
            &mut ctx,
            &mut coord,
            &mirror,
            key.host,
            key.k,
            key.bandwidth,
            coord_queries,
        );
        coord_queries += 1;
        since_churn += 1;
    }

    let mut run = Run::new("shard-block512", "shard.cluster_near");
    run.shard_figures(&coord, mean(&join_ms));
    run.space_sizes(coord.shards().iter().map(|s| s.service().system()));
    for (s, store) in stores.iter().enumerate() {
        let svc = coord.shard(s).service();
        run.add_service(svc);
        replay_check(&mut ctx, svc.system(), store, &bw, &cfg);
    }
    run.add_client(&direct);
    run.finish(ctx)
}

/// One timed, journaled coordinator churn op; returns its duration (ms).
fn coord_churn(
    ctx: &mut Ctx,
    coord: &mut Coordinator,
    stores: &mut [SnapshotStore<MemStorage>],
    step: ChurnStep,
) -> f64 {
    let owner = coord.plan().owner(step.host);
    let store = &mut stores[owner];
    let ((result, journal_s), ms) = ctx.tracer.time("churn", "churn.op", false, || {
        let result = match step.kind {
            OpKind::Join => coord.join(step.host),
            OpKind::Leave => coord.leave(step.host),
            OpKind::Crash => coord.crash(step.host),
            OpKind::Recover => coord.recover(step.host),
        };
        let t = Instant::now();
        if result.is_ok() {
            let epoch = coord.shard(owner).service().system().epoch();
            store.log(journal_op(step.kind), step.host, epoch);
        }
        (result, t.elapsed().as_secs_f64())
    });
    churn_outcome(ctx, step, result.map_err(|e| e.to_string()), ms, journal_s);
    ms
}

/// One timed coordinator query with its checks: a valid cluster, a
/// sample against the unsharded reference, and a sample of cached answers
/// against an uncached recompute.
fn coord_query(
    ctx: &mut Ctx,
    coord: &mut Coordinator,
    mirror: &DynamicSystem,
    start: NodeId,
    k: usize,
    bandwidth: f64,
    index: u64,
) {
    let (result, ms) = ctx.tracer.time("query", "shard.cluster_near", false, || {
        coord.cluster_near(start, k, bandwidth)
    });
    ctx.samples.queries += 1;
    ctx.samples.query_busy_s += ms / 1e3;
    ctx.tally.op(result.is_ok());
    let resp = match result {
        Ok(r) => r,
        Err(e) => {
            ctx.checks.record("coordinator query", Err(e.to_string()));
            return;
        }
    };
    if resp.cached {
        ctx.samples.cached_ms.push(ms);
    } else {
        ctx.samples.query_ms.push(ms);
    }
    ctx.checks.same(
        "coordinator answer is exact",
        &resp.outcome.is_exact(),
        &true,
    );
    let l = coord.config().protocol.classes.distance_of(resp.class_idx);
    if let Some(members) = resp.outcome.cluster() {
        let fw = coord.framework();
        let valid = check_cluster(
            members,
            Some(k),
            k,
            l,
            |h| coord.is_active(h),
            |a, b| fw_label_dist(fw, a, b),
        );
        ctx.checks.record("cluster valid", valid);
    }
    if index.is_multiple_of(MIRROR_EVERY) {
        let want = mirror
            .cluster_near(start, k, bandwidth)
            .map_err(|e| e.to_string());
        ctx.checks.same(
            "sharded answer equals the unsharded one",
            &Ok(resp.outcome.cluster().cloned()),
            &want,
        );
    }
    if resp.cached {
        ctx.cached_seen += 1;
        if ctx.cached_seen.is_multiple_of(AUDIT_EVERY) {
            let fresh = coord
                .cluster_near_uncached(start, k, bandwidth)
                .map(|r| r.outcome);
            ctx.checks.same(
                "cached answer equals a fresh recompute",
                &Ok(resp.outcome.clone()),
                &fresh,
            );
        }
    }
    ctx.fold(|d| {
        d.word(index);
        d.word(u64::from(resp.cached));
        d.word(resp.consulted as u64);
        d.cluster(resp.outcome.cluster().map(Vec::as_slice));
    });
}

/// Checkpoints shard `s`, kills its service and recovers it in place from
/// its own store; the restart must reach the shard's pre-kill digest.
fn restart_shard(
    ctx: &mut Ctx,
    coord: &mut Coordinator,
    s: usize,
    store: &mut SnapshotStore<MemStorage>,
    bw: &BandwidthMatrix,
    cfg: &SystemConfig,
) {
    let svc = coord.shard_mut(s).service_mut();
    let pre_kill = svc.system().live_digest();
    ctx.tracer
        .time("checkpoint", "persist.checkpoint", false, || {
            store.snapshot(svc.system())
        });
    let (result, ms) = ctx
        .tracer
        .time("restart", "persist.warm_restart", false, || {
            svc.recover_in_place(store, bw, cfg)
        });
    ctx.tally.op(result.is_ok());
    match result {
        Ok(_) => {
            ctx.samples.restart_ms.push(ms);
            ctx.checks.same(
                "warm restart reaches the pre-kill digest",
                &svc.system().live_digest(),
                &pre_kill,
            );
        }
        Err(e) => ctx.checks.record("warm restart", Err(e.to_string())),
    }
}
