//! `churn-tier512`: a join/leave/crash/recover schedule on the churn
//! bench's access-link capacity-tier universe, journaled and checkpointed,
//! with probe queries after every op and a kill plus warm restart at the
//! end.

use std::time::{Duration, Instant};

use bcc_core::BandwidthClasses;
use bcc_metric::{NodeId, RationalTransform};
use bcc_service::{ClusterQuery, ClusterService, ServiceConfig};
use bcc_simnet::{DynamicSystem, MemStorage, SnapshotStore, SystemConfig};

use crate::client::{checkpoint, replay_check, restart, service_churn, Client, Ctx};
use crate::gen::{tier_universe, KeySpace, Membership, Rng};
use crate::report::{Opts, Run};

/// Universe size.
pub const HOSTS: usize = 512;
/// The churn bench's universe seed at this size.
pub const UNIVERSE_SEED: u64 = 0x5EED_0001 + HOSTS as u64;
/// The churn bench's bandwidth classes.
const CLASSES: [f64; 2] = [25.0, 75.0];
/// Seed of the membership schedule: part of the workload, like the
/// universe. An op's cost is cubic in the clustering-space size of the
/// hub it disturbs, and that size drifts with the schedule, so a schedule
/// drawn from `--seed` would make runs measure their schedule rather than
/// the code. `--seed` drives the probes.
const SCHEDULE_SEED: u64 = 0x5E21_1024;
/// Probe sizes.
const KS: [usize; 3] = [4, 16, 64];
/// Probes per op (each uncached, then repeated from the cache, then one
/// more key with a budget), and the budget.
const PROBES_PER_OP: usize = 8;
const BUDGET: u64 = 50;
/// Hosts away (left or crashed) at most at once.
const MAX_AWAY: usize = 8;
/// Ops between two checkpoints, and between two warm restarts (a restart
/// checkpoints, kills and recovers the service).
const CHECKPOINT_EVERY: u64 = 2;
const RESTART_EVERY: u64 = 4;
/// Ops run even when the time is up, so the tail has samples beyond it.
const MIN_OPS: u64 = 24;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 7;
/// Ops and probes folded into the stream digest.
const DIGEST_LIMIT: u64 = 64;

/// The workload's system configuration.
pub fn config() -> SystemConfig {
    SystemConfig::new(BandwidthClasses::new(
        CLASSES.to_vec(),
        RationalTransform::default(),
    ))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Run {
    let bw = tier_universe(HOSTS, opts.universe_seed.unwrap_or(UNIVERSE_SEED));
    let cfg = config();
    let hosts: Vec<NodeId> = (0..HOSTS).map(NodeId::new).collect();
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
    let mut run = Run::new("churn-tier512", "churn.op");
    let mut store = SnapshotStore::new(MemStorage::new());
    checkpoint(&mut ctx, &mut store, svc.system());

    let mut rng = Rng::new(opts.seed);
    let mut schedule = Rng::new(SCHEDULE_SEED);
    let mut members = Membership::full(HOSTS);
    let all: Vec<usize> = (0..HOSTS).collect();
    // Uniform keys: every probe after an op misses the invalidated cache.
    let mut keys = KeySpace::new(&all, &KS, &CLASSES, 0.0, u64::MAX, &mut rng);
    let mut client = Client::new(1, "query");
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut ops = 0u64;
    while Instant::now() < deadline || ops < MIN_OPS || !ctx.digest_full() {
        let step = members.next_churn(&mut schedule, MAX_AWAY);
        service_churn(&mut ctx, &mut svc, &mut store, step);
        ctx.overlay(svc.system());
        ops += 1;
        if ops.is_multiple_of(RESTART_EVERY) {
            run.add_service(&svc);
            match restart(&mut ctx, svc, &mut store, &bw, &cfg) {
                Some(restarted) => svc = restarted,
                None => return run.finish(ctx),
            }
        } else if ops.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoint(&mut ctx, &mut store, svc.system());
        }
        // Probes one at a time: the op invalidated the cache, so the first
        // ask of a key misses and the repeat hits.
        for _ in 0..PROBES_PER_OP {
            let key = keys.draw(&mut rng, &members);
            let probe = ClusterQuery::new(key.host, key.k, key.bandwidth);
            client.offer(&mut ctx, &mut svc, probe);
            client.offer(&mut ctx, &mut svc, probe);
            let key = keys.draw(&mut rng, &members);
            let budgeted = ClusterQuery::new(key.host, key.k, key.bandwidth).with_budget(BUDGET);
            client.offer(&mut ctx, &mut svc, budgeted);
        }
    }
    run.add_service(&svc);
    run.add_client(&client);
    run.space_sizes([svc.system()]);
    replay_check(&mut ctx, svc.system(), &store, &bw, &cfg);
    run.finish(ctx)
}
