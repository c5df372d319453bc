//! The closed-loop client and the per-run context every workload shares:
//! timed calls, samples, tallies, checks and the response digest.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use bcc_core::QueryOutcome;
use bcc_metric::{BandwidthMatrix, NodeId};
use bcc_service::{ClusterQuery, ClusterService, ServiceError, ServiceResponse, Tier};
use bcc_simnet::persist::ChurnOp;
use bcc_simnet::{
    fw_label_dist, ChurnError, DynamicSystem, MemStorage, SnapshotStore, SystemConfig,
    SystemSnapshot,
};

use crate::check::{check_cluster, Checks, Digest};
use crate::gen::{ChurnStep, OpKind};
use crate::stats::Tally;
use crate::trace::Tracer;

/// Every how many cached answers one is audited against a recompute.
pub const AUDIT_EVERY: u64 = 8;

/// Timed samples behind the end-to-end metrics (ms unless noted).
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up durations (s).
    pub setup_s: Vec<f64>,
    /// Unbudgeted queries that missed every cache.
    pub query_ms: Vec<f64>,
    /// Unbudgeted queries answered from a cache.
    pub cached_ms: Vec<f64>,
    /// Queries carrying a work budget.
    pub budgeted_ms: Vec<f64>,
    /// Churn ops, journal append included where present.
    pub churn_ms: Vec<f64>,
    /// Journal appends alone (µs).
    pub journal_us: Vec<f64>,
    /// Warm restarts.
    pub restart_ms: Vec<f64>,
    /// Queries completed.
    pub queries: u64,
    /// Time spent inside query calls (s): the denominator of throughput.
    pub query_busy_s: f64,
    /// Sum of hops over answered queries.
    pub hops: u64,
    /// Sum of nodes visited over answered queries.
    pub visited: u64,
    /// Queries whose routing was recorded.
    pub routed: u64,
}

/// Everything one run accumulates.
pub struct Ctx {
    /// Benchmark spans and attribution.
    pub tracer: Tracer,
    /// Timed samples.
    pub samples: Samples,
    /// Attempted / failed / degraded counts.
    pub tally: Tally,
    /// Correctness checks.
    pub checks: Checks,
    /// Digest over the first `digest_limit` responses and ops.
    pub digest: Digest,
    /// Entries folded into the digest so far.
    pub digested: u64,
    /// Digest prefix length.
    pub digest_limit: u64,
    /// Cached answers seen (drives the audit sampling).
    pub cached_seen: u64,
    /// Persist-layer figures.
    pub persist: PersistStats,
    /// Overlay repair work summed over churn ops.
    pub overlay: OverlaySums,
}

/// `OverlayStats` of the most recent op, summed over churn ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct OverlaySums {
    /// Ops summed.
    pub ops: u64,
    /// Gossip messages.
    pub messages: u64,
    /// Focused gossip rounds.
    pub rounds: u64,
    /// Seed hosts of the disturbed regions.
    pub region: u64,
    /// Predicted-matrix entries rewritten.
    pub predicted_entries: u64,
}

impl Ctx {
    /// A fresh context.
    pub fn new(tracing: bool, digest_limit: u64) -> Self {
        Ctx {
            tracer: Tracer::new(tracing),
            samples: Samples::default(),
            tally: Tally::default(),
            checks: Checks::default(),
            digest: Digest::default(),
            digested: 0,
            digest_limit,
            cached_seen: 0,
            persist: PersistStats::default(),
            overlay: OverlaySums::default(),
        }
    }

    /// Folds words into the digest while the prefix is open.
    pub fn fold(&mut self, f: impl FnOnce(&mut Digest)) {
        if self.digested < self.digest_limit {
            self.digested += 1;
            f(&mut self.digest);
        }
    }

    /// Whether the digest prefix is complete.
    pub fn digest_full(&self) -> bool {
        self.digested >= self.digest_limit
    }

    /// Adds the overlay repair work of `sys`'s most recent churn op.
    pub fn overlay(&mut self, sys: &DynamicSystem) {
        let st = sys.overlay_stats();
        let o = &mut self.overlay;
        o.ops += 1;
        o.messages += st.last_messages;
        o.rounds += st.last_rounds;
        o.region += st.last_region;
        o.predicted_entries += st.last_predicted_entries;
    }

    /// Records a routed outcome's hops and path length.
    pub fn route(&mut self, outcome: &QueryOutcome) {
        self.samples.hops += outcome.hops as u64;
        self.samples.visited += outcome.path.len() as u64;
        self.samples.routed += 1;
    }
}

/// Checks an answered cluster against `sys`: full answers have exactly
/// `k` members, partial ones at most `k`; all live, all pairs within the
/// class bound `l` on the label metric.
pub fn check_against(
    sys: &DynamicSystem,
    members: &[NodeId],
    k: usize,
    exact: bool,
    l: f64,
) -> Result<(), String> {
    let fw = sys.framework();
    check_cluster(
        members,
        exact.then_some(k),
        k,
        l,
        |h| sys.is_active(h),
        |a, b| fw_label_dist(fw, a, b),
    )
}

/// The journal code of a churn step.
pub fn journal_op(kind: OpKind) -> ChurnOp {
    match kind {
        OpKind::Join => ChurnOp::Join,
        OpKind::Leave => ChurnOp::Leave,
        OpKind::Crash => ChurnOp::Crash,
        OpKind::Recover => ChurnOp::Recover,
    }
}

/// Applies one churn step to a service.
pub fn apply_to_service(svc: &mut ClusterService, step: ChurnStep) -> Result<(), ChurnError> {
    match step.kind {
        OpKind::Join => svc.join(step.host),
        OpKind::Leave => svc.leave(step.host),
        OpKind::Crash => svc.crash(step.host),
        OpKind::Recover => svc.recover(step.host),
    }
}

/// Applies one churn step to a bare system.
pub fn apply_to_system(sys: &mut DynamicSystem, step: ChurnStep) -> Result<(), ChurnError> {
    match step.kind {
        OpKind::Join => sys.join(step.host),
        OpKind::Leave => sys.leave(step.host),
        OpKind::Crash => sys.crash(step.host),
        OpKind::Recover => sys.recover(step.host),
    }
}

/// One timed, journaled churn op on a service: the op and its journal
/// append form one sample.
pub fn service_churn(
    ctx: &mut Ctx,
    svc: &mut ClusterService,
    store: &mut SnapshotStore<MemStorage>,
    step: ChurnStep,
) {
    let ((result, journal_s), ms) = ctx.tracer.time("churn", "churn.op", false, || {
        let result = apply_to_service(svc, step);
        let t = Instant::now();
        if result.is_ok() {
            store.log(journal_op(step.kind), step.host, svc.system().epoch());
        }
        (result, t.elapsed().as_secs_f64())
    });
    churn_outcome(ctx, step, result.map_err(|e| e.to_string()), ms, journal_s);
}

/// Books a churn op's result.
pub fn churn_outcome(
    ctx: &mut Ctx,
    step: ChurnStep,
    result: Result<(), String>,
    ms: f64,
    journal_s: f64,
) {
    ctx.tally.op(result.is_ok());
    ctx.checks.record("churn op applied", result);
    ctx.samples.churn_ms.push(ms);
    ctx.samples.journal_us.push(journal_s * 1e6);
    ctx.fold(|d| {
        d.word(0xC4);
        d.word(step.kind as u64);
        d.word(step.host.index() as u64);
    });
}

/// Takes a timed checkpoint.
pub fn checkpoint(ctx: &mut Ctx, store: &mut SnapshotStore<MemStorage>, sys: &DynamicSystem) {
    ctx.tracer
        .time("checkpoint", "persist.checkpoint", false, || {
            store.snapshot(sys)
        });
}

/// Persist-layer figures of the final checkpoint and the replay check.
#[derive(Debug, Default, Clone, Copy)]
pub struct PersistStats {
    /// `SystemSnapshot::capture` (ms).
    pub capture_ms: f64,
    /// `SystemSnapshot::encode` (ms).
    pub encode_ms: f64,
    /// `SystemSnapshot::decode` (ms).
    pub decode_ms: f64,
    /// `SystemSnapshot::restore` (ms).
    pub restore_ms: f64,
    /// Encoded snapshot size.
    pub snapshot_bytes: u64,
    /// Journal ops the replay check replayed.
    pub replayed_ops: u64,
    /// Recovery with that journal tail (ms).
    pub replay_recover_ms: f64,
}

/// Times the snapshot codec stage by stage on `sys` (traced runs only:
/// these are per-layer figures), checking the round trip.
pub fn codec_breakdown(
    ctx: &mut Ctx,
    sys: &DynamicSystem,
    bandwidth: &BandwidthMatrix,
    config: &SystemConfig,
) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let snap = SystemSnapshot::capture(sys);
    ctx.persist.capture_ms = ms(t);
    let t = Instant::now();
    let bytes = snap.encode();
    ctx.persist.encode_ms = ms(t);
    ctx.persist.snapshot_bytes = bytes.len() as u64;
    let t = Instant::now();
    let decoded = SystemSnapshot::decode(&bytes);
    ctx.persist.decode_ms = ms(t);
    let t = Instant::now();
    let restored = decoded.and_then(|s| s.restore(bandwidth, config));
    ctx.persist.restore_ms = ms(t);
    ctx.checks.record(
        "snapshot round trip keeps the overlay digest",
        match restored {
            Ok(r) if r.live_digest() == sys.live_digest() => Ok(()),
            Ok(_) => Err("digest moved".into()),
            Err(e) => Err(e.to_string()),
        },
    );
}

/// Recovers a system from `store` as it stands — the last checkpoint plus
/// its journal tail — and checks it reaches `sys`'s live digest (the
/// replay check). In a traced run the snapshot codec is then timed stage
/// by stage on `sys`.
pub fn replay_check(
    ctx: &mut Ctx,
    sys: &DynamicSystem,
    store: &SnapshotStore<MemStorage>,
    bandwidth: &BandwidthMatrix,
    config: &SystemConfig,
) {
    let (replayed, ms) = ctx
        .tracer
        .time("restart", "persist.replay_recover", true, || {
            store.recover(bandwidth, config)
        });
    match replayed {
        Ok((recovered, report)) => {
            ctx.persist.replayed_ops += report.replayed_ops as u64;
            ctx.persist.replay_recover_ms += ms;
            ctx.checks.same(
                "journal replay reaches the live digest",
                &recovered.live_digest(),
                &sys.live_digest(),
            );
        }
        Err(e) => ctx.checks.record("journal replay", Err(e.to_string())),
    }
    if ctx.tracer.tracing() {
        codec_breakdown(ctx, sys, bandwidth, config);
    }
}

/// Checkpoints `svc`, kills it and restarts it warm from `store`; the
/// restart must reach the pre-kill overlay digest. Returns the restarted
/// service (fresh cache and counters), or `None` when recovery failed.
pub fn restart(
    ctx: &mut Ctx,
    svc: ClusterService,
    store: &mut SnapshotStore<MemStorage>,
    bandwidth: &BandwidthMatrix,
    config: &SystemConfig,
) -> Option<ClusterService> {
    checkpoint(ctx, store, svc.system());
    let pre_kill = svc.system().live_digest();
    let svc_config = svc.config().clone();
    drop(svc);
    let (result, ms) = ctx
        .tracer
        .time("restart", "persist.warm_restart", false, || {
            ClusterService::recover_from(store, bandwidth, config, svc_config).map(|(svc, _)| svc)
        });
    ctx.tally.op(result.is_ok());
    match result {
        Ok(svc) => {
            ctx.samples.restart_ms.push(ms);
            ctx.checks.same(
                "warm restart reaches the pre-kill digest",
                &svc.system().live_digest(),
                &pre_kill,
            );
            Some(svc)
        }
        Err(e) => {
            ctx.checks.record("warm restart", Err(e.to_string()));
            None
        }
    }
}

/// A query the client has issued and not yet seen answered.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    query: ClusterQuery,
    since: Instant,
    not_before_tick: u64,
}

/// Closed-loop client of one [`ClusterService`]: keeps up to `window`
/// queries outstanding and ticks the service when the window is full.
/// A query shed by an open circuit breaker is resubmitted once the hinted
/// number of ticks has passed; its latency runs from the first attempt.
pub struct Client {
    window: usize,
    phase: &'static str,
    next_id: u64,
    outstanding: BTreeMap<u64, Pending>,
    deferred: VecDeque<Pending>,
    /// Breaker sheds the client absorbed by retrying.
    pub breaker_retries: u64,
    /// Sum of batch sizes over ticks that answered something.
    pub batched: u64,
    /// Ticks that answered something.
    pub batches: u64,
}

impl Client {
    /// A client keeping `window` queries in flight, booking to `phase`.
    pub fn new(window: usize, phase: &'static str) -> Self {
        Client {
            window,
            phase,
            next_id: 0,
            outstanding: BTreeMap::new(),
            deferred: VecDeque::new(),
            breaker_retries: 0,
            batched: 0,
            batches: 0,
        }
    }

    /// Queries issued and not yet answered.
    fn in_flight(&self) -> usize {
        self.outstanding.len() + self.deferred.len()
    }

    /// Issues one query, pumping the service while the window is full.
    pub fn offer(&mut self, ctx: &mut Ctx, svc: &mut ClusterService, query: ClusterQuery) {
        let pending = Pending {
            id: self.next_id,
            query,
            since: Instant::now(),
            not_before_tick: 0,
        };
        self.next_id += 1;
        self.submit(ctx, svc, pending);
        while self.in_flight() >= self.window {
            self.pump(ctx, svc);
        }
    }

    /// Pumps until every issued query is answered.
    pub fn drain(&mut self, ctx: &mut Ctx, svc: &mut ClusterService) {
        while self.in_flight() > 0 {
            self.pump(ctx, svc);
        }
    }

    fn submit(&mut self, ctx: &mut Ctx, svc: &mut ClusterService, p: Pending) {
        let (result, ms) = ctx
            .tracer
            .time(self.phase, "service.submit", false, || svc.submit(p.query));
        ctx.samples.query_busy_s += ms / 1e3;
        match result {
            Ok(ticket) => {
                self.outstanding.insert(ticket, p);
            }
            Err(ServiceError::CircuitOpen {
                retry_after_ticks, ..
            }) => {
                self.breaker_retries += 1;
                self.deferred.push_back(Pending {
                    not_before_tick: svc.ticks() + retry_after_ticks,
                    ..p
                });
            }
            Err(e) => {
                ctx.tally.op(false);
                ctx.checks.record("query admitted", Err(e.to_string()));
            }
        }
    }

    fn pump(&mut self, ctx: &mut Ctx, svc: &mut ClusterService) {
        let ready: Vec<Pending> = {
            let now = svc.ticks();
            let (ready, waiting): (Vec<Pending>, Vec<Pending>) = self
                .deferred
                .drain(..)
                .partition(|p| p.not_before_tick <= now);
            self.deferred.extend(waiting);
            ready
        };
        for p in ready {
            self.submit(ctx, svc, p);
        }
        let (responses, ms) = ctx
            .tracer
            .time(self.phase, "service.tick", false, || svc.tick());
        ctx.samples.query_busy_s += ms / 1e3;
        let done = Instant::now();
        if !responses.is_empty() {
            self.batches += 1;
            self.batched += responses.len() as u64;
        }
        for r in responses {
            let p = self
                .outstanding
                .remove(&r.ticket)
                .expect("every response answers an outstanding ticket");
            let ms = done.duration_since(p.since).as_secs_f64() * 1e3;
            answer(ctx, svc, p.id, &r, ms);
        }
    }
}

/// Books and checks one service response.
fn answer(ctx: &mut Ctx, svc: &ClusterService, id: u64, r: &ServiceResponse, ms: f64) {
    let q = r.query;
    ctx.samples.queries += 1;
    ctx.tally.op(r.outcome.is_ok());
    if q.budget.is_some() {
        ctx.samples.budgeted_ms.push(ms);
        ctx.tally.budgeted(r.tier.is_degraded());
    } else if r.cached {
        ctx.samples.cached_ms.push(ms);
    } else {
        ctx.samples.query_ms.push(ms);
    }
    let outcome = match &r.outcome {
        Ok(o) => o,
        Err(e) => {
            ctx.checks
                .record("query answered", Err(format!("query {id}: {e}")));
            return;
        }
    };
    ctx.route(outcome);
    let sys = svc.system();
    let l = sys.config().protocol.classes.distance_of(r.class_idx);
    if let Some(members) = &outcome.cluster {
        match r.tier {
            Tier::Exact => ctx
                .checks
                .record("cluster valid", check_against(sys, members, q.k, true, l)),
            Tier::Partial { .. } => ctx.checks.record(
                "partial cluster valid",
                check_against(sys, members, q.k, false, l),
            ),
            // A labeled stale serve answers an older membership.
            Tier::StaleCache { .. } => {}
        }
    }
    if r.cached && r.tier == Tier::Exact {
        ctx.cached_seen += 1;
        if ctx.cached_seen.is_multiple_of(AUDIT_EVERY) {
            let fresh =
                sys.query_resilient_indexed(q.submit_node, q.k, q.bandwidth, &svc.config().retry);
            ctx.checks
                .same("cached answer equals a fresh recompute", &r.outcome, &fresh);
        }
    }
    let tier = match r.tier {
        Tier::Exact => 0,
        Tier::Partial { .. } => 1,
        Tier::StaleCache { .. } => 2,
    };
    ctx.fold(|d| {
        d.word(id);
        d.word(tier);
        d.word(u64::from(r.cached));
        d.word(outcome.hops as u64);
        d.cluster(outcome.cluster.as_deref());
    });
}
