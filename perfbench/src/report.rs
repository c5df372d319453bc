//! Run options, the figures a workload hands back, and the metric
//! report: human-readable lines, then one JSON result line.

use std::fmt::Write as _;

use bcc_service::ClusterService;
use bcc_shard::Coordinator;
use bcc_simnet::DynamicSystem;

use crate::client::{Client, Ctx};
use crate::stats::{mean, median, ratio, tail, trimmed_mean};
use crate::trace::{NESTING, PAR_SPAN, PHASES};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Traffic seed: schedules and query streams.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed run.
    pub trace: bool,
    /// `bcc-par` pool width.
    pub threads: usize,
    /// Universe seed override (the cross-seed record); `None` keeps the
    /// workload's fixed universe.
    pub universe_seed: Option<u64>,
}

/// Service-layer figures read from the services at the end of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceFigures {
    lookups: u64,
    hits: u64,
    invalidated: u64,
    coalesced: u64,
    exhausted: u64,
    breaker_opened: u64,
    breaker_retries: u64,
    batched: u64,
    batches: u64,
}

impl ServiceFigures {
    fn add(&mut self, svc: &ClusterService) {
        let (c, s, b) = (svc.cache_stats(), svc.stats(), svc.breaker_stats());
        self.lookups += c.lookups;
        self.hits += c.hits;
        self.invalidated += c.invalidated;
        self.coalesced += s.coalesced;
        self.exhausted += s.degraded_partial + s.degraded_stale;
        self.breaker_opened += b.opened;
    }

    fn client(&mut self, client: &Client) {
        self.breaker_retries += client.breaker_retries;
        self.batched += client.batched;
        self.batches += client.batches;
    }
}

/// Coordinator figures read at the end of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardFigures {
    queries: u64,
    pruned: u64,
    forwarded: u64,
    merge_candidates: u64,
    cache_hits: u64,
    load_imbalance: f64,
    join_ms: f64,
}

/// A finished run: the context plus the figures read from the system.
pub struct Run {
    workload: &'static str,
    main_span: &'static str,
    service: ServiceFigures,
    shard: ShardFigures,
    space_mean: f64,
    space_max: f64,
    ctx: Option<Ctx>,
}

impl Run {
    /// A run of `workload` whose main benchmark span is `main_span`.
    pub fn new(workload: &'static str, main_span: &'static str) -> Self {
        Run {
            workload,
            main_span,
            service: ServiceFigures::default(),
            shard: ShardFigures::default(),
            space_mean: 0.0,
            space_max: 0.0,
            ctx: None,
        }
    }

    /// Adds a service incarnation's counters (call before every kill).
    pub fn add_service(&mut self, svc: &ClusterService) {
        self.service.add(svc);
    }

    /// Adds a client's batching and breaker retries.
    pub fn add_client(&mut self, client: &Client) {
        self.service.client(client);
    }

    /// Reads the coordinator's routing counters; `join_ms` is the mean
    /// coordinator join measured by the workload.
    pub fn shard_figures(&mut self, coord: &Coordinator, join_ms: f64) {
        let st = coord.stats();
        let per_shard: Vec<u64> = coord.shards().iter().map(|s| s.stats().queries).collect();
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        self.shard = ShardFigures {
            queries: st.queries,
            pruned: st.pruned,
            forwarded: coord.shards().iter().map(|s| s.stats().forwarded).sum(),
            merge_candidates: coord
                .shards()
                .iter()
                .map(|s| s.stats().merge_candidates)
                .sum(),
            cache_hits: st.cache_hits,
            load_imbalance: if mean > 0.0 { max / mean } else { 0.0 },
            join_ms,
        };
    }

    /// Clustering-space sizes of the active nodes of `systems`' overlays.
    pub fn space_sizes<'a>(&mut self, systems: impl IntoIterator<Item = &'a DynamicSystem>) {
        let mut sizes = Vec::new();
        for sys in systems {
            if let Some(net) = sys.network() {
                sizes.extend(
                    sys.active()
                        .map(|h| net.nodes()[h.index()].clustering_space().len()),
                );
            }
        }
        self.space_mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
        self.space_max = sizes.iter().copied().max().unwrap_or(0) as f64;
    }

    /// Attaches the finished context.
    pub fn finish(mut self, ctx: Ctx) -> Self {
        self.ctx = Some(ctx);
        self
    }

    fn ctx(&self) -> &Ctx {
        self.ctx.as_ref().expect("finished run")
    }

    /// The response-stream digest.
    pub fn digest(&self) -> u64 {
        self.ctx().digest.value()
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.ctx().checks.ok()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    });
}

/// The end-to-end metrics of a timed run, plus the text lines that give
/// each tail's percentile and sample count.
///
/// Central latencies are trimmed means, not medians: op and query costs
/// are mixtures (a churn op disturbs a hub's clustering space or not; a
/// query shares its batch with a cache hit or a miss), and a median that
/// falls between two modes jumps from run to run while a trimmed mean
/// moves smoothly. Tails are the highest percentile with enough samples
/// beyond it.
pub fn end_to_end(run: &Run, peak_rss_mb: f64) -> (Vec<Metric>, Vec<String>) {
    let ctx = run.ctx();
    let s = &ctx.samples;
    let mut out = Vec::new();
    let mut notes = Vec::new();
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let mut tail_of = |name: &str, v: &[f64]| match tail(v) {
        Some(t) => {
            notes.push(format!(
                "{name}: p{} of {} samples ({} beyond)",
                t.percentile, t.samples, t.beyond
            ));
            t.value
        }
        None => {
            notes.push(format!("{name}: only {} samples, no tail", v.len()));
            0.0
        }
    };
    m(&mut out, "setup_s", med(&s.setup_s), "s");
    m(
        &mut out,
        "query_trimmed_mean_ms",
        trimmed_mean(&s.query_ms),
        "ms",
    );
    let q_tail = tail_of("query_tail_ms", &s.query_ms);
    m(&mut out, "query_tail_ms", q_tail, "ms");
    m(
        &mut out,
        "cached_query_trimmed_mean_ms",
        trimmed_mean(&s.cached_ms),
        "ms",
    );
    m(
        &mut out,
        "budgeted_query_trimmed_mean_ms",
        trimmed_mean(&s.budgeted_ms),
        "ms",
    );
    m(
        &mut out,
        "queries_per_s",
        s.queries as f64 / s.query_busy_s.max(f64::MIN_POSITIVE),
        "1/s",
    );
    m(
        &mut out,
        "churn_op_trimmed_mean_ms",
        trimmed_mean(&s.churn_ms),
        "ms",
    );
    let c_tail = tail_of("churn_op_tail_ms", &s.churn_ms);
    m(&mut out, "churn_op_tail_ms", c_tail, "ms");
    m(&mut out, "warm_restart_ms", med(&s.restart_ms), "ms");
    m(&mut out, "peak_rss_mb", peak_rss_mb, "MiB");
    (out, notes)
}

/// The per-layer metrics of a traced run, plus the per-phase attribution
/// as text lines.
pub fn per_layer(run: &Run, threads: usize) -> (Vec<Metric>, Vec<String>) {
    let ctx = run.ctx();
    let tr = &ctx.tracer;
    let s = &ctx.samples;
    let mut out = Vec::new();
    let mut lines = Vec::new();

    // Program spans: mean per call, traced calls, self time.
    let phases = tr.phase_reports();
    for (name, _) in NESTING {
        let (calls, total) = tr.program_span(name);
        let self_ms: f64 = phases
            .iter()
            .flat_map(|p| p.layers.iter())
            .filter(|l| l.name == *name)
            .fold(0.0, |acc, l| acc + l.self_ms);
        m(
            &mut out,
            format!("{name}.ms"),
            total / calls.max(1) as f64,
            "ms",
        );
        m(&mut out, format!("{name}.count"), calls as f64, "count");
        m(&mut out, format!("{name}.self_ms"), self_ms, "ms");
    }

    // core index useful work.
    let probes = tr.counter("core.index.probes");
    m(
        &mut out,
        "core.index.rows_rebuilt",
        tr.counter("core.index.rows_rebuilt") as f64,
        "count",
    );
    m(
        &mut out,
        "core.index.rows_pruned_per_probe",
        ratio(tr.counter("core.index.rows_pruned"), probes),
        "ratio",
    );
    m(
        &mut out,
        "core.index.pair_candidates_per_probe",
        ratio(tr.counter("core.index.pair_candidates"), probes),
        "ratio",
    );
    m(
        &mut out,
        "core.find_cluster.pairs_scanned",
        tr.counter("core.find_cluster.pairs_scanned") as f64,
        "count",
    );
    m(
        &mut out,
        "core.pairs_listed",
        tr.counter("core.pairs_listed") as f64,
        "count",
    );
    m(
        &mut out,
        "core.query.hops_mean",
        ratio(s.hops, s.routed),
        "count",
    );
    m(
        &mut out,
        "core.query.nodes_visited_mean",
        ratio(s.visited, s.routed),
        "count",
    );

    // simnet overlay.
    let o = &ctx.overlay;
    m(
        &mut out,
        "simnet.overlay.messages_per_op",
        ratio(o.messages, o.ops),
        "count",
    );
    m(
        &mut out,
        "simnet.overlay.rounds_per_op",
        ratio(o.rounds, o.ops),
        "count",
    );
    m(
        &mut out,
        "simnet.overlay.region_per_op",
        ratio(o.region, o.ops),
        "count",
    );
    m(
        &mut out,
        "simnet.overlay.predicted_entries_per_op",
        ratio(o.predicted_entries, o.ops),
        "count",
    );
    m(&mut out, "simnet.space_size_mean", run.space_mean, "count");
    m(&mut out, "simnet.space_size_max", run.space_max, "count");

    // persist.
    let p = &ctx.persist;
    m(
        &mut out,
        "persist.journal_append_us",
        mean(&s.journal_us),
        "us",
    );
    m(
        &mut out,
        "persist.checkpoint_ms",
        tr.span("persist.checkpoint").mean_ms(),
        "ms",
    );
    m(&mut out, "persist.capture_ms", p.capture_ms, "ms");
    m(&mut out, "persist.encode_ms", p.encode_ms, "ms");
    m(&mut out, "persist.decode_ms", p.decode_ms, "ms");
    m(&mut out, "persist.restore_ms", p.restore_ms, "ms");
    m(
        &mut out,
        "persist.snapshot_bytes",
        p.snapshot_bytes as f64,
        "bytes",
    );
    m(
        &mut out,
        "persist.replayed_ops",
        p.replayed_ops as f64,
        "count",
    );
    m(
        &mut out,
        "persist.replay_recover_ms",
        p.replay_recover_ms,
        "ms",
    );

    // service.
    let sv = &run.service;
    m(
        &mut out,
        "service.submit_us",
        tr.span("service.submit").mean_ms() * 1e3,
        "us",
    );
    m(
        &mut out,
        "service.tick_ms",
        tr.span("service.tick").mean_ms(),
        "ms",
    );
    m(
        &mut out,
        "service.cache.hit_ratio",
        ratio(sv.hits, sv.lookups),
        "ratio",
    );
    m(
        &mut out,
        "service.batch_size_mean",
        ratio(sv.batched, sv.batches),
        "count",
    );
    m(&mut out, "service.coalesced", sv.coalesced as f64, "count");
    m(
        &mut out,
        "service.cache.invalidated",
        sv.invalidated as f64,
        "count",
    );
    m(
        &mut out,
        "service.budget_exhausted",
        sv.exhausted as f64,
        "count",
    );
    m(
        &mut out,
        "service.breaker.opened",
        sv.breaker_opened as f64,
        "count",
    );
    m(
        &mut out,
        "service.breaker.retries",
        sv.breaker_retries as f64,
        "count",
    );
    m(
        &mut out,
        "service.degraded_frac",
        ctx.tally.degraded_frac(),
        "ratio",
    );

    // shard.
    let sh = &run.shard;
    m(
        &mut out,
        "shard.cluster_near.ms",
        tr.span("shard.cluster_near").mean_ms(),
        "ms",
    );
    m(
        &mut out,
        "shard.pruned_per_query",
        ratio(sh.pruned, sh.queries),
        "ratio",
    );
    m(
        &mut out,
        "shard.forwarded_per_query",
        ratio(sh.forwarded, sh.queries),
        "ratio",
    );
    m(
        &mut out,
        "shard.merge_candidates_per_query",
        ratio(sh.merge_candidates, sh.queries),
        "ratio",
    );
    m(
        &mut out,
        "shard.cache_hit_ratio",
        ratio(sh.cache_hits, sh.queries),
        "ratio",
    );
    m(&mut out, "shard.load_imbalance", sh.load_imbalance, "ratio");
    m(&mut out, "shard.join.ms", sh.join_ms, "ms");

    // par: only meaningful above width 1.
    let wide = threads > 1;
    let (_, busy_ms) = tr.program_span(PAR_SPAN);
    let gate = |v: f64| if wide { v } else { 0.0 };
    m(&mut out, "par.width", threads as f64, "count");
    m(
        &mut out,
        "par.calls",
        gate(tr.counter("par.calls") as f64),
        "count",
    );
    m(
        &mut out,
        "par.tasks",
        gate(tr.counter("par.tasks") as f64),
        "count",
    );
    m(&mut out, "par.worker_busy.ms", gate(busy_ms), "ms");

    // Phases: dominant layer and unattributed share.
    for phase in PHASES {
        let rep = phases.iter().find(|p| p.phase == *phase);
        let (dominant_frac, unattributed) = match rep {
            Some(r) => {
                let frac = r
                    .dominant()
                    .map(|d| d.self_ms / r.wall_ms.max(f64::MIN_POSITIVE))
                    .unwrap_or(0.0);
                (frac, r.unattributed_frac)
            }
            None => (0.0, 0.0),
        };
        m(
            &mut out,
            format!("phase.{phase}.dominant_self_frac"),
            dominant_frac,
            "ratio",
        );
        m(
            &mut out,
            format!("phase.{phase}.unattributed_frac"),
            unattributed,
            "ratio",
        );
    }
    for r in &phases {
        let mut line = format!(
            "phase {:<10} {:>6} ops {:>10.1} ms  dominant {}  unattributed {:.1}%",
            r.phase,
            r.ops,
            r.wall_ms,
            r.dominant()
                .map(|d| format!("{} ({:.1}% self)", d.name, 100.0 * d.self_ms / r.wall_ms))
                .unwrap_or_else(|| "none".into()),
            100.0 * r.unattributed_frac
        );
        for l in &r.layers {
            let _ = write!(
                line,
                "\n    {:<32} {:>8} calls {:>10.2} ms total {:>10.2} ms self",
                l.name, l.calls, l.total_ms, l.self_ms
            );
        }
        lines.push(line);
    }

    // Tracing overhead on the main span.
    let main = tr.span(run.main_span);
    let overhead = main.overhead().unwrap_or(0.0);
    m(&mut out, "trace.overhead_frac", overhead, "ratio");
    lines.push(format!(
        "tracing overhead on {}: traced median {:.3} ms vs untraced {:.3} ms ({:+.1}%)",
        run.main_span,
        median(&main.traced_ms).unwrap_or(0.0),
        median(&main.untraced_ms).unwrap_or(0.0),
        100.0 * overhead
    ));
    (out, lines)
}

/// The human-readable summary every run prints before its result line.
pub fn summary(run: &Run, opts: &Opts) -> Vec<String> {
    let ctx = run.ctx();
    let t = &ctx.tally;
    let mut lines = vec![
        format!(
            "workload {} seed {} seconds {} trace {} pool width {} of {} cores universe seed {}",
            run.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.threads,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            opts.universe_seed
                .map_or_else(|| "default".to_string(), |s| s.to_string()),
        ),
        format!(
            "ops attempted {} failed {} (failed_frac {:.4}); budgeted {} degraded {} \
             (degraded_frac {:.4}); service cache hit ratio {:.3}, breaker retries {}",
            t.attempted,
            t.failed,
            t.failed_frac(),
            t.budgeted,
            t.degraded,
            t.degraded_frac(),
            ratio(run.service.hits, run.service.lookups),
            run.service.breaker_retries
        ),
        format!(
            "samples: setup {} query {} cached {} budgeted {} churn {} restart {}",
            ctx.samples.setup_s.len(),
            ctx.samples.query_ms.len(),
            ctx.samples.cached_ms.len(),
            ctx.samples.budgeted_ms.len(),
            ctx.samples.churn_ms.len(),
            ctx.samples.restart_ms.len()
        ),
        format!(
            "response digest {:016x} over the first {} answers and ops",
            ctx.digest.value(),
            ctx.digested
        ),
        format!(
            "checks: {} run, {} failed",
            ctx.checks.run, ctx.checks.failed
        ),
    ];
    lines.extend(
        ctx.checks
            .failures
            .iter()
            .map(|f| format!("CHECK FAILED {f}")),
    );
    lines
}

/// The attempted and failed counts of the result line.
pub fn counts(run: &Run) -> (u64, u64) {
    let t = &run.ctx().tally;
    (t.attempted.max(1), t.failed)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, mt) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            mt.name, mt.value, mt.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "latency_ms".into(),
                value: 1.0 / 3.0,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }
}
