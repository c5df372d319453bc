//! Benchmark-side spans and per-layer attribution.
//!
//! Every call into a crate's public API goes through [`Tracer::time`],
//! which times it from outside (the benchmark span). In a traced run it
//! also reads the `bcc-obs` span histograms and counters before and after
//! the call and books the deltas to the call's *phase*. The program's
//! spans are flat, so self time comes from their known static nesting
//! ([`NESTING`]): a layer's self time is its total minus the totals of the
//! layers nested directly inside it, and whatever the program spans of a
//! phase leave uncovered is the phase's unattributed time.
//!
//! Traced runs alternate obs on and off between operations, so every
//! benchmark span also yields traced and untraced samples of the same
//! stream: their medians give the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use bcc_obs::{Counter, Histogram};

use crate::stats::median;

/// Program spans with the spans they can nest directly inside, in order of
/// preference. Within one phase a span is booked under the first listed
/// parent that recorded time in that phase, else directly under the
/// phase's benchmark span. `par.worker_busy` is left out: pool workers run
/// on other threads and overlap their caller, so it is reported on its
/// own.
pub const NESTING: &[(&str, &[&str])] = &[
    ("embed.join", &[]),
    ("embed.leave", &[]),
    ("core.index.build", &["service.query"]),
    ("core.index.update", &[]),
    ("core.find_cluster_indexed", &["service.query"]),
    ("core.max_cluster_size_indexed", &["service.query"]),
    ("core.find_cluster", &["service.query"]),
    (
        "core.max_cluster_size",
        &[
            "simnet.reconverge_focused",
            "simnet.run_to_convergence",
            "service.query",
        ],
    ),
    ("simnet.reconverge_focused", &[]),
    ("simnet.run_to_convergence", &[]),
    ("service.batch.execute", &[]),
    ("service.batch.plan", &["service.batch.execute"]),
    ("service.cache.lookup", &["service.batch.execute"]),
    ("service.query", &["service.batch.execute"]),
];

/// The pool's worker span, reported outside the nesting tree.
pub const PAR_SPAN: &str = "par.worker_busy";

/// Program counters read per phase.
pub const COUNTERS: &[&str] = &[
    "core.index.rows_rebuilt",
    "core.index.probes",
    "core.index.rows_pruned",
    "core.index.pair_candidates",
    "core.find_cluster.pairs_scanned",
    "core.pairs_listed",
    "par.calls",
    "par.tasks",
];

/// Phases, in report order.
pub const PHASES: &[&str] = &["setup", "churn", "query", "direct", "checkpoint", "restart"];

/// Histogram count/sum and counter values at one instant.
#[derive(Debug, Clone, Default)]
struct Reading {
    calls: Vec<u64>,
    ns: Vec<u64>,
    counters: Vec<u64>,
}

impl Reading {
    fn sub_into(&self, before: &Reading, acc: &mut Reading) {
        let add = |acc: &mut Vec<u64>, a: &[u64], b: &[u64]| {
            acc.resize(a.len(), 0);
            for ((x, &a), &b) in acc.iter_mut().zip(a).zip(b) {
                *x += a.saturating_sub(b);
            }
        };
        add(&mut acc.calls, &self.calls, &before.calls);
        add(&mut acc.ns, &self.ns, &before.ns);
        add(&mut acc.counters, &self.counters, &before.counters);
    }
}

/// Accumulated program activity of one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseAcc {
    /// Traced benchmark-span calls booked to the phase.
    pub ops: u64,
    /// Their wall time.
    pub wall_ns: u64,
    delta: Reading,
}

/// Outside timing of one benchmark span, split by whether obs was on.
#[derive(Debug, Clone, Default)]
pub struct BenchSpan {
    /// Durations (ms) of calls made with obs on.
    pub traced_ms: Vec<f64>,
    /// Durations (ms) of calls made with obs off.
    pub untraced_ms: Vec<f64>,
}

impl BenchSpan {
    /// Mean over every sample (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        let n = self.traced_ms.len() + self.untraced_ms.len();
        let sum: f64 = self.traced_ms.iter().chain(&self.untraced_ms).sum();
        sum / n.max(1) as f64
    }

    /// Traced median over untraced median, minus one. `None` without
    /// samples on both sides.
    pub fn overhead(&self) -> Option<f64> {
        let t = median(&self.traced_ms)?;
        let u = median(&self.untraced_ms)?;
        (u > 0.0).then(|| t / u - 1.0)
    }
}

/// One layer's share of a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Span name.
    pub name: &'static str,
    /// Calls.
    pub calls: u64,
    /// Total time (ms).
    pub total_ms: f64,
    /// Self time (ms): total minus the layers nested directly inside.
    pub self_ms: f64,
}

/// The attribution of one phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name.
    pub phase: &'static str,
    /// Traced benchmark-span calls.
    pub ops: u64,
    /// Their wall time (ms).
    pub wall_ms: f64,
    /// Per-layer times, largest self time first.
    pub layers: Vec<LayerTime>,
    /// Share of the wall time no program span covers.
    pub unattributed_frac: f64,
}

impl PhaseReport {
    /// The layer with the largest self time, if any program span ran.
    pub fn dominant(&self) -> Option<&LayerTime> {
        self.layers.first().filter(|l| l.self_ms > 0.0)
    }
}

/// Books benchmark spans and, when tracing, program activity per phase.
pub struct Tracer {
    tracing: bool,
    hists: Vec<&'static Histogram>,
    par: Option<&'static Histogram>,
    counters: Vec<&'static Counter>,
    phases: BTreeMap<&'static str, PhaseAcc>,
    spans: BTreeMap<&'static str, BenchSpan>,
    /// Operations seen so far; odd ones run untraced in a traced run.
    ops: u64,
}

impl Tracer {
    /// A tracer; `tracing` turns on wall-clock obs and phase attribution,
    /// otherwise obs stays off for the whole run.
    pub fn new(tracing: bool) -> Self {
        bcc_obs::set_logical_time(0);
        bcc_obs::set_enabled(tracing);
        let reg = bcc_obs::registry();
        let (hists, par, counters) = if tracing {
            (
                NESTING.iter().map(|(n, _)| reg.histogram(n)).collect(),
                Some(reg.histogram(PAR_SPAN)),
                COUNTERS.iter().map(|n| reg.counter(n)).collect(),
            )
        } else {
            (Vec::new(), None, Vec::new())
        };
        Tracer {
            tracing,
            hists,
            par,
            counters,
            phases: BTreeMap::new(),
            spans: BTreeMap::new(),
            ops: 0,
        }
    }

    /// Whether this is a traced run.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn read(&self) -> Reading {
        let mut calls: Vec<u64> = self.hists.iter().map(|h| h.count()).collect();
        let mut ns: Vec<u64> = self.hists.iter().map(|h| h.sum()).collect();
        if let Some(p) = self.par {
            calls.push(p.count());
            ns.push(p.sum());
        }
        Reading {
            calls,
            ns,
            counters: self.counters.iter().map(|c| c.get()).collect(),
        }
    }

    /// Times `f` as benchmark span `span` of phase `phase` and returns its
    /// result with the duration in ms. In a traced run, every other call
    /// runs with obs off (for the overhead figure) unless `always_trace`.
    pub fn time<R>(
        &mut self,
        phase: &'static str,
        span: &'static str,
        always_trace: bool,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let traced = self.tracing && (always_trace || self.ops.is_multiple_of(2));
        self.ops += 1;
        if !traced {
            if self.tracing {
                bcc_obs::set_enabled(false);
            }
            let t = Instant::now();
            let r = f();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if self.tracing {
                bcc_obs::set_enabled(true);
            }
            self.book(span, false, ms);
            return (r, ms);
        }
        let before = self.read();
        let t = Instant::now();
        let r = f();
        let elapsed = t.elapsed();
        let after = self.read();
        let acc = self.phases.entry(phase).or_default();
        acc.ops += 1;
        acc.wall_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        after.sub_into(&before, &mut acc.delta);
        let ms = elapsed.as_secs_f64() * 1e3;
        self.book(span, true, ms);
        (r, ms)
    }

    fn book(&mut self, span: &'static str, traced: bool, ms: f64) {
        let s = self.spans.entry(span).or_default();
        if traced {
            s.traced_ms.push(ms);
        } else {
            s.untraced_ms.push(ms);
        }
    }

    /// A benchmark span's samples (empty when never called).
    pub fn span(&self, name: &str) -> BenchSpan {
        self.spans.get(name).cloned().unwrap_or_default()
    }

    /// Traced-run total of counter `name` over every phase (0 when not
    /// tracing or unknown).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(i) = COUNTERS.iter().position(|&c| c == name) else {
            return 0;
        };
        self.phases
            .values()
            .map(|acc| acc.delta.counters.get(i).copied().unwrap_or(0))
            .sum()
    }

    /// Traced-run `(calls, total ms)` of program span `name` over every
    /// phase, `par.worker_busy` included.
    pub fn program_span(&self, name: &str) -> (u64, f64) {
        let idx = if name == PAR_SPAN {
            Some(NESTING.len())
        } else {
            NESTING.iter().position(|(n, _)| *n == name)
        };
        let Some(i) = idx else {
            return (0, 0.0);
        };
        self.phases.values().fold((0, 0.0), |(c, ms), acc| {
            (
                c + acc.delta.calls.get(i).copied().unwrap_or(0),
                ms + acc.delta.ns.get(i).copied().unwrap_or(0) as f64 / 1e6,
            )
        })
    }

    /// Attribution of every phase that ran traced, in [`PHASES`] order.
    pub fn phase_reports(&self) -> Vec<PhaseReport> {
        PHASES
            .iter()
            .filter_map(|&p| self.phases.get(p).map(|acc| attribute(p, acc)))
            .collect()
    }
}

/// Splits one phase's program time into self times by [`NESTING`].
fn attribute(phase: &'static str, acc: &PhaseAcc) -> PhaseReport {
    let total_ns = |i: usize| acc.delta.ns.get(i).copied().unwrap_or(0);
    let index_of = |name: &str| NESTING.iter().position(|(n, _)| *n == name);
    // Parent of each span in this phase: first listed parent that ran.
    let parent: Vec<Option<usize>> = NESTING
        .iter()
        .map(|(_, parents)| {
            parents
                .iter()
                .filter_map(|p| index_of(p))
                .find(|&p| total_ns(p) > 0)
        })
        .collect();
    let mut layers: Vec<LayerTime> = Vec::new();
    let mut top_level_ns = 0u64;
    for (i, (name, _)) in NESTING.iter().enumerate() {
        let total = total_ns(i);
        if total == 0 {
            continue;
        }
        if parent[i].is_none() {
            top_level_ns += total;
        }
        let children: u64 = (0..NESTING.len())
            .filter(|&c| parent[c] == Some(i))
            .map(total_ns)
            .sum();
        layers.push(LayerTime {
            name,
            calls: acc.delta.calls.get(i).copied().unwrap_or(0),
            total_ms: total as f64 / 1e6,
            self_ms: total.saturating_sub(children) as f64 / 1e6,
        });
    }
    layers.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    let wall_ns = acc.wall_ns.max(1);
    PhaseReport {
        phase,
        ops: acc.ops,
        wall_ms: acc.wall_ns as f64 / 1e6,
        layers,
        unattributed_frac: wall_ns.saturating_sub(top_level_ns) as f64 / wall_ns as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(spans: &[(&str, u64)], wall_ns: u64) -> PhaseAcc {
        let mut delta = Reading {
            calls: vec![0; NESTING.len() + 1],
            ns: vec![0; NESTING.len() + 1],
            counters: vec![0; COUNTERS.len()],
        };
        for &(name, ns) in spans {
            let i = NESTING.iter().position(|(n, _)| *n == name).unwrap();
            delta.calls[i] = 1;
            delta.ns[i] = ns;
        }
        PhaseAcc {
            ops: 1,
            wall_ns,
            delta,
        }
    }

    #[test]
    fn self_time_follows_the_static_nesting() {
        // A query batch: execute ⊃ {lookup, query ⊃ {build, find}}.
        let r = attribute(
            "query",
            &acc(
                &[
                    ("service.batch.execute", 1_000),
                    ("service.cache.lookup", 50),
                    ("service.query", 900),
                    ("core.index.build", 700),
                    ("core.find_cluster_indexed", 100),
                ],
                1_250,
            ),
        );
        let get = |n: &str| r.layers.iter().find(|l| l.name == n).unwrap().self_ms * 1e6;
        assert_eq!(get("service.batch.execute").round(), 50.0);
        assert_eq!(get("service.query").round(), 100.0);
        assert_eq!(get("core.index.build").round(), 700.0);
        assert_eq!(r.dominant().unwrap().name, "core.index.build");
        assert!((r.unattributed_frac - 0.2).abs() < 1e-9);
    }

    #[test]
    fn max_cluster_size_nests_under_whichever_overlay_span_ran() {
        let churn = attribute(
            "churn",
            &acc(
                &[
                    ("simnet.reconverge_focused", 900),
                    ("core.max_cluster_size", 800),
                    ("embed.leave", 50),
                ],
                1_000,
            ),
        );
        assert_eq!(churn.dominant().unwrap().name, "core.max_cluster_size");
        let focused = churn
            .layers
            .iter()
            .find(|l| l.name == "simnet.reconverge_focused")
            .unwrap();
        assert!((focused.self_ms * 1e6 - 100.0).abs() < 1e-6);
        assert!((churn.unattributed_frac - 0.05).abs() < 1e-9);
    }
}
