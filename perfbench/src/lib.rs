//! Single-threaded end-to-end and per-layer benchmark for the resmatch
//! workspace.
//!
//! One invocation runs one named workload at one seed for a fixed number
//! of seconds, checks every output it produces, and prints one JSON object
//! as its last line of standard output: the end-to-end metrics from an
//! untraced run, or with `--trace 1` the per-layer metrics from a run that
//! interleaves traced and untraced repetitions. See `perfbench/README.md`.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod alloc;
pub mod check;
pub mod cli;
pub mod probes;
pub mod service;
pub mod sim;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

use crate::check::{check_digest, Gate};
use crate::cli::Options;
use crate::service::ServiceBench;
use crate::sim::{RepKind, SimBench};
use crate::stats::{median, quantile};

/// Seed the pinned digests were taken at.
pub const DEFAULT_SEED: u64 = 42;
/// Set-ups per run for the simulation workloads (`setup_s` is the median).
const SIM_SETUPS: usize = 15;
/// Set-ups per run for the service workload.
const SERVICE_SETUPS: usize = 3;
/// Timing samples every run takes at least, however short `--seconds`.
const MIN_SAMPLES: usize = 3;
/// Estimator checkpoint/restore cycles after each untraced repetition of a
/// simulation workload, so restart samples spread over the whole run.
const RESTART_CYCLES: usize = 8;
/// Trace ids: set-up `i` records under `SETUP_TRACE + i`, traced
/// repetition `i` under `REP_TRACE + i`.
const SETUP_TRACE: u32 = 1;
const REP_TRACE: u32 = 1_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Figure 5's FCFS load sweep, pass-through and successive.
    Fig5Sweep,
    /// Trace at offered load 0.9, EASY backfill, native allocation.
    EasyBacklog,
    /// The same trace with attributes, EASY backfill through the matcher.
    MatchedBacklog,
    /// The sharded online estimator service.
    ServiceStream,
}

impl WorkloadKind {
    /// Every workload, in documentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Fig5Sweep,
        WorkloadKind::EasyBacklog,
        WorkloadKind::MatchedBacklog,
        WorkloadKind::ServiceStream,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Fig5Sweep => "fig5_sweep",
            WorkloadKind::EasyBacklog => "easy_backlog",
            WorkloadKind::MatchedBacklog => "matched_backlog",
            WorkloadKind::ServiceStream => "service_stream",
        }
    }

    /// Digest of the first repetition at [`DEFAULT_SEED`] and full scale.
    pub fn pinned_digest(self) -> u64 {
        match self {
            WorkloadKind::Fig5Sweep => 0x4d95_562f_d0e7_a2a5,
            WorkloadKind::EasyBacklog => 0x1689_c21e_2c6d_fc8c,
            WorkloadKind::MatchedBacklog => 0x9de9_7a11_f5fd_9bfb,
            WorkloadKind::ServiceStream => 0x0ecd_28ec_e3e1_62e4,
        }
    }
}

/// One timed checkpoint/restore: snapshot, encode, decode, restore.
#[derive(Debug, Clone, Copy)]
pub struct Restart {
    /// Export the estimator state.
    pub snapshot_s: f64,
    /// Encode it to snapshot-file bytes.
    pub encode_s: f64,
    /// Decode the bytes.
    pub decode_s: f64,
    /// Build a fresh estimator (or service) and restore into it.
    pub restore_s: f64,
    /// Encoded size.
    pub bytes: usize,
}

impl Restart {
    /// From the instants bracketing the four steps.
    pub fn from_instants(t: [Instant; 5], bytes: usize) -> Self {
        let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
        Restart {
            snapshot_s: s(t[0], t[1]),
            encode_s: s(t[1], t[2]),
            decode_s: s(t[2], t[3]),
            restore_s: s(t[3], t[4]),
            bytes,
        }
    }

    /// The whole restart.
    pub fn total_s(&self) -> f64 {
        self.snapshot_s + self.encode_s + self.decode_s + self.restore_s
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Checked outputs.
    pub attempted: u64,
    /// Checked outputs that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Per-repetition `jobs_per_s` samples (untraced repetitions).
    pub rates: Vec<f64>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Collects metrics in report order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run the workload `opts` names and report.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        WorkloadKind::ServiceStream => run_service(opts),
        kind => run_sim(kind, opts),
    }
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Repeat `setup` `n` times, keeping the last result; returns it with the
/// wall time of each set-up. The previous result is dropped before the
/// next set-up starts, so peak heap reflects one set-up.
fn repeat_setup<T>(n: usize, trace: bool, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut kept = None;
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        drop(kept.take());
        trace::set_trace(trace, SETUP_TRACE + i as u32);
        let start = Instant::now();
        let made = trace::span("setup", &mut setup);
        times.push(start.elapsed().as_secs_f64());
        kept = Some(made);
    }
    trace::set_trace(false, 0);
    (kept.expect("at least one set-up"), times)
}

/// Median over set-ups of the total time of spans `name`.
fn setup_layer_s(setups: usize, name: &str) -> f64 {
    let per: Vec<f64> = (0..setups)
        .map(|i| trace::total_s(&trace::spans_of(SETUP_TRACE + i as u32), name))
        .collect();
    median(&per)
}

/// Median over traced repetitions of `f(spans of that repetition)`.
fn rep_layer(reps: usize, f: impl Fn(&[trace::Span]) -> f64) -> f64 {
    let per: Vec<f64> = (0..reps)
        .map(|i| f(&trace::spans_of(REP_TRACE + i as u32)))
        .collect();
    median(&per)
}

/// Repeat `rep` until `seconds` have passed and at least
/// [`MIN_SAMPLES`] samples exist, interleaving a traced repetition after
/// each untraced one when tracing. `rep(kind, i)` runs repetition `i` of
/// that kind.
fn sample_loop(seconds: f64, traced: bool, mut rep: impl FnMut(RepKind, usize)) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < MIN_SAMPLES || start.elapsed() < budget {
        rep(RepKind::Plain, i);
        if traced {
            trace::set_trace(true, REP_TRACE + i as u32);
            rep(RepKind::Traced, i);
            trace::set_trace(false, 0);
        }
        i += 1;
    }
}

fn put_restart_layers(m: &mut Metrics, restarts: &[Restart]) {
    let pick = |f: fn(&Restart) -> f64| median(&restarts.iter().map(f).collect::<Vec<_>>());
    let mb = pick(|r| r.bytes as f64) / 1e6;
    m.put("service.snapshot_s", "s", pick(|r| r.snapshot_s));
    m.put(
        "service.encode_mb_per_s",
        "MB/s",
        ratio(mb, pick(|r| r.encode_s)),
    );
    m.put(
        "service.decode_mb_per_s",
        "MB/s",
        ratio(mb, pick(|r| r.decode_s)),
    );
    m.put("service.restore_s", "s", pick(|r| r.restore_s));
    m.put("service.snapshot_mb", "MB", mb);
}

fn end_to_end(gate: &Gate, jobs_per_s: f64, setup: &[f64], restart: &[Restart]) -> Vec<Metric> {
    let mut m = Metrics::default();
    m.put("jobs_per_s", "1/s", jobs_per_s);
    m.put("setup_s", "s", median(setup));
    m.put("peak_heap_mb", "MB", alloc::peak_bytes() as f64 / 1e6);
    m.put("ok_frac", "frac", gate.ok_frac());
    m.put(
        "restart_s",
        "s",
        median(&restart.iter().map(Restart::total_s).collect::<Vec<_>>()),
    );
    m.0
}

fn run_sim(kind: WorkloadKind, opts: &Options) -> Outcome {
    let jobs = scaled(sim::TRACE_JOBS as u64, opts.scale) as usize;
    let mut gate = Gate::default();
    let (mut bench, setup) = repeat_setup(SIM_SETUPS, opts.trace, || {
        SimBench::setup(kind, jobs, opts.seed)
    });

    let cold = bench.rep(RepKind::Cold, &mut gate);
    let first = cold.digest;
    let pinned = (opts.seed == DEFAULT_SEED && opts.scale == 1.0).then(|| kind.pinned_digest());
    gate.record("pinned digest", check_digest(first, first, pinned));

    let mut plain_secs = Vec::new();
    let mut rates = Vec::new();
    let mut traced = Vec::new();
    let mut restarts = Vec::new();
    let mut alloc_count = 0;
    sample_loop(opts.seconds, opts.trace, |rep_kind, i| {
        let allocs = alloc::alloc_count();
        let rep = bench.rep(rep_kind, &mut gate);
        let what = if rep_kind == RepKind::Traced {
            "traced digest"
        } else {
            "digest"
        };
        gate.record(what, check_digest(rep.digest, first, None));
        match rep_kind {
            RepKind::Traced => traced.push((rep, trace::take_counts())),
            _ => {
                if i == 0 {
                    alloc_count = alloc::alloc_count() - allocs;
                }
                rates.push(ratio(rep.counts.jobs as f64, rep.secs));
                plain_secs.push(rep.secs);
                restarts.extend(bench.restarts(RESTART_CYCLES, &mut gate));
            }
        }
    });
    if !opts.trace {
        return Outcome {
            attempted: gate.attempted,
            failed: gate.failed,
            metrics: end_to_end(&gate, median(&rates), &setup, &restarts),
            rates,
        };
    }

    // Counts must repeat exactly between traced repetitions.
    if let Some((rep0, counts0)) = traced.first() {
        for (rep, counts) in &traced[1..] {
            let same = rep.counts == rep0.counts && counts == counts0;
            gate.record(
                "traced counts repeat",
                if same {
                    Ok(())
                } else {
                    Err("counts moved between repetitions".into())
                },
            );
        }
    }
    let (c, counts) = traced.first().cloned().unwrap_or_default();
    let n = traced.len();
    let count = |name: &str| trace::counted(&counts, name) as f64;
    let jobs_done = c.counts.jobs as f64;
    let traced_secs: Vec<f64> = traced.iter().map(|(r, _)| r.secs).collect();

    let mut m = Metrics::default();
    m.put(
        "workload.generate_s",
        "s",
        setup_layer_s(SIM_SETUPS, "workload.generate"),
    );
    m.put(
        "workload.attrs_s",
        "s",
        setup_layer_s(SIM_SETUPS, "workload.attrs"),
    );
    m.put("workload.stream_s", "s", 0.0);
    m.put(
        "workload.scale_s",
        "s",
        rep_layer(n, |s| trace::total_s(s, "workload.scale"))
            + setup_layer_s(SIM_SETUPS, "workload.scale"),
    );
    m.put(
        "sim.run_s",
        "s",
        rep_layer(n, |s| trace::total_s(s, "sim.run")),
    );
    m.put(
        "sim.self_s",
        "s",
        rep_layer(n, |s| trace::self_s(s, "sim.run")),
    );
    m.put("sim.events", "count", c.counts.events as f64);
    m.put(
        "sim.events_per_job",
        "ratio",
        ratio(c.counts.events as f64, jobs_done),
    );
    m.put(
        "sim.admissions_per_job",
        "ratio",
        ratio(c.counts.admissions as f64, jobs_done),
    );
    m.put("sim.requeued", "count", c.counts.requeued as f64);
    m.put("sim.estimator_bypassed", "count", c.counts.bypassed as f64);
    m.put(
        "sim.mean_queue_length",
        "jobs",
        ratio(c.counts.queue_len_sum, c.counts.sims as f64),
    );
    let depth = ratio(c.counts.running_sum, c.counts.sims as f64).round() as usize;
    m.put(
        "sim.event_queue_ns",
        "ns",
        probes::event_queue_ns(bench.jobs(), depth),
    );
    m.put("core.estimate_calls", "count", count("core.estimate_calls"));
    m.put(
        "core.estimate_ns",
        "ns",
        rep_layer(n, |s| trace::mean_ns(s, "core.estimate")),
    );
    m.put("core.feedback_calls", "count", count("core.feedback_calls"));
    m.put(
        "core.feedback_ns",
        "ns",
        rep_layer(n, |s| trace::mean_ns(s, "core.feedback")),
    );
    m.put(
        "core.estimates_per_job",
        "ratio",
        ratio(count("core.estimate_calls"), jobs_done),
    );
    let probe = probes::cluster(bench.cluster(), bench.jobs(), bench.matched());
    m.put("cluster.try_allocate_hit_ns", "ns", probe.hit_ns);
    m.put("cluster.try_allocate_miss_ns", "ns", probe.miss_ns);
    m.put("cluster.release_ns", "ns", probe.release_ns);
    m.put("cluster.free_nodes_satisfying_ns", "ns", probe.free_ns);
    m.put(
        "classad.prepare_calls",
        "count",
        count("classad.prepare_calls"),
    );
    m.put(
        "classad.prepare_ns",
        "ns",
        rep_layer(n, |s| trace::mean_ns(s, "classad.prepare")),
    );
    m.put(
        "classad.matches_calls",
        "count",
        count("classad.matches_calls"),
    );
    m.put(
        "classad.matches_ns",
        "ns",
        rep_layer(n, |s| trace::mean_ns(s, "classad.matches")),
    );
    m.put(
        "classad.indexed_frac",
        "frac",
        ratio(
            count("classad.eligible_some"),
            count("classad.eligible_calls"),
        ),
    );
    m.put(
        "classad.signature_frac",
        "frac",
        ratio(
            count("classad.signature_some"),
            count("classad.signature_calls"),
        ),
    );
    m.put(
        "classad.signature_classes",
        "count",
        count("classad.signature_classes"),
    );
    m.put(
        "sim.match_attempts",
        "count",
        c.counts.match_attempts as f64,
    );
    m.put(
        "sim.match_refusals",
        "count",
        c.counts.match_refusals as f64,
    );
    m.put(
        "sim.match_useful_ratio",
        "ratio",
        ratio(
            (c.counts.match_attempts - c.counts.match_refusals) as f64,
            c.counts.match_attempts as f64,
        ),
    );
    for (name, unit) in [
        ("service.estimate_ns", "ns"),
        ("service.observe_ns", "ns"),
        ("service.estimate_p99_ns", "ns"),
        ("service.flush_ns", "ns"),
        ("service.batches", "count"),
        ("service.shard_skew", "ratio"),
        ("service.warm_s", "s"),
    ] {
        m.put(name, unit, 0.0);
    }
    put_restart_layers(&mut m, &restarts);
    m.put("bench.alloc_count", "count", alloc_count as f64);
    m.put(
        "bench.trace_overhead_frac",
        "frac",
        ratio(median(&traced_secs), median(&plain_secs)) - 1.0,
    );
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: m.0,
        rates,
    }
}

fn run_service(opts: &Options) -> Outcome {
    let ops = scaled(service::SERVICE_OPS, opts.scale);
    let groups = scaled(service::SERVICE_GROUPS, opts.scale);
    let mut gate = Gate::default();
    let (mut bench, setup) = repeat_setup(SERVICE_SETUPS, opts.trace, || {
        ServiceBench::setup(ops, groups, opts.seed)
    });

    let cold = bench.pass(RepKind::Cold, &mut gate);
    let pinned = (opts.seed == DEFAULT_SEED && opts.scale == 1.0)
        .then(|| WorkloadKind::ServiceStream.pinned_digest());
    gate.record(
        "pinned digest",
        check_digest(cold.digest, cold.digest, pinned),
    );

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut alloc_count = 0;
    sample_loop(opts.seconds, opts.trace, |rep_kind, i| {
        let allocs = alloc::alloc_count();
        let pass = bench.pass(rep_kind, &mut gate);
        if rep_kind == RepKind::Traced {
            traced.push(pass);
        } else {
            if i == 0 {
                alloc_count = alloc::alloc_count() - allocs;
            }
            plain.push(pass);
        }
    });
    let rates: Vec<f64> = plain.iter().map(|p| ratio(p.ops as f64, p.secs)).collect();
    let plain_restarts: Vec<Restart> = plain.iter().filter_map(|p| p.restart).collect();
    if !opts.trace {
        return Outcome {
            attempted: gate.attempted,
            failed: gate.failed,
            metrics: end_to_end(&gate, median(&rates), &setup, &plain_restarts),
            rates,
        };
    }

    let n = traced.len();
    let first = traced.first().cloned();
    let ops_done = first.as_ref().map_or(0, |p| p.ops) as f64;
    let mut m = Metrics::default();
    m.put("workload.generate_s", "s", 0.0);
    m.put("workload.attrs_s", "s", 0.0);
    m.put(
        "workload.stream_s",
        "s",
        setup_layer_s(SERVICE_SETUPS, "workload.stream"),
    );
    m.put("workload.scale_s", "s", 0.0);
    for (name, unit) in [
        ("sim.run_s", "s"),
        ("sim.self_s", "s"),
        ("sim.events", "count"),
        ("sim.events_per_job", "ratio"),
        ("sim.admissions_per_job", "ratio"),
        ("sim.requeued", "count"),
        ("sim.estimator_bypassed", "count"),
        ("sim.mean_queue_length", "jobs"),
        ("sim.event_queue_ns", "ns"),
    ] {
        m.put(name, unit, 0.0);
    }
    // The service owns its estimators: one estimator call per query and per
    // applied observation, their time inside the service spans.
    m.put("core.estimate_calls", "count", ops_done);
    m.put("core.estimate_ns", "ns", 0.0);
    m.put("core.feedback_calls", "count", ops_done);
    m.put("core.feedback_ns", "ns", 0.0);
    m.put(
        "core.estimates_per_job",
        "ratio",
        if ops_done > 0.0 { 1.0 } else { 0.0 },
    );
    for (name, unit) in [
        ("cluster.try_allocate_hit_ns", "ns"),
        ("cluster.try_allocate_miss_ns", "ns"),
        ("cluster.release_ns", "ns"),
        ("cluster.free_nodes_satisfying_ns", "ns"),
        ("classad.prepare_calls", "count"),
        ("classad.prepare_ns", "ns"),
        ("classad.matches_calls", "count"),
        ("classad.matches_ns", "ns"),
        ("classad.indexed_frac", "frac"),
        ("classad.signature_frac", "frac"),
        ("classad.signature_classes", "count"),
        ("sim.match_attempts", "count"),
        ("sim.match_refusals", "count"),
        ("sim.match_useful_ratio", "ratio"),
    ] {
        m.put(name, unit, 0.0);
    }
    m.put(
        "service.estimate_ns",
        "ns",
        rep_layer(n, |s| trace::mean_ns(s, "service.estimate")),
    );
    m.put(
        "service.observe_ns",
        "ns",
        rep_layer(n, |s| trace::mean_ns(s, "service.observe")),
    );
    m.put(
        "service.estimate_p99_ns",
        "ns",
        rep_layer(n, |s| {
            quantile(&trace::durations_ns(s, "service.estimate"), 0.99)
        }),
    );
    m.put(
        "service.flush_ns",
        "ns",
        rep_layer(n, |s| trace::mean_ns(s, "service.flush")),
    );
    m.put(
        "service.batches",
        "count",
        first.as_ref().map_or(0, |p| p.batches) as f64,
    );
    m.put("service.shard_skew", "ratio", bench.shard_skew());
    m.put(
        "service.warm_s",
        "s",
        setup_layer_s(SERVICE_SETUPS, "service.warm"),
    );
    let traced_restarts: Vec<Restart> = traced.iter().filter_map(|p| p.restart).collect();
    put_restart_layers(&mut m, &traced_restarts);
    m.put("bench.alloc_count", "count", alloc_count as f64);
    let secs = |ps: &[service::Pass]| median(&ps.iter().map(|p| p.secs).collect::<Vec<_>>());
    m.put(
        "bench.trace_overhead_frac",
        "frac",
        ratio(secs(&traced), secs(&plain)) - 1.0,
    );
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics: m.0,
        rates,
    }
}
