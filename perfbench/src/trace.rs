//! Spans for the traced run, and the tracing wrappers around the
//! estimator and matcher trait seams.
//!
//! Spans are recorded only here, in the benchmark, around calls into each
//! layer. Each span has an id, the id of the span open when it began (its
//! parent; 0 for none), the trace id of the repetition it belongs to, a
//! name, a start offset and a duration in nanoseconds, and a weight. Calls
//! too short to time one by one are timed 1 in [`SAMPLE_EVERY`] (the
//! matcher's, 1 in [`MATCH_SAMPLE_EVERY`]) and carry that number as their
//! weight, so `weight × duration` estimates the time of all the calls the
//! sample stands for. Spans stay in memory until the run ends;
//! [`write_spans`] writes them out.
//!
//! The benchmark is single-threaded, so the recorder is thread-local and
//! the wrappers need no locks.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use resmatch_cluster::{Capacity, Demand, PoolMatcher};
use resmatch_core::baseline::PassThrough;
use resmatch_core::snapshot::{SnapshotError, SnapshotState};
use resmatch_core::{EstimateContext, EstimateScope, Feedback, ResourceEstimator};
use resmatch_workload::Job;

/// One call in this many is timed for sub-microsecond calls.
pub const SAMPLE_EVERY: u64 = 64;
/// Sampling period for the matcher's `prepare` and `matches`, which the
/// engine calls tens of millions of times per run.
pub const MATCH_SAMPLE_EVERY: u64 = 1024;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u32,
    /// The span open when this one began; 0 for a root.
    pub parent: u32,
    /// Set-up or repetition this span belongs to.
    pub trace: u32,
    /// Layer and operation, `<crate>.<op>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Calls this span stands for (1 unless sampled).
    pub weight: u64,
}

struct Recorder {
    epoch: Instant,
    /// Cost of the `Instant::now()` pair around a timed call.
    timer_ns: u64,
    enabled: bool,
    trace: u32,
    next_id: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
    counts: Vec<(&'static str, u64)>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        timer_ns: timer_overhead_ns(),
        enabled: false,
        trace: 0,
        next_id: 1,
        open: Vec::new(),
        spans: Vec::new(),
        counts: Vec::new(),
    });
    /// Estimators handed over by [`TracedEstimator`]s in keep mode.
    static KEPT: RefCell<Option<Box<dyn ResourceEstimator>>> = const { RefCell::new(None) };
}

/// Median cost of an `Instant::now()` pair, in nanoseconds.
pub fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..1_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Turn span recording on or off and set the trace id new spans get.
pub fn set_trace(enabled: bool, trace: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = enabled;
        r.trace = trace;
    });
}

/// Run `f` inside a span named `name` (a plain call when recording is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.open.last().copied().unwrap_or(0);
        r.open.push(id);
        Some((id, parent, r.trace))
    });
    let Some((id, parent, trace)) = opened else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open.pop();
        let start_ns = start.duration_since(r.epoch).as_nanos() as u64;
        r.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            dur_ns: (end - start).as_nanos() as u64,
            weight: 1,
        });
    });
    out
}

/// Record a leaf span timed by the caller, under the currently open span.
/// The timer's own cost ([`timer_overhead_ns`]) is subtracted from the
/// duration, so sampled single calls are not inflated by it.
pub fn leaf(name: &'static str, start: Instant, end: Instant, weight: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.open.last().copied().unwrap_or(0);
        let start_ns = start.duration_since(r.epoch).as_nanos() as u64;
        let trace = r.trace;
        let dur_ns = ((end - start).as_nanos() as u64).saturating_sub(r.timer_ns);
        r.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            dur_ns,
            weight,
        });
    });
}

/// Add `n` to the exact counter `name`.
pub fn count(name: &'static str, n: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        match r.counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => r.counts.push((name, n)),
        }
    });
}

/// Take the exact counters recorded since the last call.
pub fn take_counts() -> Vec<(&'static str, u64)> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().counts))
}

/// Value of counter `name` in `counts` (0 when absent).
pub fn counted(counts: &[(&'static str, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |&(_, v)| v)
}

/// Spans recorded so far for trace `trace`, copied out.
pub fn spans_of(trace: u32) -> Vec<Span> {
    REC.with(|r| {
        r.borrow()
            .spans
            .iter()
            .filter(|s| s.trace == trace)
            .copied()
            .collect()
    })
}

/// Total duration of the spans named `name`, weighted, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.dur_ns * s.weight) as f64)
        .sum::<f64>()
        / 1e9
}

/// Mean duration of one span named `name`, in nanoseconds (0 if none).
pub fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let durs = durations_ns(spans, name);
    if durs.is_empty() {
        return 0.0;
    }
    durs.iter().sum::<f64>() / durs.len() as f64
}

/// Durations of the spans named `name`, in nanoseconds.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64)
        .collect()
}

/// Self time of the spans named `name`, in seconds: each one's duration
/// minus the weighted time its direct children cover.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for c in spans.iter().filter(|c| c.parent != 0) {
        *covered.entry(c.parent).or_default() += c.dur_ns * c.weight;
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.dur_ns
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0)) as f64
        })
        .sum::<f64>()
        / 1e9
}

/// Write every recorded span to `path` as tab-separated lines
/// `id parent trace name start_ns dur_ns weight`, after a header line.
pub fn write_spans(path: &Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\ttrace\tname\tstart_ns\tdur_ns\tweight")?;
    let n = REC.with(|r| -> std::io::Result<usize> {
        let r = r.borrow();
        for s in &r.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.dur_ns, s.weight
            )?;
        }
        Ok(r.spans.len())
    })?;
    out.flush()?;
    Ok(n)
}

/// Take the estimator the last keep-mode [`TracedEstimator`] handed over.
pub fn take_kept() -> Option<Box<dyn ResourceEstimator>> {
    KEPT.with(|k| k.borrow_mut().take())
}

/// What a [`TracedEstimator`] does besides forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Count calls and record sampled spans.
    Trace,
    /// Forward only, and hand the estimator over on drop (see
    /// [`take_kept`]) so its learned state can be checkpointed.
    Keep,
}

/// Forwards every [`ResourceEstimator`] method, defaulted ones included, to
/// the wrapped estimator. In [`Mode::Trace`] it counts `estimate` and
/// `feedback` calls exactly and times one in [`SAMPLE_EVERY`] of each.
pub struct TracedEstimator {
    inner: Box<dyn ResourceEstimator>,
    mode: Mode,
    estimates: u64,
    feedbacks: u64,
}

impl TracedEstimator {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ResourceEstimator>, mode: Mode) -> Self {
        TracedEstimator {
            inner,
            mode,
            estimates: 0,
            feedbacks: 0,
        }
    }
}

impl ResourceEstimator for TracedEstimator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&mut self, job: &Job, ctx: &EstimateContext) -> Demand {
        if self.mode == Mode::Keep {
            return self.inner.estimate(job, ctx);
        }
        self.estimates += 1;
        if !self.estimates.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.estimate(job, ctx);
        }
        let start = Instant::now();
        let d = self.inner.estimate(job, ctx);
        leaf("core.estimate", start, Instant::now(), SAMPLE_EVERY);
        d
    }

    fn feedback(
        &mut self,
        job: &Job,
        granted: &Demand,
        feedback: &Feedback,
        ctx: &EstimateContext,
    ) {
        if self.mode == Mode::Keep {
            return self.inner.feedback(job, granted, feedback, ctx);
        }
        self.feedbacks += 1;
        if !self.feedbacks.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.feedback(job, granted, feedback, ctx);
        }
        let start = Instant::now();
        self.inner.feedback(job, granted, feedback, ctx);
        leaf("core.feedback", start, Instant::now(), SAMPLE_EVERY);
    }

    fn estimate_scope(&self, job: &Job) -> EstimateScope {
        self.inner.estimate_scope(job)
    }

    fn snapshot_state(&self) -> Option<SnapshotState> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: SnapshotState) -> Result<(), SnapshotError> {
        self.inner.restore_state(state)
    }
}

impl Drop for TracedEstimator {
    fn drop(&mut self) {
        match self.mode {
            Mode::Trace => {
                count("core.estimate_calls", self.estimates);
                count("core.feedback_calls", self.feedbacks);
            }
            Mode::Keep => {
                let inner = std::mem::replace(&mut self.inner, Box::new(PassThrough));
                KEPT.with(|k| *k.borrow_mut() = Some(inner));
            }
        }
    }
}

/// Forwards every [`PoolMatcher`] method, defaulted ones included, to the
/// wrapped matcher, counting calls exactly and timing one in
/// [`MATCH_SAMPLE_EVERY`] `prepare` and `matches` calls. Dropping
/// `eligible_pools` or `demand_signature` here would silently move the
/// engine onto its per-pool fallback path; the traced-digest check guards
/// against that.
pub struct TracedMatcher<M: PoolMatcher> {
    inner: M,
    prepares: u64,
    matches: u64,
    ranks: u64,
    eligible_calls: Cell<u64>,
    eligible_some: Cell<u64>,
    signature_calls: Cell<u64>,
    signature_some: Cell<u64>,
    last_signature: Cell<Option<u64>>,
    signatures: RefCell<BTreeSet<u64>>,
}

impl<M: PoolMatcher> TracedMatcher<M> {
    /// Wrap `inner`.
    pub fn new(inner: M) -> Self {
        TracedMatcher {
            inner,
            prepares: 0,
            matches: 0,
            ranks: 0,
            eligible_calls: Cell::new(0),
            eligible_some: Cell::new(0),
            signature_calls: Cell::new(0),
            signature_some: Cell::new(0),
            last_signature: Cell::new(None),
            signatures: RefCell::new(BTreeSet::new()),
        }
    }
}

impl<M: PoolMatcher> PoolMatcher for TracedMatcher<M> {
    fn prepare(&mut self, demand: &Demand) {
        self.prepares += 1;
        if !self.prepares.is_multiple_of(MATCH_SAMPLE_EVERY) {
            return self.inner.prepare(demand);
        }
        let start = Instant::now();
        self.inner.prepare(demand);
        leaf("classad.prepare", start, Instant::now(), MATCH_SAMPLE_EVERY);
    }

    fn matches(&mut self, pool: usize, capacity: &Capacity) -> bool {
        self.matches += 1;
        if !self.matches.is_multiple_of(MATCH_SAMPLE_EVERY) {
            return self.inner.matches(pool, capacity);
        }
        let start = Instant::now();
        let ok = self.inner.matches(pool, capacity);
        leaf("classad.matches", start, Instant::now(), MATCH_SAMPLE_EVERY);
        ok
    }

    fn rank(&mut self, pool: usize, capacity: &Capacity) -> f64 {
        self.ranks += 1;
        self.inner.rank(pool, capacity)
    }

    fn is_ranked(&self) -> bool {
        self.inner.is_ranked()
    }

    fn demand_signature(&self) -> Option<u64> {
        let sig = self.inner.demand_signature();
        self.signature_calls.set(self.signature_calls.get() + 1);
        if let Some(s) = sig {
            self.signature_some.set(self.signature_some.get() + 1);
            if self.last_signature.get() != Some(s) {
                self.last_signature.set(Some(s));
                self.signatures.borrow_mut().insert(s);
            }
        }
        sig
    }

    fn eligible_pools(&self) -> Option<&[u64]> {
        let pools = self.inner.eligible_pools();
        self.eligible_calls.set(self.eligible_calls.get() + 1);
        if pools.is_some() {
            self.eligible_some.set(self.eligible_some.get() + 1);
        }
        pools
    }
}

impl<M: PoolMatcher> Drop for TracedMatcher<M> {
    fn drop(&mut self) {
        count("classad.prepare_calls", self.prepares);
        count("classad.matches_calls", self.matches);
        count("classad.rank_calls", self.ranks);
        count("classad.eligible_calls", self.eligible_calls.get());
        count("classad.eligible_some", self.eligible_some.get());
        count("classad.signature_calls", self.signature_calls.get());
        count("classad.signature_some", self.signature_some.get());
        count(
            "classad.signature_classes",
            self.signatures.borrow().len() as u64,
        );
    }
}
