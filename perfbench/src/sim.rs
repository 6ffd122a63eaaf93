//! The three simulation workloads: `fig5_sweep`, `easy_backlog` and
//! `matched_backlog`.
//!
//! Everything runs on the calling thread. A sweep visits its points in a
//! plain loop with one reused [`SimArena`] and one rescale buffer; no
//! worker pool is involved.

use std::time::Instant;

use resmatch_classad::{Matchmaker, PoolAd};
use resmatch_cluster::builder::paper_cluster;
use resmatch_cluster::{Capacity, Cluster, ClusterBuilder, Demand, PoolMatcher};
use resmatch_core::ResourceEstimator;
use resmatch_service::SnapshotDocument;
use resmatch_sim::prelude::*;
use resmatch_workload::attrs::{synthesize_attributes, AttrConfig};
use resmatch_workload::load::{scale_to_load, scale_to_load_into};
use resmatch_workload::synthetic::{generate, Cm5Config};
use resmatch_workload::{Job, Workload};

use crate::check::{check_sim, digest_sim, Fnv, Gate};
use crate::trace::{self, Mode, TracedEstimator, TracedMatcher};
use crate::{Restart, WorkloadKind};

/// The paper's trace length (before full-machine jobs are removed).
pub const TRACE_JOBS: usize = 122_055;
/// Figure 5's offered loads.
pub const FIG5_LOADS: [f64; 11] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5];
/// Offered load of the two backlog workloads: just below saturation, so a
/// wait queue persists while its length stays a stable property of the
/// trace (at 1.0 the queue is critical and its mean length, and with it the
/// run's cost, varies twofold between seeds).
pub const BACKLOG_LOAD: f64 = 0.9;

/// How a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// The first repetition: estimator wrapped in keep mode so its learned
    /// state can be checkpointed afterwards. Not a timing sample.
    Cold,
    /// Untraced: the plain public API, as a user calls it.
    Plain,
    /// Traced: spans and counts through the tracing wrappers.
    Traced,
}

/// One simulation point: an estimator and, for the sweep, an offered load
/// the natural trace is rescaled to inside the timed region.
#[derive(Debug, Clone, Copy)]
struct Point {
    spec: EstimatorSpec,
    load: Option<f64>,
}

/// Deterministic engine counters of one repetition, summed over points.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// Simulations run.
    pub sims: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Engine events processed.
    pub events: u64,
    /// Queue admissions.
    pub admissions: u64,
    /// Executions requeued after failing.
    pub requeued: u64,
    /// Admissions that bypassed the estimator.
    pub bypassed: u64,
    /// Allocation attempts that reached the matcher.
    pub match_attempts: u64,
    /// Matcher attempts the allocator refused.
    pub match_refusals: u64,
    /// Sum over points of the time-weighted mean queue length.
    pub queue_len_sum: f64,
    /// Sum over points of the time-weighted mean running executions.
    pub running_sum: f64,
}

/// Outcome of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Timed seconds: rescale (sweep only) plus the simulation runs.
    pub secs: f64,
    /// Digest over every point's result.
    pub digest: u64,
    /// Engine counters.
    pub counts: SimCounts,
}

/// A set-up simulation workload, ready to run repetitions.
pub struct SimBench {
    kind: WorkloadKind,
    cfg: SimConfig,
    /// The natural trace (sweep) or the trace rescaled to the backlog load.
    trace: Workload,
    cluster: Cluster,
    /// Capability ads; empty on the native allocation path.
    ads: Vec<PoolAd>,
    /// Matcher built during set-up, used by the first repetition.
    matcher: Option<Matchmaker>,
    points: Vec<Point>,
    arena: SimArena,
    buf: Vec<Job>,
    /// The estimator the restart cycles checkpoint, once taken over.
    trained: Option<Box<dyn ResourceEstimator>>,
}

/// The matched workload's cluster: the paper's 512 × 32 MB + 512 × 24 MB
/// machine, with the 32 MB half advertising a 2 GB scratch disk and the
/// licensed package set.
fn matched_cluster() -> (Cluster, Vec<PoolAd>) {
    let big = Capacity::new(32 * 1024, 2 * 1024 * 1024, 0xF);
    let small = Capacity::memory(24 * 1024);
    let cluster = ClusterBuilder::new()
        .pool_with(512, big)
        .pool_with(512, small)
        .build();
    (
        cluster,
        vec![PoolAd::new(big).with_arch("cm5"), PoolAd::new(small)],
    )
}

impl SimBench {
    /// One full set-up: input generation, attribute synthesis, rescaling
    /// (backlog workloads), and cluster, ads and matcher construction.
    pub fn setup(kind: WorkloadKind, jobs: usize, seed: u64) -> Self {
        let mut trace = trace::span("workload.generate", || {
            let mut w = generate(
                &Cm5Config {
                    jobs,
                    ..Cm5Config::default()
                },
                seed,
            );
            w.retain_max_nodes(512);
            w
        });
        let (cluster, ads) = match kind {
            WorkloadKind::MatchedBacklog => matched_cluster(),
            _ => (paper_cluster(24), Vec::new()),
        };
        let mut cfg = SimConfig::default();
        let points = match kind {
            WorkloadKind::Fig5Sweep => [
                EstimatorSpec::PassThrough,
                EstimatorSpec::paper_successive(),
            ]
            .into_iter()
            .flat_map(|spec| {
                FIG5_LOADS.iter().map(move |&load| Point {
                    spec,
                    load: Some(load),
                })
            })
            .collect(),
            _ => {
                cfg = cfg.with_scheduling(SchedulingPolicy::EasyBackfill);
                trace = trace::span("workload.scale", || {
                    scale_to_load(&trace, cluster.total_nodes(), BACKLOG_LOAD)
                });
                vec![Point {
                    spec: EstimatorSpec::paper_successive(),
                    load: None,
                }]
            }
        };
        if kind == WorkloadKind::MatchedBacklog {
            trace = trace::span("workload.attrs", || {
                synthesize_attributes(&mut trace, &AttrConfig::default(), seed);
                // Keep the jobs some pool can ever run: a scratch request
                // above the 2 GB partition would be dropped at arrival, and
                // every input job must arrive.
                let runnable = trace
                    .iter()
                    .filter(|j| {
                        let d = Demand::new(
                            j.requested_mem_kb,
                            j.requested_disk_kb,
                            j.requested_packages,
                        );
                        cluster.nodes_satisfying(&d) >= j.nodes
                    })
                    .cloned()
                    .collect();
                Workload::from_sorted(runnable)
            });
        }
        let matcher = (!ads.is_empty()).then(|| Matchmaker::new(&ads));
        SimBench {
            kind,
            cfg,
            trace,
            cluster,
            ads,
            matcher,
            points,
            arena: SimArena::default(),
            buf: Vec::new(),
            trained: None,
        }
    }

    /// The workload's own cluster (for the layer probes).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The jobs the workload simulates (natural trace for the sweep).
    pub fn jobs(&self) -> &[Job] {
        self.trace.jobs()
    }

    /// Whether the workload allocates through the matcher.
    pub fn matched(&self) -> bool {
        !self.ads.is_empty()
    }

    fn simulation(&mut self, spec: EstimatorSpec, kind: RepKind) -> Simulation {
        let mut b = Simulation::builder()
            .config(self.cfg)
            .cluster(self.cluster.clone());
        b = match kind {
            RepKind::Plain => b.estimator(spec),
            RepKind::Cold | RepKind::Traced => {
                let mode = if kind == RepKind::Cold {
                    Mode::Keep
                } else {
                    Mode::Trace
                };
                let inner = spec.build(&self.cluster.memory_ladder());
                b.boxed_estimator(Box::new(TracedEstimator::new(inner, mode)))
            }
        };
        if self.matched() {
            let mm = self
                .matcher
                .take()
                .unwrap_or_else(|| Matchmaker::new(&self.ads));
            let matcher: Box<dyn PoolMatcher> = match kind {
                RepKind::Traced => Box::new(TracedMatcher::new(mm)),
                RepKind::Cold | RepKind::Plain => Box::new(mm),
            };
            b = b.matchmaking(matcher);
        }
        b.build().expect("cluster and estimator are always set")
    }

    /// Run every point once, checking each result.
    pub fn rep(&mut self, kind: RepKind, gate: &mut Gate) -> Rep {
        let mut h = Fnv::default();
        let mut counts = SimCounts::default();
        let mut secs = 0.0;
        for i in 0..self.points.len() {
            let point = self.points[i];
            let sim = self.simulation(point.spec, kind);
            let start = Instant::now();
            let (result, input_jobs) = match point.load {
                Some(load) => {
                    let total = self.cluster.total_nodes();
                    let (trace, buf) = (&self.trace, &mut self.buf);
                    trace::span("workload.scale", || {
                        scale_to_load_into(trace, total, load, buf);
                    });
                    let scaled = Workload::from_sorted(std::mem::take(&mut self.buf));
                    let arena = &mut self.arena;
                    let r = trace::span("sim.run", || sim.run_with_arena(&scaled, arena));
                    secs += start.elapsed().as_secs_f64();
                    let n = scaled.len();
                    self.buf = scaled.into_jobs();
                    (r, n)
                }
                None => {
                    let (trace, arena) = (&self.trace, &mut self.arena);
                    let r = trace::span("sim.run", || sim.run_with_arena(trace, arena));
                    secs += start.elapsed().as_secs_f64();
                    (r, self.trace.len())
                }
            };
            gate.record(
                &format!("{} point {i}", self.kind.name()),
                check_sim(&result, input_jobs),
            );
            digest_sim(&mut h, &result);
            let c = &result.counters;
            counts.sims += 1;
            counts.jobs += result.completed_jobs as u64;
            counts.events += result.events_processed;
            counts.admissions += c.admissions;
            counts.requeued += c.requeued;
            counts.bypassed += c.estimator_bypassed;
            counts.match_attempts += c.match_attempts;
            counts.match_refusals += c.match_refusals;
            counts.queue_len_sum += result.mean_queue_length;
            counts.running_sum += mean_running(&result);
        }
        Rep {
            secs,
            digest: h.finish(),
            counts,
        }
    }

    /// Checkpoint and restore the estimator the cold repetition trained (the
    /// last successive-estimator point), `cycles` times: snapshot, encode,
    /// decode, restore into a fresh estimator, which the next cycle (and the
    /// next call) starts from. Each restored estimator must re-snapshot to
    /// identical bytes and answer a fixed sample of jobs as the original did.
    pub fn restarts(&mut self, cycles: usize, gate: &mut Gate) -> Vec<Restart> {
        let Some(mut est) = self.trained.take().or_else(trace::take_kept) else {
            gate.record("restart", Err("no trained estimator was kept".into()));
            return Vec::new();
        };
        let spec = EstimatorSpec::paper_successive();
        let ladder = self.cluster.memory_ladder();
        let sample: Vec<Job> = self
            .trace
            .jobs()
            .iter()
            .step_by((self.trace.len() / 256).max(1))
            .cloned()
            .collect();
        let mut out = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let t0 = Instant::now();
            let Some(state) = est.snapshot_state() else {
                gate.record("restart", Err("estimator has no snapshot state".into()));
                self.trained = Some(est);
                return out;
            };
            let doc = SnapshotDocument {
                estimator: spec.name().to_string(),
                shards_at_save: 1,
                state,
            };
            let t1 = Instant::now();
            let bytes = doc.encode();
            let t2 = Instant::now();
            let decoded = SnapshotDocument::decode(&bytes);
            let t3 = Instant::now();
            let mut fresh = spec.build(&ladder);
            let restored = decoded
                .map_err(|e| e.to_string())
                .and_then(|d| fresh.restore_state(d.state).map_err(|e| e.to_string()));
            let t4 = Instant::now();
            out.push(Restart::from_instants([t0, t1, t2, t3, t4], bytes.len()));
            let outcome = crate::alloc::outside_peak(|| {
                restored.and_then(|()| {
                    same_snapshot(&spec, &*fresh, &bytes)?;
                    same_estimates(&mut *est, &mut *fresh, &sample)
                })
            });
            gate.record("restart", outcome);
            est = fresh;
        }
        self.trained = Some(est);
        out
    }
}

/// Time-weighted mean of concurrently running final executions (Little's
/// law over the job records): the engine event queue's typical depth.
fn mean_running(r: &SimResult) -> f64 {
    let span = r
        .last_completion
        .saturating_sub(r.first_submit)
        .as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    let busy: f64 = r.records.iter().map(|rec| rec.runtime.as_secs_f64()).sum();
    busy / span
}

fn same_snapshot(
    spec: &EstimatorSpec,
    est: &dyn ResourceEstimator,
    bytes: &[u8],
) -> Result<(), String> {
    let state = est
        .snapshot_state()
        .ok_or("restored estimator has no snapshot state")?;
    let again = SnapshotDocument {
        estimator: spec.name().to_string(),
        shards_at_save: 1,
        state,
    }
    .encode();
    if again != bytes {
        return Err("restored estimator re-snapshots to different bytes".into());
    }
    Ok(())
}

fn same_estimates(
    a: &mut dyn ResourceEstimator,
    b: &mut dyn ResourceEstimator,
    sample: &[Job],
) -> Result<(), String> {
    let ctx = resmatch_core::EstimateContext::default();
    for job in sample {
        if a.estimate(job, &ctx) != b.estimate(job, &ctx) {
            return Err(format!("restored estimate differs for job {}", job.id.0));
        }
    }
    Ok(())
}
