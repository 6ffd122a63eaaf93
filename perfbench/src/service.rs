//! The `service_stream` workload: the online estimator service over a
//! million-group request stream, every shard driven from the calling
//! thread in turn.

use std::time::Instant;

use resmatch_cluster::builder::cm5_cluster;
use resmatch_cluster::{CapacityLadder, Demand};
use resmatch_core::Feedback;
use resmatch_service::prelude::*;
use resmatch_service::service::JobRouter;
use resmatch_sim::EstimatorSpec;
use resmatch_workload::synthetic::service_stream;
use resmatch_workload::Job;

use crate::check::Gate;
use crate::sim::RepKind;
use crate::trace::{self, SAMPLE_EVERY};
use crate::Restart;

/// Operation pairs (estimate + observe) per pass at full scale.
pub const SERVICE_OPS: u64 = 1_000_000;
/// Similarity groups the stream spans at full scale.
pub const SERVICE_GROUPS: u64 = 1_000_000;
/// Shards the group space is hashed over.
pub const SHARDS: usize = 8;
/// Observations per batched write.
pub const BATCH: usize = 1024;

/// Outcome of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Seconds serving the pass (estimate + observe for every job, then
    /// the per-shard flush).
    pub secs: f64,
    /// Fold of every estimate served, in order.
    pub digest: u64,
    /// Estimate + observe pairs served.
    pub ops: u64,
    /// Feedback batches applied during the pass.
    pub batches: u64,
    /// The checkpoint/restore that closed the pass.
    pub restart: Option<Restart>,
}

/// A set-up service workload: the stream routed to shards and the group
/// space populated by one warm pass.
pub struct ServiceBench {
    spec: EstimatorSpec,
    ladder: CapacityLadder,
    cfg: ServiceConfig,
    router: Option<JobRouter>,
    shards: Vec<ServiceShard>,
    slices: Vec<Vec<Job>>,
    sample: Vec<Job>,
}

/// The simulator's outcome rule, applied service-side: success when usage
/// fits the capacity rung covering what was granted.
fn outcome(ladder: &CapacityLadder, job: &Job, granted: Demand) -> Feedback {
    let node = ladder.round_up(granted.mem_kb).unwrap_or(granted.mem_kb);
    Feedback::explicit(job.used_mem_kb <= node, Demand::memory(job.used_mem_kb))
}

impl ServiceBench {
    /// One full set-up: materialise and pre-route the stream, then serve it
    /// once so later passes see a populated group space.
    pub fn setup(ops: u64, groups: u64, seed: u64) -> Self {
        let spec = EstimatorSpec::paper_successive();
        let ladder = cm5_cluster().memory_ladder();
        let cfg = ServiceConfig::new(spec, ladder.clone())
            .shards(SHARDS)
            .feedback_batch(BATCH);
        let svc = EstimatorService::new(&cfg).expect("shards and batch are nonzero");
        let slices = trace::span("workload.stream", || {
            // A quarter of headroom over the even share: hash routing is
            // within a few percent of even, so no slice reallocates, and peak
            // heap does not jump with whichever shard crosses a power of two.
            let per_shard = ops as usize / SHARDS * 5 / 4 + 64;
            let mut slices: Vec<Vec<Job>> =
                (0..SHARDS).map(|_| Vec::with_capacity(per_shard)).collect();
            for job in service_stream(ops, groups, seed) {
                slices[svc.route(&job)].push(job);
            }
            slices
        });
        let sample = slices
            .iter()
            .flat_map(|s| s.iter().step_by((s.len() / 32).max(1)))
            .cloned()
            .collect();
        let (router, shards) = svc.into_parts();
        let mut bench = ServiceBench {
            spec,
            ladder,
            cfg,
            router: Some(router),
            shards,
            slices,
            sample,
        };
        trace::span("service.warm", || bench.serve(RepKind::Plain));
        bench
    }

    /// Largest shard's share of the stream over the mean share.
    pub fn shard_skew(&self) -> f64 {
        let max = self.slices.iter().map(Vec::len).max().unwrap_or(0) as f64;
        let total: usize = self.slices.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        max / (total as f64 / self.slices.len() as f64)
    }

    /// Serve every job once, shard after shard, and flush. Returns the
    /// elapsed seconds and the estimate fold.
    fn serve(&mut self, kind: RepKind) -> (f64, u64) {
        let ladder = &self.ladder;
        let mut fold = 0u64;
        let start = Instant::now();
        for (shard, slice) in self.shards.iter_mut().zip(&self.slices) {
            let shard_fold = if kind == RepKind::Traced {
                trace::span("service.shard", || serve_traced(shard, slice, ladder))
            } else {
                serve_plain(shard, slice, ladder)
            };
            fold = fold.rotate_left(7) ^ shard_fold;
        }
        (start.elapsed().as_secs_f64(), fold)
    }

    fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.queries += st.queries;
            total.observations += st.observations;
            total.applied += st.applied;
            total.batches += st.batches;
        }
        total
    }

    /// One pass: serve every job, check the service's counters, then
    /// checkpoint and restore into a fresh service that later passes use.
    pub fn pass(&mut self, kind: RepKind, gate: &mut Gate) -> Pass {
        let before = self.stats();
        let (secs, digest) = self.serve(kind);
        let after = self.stats();
        let jobs: u64 = self.slices.iter().map(|s| s.len() as u64).sum();
        let counted = if after.queries - before.queries != jobs {
            Err(format!(
                "{} queries for {jobs} jobs",
                after.queries - before.queries
            ))
        } else if after.observations - before.observations != jobs {
            Err(format!(
                "{} observations for {jobs} jobs",
                after.observations - before.observations
            ))
        } else if after.applied != after.observations {
            Err(format!(
                "{} applied of {} observations after flush",
                after.applied, after.observations
            ))
        } else {
            Ok(())
        };
        gate.record("service pass", counted);
        let restart = trace::span("service.restart", || self.restart(gate));
        Pass {
            secs,
            digest,
            ops: jobs,
            batches: after.batches - before.batches,
            restart,
        }
    }

    /// Snapshot, encode, decode and restore into a fresh service. The new
    /// service must re-snapshot to identical bytes and answer a fixed sample
    /// of jobs as the old one did before the snapshot; it then replaces the
    /// old one.
    fn restart(&mut self, gate: &mut Gate) -> Option<Restart> {
        let router = self
            .router
            .take()
            .expect("every restart puts the router back");
        let shards = std::mem::take(&mut self.shards);
        let mut svc = EstimatorService::from_parts(self.spec, router, shards)
            .expect("shards come from this service");
        let answers: Vec<Demand> = self.sample.iter().map(|job| svc.estimate(job)).collect();
        let t0 = Instant::now();
        let doc = trace::span("service.snapshot", || svc.snapshot());
        let t1 = Instant::now();
        let doc = match doc {
            Ok(doc) => doc,
            Err(e) => {
                gate.record("service restart", Err(e.to_string()));
                (self.router, self.shards) = split(svc);
                return None;
            }
        };
        let bytes = trace::span("service.encode", || doc.encode());
        let t2 = Instant::now();
        drop(doc);
        let decoded = trace::span("service.decode", || SnapshotDocument::decode(&bytes));
        let t3 = Instant::now();
        let restored = trace::span("service.restore", || {
            let mut fresh = EstimatorService::new(&self.cfg)?;
            fresh.restore(decoded?.state)?;
            Ok::<_, ServiceError>(fresh)
        });
        let t4 = Instant::now();
        let mut fresh = match restored {
            Ok(fresh) => fresh,
            Err(e) => {
                gate.record("service restart", Err(e.to_string()));
                (self.router, self.shards) = split(svc);
                return None;
            }
        };
        // Free the old service before the check's second snapshot; the check
        // is kept out of the peak-heap figure.
        drop(svc);
        let outcome = crate::alloc::outside_peak(|| match fresh.snapshot().map(|d| d.encode()) {
            Ok(again) if again == bytes => self
                .sample
                .iter()
                .zip(&answers)
                .find(|&(job, &answer)| fresh.estimate(job) != answer)
                .map_or(Ok(()), |(job, _)| {
                    Err(format!("restored estimate differs for job {}", job.id.0))
                }),
            Ok(_) => Err("restored service re-snapshots to different bytes".into()),
            Err(e) => Err(e.to_string()),
        });
        gate.record("service restart", outcome);
        (self.router, self.shards) = split(fresh);
        Some(Restart::from_instants([t0, t1, t2, t3, t4], bytes.len()))
    }
}

fn split(svc: EstimatorService) -> (Option<JobRouter>, Vec<ServiceShard>) {
    let (router, shards) = svc.into_parts();
    (Some(router), shards)
}

/// Serve `slice` on `shard` (estimate, then observe the outcome), then
/// flush. Returns the fold of the estimates served.
fn serve_plain(shard: &mut ServiceShard, slice: &[Job], ladder: &CapacityLadder) -> u64 {
    let mut fold = 0u64;
    for job in slice {
        let d = shard.estimate(job);
        fold = fold.rotate_left(5) ^ d.mem_kb;
        shard.observe(job, d, outcome(ladder, job, d));
    }
    shard.flush();
    fold
}

/// [`serve_plain`] with sampled single-call spans.
/// An observe that fills the write batch applies it, so it is always timed
/// and recorded as `service.flush`.
fn serve_traced(shard: &mut ServiceShard, slice: &[Job], ladder: &CapacityLadder) -> u64 {
    let mut fold = 0u64;
    for (i, job) in slice.iter().enumerate() {
        let sampled = (i as u64 + 1).is_multiple_of(SAMPLE_EVERY);
        let d = if sampled {
            let start = Instant::now();
            let d = shard.estimate(job);
            trace::leaf("service.estimate", start, Instant::now(), SAMPLE_EVERY);
            d
        } else {
            shard.estimate(job)
        };
        fold = fold.rotate_left(5) ^ d.mem_kb;
        let fb = outcome(ladder, job, d);
        if shard.stats().pending() + 1 == BATCH as u64 {
            let start = Instant::now();
            shard.observe(job, d, fb);
            trace::leaf("service.flush", start, Instant::now(), 1);
        } else if sampled {
            let start = Instant::now();
            shard.observe(job, d, fb);
            trace::leaf("service.observe", start, Instant::now(), SAMPLE_EVERY);
        } else {
            shard.observe(job, d, fb);
        }
    }
    let start = Instant::now();
    shard.flush();
    trace::leaf("service.flush", start, Instant::now(), 1);
    fold
}
