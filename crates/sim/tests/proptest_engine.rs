//! Property-based tests on the simulation engine: conservation laws and
//! sanity invariants under arbitrary small workloads and estimators.

use proptest::prelude::*;
use resmatch_cluster::ClusterBuilder;
use resmatch_core::prelude::*;
use resmatch_sim::prelude::*;
use resmatch_workload::job::JobBuilder;
use resmatch_workload::{Time, Workload};

const MB: u64 = 1024;

#[derive(Debug, Clone)]
struct JobSpec {
    user: u32,
    app: u32,
    submit_s: u64,
    runtime_s: u64,
    nodes: u32,
    req_mb: u64,
    used_frac: f64,
}

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0u32..4,
            0u32..3,
            0u64..5_000,
            1u64..2_000,
            1u32..12,
            1u64..33,
            0.01f64..1.0,
        )
            .prop_map(
                |(user, app, submit_s, runtime_s, nodes, req_mb, used_frac)| JobSpec {
                    user,
                    app,
                    submit_s,
                    runtime_s,
                    nodes,
                    req_mb,
                    used_frac,
                },
            ),
        1..60,
    )
}

fn workload(specs: &[JobSpec]) -> Workload {
    Workload::new(
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let req = s.req_mb * MB;
                JobBuilder::new(i as u64 + 1)
                    .user(s.user)
                    .app(s.app)
                    .submit(Time::from_secs(s.submit_s))
                    .runtime(Time::from_secs(s.runtime_s))
                    .nodes(s.nodes)
                    .requested_mem_kb(req)
                    .used_mem_kb(((req as f64 * s.used_frac) as u64).max(1))
                    .build()
            })
            .collect(),
    )
}

/// Jobs whose submit gaps exceed the worst-case residency of their
/// predecessor, so no job ever queues behind another. A job executes at
/// most `max_estimation_attempts + 1` times (three estimator-driven
/// failures, then the bypass attempt with the full request, which always
/// fits for these sizes), so a gap of five runtimes is already conservative.
fn arb_serial_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0u32..4,
            0u32..3,
            0u64..100,
            1u64..2_000,
            1u32..12,
            1u64..33,
            0.01f64..1.0,
        ),
        1..40,
    )
    .prop_map(|tuples| {
        let mut submit_s = 0u64;
        tuples
            .into_iter()
            .map(
                |(user, app, extra_gap_s, runtime_s, nodes, req_mb, used_frac)| {
                    let spec = JobSpec {
                        user,
                        app,
                        submit_s,
                        runtime_s,
                        nodes,
                        req_mb,
                        used_frac,
                    };
                    submit_s += runtime_s * 5 + 1 + extra_gap_s;
                    spec
                },
            )
            .collect()
    })
}

fn arb_spec() -> impl Strategy<Value = EstimatorSpec> {
    prop_oneof![
        Just(EstimatorSpec::PassThrough),
        Just(EstimatorSpec::Oracle),
        Just(EstimatorSpec::paper_successive()),
        Just(EstimatorSpec::Robust(RobustConfig::default())),
        Just(EstimatorSpec::Reinforcement(ReinforcementConfig::default())),
        Just(EstimatorSpec::LastInstance(LastInstanceConfig::default())),
        Just(EstimatorSpec::Adaptive(AdaptiveConfig::default())),
    ]
}

fn arb_policy() -> impl Strategy<Value = SchedulingPolicy> {
    prop_oneof![
        Just(SchedulingPolicy::Fcfs),
        Just(SchedulingPolicy::Sjf),
        Just(SchedulingPolicy::EasyBackfill),
    ]
}

/// Up to five membership changes over the generated submit span, on any
/// of the three pools. A leave takes only free nodes and a rejoin only
/// departed ones, so every schedule is valid; an empty one runs without
/// churn.
fn arb_churn() -> impl Strategy<Value = Vec<ChurnEvent>> {
    prop::collection::vec(
        (
            0u64..6_000,
            prop_oneof![Just(32u64), Just(24u64), Just(8u64)],
            -8i64..=8,
        )
            .prop_map(|(time_s, mem_mb, delta)| ChurnEvent {
                time: Time::from_secs(time_s),
                mem_kb: mem_mb * MB,
                delta,
            }),
        0..6,
    )
}

fn cluster() -> resmatch_cluster::Cluster {
    ClusterBuilder::new()
        .pool(8, 32 * MB)
        .pool(8, 24 * MB)
        .pool(8, 8 * MB)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_job_completes_or_is_dropped(
        specs in arb_jobs(),
        spec in arb_spec(),
        policy in arb_policy(),
        explicit in any::<bool>(),
    ) {
        let w = workload(&specs);
        let cfg = SimConfig::default()
            .with_scheduling(policy)
            .with_feedback(if explicit { FeedbackMode::Explicit } else { FeedbackMode::Implicit });
        let r = Simulation::new(cfg, cluster(), spec).run(&w);
        prop_assert_eq!(r.completed_jobs + r.dropped_jobs, w.len());
        prop_assert_eq!(r.records.len(), r.completed_jobs);
    }

    #[test]
    fn conservation_and_bounds(specs in arb_jobs(), spec in arb_spec()) {
        let w = workload(&specs);
        let r = Simulation::new(SimConfig::default(), cluster(), spec).run(&w);
        // Goodput equals the node-seconds of completed jobs exactly.
        let expected: f64 = r
            .records
            .iter()
            .map(|rec| rec.nodes as f64 * rec.runtime.as_secs_f64())
            .sum();
        prop_assert!((r.goodput_node_seconds - expected).abs() < 1e-6 * (1.0 + expected));
        // Utilizations are proper fractions.
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.utilization()));
        prop_assert!(r.busy_utilization() + 1e-9 >= r.utilization());
        prop_assert!(r.busy_utilization() <= 1.0 + 1e-9);
        // Queue statistics are non-negative and bounded by the cluster.
        prop_assert!(r.mean_queue_length >= 0.0);
        prop_assert!(r.mean_busy_nodes <= r.total_nodes as f64 + 1e-9);
    }

    #[test]
    fn per_job_timing_invariants(specs in arb_jobs(), spec in arb_spec()) {
        let w = workload(&specs);
        let r = Simulation::new(SimConfig::default(), cluster(), spec).run(&w);
        for rec in &r.records {
            prop_assert!(rec.final_start >= rec.submit);
            prop_assert_eq!(rec.completion, rec.final_start + rec.runtime);
            prop_assert!(rec.slowdown() >= 1.0 - 1e-12);
            prop_assert!(rec.bounded_slowdown(10.0) >= 1.0);
        }
    }

    #[test]
    fn simulation_is_deterministic(
        specs in arb_jobs(),
        spec in arb_spec(),
        churn in arb_churn(),
    ) {
        let w = workload(&specs);
        let run = || {
            Simulation::new(SimConfig::default(), cluster(), spec)
                .with_churn(churn.clone())
                .run(&w)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn oracle_never_fails_on_any_workload(specs in arb_jobs(), policy in arb_policy()) {
        let w = workload(&specs);
        let cfg = SimConfig::default().with_scheduling(policy);
        let r = Simulation::new(cfg, cluster(), EstimatorSpec::Oracle).run(&w);
        prop_assert_eq!(r.failed_executions, 0);
        prop_assert_eq!(r.wasted_node_seconds, 0.0);
    }

    #[test]
    fn policies_agree_when_no_job_queues(
        specs in arb_serial_jobs(),
        spec in arb_spec(),
        explicit in any::<bool>(),
    ) {
        // Queue discipline only matters when jobs wait behind each other;
        // on serial workloads FCFS, SJF, and EASY must be indistinguishable
        // down to the full `SimResult`. This is the equivalence oracle the
        // scheduler-path optimizations are checked against.
        let w = workload(&specs);
        let run = |policy| {
            let cfg = SimConfig::default()
                .with_scheduling(policy)
                .with_feedback(if explicit {
                    FeedbackMode::Explicit
                } else {
                    FeedbackMode::Implicit
                });
            Simulation::new(cfg, cluster(), spec).run(&w)
        };
        let fcfs = run(SchedulingPolicy::Fcfs);
        // Premise guard: the generator really produced a no-queueing trace
        // (zero-duration requeue spikes carry no time weight, and the mean
        // is non-negative, so <= 0 means exactly zero).
        prop_assert!(fcfs.mean_queue_length <= 0.0);
        prop_assert_eq!(&run(SchedulingPolicy::Sjf), &fcfs);
        prop_assert_eq!(&run(SchedulingPolicy::EasyBackfill), &fcfs);
    }

    #[test]
    fn arena_reuse_is_invisible(
        specs_a in arb_jobs(),
        specs_b in arb_jobs(),
        spec in arb_spec(),
        policy in arb_policy(),
        explicit in any::<bool>(),
        churn in arb_churn(),
    ) {
        // A dirty arena (left behind by a run over a *different* workload)
        // must not perturb a later run: reused buffers are cleared, never
        // trusted. This is the equivalence oracle for the SoA store and
        // slab event queue — the whole SimResult must match a fresh run
        // byte for byte.
        let cfg = SimConfig::default()
            .with_scheduling(policy)
            .with_feedback(if explicit { FeedbackMode::Explicit } else { FeedbackMode::Implicit });
        let wa = workload(&specs_a);
        let wb = workload(&specs_b);
        let sim = || Simulation::new(cfg, cluster(), spec).with_churn(churn.clone());
        let fresh = sim().run(&wb);
        let mut arena = SimArena::default();
        let _ = sim().run_with_arena(&wa, &mut arena);
        let reused = sim().run_with_arena(&wb, &mut arena);
        prop_assert_eq!(reused, fresh);
    }

    #[test]
    fn streaming_matches_batch(
        specs in arb_jobs(),
        spec in arb_spec(),
        policy in arb_policy(),
        churn in arb_churn(),
    ) {
        // Feeding jobs one at a time through the streaming entry point is
        // indistinguishable from handing over the whole trace.
        let w = workload(&specs);
        let cfg = SimConfig::default().with_scheduling(policy);
        let sim = || Simulation::new(cfg, cluster(), spec).with_churn(churn.clone());
        let batch = sim().run(&w);
        let streamed = sim().run_stream(w.jobs().iter().cloned());
        prop_assert_eq!(streamed, batch);
    }

    #[test]
    fn estimation_never_loses_to_baseline_badly(specs in arb_jobs()) {
        // Whatever the workload, Algorithm 1's goodput utilization stays
        // within a whisker of the baseline's (it can spend a little on
        // probing failures, never more).
        let w = workload(&specs);
        let base = Simulation::new(SimConfig::default(), cluster(), EstimatorSpec::PassThrough)
            .run(&w);
        let est = Simulation::new(
            SimConfig::default(),
            cluster(),
            EstimatorSpec::paper_successive(),
        )
        .run(&w);
        prop_assert!(
            est.utilization() >= base.utilization() * 0.85 - 1e-9,
            "estimation {} vs baseline {}",
            est.utilization(),
            base.utilization()
        );
    }
}
