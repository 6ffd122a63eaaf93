//! In-process checks of the benchmark's own machinery at a small scale:
//! the correctness gate counts corrupted results as failed, and traced
//! repetitions produce the same digests as untraced ones on every
//! workload.

use perfbench::check::{check_digest, check_sim, digest_sim, Fnv, Gate};
use perfbench::service::ServiceBench;
use perfbench::sim::{RepKind, SimBench};
use perfbench::{trace, WorkloadKind};
use resmatch_workload::Time;

const JOBS: usize = 2_000;
const SEED: u64 = 7;

fn traced<T>(f: impl FnOnce() -> T) -> T {
    trace::set_trace(true, 1);
    let out = f();
    trace::set_trace(false, 0);
    out
}

#[test]
fn traced_digest_equals_untraced_digest_on_every_sim_workload() {
    for kind in [
        WorkloadKind::Fig5Sweep,
        WorkloadKind::EasyBacklog,
        WorkloadKind::MatchedBacklog,
    ] {
        let mut gate = Gate::default();
        let mut bench = SimBench::setup(kind, JOBS, SEED);
        let cold = bench.rep(RepKind::Cold, &mut gate);
        let plain = bench.rep(RepKind::Plain, &mut gate);
        let traced_rep = traced(|| bench.rep(RepKind::Traced, &mut gate));
        assert_eq!(
            cold.digest,
            plain.digest,
            "{}: keep wrapper moved the result",
            kind.name()
        );
        assert_eq!(
            plain.digest,
            traced_rep.digest,
            "{}: tracing moved the result",
            kind.name()
        );
        assert_eq!(plain.counts, traced_rep.counts, "{}", kind.name());
        assert_eq!(gate.failed, 0, "{}: a check failed", kind.name());
        let counts = trace::take_counts();
        assert!(
            trace::counted(&counts, "core.estimate_calls") > 0,
            "{}",
            kind.name()
        );
        if kind == WorkloadKind::MatchedBacklog {
            // The wrapper forwards the matcher's index and signature: the
            // engine must still take the indexed path.
            let calls = trace::counted(&counts, "classad.eligible_calls");
            assert!(calls > 0);
            assert_eq!(trace::counted(&counts, "classad.eligible_some"), calls);
            assert!(trace::counted(&counts, "classad.signature_some") > 0);
        }
        let restarts = bench.restarts(2, &mut gate);
        assert_eq!(restarts.len(), 2, "{}", kind.name());
        assert_eq!(gate.failed, 0, "{}: a restart check failed", kind.name());
    }
}

#[test]
fn traced_digest_equals_untraced_digest_on_the_service() {
    let passes = |kind: RepKind| {
        let mut gate = Gate::default();
        let mut bench = ServiceBench::setup(20_000, 20_000, SEED);
        let digests: Vec<u64> = [RepKind::Cold, kind, kind]
            .into_iter()
            .map(|k| {
                if k == RepKind::Traced {
                    traced(|| bench.pass(k, &mut gate)).digest
                } else {
                    bench.pass(k, &mut gate).digest
                }
            })
            .collect();
        assert_eq!(gate.failed, 0, "a service check failed");
        digests
    };
    assert_eq!(passes(RepKind::Plain), passes(RepKind::Traced));
}

#[test]
fn corrupted_results_are_counted_as_failed() {
    let mut gate = Gate::default();
    let mut bench = SimBench::setup(WorkloadKind::EasyBacklog, JOBS, SEED);
    let first = bench.rep(RepKind::Plain, &mut gate).digest;
    assert_eq!((gate.attempted, gate.failed), (1, 0));

    let good = {
        use resmatch_sim::prelude::*;
        Simulation::builder()
            .cluster(bench.cluster().clone())
            .estimator(EstimatorSpec::paper_successive())
            .build()
            .expect("complete builder")
            .run(&resmatch_workload::Workload::from_sorted(
                bench.jobs().to_vec(),
            ))
    };
    let n = bench.jobs().len();
    gate.record("intact", check_sim(&good, n));
    assert_eq!(gate.failed, 0);

    let mut started_early = good.clone();
    let rec = &mut started_early.records[0];
    rec.submit = rec
        .final_start
        .checked_add(Time::from_secs(1))
        .expect("no overflow");
    gate.record("started early", check_sim(&started_early, n));

    let mut lost_job = good.clone();
    lost_job.completed_jobs -= 1;
    gate.record("lost job", check_sim(&lost_job, n));

    let mut missing_arrival = good.clone();
    missing_arrival.counters.arrivals -= 1;
    gate.record("missing arrival", check_sim(&missing_arrival, n));

    let mut moved = good.clone();
    moved.records[0].completion = moved.records[0]
        .completion
        .checked_add(Time::from_millis(1))
        .expect("no overflow");
    let digest = |r| {
        let mut h = Fnv::default();
        digest_sim(&mut h, r);
        h.finish()
    };
    gate.record("digest", check_digest(digest(&moved), digest(&good), None));
    gate.record("pinned", check_digest(first, first, Some(first ^ 1)));

    assert_eq!(gate.failed, 5);
    assert!(gate.ok_frac() < 1.0);
}
