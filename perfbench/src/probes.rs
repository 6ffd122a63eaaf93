//! Layer probes for the layers the benchmark cannot wrap: the engine's
//! event queue and the native cluster allocator. They run in the traced
//! run only, on the workload's own cluster and demand mix, and call only
//! the native allocation path.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use resmatch_cluster::{Allocation, Cluster, Demand, MatchPolicy};
use resmatch_sim::event::{Event, EventQueue};
use resmatch_workload::{Job, Time};

use crate::stats::median;

/// Calls per probe round.
const PROBE_OPS: usize = 200_000;
/// Probe rounds; each probe reports its median round.
const PROBE_ROUNDS: usize = 5;

/// Nanoseconds per push + pop on an [`EventQueue`] held at `depth`
/// pending events (the classic hold model: pop the earliest, push its
/// successor one job runtime later). Runtimes cycle through `jobs`.
pub fn event_queue_ns(jobs: &[Job], depth: usize) -> f64 {
    let runtimes: Vec<u64> = jobs.iter().map(|j| j.runtime.as_millis().max(1)).collect();
    if runtimes.is_empty() {
        return 0.0;
    }
    let depth = depth.max(1);
    let rounds: Vec<f64> = (0..PROBE_ROUNDS)
        .map(|_| {
            let mut q = EventQueue::with_capacity(depth);
            for (i, &rt) in runtimes.iter().cycle().take(depth).enumerate() {
                q.push(
                    Time::from_millis(rt),
                    Event::ExecutionEnd {
                        run_id: i as u64,
                        success: true,
                    },
                );
            }
            let mut next = runtimes.iter().cycle().skip(depth);
            let start = Instant::now();
            for _ in 0..PROBE_OPS {
                let (t, ev) = q.pop().expect("the queue holds `depth` events");
                let rt = *next.next().expect("cycle never ends");
                q.push(Time::from_millis(t.as_millis() + rt), black_box(ev));
            }
            start.elapsed().as_nanos() as f64 / PROBE_OPS as f64
        })
        .collect();
    median(&rounds)
}

/// Mean single-call costs of the native allocator, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterProbe {
    /// `try_allocate` that returned an allocation.
    pub hit_ns: f64,
    /// `try_allocate` that found too few eligible free nodes.
    pub miss_ns: f64,
    /// `release`.
    pub release_ns: f64,
    /// `free_nodes_satisfying`.
    pub free_ns: f64,
}

/// Drive `cluster`'s native allocator with the jobs' own (node count,
/// request) mix: allocate in trace order, keep allocations running
/// oldest-first, and release the oldest once three quarters of the nodes
/// are busy or an allocation misses. `with_attrs` keeps the disk and
/// package requests in the demand (matched workload).
pub fn cluster(cluster: &Cluster, jobs: &[Job], with_attrs: bool) -> ClusterProbe {
    let mix: Vec<(u32, Demand)> = jobs
        .iter()
        .map(|j| {
            let d = if with_attrs {
                Demand::new(
                    j.requested_mem_kb,
                    j.requested_disk_kb,
                    j.requested_packages,
                )
            } else {
                Demand::memory(j.requested_mem_kb)
            };
            (j.nodes, d)
        })
        .collect();
    if mix.is_empty() {
        return ClusterProbe::default();
    }
    let overhead = crate::trace::timer_overhead_ns() as f64;
    let net = |sum: f64, n: u64| {
        if n == 0 {
            0.0
        } else {
            (sum / n as f64 - overhead).max(0.0)
        }
    };
    let rounds: Vec<ClusterProbe> = (0..PROBE_ROUNDS)
        .map(|_| {
            let mut c = cluster.clone();
            let total = c.total_nodes();
            let mut held: VecDeque<Allocation> = VecDeque::new();
            let (mut hit, mut miss, mut rel, mut free) =
                ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]);
            let add = |acc: &mut [f64; 2], a: Instant, b: Instant| {
                acc[0] += (b - a).as_nanos() as f64;
                acc[1] += 1.0;
            };
            for (token, &(nodes, demand)) in mix.iter().cycle().take(PROBE_OPS).enumerate() {
                let t0 = Instant::now();
                black_box(c.free_nodes_satisfying(&demand));
                let t1 = Instant::now();
                let got = c.try_allocate(nodes, &demand, MatchPolicy::FirstFit, token as u64);
                let t2 = Instant::now();
                add(&mut free, t0, t1);
                let missed = got.is_none();
                match got {
                    Some(a) => {
                        add(&mut hit, t1, t2);
                        held.push_back(a);
                    }
                    None => add(&mut miss, t1, t2),
                }
                while c.busy_nodes() * 4 > total * 3 || (missed && c.busy_nodes() * 2 > total) {
                    let Some(a) = held.pop_front() else { break };
                    let t3 = Instant::now();
                    c.release(a);
                    let t4 = Instant::now();
                    add(&mut rel, t3, t4);
                }
            }
            ClusterProbe {
                hit_ns: net(hit[0], hit[1] as u64),
                miss_ns: net(miss[0], miss[1] as u64),
                release_ns: net(rel[0], rel[1] as u64),
                free_ns: net(free[0], free[1] as u64),
            }
        })
        .collect();
    let pick = |f: fn(&ClusterProbe) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    ClusterProbe {
        hit_ns: pick(|p| p.hit_ns),
        miss_ns: pick(|p| p.miss_ns),
        release_ns: pick(|p| p.release_ns),
        free_ns: pick(|p| p.free_ns),
    }
}
