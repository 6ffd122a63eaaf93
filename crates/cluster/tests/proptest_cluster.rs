//! Property-based tests for the cluster substrate: allocation conservation,
//! agreement with a naive reference allocator, and ladder-rounding
//! correctness under arbitrary operation sequences.

use proptest::prelude::*;
use resmatch_cluster::{
    Allocation, Capacity, CapacityLadder, Cluster, ClusterBuilder, Demand, MatchAll, MatchPolicy,
    NodeId, PoolMatcher,
};

fn arb_policy() -> impl Strategy<Value = MatchPolicy> {
    prop_oneof![
        Just(MatchPolicy::FirstFit),
        Just(MatchPolicy::BestFit),
        Just(MatchPolicy::WorstFit),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Alloc { count: u32, mem_kb: u64 },
    ReleaseOldest,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..40, 1u64..40_000).prop_map(|(count, mem_kb)| Op::Alloc { count, mem_kb }),
            Just(Op::ReleaseOldest),
        ],
        1..120,
    )
}

const POOLS: [(u32, u64); 3] = [(32, 32 * 1024), (32, 24 * 1024), (16, 8 * 1024)];

fn build_cluster() -> Cluster {
    POOLS
        .iter()
        .fold(ClusterBuilder::new(), |b, &(n, mem)| b.pool(n, mem))
        .build()
}

/// A reference grant: node ids in draw order and `(pool, count)` segments.
type Grant = (Vec<NodeId>, Vec<(u16, u32)>);

/// Naive reference allocator, written straight from the allocation rule:
/// keep the pools that satisfy the demand and that the matcher accepts,
/// stable-sort them by the policy key and then by descending rank, and draw
/// from the top of each pool's free stack. No precomputed visit orders, no
/// scratch buffers, no eligibility bitsets.
struct Reference {
    caps: Vec<Capacity>,
    total: Vec<u32>,
    /// First node id of each pool; pools own contiguous id ranges.
    first_id: Vec<NodeId>,
    free: Vec<Vec<NodeId>>,
    offline: Vec<Vec<NodeId>>,
}

impl Reference {
    fn new() -> Self {
        let mut r = Reference {
            caps: Vec::new(),
            total: Vec::new(),
            first_id: Vec::new(),
            free: Vec::new(),
            offline: Vec::new(),
        };
        let mut next: NodeId = 0;
        for &(count, mem_kb) in &POOLS {
            r.caps.push(Capacity::memory(mem_kb));
            r.total.push(count);
            r.first_id.push(next);
            r.free.push((next..next + count).rev().collect());
            r.offline.push(Vec::new());
            next += count;
        }
        r
    }

    fn eligible<M: PoolMatcher>(&self, demand: &Demand, m: &mut M) -> Vec<usize> {
        (0..self.caps.len())
            .filter(|&p| self.caps[p].satisfies(demand) && m.matches(p, &self.caps[p]))
            .collect()
    }

    fn free_count<M: PoolMatcher>(&self, demand: &Demand, m: &mut M) -> u32 {
        let pools = self.eligible(demand, m);
        pools.iter().map(|&p| self.free[p].len() as u32).sum()
    }

    fn online_count<M: PoolMatcher>(&self, demand: &Demand, m: &mut M) -> u32 {
        let pools = self.eligible(demand, m);
        pools
            .iter()
            .map(|&p| self.total[p] - self.offline[p].len() as u32)
            .sum()
    }

    fn allocate<M: PoolMatcher>(
        &mut self,
        count: u32,
        demand: &Demand,
        policy: MatchPolicy,
        m: &mut M,
    ) -> Option<Grant> {
        let mut pools = self.eligible(demand, m);
        if pools
            .iter()
            .map(|&p| self.free[p].len() as u32)
            .sum::<u32>()
            < count
        {
            return None;
        }
        let key = |c: &Capacity| (c.mem_kb, c.disk_kb, c.packages.count_ones());
        match policy {
            MatchPolicy::FirstFit => {}
            MatchPolicy::BestFit => pools.sort_by_key(|&p| key(&self.caps[p])),
            MatchPolicy::WorstFit => pools.sort_by_key(|&p| std::cmp::Reverse(key(&self.caps[p]))),
        }
        if m.is_ranked() {
            let rank: Vec<f64> = (0..self.caps.len())
                .map(|p| m.rank(p, &self.caps[p]))
                .collect();
            pools.sort_by(|&a, &b| rank[b].total_cmp(&rank[a]));
        }
        let (mut nodes, mut per_pool) = (Vec::new(), Vec::new());
        let mut remaining = count;
        for p in pools {
            let here = remaining.min(self.free[p].len() as u32);
            if here == 0 {
                continue;
            }
            for _ in 0..here {
                nodes.push(self.free[p].pop().expect("availability was counted"));
            }
            per_pool.push((p as u16, here));
            remaining -= here;
        }
        Some((nodes, per_pool))
    }

    fn release(&mut self, nodes: &[NodeId]) {
        for &id in nodes {
            let p = self.first_id.partition_point(|&first| first <= id) - 1;
            self.free[p].push(id);
        }
    }

    fn take_offline(&mut self, mem_kb: u64, count: u32) -> u32 {
        let mut taken = 0;
        for p in 0..self.caps.len() {
            while self.caps[p].mem_kb == mem_kb && taken < count {
                let Some(id) = self.free[p].pop() else { break };
                self.offline[p].push(id);
                taken += 1;
            }
        }
        taken
    }

    fn bring_online(&mut self, mem_kb: u64, count: u32) -> u32 {
        let mut restored = 0;
        for p in 0..self.caps.len() {
            while self.caps[p].mem_kb == mem_kb && restored < count {
                let Some(id) = self.offline[p].pop() else {
                    break;
                };
                self.free[p].push(id);
                restored += 1;
            }
        }
        restored
    }
}

/// Accepts only the pools whose bit is set in `mask`, and publishes the
/// mask as its eligibility bitset so the counting walks take the bitset
/// path while allocation calls `matches`.
struct Subset([u64; 1]);

impl PoolMatcher for Subset {
    fn matches(&mut self, pool: usize, _capacity: &Capacity) -> bool {
        (self.0[0] >> pool) & 1 == 1
    }

    fn eligible_pools(&self) -> Option<&[u64]> {
        Some(&self.0)
    }
}

/// Accepts every pool and ranks them by a salted residue, so ranks tie
/// often enough to exercise the stable policy-order tie-break.
struct Ranked(u64);

impl PoolMatcher for Ranked {
    fn matches(&mut self, _pool: usize, _capacity: &Capacity) -> bool {
        true
    }

    fn rank(&mut self, pool: usize, _capacity: &Capacity) -> f64 {
        ((pool as u64 * 7 + self.0) % 3) as f64
    }

    fn is_ranked(&self) -> bool {
        true
    }
}

/// Drive `ops` through the cluster and the reference with the same
/// matcher, interleaving a fixed churn pattern, and require identical node
/// ids, per-pool segments, and free/online/held counts after every step.
fn check_against_reference<M: PoolMatcher>(
    ops: Vec<Op>,
    policy: MatchPolicy,
    m: &mut M,
) -> Result<(), TestCaseError> {
    let mut cluster = build_cluster();
    let mut reference = Reference::new();
    let mut held: Vec<Allocation> = Vec::new();
    for (token, op) in ops.into_iter().enumerate() {
        let probe = match op {
            Op::Alloc { count, mem_kb } => {
                let demand = Demand::memory(mem_kb);
                let got = cluster.try_allocate_matched(count, &demand, policy, token as u64, m);
                let want = reference.allocate(count, &demand, policy, m);
                match (got, want) {
                    (Some(a), Some((nodes, per_pool))) => {
                        prop_assert_eq!(a.nodes(), &nodes[..], "step {}", token);
                        prop_assert_eq!(a.per_pool(), &per_pool[..], "step {}", token);
                        held.push(a);
                    }
                    (None, None) => {}
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "step {token}: cluster {got:?} vs reference {want:?}"
                        )))
                    }
                }
                demand
            }
            Op::ReleaseOldest => {
                if !held.is_empty() {
                    let alloc = held.remove(0);
                    reference.release(alloc.nodes());
                    cluster.release(alloc);
                }
                Demand::memory(1)
            }
        };
        // Churn on a fixed stride, cycling through the pools' capacities.
        let mem_kb = POOLS[token % POOLS.len()].1;
        let n = (token % 5) as u32;
        match token % 7 {
            3 => prop_assert_eq!(
                cluster.take_offline(mem_kb, n),
                reference.take_offline(mem_kb, n)
            ),
            6 => prop_assert_eq!(
                cluster.bring_online(mem_kb, n),
                reference.bring_online(mem_kb, n)
            ),
            _ => {}
        }
        prop_assert_eq!(
            cluster.free_nodes_satisfying_matched(&probe, m),
            reference.free_count(&probe, m)
        );
        prop_assert_eq!(
            cluster.nodes_satisfying_matched(&probe, m),
            reference.online_count(&probe, m)
        );
        let eligible = reference.eligible(&probe, m);
        for alloc in &held {
            let want: u32 = alloc
                .per_pool()
                .iter()
                .filter(|(p, _)| eligible.contains(&(*p as usize)))
                .map(|&(_, n)| n)
                .sum();
            prop_assert_eq!(
                cluster.allocation_nodes_satisfying_matched(alloc, &probe, m),
                want
            );
        }
        let ref_free: u32 = reference.free.iter().map(|f| f.len() as u32).sum();
        let ref_offline: u32 = reference.offline.iter().map(|o| o.len() as u32).sum();
        prop_assert_eq!(cluster.free_nodes(), ref_free);
        prop_assert_eq!(cluster.offline_nodes(), ref_offline);
    }
    Ok(())
}

proptest! {
    #[test]
    fn match_all_allocation_matches_reference(ops in arb_ops(), policy in arb_policy()) {
        check_against_reference(ops, policy, &mut MatchAll)?;
    }

    #[test]
    fn subset_matcher_allocation_matches_reference(
        ops in arb_ops(),
        policy in arb_policy(),
        mask in 0u64..8,
    ) {
        check_against_reference(ops, policy, &mut Subset([mask]))?;
    }

    #[test]
    fn ranked_allocation_matches_reference(
        ops in arb_ops(),
        policy in arb_policy(),
        salt in 0u64..3,
    ) {
        check_against_reference(ops, policy, &mut Ranked(salt))?;
    }

    #[test]
    fn allocation_conserves_nodes(ops in arb_ops(), policy in arb_policy()) {
        let mut cluster = build_cluster();
        let total = cluster.total_nodes();
        let mut held: Vec<Allocation> = Vec::new();
        let mut held_nodes = 0u32;
        for (token, op) in ops.into_iter().enumerate() {
            match op {
                Op::Alloc { count, mem_kb } => {
                    let demand = Demand::memory(mem_kb);
                    let eligible_free = cluster.free_nodes_satisfying(&demand);
                    match cluster.try_allocate(count, &demand, policy, token as u64) {
                        Some(alloc) => {
                            prop_assert!(eligible_free >= count, "granted without capacity");
                            prop_assert_eq!(alloc.nodes().len() as u32, count);
                            // Every granted node satisfies the demand.
                            for &n in alloc.nodes() {
                                prop_assert!(cluster.node_capacity(n).satisfies(&demand));
                            }
                            held_nodes += count;
                            held.push(alloc);
                        }
                        None => {
                            prop_assert!(eligible_free < count, "refused despite capacity");
                        }
                    }
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        let alloc = held.remove(0);
                        held_nodes -= alloc.nodes().len() as u32;
                        cluster.release(alloc);
                    }
                }
            }
            prop_assert_eq!(cluster.free_nodes() + held_nodes, total);
            prop_assert_eq!(cluster.busy_nodes(), held_nodes);
        }
        // Drain and verify full recovery.
        for alloc in held {
            cluster.release(alloc);
        }
        prop_assert_eq!(cluster.free_nodes(), total);
    }

    #[test]
    fn no_node_double_allocated(ops in arb_ops(), policy in arb_policy()) {
        let mut cluster = build_cluster();
        let mut held: Vec<Allocation> = Vec::new();
        let mut busy = std::collections::HashSet::new();
        for (token, op) in ops.into_iter().enumerate() {
            match op {
                Op::Alloc { count, mem_kb } => {
                    if let Some(alloc) =
                        cluster.try_allocate(count, &Demand::memory(mem_kb), policy, token as u64)
                    {
                        for &n in alloc.nodes() {
                            prop_assert!(busy.insert(n), "node {} granted twice", n);
                        }
                        held.push(alloc);
                    }
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        let alloc = held.remove(0);
                        for n in alloc.nodes() {
                            busy.remove(n);
                        }
                        cluster.release(alloc);
                    }
                }
            }
        }
    }

    #[test]
    fn round_up_matches_naive(caps in prop::collection::vec(1u64..100_000, 1..20), x in 0u64..120_000) {
        let ladder = CapacityLadder::new(caps.clone());
        let naive = caps.iter().copied().filter(|&c| c >= x).min();
        prop_assert_eq!(ladder.round_up(x), naive);
    }

    #[test]
    fn round_down_matches_naive(caps in prop::collection::vec(1u64..100_000, 1..20), x in 0u64..120_000) {
        let ladder = CapacityLadder::new(caps.clone());
        let naive = caps.iter().copied().filter(|&c| c <= x).max();
        prop_assert_eq!(ladder.round_down(x), naive);
    }

    #[test]
    fn best_fit_never_uses_larger_pool_than_needed(
        count in 1u32..16,
        mem_kb in 1u64..8_193,
    ) {
        // Demand fits entirely in the 8 MB pool (16 nodes): best-fit must
        // grant only 8 MB nodes while they suffice.
        let mut cluster = build_cluster();
        let alloc = cluster
            .try_allocate(count, &Demand::memory(mem_kb), MatchPolicy::BestFit, 1)
            .expect("capacity available");
        for &n in alloc.nodes() {
            prop_assert_eq!(cluster.node_capacity(n).mem_kb, 8 * 1024);
        }
        cluster.release(alloc);
    }
}
