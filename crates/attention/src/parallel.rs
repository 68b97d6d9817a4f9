//! Sparsity-aware parallel execution of per-head attention shards.
//!
//! LServe's per-head sparsity makes attention work wildly non-uniform: a
//! streaming head touches a constant sink+local window while a dense head
//! touches its full (or selected) page set. Splitting a layer's attention at
//! *(sequence × KV-head)* granularity therefore produces shards whose costs
//! span orders of magnitude, and a naive round-robin over worker threads
//! leaves most of them idle behind the one that drew the long dense shards
//! (the observation S-HPLB makes for head-parallel sparse decoding).
//!
//! This module is the std-only worker pool the executor runs those shards on:
//!
//! * [`lpt_assign`] — Longest-Processing-Time-first assignment of shards to
//!   workers by their *estimated* cost (streaming ≈ resident window tokens,
//!   dense ≈ selected/resident page tokens from the selector), the classic
//!   `4/3`-approximate makespan heuristic.
//! * [`run_placed`] — the one runner. Shards carry a simulated device (the
//!   head-parallel placement); each device drains its own LPT queues with
//!   scoped worker threads (no `'static` bounds, no channels, no external
//!   deps) that then *steal* unstarted shards from their device peers,
//!   smallest-first, so a mispredicted straggler cannot serialize the phase.
//!   One device is the degenerate placement (every shard on device 0), and a
//!   placement that yields a single worker runs inline on the caller.
//! * [`DecodeShard`] / [`run_decode_shard`] — the unit of decode work: one KV
//!   head's query group against its head cache, written into a caller-provided
//!   disjoint output slice.
//!
//! Every shard writes only its own preallocated output slice and reads only
//! shared immutable state (pool pages, caches, queries), so the result is
//! bit-identical for every thread count, device count, assignment, and steal
//! schedule; the only synchronization is one uncontended claim per shard.
//! Wall-clock speedup needs physical cores, but the [`BalanceStats`] cost
//! counters give a deterministic model of the achievable parallelism (per
//! worker and per device) either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use lserve_kvcache::{HeadCache, PagePool};

use crate::decode::{decode_dense_head, decode_streaming_head, DecodeStats};

/// Measured and modeled balance of one parallel phase, placed onto simulated
/// devices by [`run_placed`].
///
/// Worker-level vectors are device-major (device 0's workers first). A phase
/// on one device is the degenerate placement: every shard on device 0, so
/// `device_cost == [cost_total()]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BalanceStats {
    /// Simulated devices the phase was placed onto.
    pub devices: usize,
    /// Worker threads used across all devices (each device's count clamped
    /// to its shard count; 1 when the phase ran inline on the caller).
    pub workers: usize,
    /// Shards executed.
    pub shards: u64,
    /// Shards executed by a worker other than their LPT assignee.
    pub stolen: u64,
    /// Measured per-worker busy time in nanoseconds.
    pub busy_ns: Vec<u64>,
    /// Estimated cost assigned to each worker by [`lpt_assign`].
    pub assigned_cost: Vec<u64>,
    /// Modeled shard cost landed on each device.
    pub device_cost: Vec<u64>,
    /// Worker threads used by each device (0 for devices with no shards).
    pub device_workers: Vec<usize>,
}

impl BalanceStats {
    /// Total measured busy time across workers.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Busiest worker's measured time — the phase's wall-clock lower bound.
    pub fn max_busy_ns(&self) -> u64 {
        self.busy_ns.iter().copied().max().unwrap_or(0)
    }

    /// Total estimated shard cost (the serial work the phase replaces).
    pub fn cost_total(&self) -> u64 {
        self.assigned_cost.iter().sum()
    }

    /// Largest per-worker estimated cost — the phase's modeled critical path.
    pub fn cost_critical(&self) -> u64 {
        self.assigned_cost.iter().copied().max().unwrap_or(0)
    }

    /// Busiest device's modeled cost — the phase's device-level critical path
    /// (devices run concurrently in the model).
    pub fn device_cost_critical(&self) -> u64 {
        self.device_cost.iter().copied().max().unwrap_or(0)
    }

    /// Max-over-mean device load — 1.0 is perfect balance, `devices` is
    /// everything on one device; 1.0 when there is no load.
    pub fn device_imbalance(&self) -> f64 {
        let total = self.cost_total();
        if total == 0 || self.devices == 0 {
            return 1.0;
        }
        self.device_cost_critical() as f64 * self.devices as f64 / total as f64
    }
}

/// Longest-Processing-Time-first assignment: shards sorted by descending cost
/// (ties broken by index, so the result is deterministic) are each given to
/// the currently least-loaded worker. Returns one index list per worker, each
/// in descending-cost order.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn lpt_assign(costs: &[u64], workers: usize) -> Vec<Vec<usize>> {
    assert!(workers > 0, "need at least one worker");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for i in order {
        let w = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect("workers > 0");
        load[w] += costs[i];
        queues[w].push(i);
    }
    queues
}

/// Runs `tasks` against a placement: shard `i` executes on simulated device
/// `device_of[i]`, each device draining its own LPT-balanced queues (by
/// `costs`) with up to `threads_per_device` scoped workers. A single device
/// is just the placement with every shard on device 0.
///
/// Each task is executed exactly once, by exactly one worker. Workers drain
/// their own queue in descending-cost order, then scan their device peers'
/// queues from the *back* (smallest assigned shards first) and steal anything
/// unstarted. A worker never executes another device's shard, so the modeled
/// per-device load is exact. Claims go through one uncontended mutex per
/// shard; the task bodies themselves run lock-free on whatever disjoint state
/// they own.
///
/// When the placement yields one worker in total (one thread per device and
/// every shard on one device, or a single task) everything runs inline on the
/// calling thread in task order — no spawn, and the reference path every
/// parallel schedule must match bit-for-bit. Devices are a modeling
/// construct: all workers are host threads, so the result is bit-identical
/// for every device count, placement, and steal schedule.
///
/// # Panics
///
/// Panics if `devices` is zero, if `costs`/`device_of`/`tasks` lengths
/// disagree, if any `device_of` entry is out of range, or propagates a panic
/// from `run`.
pub fn run_placed<T: Send, F: Fn(&mut T) + Sync>(
    threads_per_device: usize,
    devices: usize,
    device_of: &[usize],
    costs: &[u64],
    tasks: &mut [T],
    run: F,
) -> BalanceStats {
    assert!(devices > 0, "need at least one device");
    assert_eq!(costs.len(), tasks.len(), "one cost per shard");
    assert_eq!(device_of.len(), tasks.len(), "one device per shard");
    assert!(
        device_of.iter().all(|&d| d < devices),
        "shard placed on a device outside the topology"
    );
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); devices];
    for (i, &d) in device_of.iter().enumerate() {
        groups[d].push(i);
    }
    let mut stats = BalanceStats {
        devices,
        workers: 1,
        shards: tasks.len() as u64,
        stolen: 0,
        busy_ns: Vec::new(),
        assigned_cost: Vec::new(),
        device_cost: groups
            .iter()
            .map(|g| g.iter().map(|&i| costs[i]).sum())
            .collect(),
        device_workers: groups
            .iter()
            .map(|g| threads_per_device.max(1).min(g.len()))
            .collect(),
    };
    if stats.device_workers.iter().sum::<usize>() <= 1 {
        let t0 = Instant::now();
        for t in tasks.iter_mut() {
            run(t);
        }
        stats.busy_ns = vec![t0.elapsed().as_nanos() as u64];
        stats.assigned_cost = vec![costs.iter().sum()];
        return stats;
    }
    // Per-device LPT queues over global shard indices, flattened device-major
    // so a single scoped spawn covers the whole mesh; `peers[w]` is the range
    // of workers sharing worker `w`'s device (its steal victims).
    let mut queues: Vec<Vec<usize>> = Vec::new();
    let mut peers: Vec<std::ops::Range<usize>> = Vec::new();
    for (group, &workers) in groups.iter().zip(&stats.device_workers) {
        if group.is_empty() {
            continue;
        }
        let first = queues.len();
        let local_costs: Vec<u64> = group.iter().map(|&i| costs[i]).collect();
        for queue in lpt_assign(&local_costs, workers) {
            queues.push(queue.into_iter().map(|local| group[local]).collect());
            peers.push(first..first + workers);
        }
    }
    let total_workers = queues.len();
    stats.workers = total_workers;
    stats.assigned_cost = queues
        .iter()
        .map(|q| q.iter().map(|&i| costs[i]).sum())
        .collect();
    // One claimable slot per shard: `take()` hands exclusive ownership of the
    // `&mut T` to whichever worker gets there first, so assignment and steal
    // races can never run a shard twice.
    let slots: Vec<Mutex<Option<&mut T>>> = tasks.iter_mut().map(|t| Mutex::new(Some(t))).collect();
    let stolen = AtomicU64::new(0);
    stats.busy_ns = vec![0u64; total_workers];
    thread::scope(|s| {
        let handles: Vec<_> = (0..total_workers)
            .map(|w| {
                let queues = &queues;
                let slots = &slots;
                let stolen = &stolen;
                let run = &run;
                let peers = peers[w].clone();
                s.spawn(move || {
                    let t0 = Instant::now();
                    for &i in &queues[w] {
                        let task = slots[i].lock().expect("shard slot poisoned").take();
                        if let Some(task) = task {
                            run(task);
                        }
                    }
                    // Straggler fallback: steal unstarted shards, smallest
                    // (back of the LPT queue) first, from the nearest peer on
                    // this device — cross-device steals would falsify the
                    // modeled per-device load.
                    let k = peers.len();
                    for offset in 1..k {
                        let victim = peers.start + (w - peers.start + offset) % k;
                        for &i in queues[victim].iter().rev() {
                            let task = slots[i].lock().expect("shard slot poisoned").take();
                            if let Some(task) = task {
                                stolen.fetch_add(1, Ordering::Relaxed);
                                run(task);
                            }
                        }
                    }
                    t0.elapsed().as_nanos() as u64
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            stats.busy_ns[w] = h.join().expect("attention worker panicked");
        }
    });
    stats.stolen = stolen.into_inner();
    stats
}

/// One *(sequence × KV-head)* unit of decode attention: the KV head's query
/// group against its cache, into a caller-owned disjoint output slice.
///
/// `queries` and `out` both hold `group_size * head_dim` values (the query
/// heads of one GQA group are contiguous, so the output region is too).
#[derive(Debug)]
pub struct DecodeShard<'a> {
    /// The KV head's cache (dense or streaming).
    pub head: &'a HeadCache,
    /// Query rows of every query head in this KV head's group, concatenated.
    pub queries: &'a [f32],
    /// Selected physical-page indices for a dense head (`None` = full history;
    /// ignored for streaming heads, whose page table *is* the selection).
    pub selection: Option<&'a [usize]>,
    /// Per-head feature dimension `D`.
    pub head_dim: usize,
    /// Logit scale `1/sqrt(D)`.
    pub scale: f32,
    /// Preallocated output slice, same length as `queries`.
    pub out: &'a mut [f32],
    /// Work counters accumulated over the group, dense-head portion.
    pub dense: DecodeStats,
    /// Work counters accumulated over the group, streaming-head portion.
    pub streaming: DecodeStats,
}

/// Executes one decode shard: every query head of the group runs the matching
/// single-head kernel, and the results land in the shard's output slice.
///
/// # Panics
///
/// Panics if `queries`/`out` lengths disagree or are not a multiple of
/// `head_dim`, or on the underlying kernels' shape checks.
pub fn run_decode_shard(pool: &PagePool, shard: &mut DecodeShard<'_>) {
    let d = shard.head_dim;
    assert_eq!(
        shard.out.len(),
        shard.queries.len(),
        "shard output mismatch"
    );
    assert_eq!(shard.queries.len() % d, 0, "ragged query group");
    let group = shard.queries.len() / d;
    for g in 0..group {
        let q = &shard.queries[g * d..(g + 1) * d];
        let oh = match shard.head {
            HeadCache::Dense(c) => {
                let (oh, stats) = decode_dense_head(pool, c, q, shard.scale, shard.selection);
                shard.dense.accumulate(stats);
                oh
            }
            HeadCache::Streaming(c) => {
                let (oh, stats) = decode_streaming_head(pool, c, q, shard.scale);
                shard.streaming.accumulate(stats);
                oh
            }
        };
        shard.out[g * d..(g + 1) * d].copy_from_slice(&oh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn lpt_balances_known_loads() {
        // Loads {7,6,5,4,3} over 2 workers: LPT yields a 14/11 split (within
        // its 4/3 bound of the optimal 13/12), far better than the 16/9 a
        // naive in-order halving would produce.
        let costs = [5, 3, 7, 6, 4];
        let queues = lpt_assign(&costs, 2);
        let loads: Vec<u64> = queues
            .iter()
            .map(|q| q.iter().map(|&i| costs[i]).sum())
            .collect();
        assert_eq!(loads.iter().sum::<u64>(), 25);
        assert_eq!(*loads.iter().max().unwrap(), 14);
    }

    #[test]
    fn lpt_is_deterministic_under_ties() {
        let costs = [4u64, 4, 4, 4];
        assert_eq!(lpt_assign(&costs, 2), lpt_assign(&costs, 2));
        assert_eq!(lpt_assign(&costs, 2), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn worker_count_clamps_to_shard_count() {
        let mut tasks = vec![0u8; 2];
        let stats = run_placed(16, 1, &[0, 0], &[1, 1], &mut tasks, |t| *t = 1);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.device_workers, vec![2]);
        assert_eq!(tasks, vec![1, 1]);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let mut tasks: Vec<u8> = Vec::new();
        let stats = run_placed(4, 1, &[], &[], &mut tasks, |_| {});
        assert_eq!(stats.shards, 0);
        assert_eq!(stats.workers, 1, "an empty phase runs inline");
    }

    #[test]
    fn run_sharded_executes_every_task_once() {
        // The degenerate placement: every shard on device 0, spread over
        // 1..8 worker threads.
        for threads in [1, 2, 3, 8] {
            let mut tasks: Vec<u32> = vec![0; 37];
            let costs: Vec<u64> = (0..37).map(|i| (i % 5 + 1) as u64).collect();
            let executions = AtomicUsize::new(0);
            let stats = run_placed(threads, 1, &[0; 37], &costs, &mut tasks, |t| {
                *t += 1;
                executions.fetch_add(1, Ordering::Relaxed);
            });
            assert!(tasks.iter().all(|&t| t == 1), "threads {threads}");
            assert_eq!(executions.into_inner(), 37);
            assert_eq!(stats.shards, 37);
            assert!(stats.workers <= threads.max(1));
            assert_eq!(stats.busy_ns.len(), stats.workers);
            assert_eq!(stats.cost_total(), costs.iter().sum::<u64>());
            assert!(stats.cost_critical() <= stats.cost_total());
            assert_eq!(stats.device_cost, vec![stats.cost_total()]);
            assert_eq!(stats.device_workers, vec![stats.workers]);
        }
    }

    #[test]
    fn run_placed_executes_every_task_once_on_its_device() {
        for (devices, threads) in [(1, 1), (2, 1), (2, 3), (4, 2)] {
            let n = 37;
            let mut tasks: Vec<u32> = vec![0; n];
            let costs: Vec<u64> = (0..n).map(|i| (i % 7 + 1) as u64).collect();
            let device_of: Vec<usize> = (0..n).map(|i| (i * i) % devices).collect();
            let executions = AtomicUsize::new(0);
            let placed = run_placed(threads, devices, &device_of, &costs, &mut tasks, |t| {
                *t += 1;
                executions.fetch_add(1, Ordering::Relaxed);
            });
            let case = format!("devices {devices} threads {threads}");
            assert!(tasks.iter().all(|&t| t == 1), "{case}");
            assert_eq!(executions.into_inner(), n);
            assert_eq!(placed.devices, devices);
            assert_eq!(placed.shards, n as u64);
            assert!(placed.workers <= threads.max(1) * devices, "{case}");
            assert_eq!(placed.busy_ns.len(), placed.workers);
            assert_eq!(placed.assigned_cost.len(), placed.workers);
            assert_eq!(placed.cost_total(), costs.iter().sum::<u64>());
            assert!(placed.cost_critical() <= placed.cost_total());
            assert!(placed.cost_critical() <= placed.device_cost_critical());
            // Per-device load is exactly the sum of the shards placed there.
            for d in 0..devices {
                let want: u64 = (0..n)
                    .filter(|&i| device_of[i] == d)
                    .map(|i| costs[i])
                    .sum();
                assert_eq!(placed.device_cost[d], want, "{case}");
            }
            if devices == 1 {
                assert_eq!(placed.device_imbalance(), 1.0);
                assert_eq!(placed.device_cost_critical(), placed.cost_total());
            }
        }
    }

    #[test]
    fn one_worker_in_total_runs_inline_on_the_caller() {
        let caller = thread::current().id();
        for (devices, device_of) in [(1, vec![0; 5]), (3, vec![2; 5])] {
            let mut tasks = vec![0u8; 5];
            let placed = run_placed(1, devices, &device_of, &[4, 1, 3, 1, 2], &mut tasks, |t| {
                assert_eq!(thread::current().id(), caller, "no worker thread spawned");
                *t = 1;
            });
            assert!(tasks.iter().all(|&t| t == 1));
            assert_eq!(placed.workers, 1);
            assert_eq!(placed.busy_ns.len(), 1);
            assert_eq!(placed.assigned_cost, vec![11]);
        }
    }

    #[test]
    fn run_placed_imbalance_reflects_skewed_placement() {
        // Everything on device 0 of 2: imbalance is exactly 2.0.
        let mut tasks = vec![0u8; 6];
        let placed = run_placed(1, 2, &[0; 6], &[3; 6], &mut tasks, |t| *t = 1);
        assert_eq!(placed.device_cost, vec![18, 0]);
        assert_eq!(placed.device_workers, vec![1, 0]);
        assert_eq!(placed.device_imbalance(), 2.0);
        assert!(tasks.iter().all(|&t| t == 1));
    }

    #[test]
    fn run_placed_empty_devices_and_empty_tasks_are_fine() {
        let mut tasks: Vec<u8> = Vec::new();
        let placed = run_placed(4, 3, &[], &[], &mut tasks, |_| {});
        assert_eq!(placed.shards, 0);
        assert_eq!(placed.device_cost, vec![0, 0, 0]);
        assert_eq!(placed.device_imbalance(), 1.0);
    }
}
