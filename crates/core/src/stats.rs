//! Aggregate work counters reported by the engine.

use lserve_attention::{BalanceStats, DecodeStats, PrefillStats};

/// Cumulative work counters across an engine's lifetime.
///
/// These are the units the analytical cost model prices: visited prefill tiles,
/// visited decode pages, selector scoring work. Accuracy experiments read recall off
/// the workloads; efficiency experiments read these counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Prefill tiles computed on dense (retrieval) heads.
    pub prefill_dense_tiles: u64,
    /// Prefill tiles computed on streaming heads.
    pub prefill_streaming_tiles: u64,
    /// Prefill tiles a fully dense model would have computed.
    pub prefill_total_causal_tiles: u64,
    /// Decode pages visited on dense heads.
    pub decode_dense_pages: u64,
    /// Decode pages visited on streaming heads.
    pub decode_streaming_pages: u64,
    /// Decode pages a dense engine would have visited.
    pub decode_total_pages: u64,
    /// Decode KV token rows actually folded into attention.
    pub decode_tokens_visited: u64,
    /// Logical pages scored by selectors.
    pub selector_logical_scored: u64,
    /// Selector invocations that actually scored (not reused).
    pub selector_invocations: u64,
    /// Selector calls answered from the reuse cache.
    pub selector_reuses: u64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Pages this sequence demoted to the cold tier (selection-driven).
    pub pages_demoted: u64,
    /// Cold pages this sequence promoted back because a selection picked them.
    pub pages_promoted: u64,
    /// Token-units this sequence moved across the host link in either
    /// direction (see [`lserve_kvcache::transfer_cost_tokens`] for the
    /// conversion into forward-pass token-equivalents).
    pub migrated_token_units: u64,
    /// The fraction of `migrated_token_units` this sequence actually stalled
    /// on: transfer work the copy engine could not hide behind compute
    /// (demand fetches, forced completions). Under synchronous migration
    /// every moved unit lands here.
    pub unhidden_token_units: u64,
}

/// One residency pass's migration traffic, accumulated across a layer and
/// committed into [`EngineStats`] in a single [`EngineStats::add_migration`]
/// call — the one place per-sequence migration accounting happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationDelta {
    /// Pages demoted to the cold tier (selection-driven).
    pub pages_demoted: u64,
    /// Cold pages promoted back because a selection picked them.
    pub pages_promoted: u64,
    /// Token-units issued across the host link in either direction.
    pub token_units: u64,
    /// The unhidden fraction of `token_units` (all of it under synchronous
    /// migration; only demand-forced remainders under the async copy engine).
    pub unhidden_units: u64,
}

impl EngineStats {
    /// Folds one layer's prefill counters in.
    pub fn add_prefill(&mut self, dense: PrefillStats, streaming: PrefillStats) {
        self.prefill_dense_tiles += dense.tiles_visited;
        self.prefill_streaming_tiles += streaming.tiles_visited;
        self.prefill_total_causal_tiles += dense.tiles_total_causal + streaming.tiles_total_causal;
    }

    /// Folds one layer's decode counters in.
    pub fn add_decode(&mut self, dense: DecodeStats, streaming: DecodeStats) {
        self.decode_dense_pages += dense.pages_visited;
        self.decode_streaming_pages += streaming.pages_visited;
        self.decode_total_pages += dense.pages_total + streaming.pages_total;
        self.decode_tokens_visited += dense.tokens_visited + streaming.tokens_visited;
    }

    /// Overall prefill block sparsity `r` (fraction of causal tiles skipped).
    pub fn prefill_sparsity(&self) -> f64 {
        if self.prefill_total_causal_tiles == 0 {
            return 0.0;
        }
        1.0 - (self.prefill_dense_tiles + self.prefill_streaming_tiles) as f64
            / self.prefill_total_causal_tiles as f64
    }

    /// Folds one residency pass's migration counters in (see
    /// [`MigrationDelta`]).
    pub fn add_migration(&mut self, delta: &MigrationDelta) {
        self.pages_demoted += delta.pages_demoted;
        self.pages_promoted += delta.pages_promoted;
        self.migrated_token_units += delta.token_units;
        self.unhidden_token_units += delta.unhidden_units;
    }

    /// Modeled transfer work of this sequence's tier migrations, in
    /// forward-pass token-equivalents.
    pub fn migration_work_tokens(&self) -> u64 {
        lserve_kvcache::transfer_cost_tokens(self.migrated_token_units)
    }

    /// The stalled part of [`EngineStats::migration_work_tokens`]: transfer
    /// work this sequence waited for rather than overlapped.
    pub fn migration_stall_tokens(&self) -> u64 {
        lserve_kvcache::transfer_cost_tokens(self.unhidden_token_units)
    }

    /// Overall decode page sparsity (fraction of pages skipped).
    pub fn decode_sparsity(&self) -> f64 {
        if self.decode_total_pages == 0 {
            return 0.0;
        }
        1.0 - (self.decode_dense_pages + self.decode_streaming_pages) as f64
            / self.decode_total_pages as f64
    }
}

/// Aggregate counters of the sparsity-aware parallel execution layer, folded
/// over every prefill/decode parallel phase an executor ran.
///
/// Two families of numbers live here:
///
/// * **Measured** (`busy_ns_*`, `stolen`): wall-clock worker activity. Useful
///   for utilization/imbalance reporting; inherently nondeterministic.
/// * **Modeled** (`cost_*`): the sparsity-aware shard cost estimates the LPT
///   assignment balanced. `cost_total / cost_critical` is the speedup a
///   perfectly parallel machine would get from this schedule — deterministic,
///   so tests and benches can assert on it regardless of host core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelExecStats {
    /// Largest worker count used by any phase.
    pub workers: usize,
    /// Parallel phases executed (one per layer per prefill/decode call).
    pub phases: u64,
    /// Attention shards executed across all phases.
    pub shards: u64,
    /// Shards executed by a worker other than their LPT assignee (work
    /// stealing fired).
    pub stolen: u64,
    /// Total measured worker busy time, nanoseconds.
    pub busy_ns_total: u64,
    /// Sum over phases of the busiest worker's time — the measured critical
    /// path across all phases.
    pub busy_ns_critical: u64,
    /// Sum over phases of `phase workers × busiest worker's time` — the total
    /// worker-seconds the pool was open. Per-phase accumulation matters:
    /// phases clamp their worker count to the shard count, so a run mixing
    /// 2-worker and 8-worker phases must not divide every phase by 8.
    pub busy_ns_capacity: u64,
    /// Total estimated shard cost (serial work) across all phases.
    pub cost_total: u64,
    /// Sum over phases of the most-loaded worker's estimated cost — the
    /// modeled critical path of the LPT schedule.
    pub cost_critical: u64,
    /// Largest simulated device count any phase was placed onto (1 for a
    /// single-device run).
    pub devices: usize,
    /// Modeled interconnect tokens charged for cross-device gathers (a
    /// sequence's shards produced on a non-home device).
    pub interconnect_tokens: u64,
    /// Sum over phases of total modeled cost landed across devices (gather
    /// charges included).
    pub device_cost_total: u64,
    /// Sum over phases of the busiest device's modeled cost — the
    /// device-level critical path (devices run concurrently in the model).
    pub device_cost_critical: u64,
    /// Sum over phases of `phase devices × busiest device's cost` — the
    /// device-seconds the mesh was open, mirroring `busy_ns_capacity`.
    pub device_cost_capacity: u64,
}

impl ParallelExecStats {
    /// Folds one parallel phase in: worker-level balance, the per-device
    /// ledger, and the phase's cross-device gather charge (always 0 on one
    /// device, where every sequence's home is device 0).
    pub fn absorb(&mut self, b: &BalanceStats, gather_tokens: u64) {
        self.workers = self.workers.max(b.workers);
        self.phases += 1;
        self.shards += b.shards;
        self.stolen += b.stolen;
        self.busy_ns_total += b.total_busy_ns();
        self.busy_ns_critical += b.max_busy_ns();
        self.busy_ns_capacity += b.workers as u64 * b.max_busy_ns();
        self.cost_total += b.cost_total();
        self.cost_critical += b.cost_critical();
        self.devices = self.devices.max(b.devices);
        self.interconnect_tokens += gather_tokens;
        self.device_cost_total += b.cost_total();
        self.device_cost_critical += b.device_cost_critical();
        self.device_cost_capacity += b.devices as u64 * b.device_cost_critical();
    }

    /// Merges another accumulator (e.g. per-step stats into a run total).
    pub fn merge(&mut self, other: &ParallelExecStats) {
        self.workers = self.workers.max(other.workers);
        self.phases += other.phases;
        self.shards += other.shards;
        self.stolen += other.stolen;
        self.busy_ns_total += other.busy_ns_total;
        self.busy_ns_critical += other.busy_ns_critical;
        self.busy_ns_capacity += other.busy_ns_capacity;
        self.cost_total += other.cost_total;
        self.cost_critical += other.cost_critical;
        self.devices = self.devices.max(other.devices);
        self.interconnect_tokens += other.interconnect_tokens;
        self.device_cost_total += other.device_cost_total;
        self.device_cost_critical += other.device_cost_critical;
        self.device_cost_capacity += other.device_cost_capacity;
    }

    /// Measured mean worker utilization in `(0, 1]`: busy time divided by the
    /// worker-seconds the pool was open (per phase, that phase's worker count
    /// × its critical path). 1.0 when no parallel phase ran.
    pub fn utilization(&self) -> f64 {
        if self.busy_ns_capacity == 0 {
            return 1.0;
        }
        self.busy_ns_total as f64 / self.busy_ns_capacity as f64
    }

    /// Measured imbalance `>= 1`: how much longer the critical path ran than a
    /// perfectly balanced schedule would have (the reciprocal of utilization).
    pub fn imbalance(&self) -> f64 {
        let u = self.utilization();
        if u == 0.0 {
            return 1.0;
        }
        1.0 / u
    }

    /// Modeled speedup of the LPT schedule over serial execution
    /// (`cost_total / cost_critical`, deterministic). 1.0 when nothing ran.
    pub fn modeled_speedup(&self) -> f64 {
        if self.cost_critical == 0 {
            return 1.0;
        }
        self.cost_total as f64 / self.cost_critical as f64
    }

    /// Modeled mean device utilization in `(0, 1]`: cost landed across the
    /// mesh divided by the device-seconds the mesh was open. Deterministic
    /// (pure placement arithmetic, no wall clock). 1.0 when nothing ran.
    pub fn device_utilization(&self) -> f64 {
        if self.device_cost_capacity == 0 {
            return 1.0;
        }
        self.device_cost_total as f64 / self.device_cost_capacity as f64
    }

    /// Modeled device imbalance `>= 1`: how much longer the busiest device
    /// ran than a perfectly balanced placement would have (the reciprocal of
    /// [`ParallelExecStats::device_utilization`]). This is the number the
    /// sparsity-aware-vs-round-robin placement bench asserts on.
    pub fn device_imbalance(&self) -> f64 {
        let u = self.device_utilization();
        if u == 0.0 {
            return 1.0;
        }
        1.0 / u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparsity_zero_when_empty() {
        let s = EngineStats::default();
        assert_eq!(s.prefill_sparsity(), 0.0);
        assert_eq!(s.decode_sparsity(), 0.0);
    }

    #[test]
    fn add_prefill_accumulates() {
        let mut s = EngineStats::default();
        s.add_prefill(
            PrefillStats {
                tiles_visited: 10,
                tiles_total_causal: 20,
            },
            PrefillStats {
                tiles_visited: 5,
                tiles_total_causal: 20,
            },
        );
        assert_eq!(s.prefill_dense_tiles, 10);
        assert_eq!(s.prefill_streaming_tiles, 5);
        assert!((s.prefill_sparsity() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn add_decode_accumulates() {
        let mut s = EngineStats::default();
        s.add_decode(
            DecodeStats {
                pages_visited: 4,
                tokens_visited: 64,
                pages_total: 10,
            },
            DecodeStats {
                pages_visited: 2,
                tokens_visited: 32,
                pages_total: 10,
            },
        );
        assert_eq!(s.decode_tokens_visited, 96);
        assert!((s.decode_sparsity() - 0.7).abs() < 1e-12);
    }

    /// A one-device phase's balance report: every worker on device 0.
    fn one_device(shards: u64, busy_ns: Vec<u64>, assigned_cost: Vec<u64>) -> BalanceStats {
        BalanceStats {
            devices: 1,
            workers: busy_ns.len(),
            shards,
            stolen: 0,
            device_cost: vec![assigned_cost.iter().sum()],
            device_workers: vec![busy_ns.len()],
            busy_ns,
            assigned_cost,
        }
    }

    #[test]
    fn parallel_stats_absorb_and_model() {
        let mut p = ParallelExecStats::default();
        assert_eq!(p.utilization(), 1.0);
        assert_eq!(p.modeled_speedup(), 1.0);
        p.absorb(
            &BalanceStats {
                stolen: 1,
                ..one_device(8, vec![100, 100, 100, 100], vec![30, 30, 20, 20])
            },
            0,
        );
        assert_eq!(p.phases, 1);
        assert_eq!(p.shards, 8);
        assert_eq!(p.cost_total, 100);
        assert_eq!(p.cost_critical, 30);
        assert!((p.modeled_speedup() - 100.0 / 30.0).abs() < 1e-12);
        assert!((p.utilization() - 1.0).abs() < 1e-12);
        let mut q = ParallelExecStats::default();
        q.merge(&p);
        q.merge(&p);
        assert_eq!(q.phases, 2);
        assert_eq!(q.cost_total, 200);
        assert!(q.imbalance() >= 1.0);
    }

    #[test]
    fn absorb_placed_tracks_device_ledger_and_interconnect() {
        let mut p = ParallelExecStats::default();
        assert_eq!(p.device_imbalance(), 1.0);
        p.absorb(
            &BalanceStats {
                devices: 2,
                workers: 2,
                shards: 4,
                stolen: 0,
                busy_ns: vec![10, 10],
                assigned_cost: vec![30, 10],
                device_cost: vec![30, 10],
                device_workers: vec![1, 1],
            },
            8,
        );
        assert_eq!(p.devices, 2);
        assert_eq!(p.interconnect_tokens, 8);
        assert_eq!(p.device_cost_total, 40);
        assert_eq!(p.device_cost_critical, 30);
        assert_eq!(p.device_cost_capacity, 60);
        assert!((p.device_imbalance() - 1.5).abs() < 1e-12);
        // A one-device phase folds in balanced, with no gather charge.
        p.absorb(&one_device(1, vec![5], vec![20]), 0);
        assert_eq!(p.device_cost_total, 60);
        assert_eq!(p.device_cost_critical, 50);
        let mut q = ParallelExecStats::default();
        q.merge(&p);
        assert_eq!(q.devices, 2);
        assert_eq!(q.interconnect_tokens, 8);
        assert_eq!(q.device_cost_capacity, p.device_cost_capacity);
    }

    #[test]
    fn utilization_weights_phases_by_their_own_worker_count() {
        // A fully-busy 2-worker phase followed by a fully-busy 8-worker phase:
        // utilization must be 1.0, not deflated by dividing the small phase by
        // the run-wide maximum worker count.
        let mut p = ParallelExecStats::default();
        p.absorb(&one_device(2, vec![50, 50], vec![5, 5]), 0);
        p.absorb(&one_device(8, vec![100; 8], vec![10; 8]), 0);
        assert_eq!(p.workers, 8);
        assert_eq!(p.busy_ns_capacity, 2 * 50 + 8 * 100);
        assert!((p.utilization() - 1.0).abs() < 1e-12);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }
}
