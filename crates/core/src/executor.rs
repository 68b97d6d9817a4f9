//! The shared/immutable vs per-sequence split of the inference engine.
//!
//! [`ModelExecutor`] owns everything that is identical for every request served by
//! one model deployment: the weights handle, the policy configuration, the RoPE
//! table, the attention-kernel configuration, and the offline §3.3 head
//! classification. It is cheap to share (`Arc`) and never mutated after
//! construction.
//!
//! [`SequenceState`] owns everything that belongs to one request: the per-layer
//! two-way KV caches, the per-head reusable-selector state, the position counters,
//! and the work stats. It is created by [`ModelExecutor::new_sequence`], costs no
//! pool pages until tokens are appended, and releases all its pages with
//! [`SequenceState::release`].
//!
//! This split is what makes a real serving loop possible: a scheduler holds one
//! executor and N sequence states, batches decode across states
//! ([`ModelExecutor::decode_batch_sharded`], layers in the outer loop so
//! weight/config traversal is amortized), and can drop or rebuild any state
//! independently (preemption and resume).

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use lserve_attention::{
    fused_prefill_layer_threads, lpt_assign, run_decode_shard, run_placed, BalanceStats,
    DecodeShard, DecodeStats, HeadKind, LayerAttnConfig,
};
use lserve_costmodel::Topology;
use lserve_kvcache::{
    HeadCache, LayerKvCache, MigrationMode, PagePool, StreamingWindow, HOST_TRANSFER_SPEEDUP,
};
use lserve_model::forward::{ffn_block, logits, post_attention, pre_attention, LayerActivations};
use lserve_model::ModelWeights;
use lserve_selector::{FlatSelector, HierarchicalSelector, PageSelector, ReusableSelector};
use lserve_tensor::rope::RopeTable;
use lserve_tensor::Matrix;
use lserve_trace::{lane, Tracer, CONTROL_TID};
use lserve_workloads::duo_gates;

use crate::config::decode_threads_from_env;
use crate::dag::SparsitySchedule;
use crate::sharding::ShardingPlan;
use crate::stats::{MigrationDelta, ParallelExecStats};
use crate::{streaming_masks_from_gates, EngineConfig, EngineStats, SelectorKind};

/// The KV page pool is exhausted; the sequence cannot grow.
///
/// Serving layers use this for admission control, preemption, and retry; it is not
/// a bug, it is the backpressure signal of a memory-constrained device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfPagesError;

impl fmt::Display for OutOfPagesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kv page pool exhausted")
    }
}

impl Error for OutOfPagesError {}

/// Result of a prefill call.
#[derive(Debug, Clone)]
pub struct PrefillOutput {
    /// Logits of the last prompt token (`vocab` wide) — the distribution of the
    /// first generated token.
    pub logits: Vec<f32>,
}

/// Result of one decode step.
#[derive(Debug, Clone)]
pub struct DecodeOutput {
    /// Next-token logits (`vocab` wide).
    pub logits: Vec<f32>,
}

/// Concrete selector stack chosen by [`SelectorKind`] (kept as an enum rather than a
/// trait object so sequence state stays `Debug` + `Clone` + cheap).
#[derive(Debug, Clone)]
enum SelectorBox {
    Flat(ReusableSelector<FlatSelector>),
    Hierarchical(ReusableSelector<HierarchicalSelector>),
}

impl SelectorBox {
    fn select(
        &mut self,
        pool: &PagePool,
        cache: &lserve_kvcache::DenseHeadCache,
        queries: &[&[f32]],
        budget: usize,
        step: usize,
    ) -> lserve_selector::Selection {
        match self {
            SelectorBox::Flat(s) => s.select(pool, cache, queries, budget, step),
            SelectorBox::Hierarchical(s) => s.select(pool, cache, queries, budget, step),
        }
    }

    fn reset(&mut self) {
        match self {
            SelectorBox::Flat(s) => s.reset(),
            SelectorBox::Hierarchical(s) => s.reset(),
        }
    }

    /// Last-use tracking for selection-driven demotion: page indices this
    /// head's selector has skipped for at least `k` fresh selection chunks.
    fn stale_pages(&self, k: usize) -> Vec<usize> {
        match self {
            SelectorBox::Flat(s) => s.stale_pages(k),
            SelectorBox::Hierarchical(s) => s.stale_pages(k),
        }
    }

    /// The decode step at which this head's next fresh scoring lands — the
    /// trigger for issuing prefetches one step ahead of the selection.
    fn next_fresh_step(&self) -> Option<usize> {
        match self {
            SelectorBox::Flat(s) => s.next_fresh_step(),
            SelectorBox::Hierarchical(s) => s.next_fresh_step(),
        }
    }

    /// Predicted-hot pages for the next fresh selection, most recently
    /// selected first, restricted to pages that dropped out of the selection
    /// within the last `window` rescores (residency-blind; the caller filters
    /// and caps).
    fn prefetch_candidates(&self, window: u64) -> Vec<usize> {
        match self {
            SelectorBox::Flat(s) => s.prefetch_candidates(window),
            SelectorBox::Hierarchical(s) => s.prefetch_candidates(window),
        }
    }
}

/// Per-request mutable state: KV caches, selector state, position, stats.
///
/// Created by [`ModelExecutor::new_sequence`]; every compute method on the executor
/// takes the state it operates on explicitly. Dropping a state without calling
/// [`SequenceState::release`] leaks its pool pages, so serving layers must release
/// on every exit path (completion, rejection, preemption).
#[derive(Debug, Clone)]
pub struct SequenceState {
    layers: Vec<LayerKvCache>,
    selectors: Vec<Vec<Option<SelectorBox>>>,
    tokens_processed: usize,
    decode_step_idx: usize,
    sparsity: SparsitySchedule,
    stats: EngineStats,
}

impl SequenceState {
    /// Tokens absorbed so far (prompt + generated).
    pub fn context_len(&self) -> usize {
        self.tokens_processed
    }

    /// Cumulative work counters for this sequence.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The positional sparsity-override schedule governing this sequence's
    /// selection budget (empty = engine defaults). Cloned by
    /// [`SequenceState::clone_shared`], so a fork snapshot replays the exact
    /// budget timeline the parent lived under.
    pub fn sparsity_schedule(&self) -> &SparsitySchedule {
        &self.sparsity
    }

    /// Installs the sparsity-override schedule (serving layer, at admission or
    /// fork time).
    pub fn set_sparsity_schedule(&mut self, schedule: SparsitySchedule) {
        self.sparsity = schedule;
    }

    /// Exact number of fresh pool pages one more token will allocate across all
    /// layers and heads (the reservation a scheduler must check before a decode
    /// step to guarantee the step cannot fail mid-layer).
    pub fn pages_needed_for_next_token(&self, pool: &PagePool) -> usize {
        self.pages_needed_for_next_tokens(pool, 1)
    }

    /// Page demand of feeding the next `n` tokens: the sum over layers and
    /// heads of each head's exact peak demand
    /// ([`LayerKvCache::pages_needed_for_next_tokens`]). Reserving it
    /// guarantees an `n`-token feed cannot run out of pages mid-cell, in
    /// whatever order the executor walks layers and tokens.
    pub fn pages_needed_for_next_tokens(&self, pool: &PagePool, n: usize) -> usize {
        self.layers
            .iter()
            .map(|l| l.pages_needed_for_next_tokens(pool, n))
            .sum()
    }

    /// Frees every page this sequence holds and resets it for reuse (fresh prefill).
    pub fn release(&mut self, pool: &mut PagePool) {
        for layer in &mut self.layers {
            layer.release(pool);
        }
        self.tokens_processed = 0;
        self.decode_step_idx = 0;
        for layer in &mut self.selectors {
            for s in layer.iter_mut().flatten() {
                s.reset();
            }
        }
    }

    /// Total pool pages this sequence currently references, across all layers and
    /// heads.
    pub fn resident_pages(&self) -> usize {
        self.layers.iter().map(|l| l.resident_pages()).sum()
    }

    /// Swap-out: demotes every sole-owned hot page this sequence holds to the
    /// cold tier, freeing their hot slots while keeping every page table,
    /// selector history and position counter intact. Pages co-owned with the
    /// prefix cache or another sequence stay hot (they are someone else's
    /// working set). Returns `(pages moved, token-units moved)`.
    pub fn demote_resident(&self, pool: &mut PagePool) -> (u64, u64) {
        self.layers.iter().fold((0, 0), |(p, u), l| {
            let (lp, lu) = l.demote_all(pool);
            (p + lp, u + lu)
        })
    }

    /// Swap-in: promotes every cold page this sequence holds back to the hot
    /// tier so decode can continue exactly where it left off. Returns
    /// `(pages moved, token-units moved)`, or `None` when the hot tier cannot
    /// fit them (callers reserve [`SequenceState::cold_pages`] free slots
    /// first; pages promoted before the failure stay hot).
    pub fn promote_resident(&self, pool: &mut PagePool) -> Option<(u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        for l in &self.layers {
            let (lp, lu) = l.promote_all(pool)?;
            pages += lp;
            units += lu;
        }
        Some((pages, units))
    }

    /// Resident KV tokens one layer's KV head currently reads (a streaming
    /// head's sink+local window, a dense head's full history) — the token
    /// volume the rebalancer must move across the interconnect when it
    /// migrates that head to another device.
    pub fn kv_head_resident_tokens(&self, pool: &PagePool, layer: usize, kv: usize) -> u64 {
        match self.layers[layer].head(kv) {
            HeadCache::Streaming(c) => c.resident_tokens(pool) as u64,
            HeadCache::Dense(c) => c.tokens() as u64,
        }
    }

    /// Pages this sequence holds that currently sit in the cold tier.
    pub fn cold_pages(&self, pool: &PagePool) -> usize {
        self.layers.iter().map(|l| l.cold_pages(pool)).sum()
    }

    /// The exact hot-tier reservation a swap-in of this sequence needs: cold
    /// pages plus this sequence's own outbound transfers still in flight.
    /// The pool counts an in-flight demotion as a reclaimable free slot, but
    /// forcing one of *ours* lands the page cold and re-enters it as promote
    /// demand — net-zero supply, so it must be reserved as demand up front.
    pub fn swap_in_demand(&self, pool: &PagePool) -> usize {
        self.layers.iter().map(|l| l.swap_in_demand(pool)).sum()
    }

    /// Pages this sequence holds that are both sole-owned and hot — exactly
    /// what [`SequenceState::demote_resident`] would move, and therefore the
    /// swap-out (and later swap-in) transfer cost of preempting this sequence
    /// under the swap policy. Pages co-owned with the prefix cache or another
    /// sequence cost nothing: they stay hot for their other readers.
    pub fn sole_owned_hot_pages(&self, pool: &PagePool) -> usize {
        self.layers
            .iter()
            .map(|l| l.sole_owned_hot_pages(pool))
            .sum()
    }

    /// Modeled ledger-unit cost of returning this sequence's full resident
    /// set to the hot tier: the bill a preemption victim pays at resume time.
    /// Shared hot pages are free (they never left), sole-owned hot pages cost
    /// one swap-out-plus-back round trip, cold pages one host hop, and nvme
    /// pages the recall plus the host hop. Victim selection minimizes this —
    /// the tier truth, not just a hot-page count.
    pub fn promote_back_cost_units(&self, pool: &PagePool) -> u64 {
        self.layers
            .iter()
            .map(|l| l.promote_back_cost_units(pool))
            .sum()
    }

    /// Takes one additional reference on every page this sequence holds (prefix
    /// sharing: the caller co-owns the pages and must `release` its copy of the
    /// state).
    pub fn retain_pages(&self, pool: &mut PagePool) {
        for layer in &self.layers {
            layer.retain_all(pool);
        }
    }

    /// True when this state references at least one page no other owner shares —
    /// releasing it would return physical pages to the pool.
    pub fn holds_sole_reference(&self, pool: &PagePool) -> bool {
        self.layers.iter().any(|l| l.holds_sole_reference(pool))
    }

    /// Deep-copies this state for prefix caching and seeding: page tables,
    /// selector state, position, and decode-step counter are cloned (page *ids*
    /// are copied — callers manage pool refcounts via
    /// [`SequenceState::retain_pages`]), while work counters restart at zero so a
    /// seeded consumer reports only its own work.
    ///
    /// The clone is positionally exact: a consumer continuing from it takes
    /// decode steps with the same step index and the same reusable-selector
    /// history a cold run would have at this context length, which is what makes
    /// cache-hit outputs bit-identical to cold runs.
    pub fn clone_shared(&self) -> SequenceState {
        SequenceState {
            stats: EngineStats::default(),
            ..self.clone()
        }
    }
}

/// The immutable, shareable half of the engine: weights, policy, RoPE table, and
/// the offline head classification. One executor serves any number of concurrent
/// [`SequenceState`]s.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use lserve_core::{EngineConfig, ModelExecutor};
/// use lserve_model::{ModelConfig, ModelWeights};
///
/// let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 1));
/// let cfg = EngineConfig::lserve_fp16();
/// let mut pool = cfg.clone().make_pool_for(&weights.config, 512);
/// let exec = ModelExecutor::new(weights, cfg);
/// let mut seq = exec.new_sequence();
/// let out = exec.prefill(&mut seq, &mut pool, &[1, 2, 3, 4]).unwrap();
/// assert_eq!(out.logits.len(), 97);
/// seq.release(&mut pool);
/// ```
#[derive(Debug)]
pub struct ModelExecutor {
    weights: Arc<ModelWeights>,
    cfg: EngineConfig,
    attn_cfg: LayerAttnConfig,
    rope: RopeTable,
    masks: Vec<Vec<bool>>,
    kinds: Vec<Vec<HeadKind>>,
    /// Worker count for the thread-count-free entry points
    /// ([`ModelExecutor::prefill`], [`ModelExecutor::decode_step`]), resolved
    /// once from `LSERVE_DECODE_THREADS` at construction — the env read itself
    /// is uncached ([`decode_threads_from_env`]), so tests can vary the knob
    /// between executor constructions without paying a per-token env lookup.
    default_threads: usize,
}

impl ModelExecutor {
    /// Creates an executor for `weights` under `cfg`.
    ///
    /// Head classification runs here, offline, from synthetic DuoAttention gates
    /// seeded by `cfg.gate_seed` (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is internally inconsistent (see
    /// [`EngineConfig::validate`]).
    pub fn new(weights: Arc<ModelWeights>, cfg: EngineConfig) -> Self {
        cfg.validate();
        let model = &weights.config;
        let gates = duo_gates(model.num_layers, model.num_kv_heads, cfg.gate_seed);
        let masks = streaming_masks_from_gates(&gates, cfg.streaming_sparsity);
        let kinds: Vec<Vec<HeadKind>> = masks
            .iter()
            .map(|layer| {
                layer
                    .iter()
                    .map(|&s| {
                        if s {
                            HeadKind::Streaming
                        } else {
                            HeadKind::Dense
                        }
                    })
                    .collect()
            })
            .collect();
        let attn_cfg = LayerAttnConfig {
            num_q_heads: model.num_q_heads,
            num_kv_heads: model.num_kv_heads,
            head_dim: model.head_dim,
            tile: cfg.prefill_tile,
            sink_blocks: cfg.streaming_window.sink_pages,
            local_blocks: cfg.streaming_window.local_pages,
        };
        let rope = RopeTable::new(model.head_dim, model.rope_base);
        Self {
            weights,
            cfg,
            attn_cfg,
            rope,
            masks,
            kinds,
            default_threads: decode_threads_from_env(),
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The model weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Per-layer streaming masks decided at construction.
    pub fn head_kinds(&self) -> &[Vec<HeadKind>] {
        &self.kinds
    }

    /// Creates an empty per-request state (the selector factory): per-layer two-way
    /// KV caches plus one reusable selector per dense head when dynamic sparsity is
    /// configured. Holds no pool pages until tokens are appended.
    pub fn new_sequence(&self) -> SequenceState {
        self.new_sequence_with_window(None)
    }

    /// [`ModelExecutor::new_sequence`] with a per-request streaming-window
    /// override (`None` inherits the engine config). The window shapes each
    /// streaming head's sink/local ring, which is built here and never resized
    /// — which is why window overrides are admission-time-only and rejected at
    /// fork (children inherit the parent's ring).
    pub fn new_sequence_with_window(&self, window: Option<StreamingWindow>) -> SequenceState {
        let window = window.unwrap_or(self.cfg.streaming_window);
        let layers: Vec<LayerKvCache> = self
            .masks
            .iter()
            .map(|mask| LayerKvCache::new(mask, window))
            .collect();
        let selectors = self
            .masks
            .iter()
            .map(|mask| {
                mask.iter()
                    .map(|&streaming| {
                        if streaming || self.cfg.dynamic_budget.is_none() {
                            return None;
                        }
                        Some(match self.cfg.selector {
                            SelectorKind::Flat => SelectorBox::Flat(ReusableSelector::new(
                                FlatSelector::new(true),
                                self.cfg.reuse_interval,
                            )),
                            SelectorKind::Hierarchical => {
                                SelectorBox::Hierarchical(ReusableSelector::new(
                                    HierarchicalSelector::new(true),
                                    self.cfg.reuse_interval,
                                ))
                            }
                            SelectorKind::None => unreachable!("validated"),
                        })
                    })
                    .collect()
            })
            .collect();
        SequenceState {
            layers,
            selectors,
            tokens_processed: 0,
            decode_step_idx: 0,
            sparsity: SparsitySchedule::new(),
            stats: EngineStats::default(),
        }
    }

    /// Processes a whole prompt (or the first chunk of one) with the fused
    /// block-sparse prefill pipeline and writes KV into the two-way paged cache.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] if the pool cannot hold the prompt's KV; the
    /// state holds a partial cache and should then be [`SequenceState::release`]d.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the state already holds context.
    pub fn prefill(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        tokens: &[u32],
    ) -> Result<PrefillOutput, OutOfPagesError> {
        let mut stats = ParallelExecStats::default();
        self.prefill_threads(state, pool, tokens, self.default_threads, &mut stats)
    }

    /// [`ModelExecutor::prefill`] with an explicit worker-thread count: each
    /// layer's per-head attention runs as cost-balanced shards on up to
    /// `threads` scoped worker threads (dense heads cost quadratic tiles,
    /// streaming heads linear — the LPT assignment balances that asymmetry).
    /// Outputs are bit-identical for every thread count; `exec_stats`
    /// accumulates per-phase worker utilization and cost-balance counters.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] exactly as [`ModelExecutor::prefill`] does.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the state already holds context.
    pub fn prefill_threads(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        tokens: &[u32],
        threads: usize,
        exec_stats: &mut ParallelExecStats,
    ) -> Result<PrefillOutput, OutOfPagesError> {
        assert!(!tokens.is_empty(), "empty prompt");
        assert_eq!(state.tokens_processed, 0, "prefill on a non-empty sequence");
        let model = &self.weights.config;
        // MInference-style dynamic prefill on retrieval heads, only past the
        // activation threshold (§4.3: "activated after 128K").
        let dynamic_keep = self
            .cfg
            .dynamic_prefill_keep
            .filter(|_| tokens.len() > self.cfg.dynamic_prefill_after);
        let tracer = pool.tracer().clone();
        let mut x = self.weights.embed_tokens(tokens);
        for (l, lw) in self.weights.layers.iter().enumerate() {
            let serial_start = tracer.now();
            let acts = pre_attention(model, lw, &x, 0, &self.rope);
            for t in 0..tokens.len() {
                if !state.layers[l].append_token(pool, acts.k.row(t), acts.v.row(t), model.head_dim)
                {
                    return Err(OutOfPagesError);
                }
            }
            // The serial phase costs one clock tick per prompt token (QKV,
            // RoPE, KV writeback all scale with the chunk).
            tracer.advance(tokens.len() as u64);
            tracer.span(
                "prefill.serial",
                "executor",
                lane::EXECUTOR,
                CONTROL_TID,
                serial_start,
                &[("layer", l as u64)],
            );
            let par_start = tracer.now();
            let (attn, dense_stats, stream_stats, balance) = fused_prefill_layer_threads(
                &acts.q,
                &acts.k,
                &acts.v,
                &self.attn_cfg,
                &self.kinds[l],
                dynamic_keep,
                threads,
            );
            exec_stats.absorb(&balance, 0);
            if tracer.is_enabled() {
                // The parallel phase costs its modeled critical path; worker
                // lanes get one merged span per worker (their LPT-assigned
                // load) so prefill imbalance shows in the flame chart.
                tracer.advance(balance.cost_critical());
                tracer.span(
                    "prefill.attention",
                    "executor",
                    lane::EXECUTOR,
                    CONTROL_TID,
                    par_start,
                    &[("layer", l as u64), ("shards", balance.shards)],
                );
                for (w, &c) in balance.assigned_cost.iter().enumerate() {
                    if c > 0 {
                        tracer.span_at(
                            "shard",
                            "attention",
                            lane::WORKERS,
                            w as u64,
                            par_start,
                            c,
                            &[("cost", c)],
                        );
                    }
                }
            }
            state.stats.add_prefill(dense_stats, stream_stats);
            x = post_attention(lw, &x, &attn);
            x = ffn_block(lw, &x);
        }
        state.tokens_processed = tokens.len();
        // Prefill compute drains in-flight transfers like decode compute does
        // — one prompt token hides `HOST_TRANSFER_SPEEDUP` token-units. This
        // is what lets a swap-resume promotion overlap re-admission prefill.
        pool.advance_transfer_units(tokens.len() as u64 * HOST_TRANSFER_SPEEDUP);
        let last = x.slice_rows(tokens.len() - 1, tokens.len());
        let out = logits(&self.weights, &last);
        Ok(PrefillOutput {
            logits: out.row(0).to_vec(),
        })
    }

    /// Runs dynamic page selection for every dense head of layer `l` (§3.5)
    /// for the token at absolute position `pos` and decode-step index `step`,
    /// returning the per-KV-head selections plus the selector's sparsity-aware
    /// cost hints (estimated visited tokens per selected head) that feed the
    /// parallel shard balancer.
    fn select_pages(
        &self,
        state: &mut SequenceState,
        pool: &PagePool,
        l: usize,
        q_row: &[f32],
        pos: usize,
        step: usize,
    ) -> LayerSelections {
        let model = &self.weights.config;
        let d = model.head_dim;
        let group = model.gqa_group_size();
        let mut selections: Vec<Option<Vec<usize>>> = vec![None; model.num_kv_heads];
        let mut hints: Vec<Option<u64>> = vec![None; model.num_kv_heads];
        let mut fresh = vec![false; model.num_kv_heads];
        // The per-sequence schedule may tighten (or replace) the engine-wide
        // budget from a given position onward — the per-branch sparsity dial.
        let effective = state
            .sparsity
            .effective_budget(self.cfg.dynamic_budget, pos);
        if let Some(budget) = effective {
            for kv in 0..model.num_kv_heads {
                let Some(selector) = state.selectors[l][kv].as_mut() else {
                    continue;
                };
                let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                    continue;
                };
                // Skip selection entirely while the history fits the budget —
                // the offline-profiled "no slowdown at short contexts" rule
                // (§5.5).
                if cache.tokens() <= budget {
                    continue;
                }
                let queries: Vec<&[f32]> = (0..group)
                    .map(|i| {
                        let h = kv * group + i;
                        &q_row[h * d..(h + 1) * d]
                    })
                    .collect();
                let sel = selector.select(pool, cache, &queries, budget, step);
                state.stats.selector_logical_scored += sel.logical_pages_scored;
                if sel.reused {
                    state.stats.selector_reuses += 1;
                } else {
                    state.stats.selector_invocations += 1;
                    fresh[kv] = true;
                }
                hints[kv] = Some(sel.estimated_cost_tokens(pool, cache));
                selections[kv] = Some(sel.pages);
            }
        }
        (selections, hints, fresh)
    }

    /// The residency pass of the tiered KV memory, run per layer between page
    /// selection and the attention kernels:
    ///
    /// 1. **Selection-driven demotion** (when
    ///    [`EngineConfig::demote_after_chunks`] is `Some(k)`): dense-head
    ///    pages the head's reusable selector has skipped for `k` consecutive
    ///    fresh selection chunks are demoted to the cold tier — except pages
    ///    in the current selection, the table's final page (append target),
    ///    and pages co-owned with the prefix cache or another sequence (the
    ///    pool refuses those). The sweep runs only on steps whose selection
    ///    was freshly scored (`fresh[kv]`): the stale set is a pure function
    ///    of the chunk clock, so reuse steps cannot change it.
    /// 2. **Promotion**: every cold page the current selection picks is
    ///    promoted back before the kernel runs, satisfying the kernels'
    ///    hot-residency precondition. The accounted fetch units are returned
    ///    per KV head so the LPT shard costing can charge the fetch to the
    ///    shard that caused it.
    ///
    /// Migrations move data, never mutate it, so outputs are bit-identical to
    /// the always-resident baseline — and, because the async copy engine only
    /// changes *when* transfers are accounted (never what the kernels read),
    /// bit-identical across [`MigrationMode`]s too.
    ///
    /// Under [`MigrationMode::Async`] demotions are issued into the copy
    /// engine (the hot slot frees when the transfer lands, or earlier if an
    /// allocation forces it), promotions ride [`PagePool::ensure_hot`] so a
    /// page already in flight costs only its unhidden remainder, and the
    /// returned per-head fetch units carry **only the unhidden fraction** —
    /// transfer work the step genuinely stalls on. Under
    /// [`MigrationMode::Sync`] every moved unit is unhidden and the behavior
    /// is exactly the pre-engine baseline.
    ///
    /// All migration accounting funnels through one
    /// [`EngineStats::add_migration`] call per pass, on success and failure
    /// alike.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] when a required promotion cannot fit the
    /// hot tier; the scheduler treats this like any other out-of-memory decode
    /// failure (release and replay).
    fn apply_residency(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        selections: &[Option<Vec<usize>>],
        fresh: &[bool],
    ) -> Result<Vec<u64>, OutOfPagesError> {
        let mut delta = MigrationDelta::default();
        let result = self.residency_pass(state, pool, l, selections, fresh, &mut delta);
        state.stats.add_migration(&delta);
        result
    }

    /// The body of [`ModelExecutor::apply_residency`], accumulating all
    /// migration traffic into `delta` so the wrapper commits it exactly once.
    fn residency_pass(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        selections: &[Option<Vec<usize>>],
        fresh: &[bool],
        delta: &mut MigrationDelta,
    ) -> Result<Vec<u64>, OutOfPagesError> {
        let sync = pool.migration_mode() == MigrationMode::Sync;
        let mut fetch_units = vec![0u64; selections.len()];
        for (kv, selection) in selections.iter().enumerate() {
            let Some(sel) = selection else {
                // No selection this step: the kernel reads this head's whole
                // page table (full-history dense attention, or a streaming
                // window), so every page must be readable first. Non-resident
                // pages appear here only on sequences seeded from a prefix
                // snapshot captured after demotion — the common case is a
                // no-op scan.
                let head = state.layers[l].head(kv);
                match head.ensure_resident(pool) {
                    Some((p, u, unhidden)) => {
                        delta.pages_promoted += p;
                        delta.token_units += u;
                        delta.unhidden_units += unhidden;
                        fetch_units[kv] += unhidden;
                    }
                    None => return Err(OutOfPagesError),
                }
                continue;
            };
            let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                continue;
            };
            let table = cache.page_table();
            if let (Some(k), true) = (self.cfg.demote_after_chunks, fresh[kv]) {
                if let Some(selector) = state.selectors[l][kv].as_ref() {
                    for p in selector.stale_pages(k) {
                        // Never demote the append target (the table's final
                        // page) or anything the current selection reads.
                        if p + 1 >= table.len() || sel.contains(&p) {
                            continue;
                        }
                        if let Some(u) = pool.demote(table[p]) {
                            delta.pages_demoted += 1;
                            delta.token_units += u;
                            if sync {
                                // A synchronous demote stalls for the whole
                                // copy; the engine hides it behind compute.
                                delta.unhidden_units += u;
                            }
                        }
                    }
                }
            }
            for &p in sel {
                match pool.ensure_hot(table[p]) {
                    Some((u, unhidden)) => {
                        if u > 0 {
                            delta.pages_promoted += 1;
                        }
                        delta.token_units += u;
                        delta.unhidden_units += unhidden;
                        fetch_units[kv] += unhidden;
                    }
                    None => return Err(OutOfPagesError),
                }
            }
        }
        Ok(fetch_units)
    }

    /// Transfers issued per head per step: only the single most recently
    /// displaced page — the one whose re-pick odds the selector's recency
    /// ranking rates highest — so every bad guess costs at most one transfer.
    const PREFETCH_PER_HEAD: usize = 1;

    /// Fresh rescores a page may have sat unselected and still qualify for
    /// prefetch. Beyond this the query has drifted: the page's re-pick odds
    /// no longer justify a speculative transfer, and issuing one is how the
    /// copy channel fills with `prefetch_wasted` traffic.
    const PREFETCH_RECENCY_WINDOW: u64 = 2;

    /// Cap on speculative transfers a single sequence may have issued per
    /// fed token across **all** layers and heads. The per-head cap alone lets
    /// a deep model multiply guesses by layers × heads; the per-sequence
    /// budget keeps one sequence's speculation from starving demand traffic.
    const PREFETCH_PER_SEQ: usize = 4;

    /// Selector-driven prefetch (async mode only): for every dense head whose
    /// reusable selector will score afresh on the **next** decode step, start
    /// host→device transfers for the pages that selection is most likely to
    /// re-pick — ranked by selection recency, dropped entirely once they fall
    /// outside [`Self::PREFETCH_RECENCY_WINDOW`] — so by the time the fresh
    /// selection demands them the copy has already ridden one step of
    /// overlapped bandwidth. Wrong guesses cost only spare link bandwidth and
    /// a genuinely free hot slot ([`PagePool::prefetch`] never evicts), and
    /// are tallied as `prefetch_wasted` in [`lserve_kvcache::MigrationStats`].
    /// `step` is the decode-step index of the token being fed; `budget` is
    /// that token's remaining allowance ([`Self::PREFETCH_PER_SEQ`]),
    /// decremented across layers.
    fn issue_prefetches(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        l: usize,
        step: usize,
        budget: &mut usize,
    ) {
        let next_step = step + 1;
        for kv in 0..state.selectors[l].len() {
            if *budget == 0 {
                return;
            }
            let Some(selector) = state.selectors[l][kv].as_ref() else {
                continue;
            };
            if selector.next_fresh_step() != Some(next_step) {
                continue;
            }
            let HeadCache::Dense(cache) = state.layers[l].head(kv) else {
                continue;
            };
            let table = cache.page_table();
            let mut issued = 0;
            for p in selector.prefetch_candidates(Self::PREFETCH_RECENCY_WINDOW) {
                if issued >= Self::PREFETCH_PER_HEAD || *budget == 0 {
                    break;
                }
                // Never the append target (the table's final page).
                if p + 1 >= table.len() {
                    continue;
                }
                if pool.prefetch(table[p]) {
                    issued += 1;
                    *budget -= 1;
                }
            }
        }
    }

    /// Runs one decode step for one sequence: absorbs `token`, returns next-token
    /// logits.
    ///
    /// Dense heads go through dynamic page selection (when configured) and the
    /// fused decode kernel; streaming heads attend their sink+local pages. A
    /// one-row [`ModelExecutor::decode_batch_sharded`] call on the executor's
    /// default thread count and a transient sparsity-aware plan over
    /// [`Topology::from_env`] (read per call, like every other env knob);
    /// callers that need placement to persist across steps — the scheduler,
    /// whose rebalancer tracks load history — hold their own plan and call
    /// `decode_batch_sharded` directly.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfPagesError`] when the pool cannot hold the new token's KV;
    /// the sequence's cache is then partially written and the state must be
    /// released (and, in a serving loop, replayed) rather than advanced.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ModelExecutor::prefill`].
    pub fn decode_step(
        &self,
        state: &mut SequenceState,
        pool: &mut PagePool,
        token: u32,
    ) -> Result<DecodeOutput, OutOfPagesError> {
        let model = &self.weights.config;
        let mut plan = ShardingPlan::new(
            Topology::from_env(),
            lserve_costmodel::PlacementPolicy::SparsityAware,
            model.num_layers,
            model.num_kv_heads,
        );
        let mut stats = ParallelExecStats::default();
        let rows = &mut [(state, std::slice::from_ref(&token))];
        self.decode_batch_sharded(pool, rows, self.default_threads, &mut plan, &mut stats)
            .pop()
            .expect("one result per input row")
    }

    /// The executor's one token-absorbing entry point: every row is a
    /// sequence plus the tokens it absorbs in this call — one token for a
    /// decode step, up to a prefill-grid cell for a prompt feed — and each
    /// row's result carries the logits after its **last** token.
    ///
    /// Parallel attention always executes against an explicit, caller-owned
    /// [`ShardingPlan`] through one worker pool: each shard runs on its KV
    /// head's simulated device (per-device LPT worker queues, device-local
    /// stealing), a sequence's shards on non-home devices charge the
    /// topology's modeled interconnect gather cost into `exec_stats` and the
    /// trace, and the plan accumulates the per-head cost signal its
    /// rebalancer acts on. A single-device plan is the degenerate placement:
    /// every head on device 0, every sequence at home, no gather charged, and
    /// a phase that yields one worker runs inline on the calling thread.
    ///
    /// **Layers run in the outer loop.** Per layer:
    ///
    /// 1. **QKV + RoPE**: one `pre_attention` GEMM over all of a row's tokens.
    /// 2. **Per token, in order** (token `w` of every row that has one):
    ///    serial KV append into the paged cache (the only pool mutation),
    ///    dynamic page selection at that token's position and decode-step
    ///    index, and the residency pass; then one parallel attention phase —
    ///    one shard per *(sequence × KV-head)*, costed by the sparsity-aware
    ///    estimate and LPT-assigned across up to `threads` scoped workers per
    ///    device with work stealing, each writing only its own preallocated
    ///    output slice.
    /// 3. **Output projection + FFN**: one `post_attention` + `ffn_block` GEMM
    ///    over all of a row's tokens.
    ///
    /// Only each row's last token goes through the LM head.
    ///
    /// Feeding a row's tokens in one call is **bit-identical** to feeding
    /// them one call at a time, for three reasons: [`Matrix::matmul`] computes
    /// every output row independently in ascending `k`, so a block of rows
    /// multiplies to the bits of its rows one by one; within a layer each
    /// token still sees append → select → attend in the same order, against
    /// exactly the KV of the tokens before it; and layers share no state
    /// except the pool. The pool is the one place the reorder could show — the
    /// copy engine's clock advances per fed token — so multi-token rows run
    /// layer-outer only when [`ModelExecutor::feeds_layer_outer`] says the
    /// walk can neither issue a transfer nor force one in flight to land;
    /// otherwise the call feeds them token by token, one layer-outer pass per
    /// token.
    ///
    /// Shards read only shared immutable state and own disjoint outputs, and
    /// the serial phases run in fixed row order, so the result is also
    /// **bit-identical for every thread count, topology and placement
    /// policy** — the property `tests/proptest_scheduler.rs` and the golden
    /// suite pin down.
    ///
    /// Returns one result per row, in input order. A row that runs out of
    /// pages mid-call gets `Err(OutOfPagesError)` and is left partially
    /// written (release/replay it); the other rows are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if any row has no context yet (prefill first) or no tokens, or
    /// if the plan's layer/head geometry disagrees with the model's.
    pub fn decode_batch_sharded(
        &self,
        pool: &mut PagePool,
        rows: &mut [(&mut SequenceState, &[u32])],
        threads: usize,
        plan: &mut ShardingPlan,
        exec_stats: &mut ParallelExecStats,
    ) -> Vec<Result<DecodeOutput, OutOfPagesError>> {
        for (state, tokens) in rows.iter() {
            assert!(state.tokens_processed > 0, "decode before prefill");
            assert!(!tokens.is_empty(), "a row must absorb at least one token");
        }
        let shape: Vec<(&SequenceState, usize)> =
            rows.iter().map(|(s, t)| (&**s, t.len())).collect();
        if self.feeds_layer_outer(pool, &shape) {
            return self.forward_rows(pool, rows, threads, plan, exec_stats);
        }
        let longest = rows.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
        let mut results: Vec<Option<Result<DecodeOutput, OutOfPagesError>>> =
            vec![None; rows.len()];
        for w in 0..longest {
            let mut idx = Vec::with_capacity(rows.len());
            let mut wave: Vec<(&mut SequenceState, &[u32])> = Vec::with_capacity(rows.len());
            for (i, (state, tokens)) in rows.iter_mut().enumerate() {
                let tokens: &[u32] = tokens;
                if w < tokens.len() && !matches!(results[i], Some(Err(_))) {
                    idx.push(i);
                    wave.push((&mut **state, &tokens[w..w + 1]));
                }
            }
            let outs = self.forward_rows(pool, &mut wave, threads, plan, exec_stats);
            for (i, out) in idx.into_iter().zip(outs) {
                results[i] = Some(out);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every row absorbed its tokens"))
            .collect()
    }

    /// Whether one [`ModelExecutor::decode_batch_sharded`] call walks the
    /// given rows — each a sequence and the number of tokens it would absorb
    /// — layer-outer, with bit-identical effects to feeding their tokens one
    /// call at a time. When it does not, the call feeds multi-token rows token
    /// by token instead.
    ///
    /// Single-token rows always qualify. Multi-token rows reorder pool
    /// operations across layers and tokens, which only the copy engine could
    /// observe: it drains per fed token, so a transfer must not be issued,
    /// promoted, cancelled or force-completed mid-walk. Hence every row's
    /// pages are hot (nothing to promote or prefetch, nothing of theirs in
    /// flight), no selection-driven demotion can issue a transfer, and — when
    /// other transfers are in flight — the genuinely free hot slots cover
    /// every row's page demand, so no allocation has to force one to land.
    /// The in-flight transfers then drain exactly as a per-token feed drains
    /// them (one advance per token position at the end of the walk).
    pub fn feeds_layer_outer(&self, pool: &PagePool, rows: &[(&SequenceState, usize)]) -> bool {
        if rows.iter().all(|&(_, n)| n == 1) {
            return true;
        }
        let all_hot = rows
            .iter()
            .all(|(s, _)| s.cold_pages(pool) == 0 && s.swap_in_demand(pool) == 0);
        if self.cfg.demote_after_chunks.is_some() || !all_hot {
            return false;
        }
        pool.in_flight_transfers() == 0
            || rows
                .iter()
                .map(|&(s, n)| s.pages_needed_for_next_tokens(pool, n))
                .sum::<usize>()
                <= pool.capacity() - pool.in_use()
    }

    /// The layer-outer forward pass behind
    /// [`ModelExecutor::decode_batch_sharded`]: absorbs every row's tokens and
    /// returns the logits after each row's last token.
    fn forward_rows(
        &self,
        pool: &mut PagePool,
        rows: &mut [(&mut SequenceState, &[u32])],
        threads: usize,
        plan: &mut ShardingPlan,
        exec_stats: &mut ParallelExecStats,
    ) -> Vec<Result<DecodeOutput, OutOfPagesError>> {
        let model = &self.weights.config;
        let d = model.head_dim;
        let width = model.q_width();
        let lens: Vec<usize> = rows.iter().map(|(_, t)| t.len()).collect();
        let waves = lens.iter().copied().max().unwrap_or(0);
        let positions: Vec<usize> = rows.iter().map(|(s, _)| s.tokens_processed).collect();
        let steps: Vec<usize> = rows.iter().map(|(s, _)| s.decode_step_idx).collect();
        let mut xs: Vec<Option<Matrix>> = rows
            .iter()
            .map(|(_, tokens)| Some(self.weights.embed_tokens(tokens)))
            .collect();
        let tracer = pool.tracer().clone();
        // Speculative-transfer allowance per fed token (token position ×
        // row), spent by issue_prefetches across all layers (async migration
        // only).
        let mut prefetch_budget = vec![vec![Self::PREFETCH_PER_SEQ; rows.len()]; waves];
        for (l, lw) in self.weights.layers.iter().enumerate() {
            // QKV + RoPE over every live row's tokens at once.
            let acts: Vec<Option<LayerActivations>> = xs
                .iter()
                .zip(&positions)
                .map(|(x, &pos)| {
                    x.as_ref()
                        .map(|x| pre_attention(model, lw, x, pos, &self.rope))
                })
                .collect();
            let mut attn: Vec<Option<Matrix>> = xs
                .iter()
                .zip(&lens)
                .map(|(x, &n)| x.as_ref().map(|_| Matrix::zeros(n, width)))
                .collect();
            for (w, budgets) in prefetch_budget.iter_mut().enumerate() {
                // Phase 1 (serial, row order): KV writeback, dynamic page
                // selection, residency. A failed append kills only that row.
                let serial_start = tracer.now();
                let mut live = vec![false; rows.len()];
                let mut selections: Vec<Vec<Option<Vec<usize>>>> = vec![Vec::new(); rows.len()];
                let mut cost_hints: Vec<Vec<Option<u64>>> = vec![Vec::new(); rows.len()];
                let mut fetch_units: Vec<Vec<u64>> = vec![Vec::new(); rows.len()];
                for (i, (state, _)) in rows.iter_mut().enumerate() {
                    let Some(a) = acts[i].as_ref().filter(|_| w < lens[i] && xs[i].is_some())
                    else {
                        continue;
                    };
                    if !state.layers[l].append_token(pool, a.k.row(w), a.v.row(w), d) {
                        xs[i] = None;
                        continue;
                    }
                    let (sel, hint, fresh) = self.select_pages(
                        state,
                        pool,
                        l,
                        a.q.row(w),
                        positions[i] + w,
                        steps[i] + w,
                    );
                    if tracer.is_enabled() {
                        for (kv, &f) in fresh.iter().enumerate() {
                            if f {
                                tracer.instant(
                                    "rescore",
                                    "selector",
                                    lane::SELECTOR,
                                    i as u64,
                                    &[("layer", l as u64), ("head", kv as u64)],
                                );
                            }
                        }
                    }
                    // Residency pass: demote selector-stale pages, promote any
                    // cold page the selection wants, before the kernels read.
                    match self.apply_residency(state, pool, l, &sel, &fresh) {
                        Ok(fetch) => fetch_units[i] = fetch,
                        Err(_) => {
                            // A required promotion did not fit the hot tier;
                            // the row fails like any other OOM and the serving
                            // layer replays it.
                            xs[i] = None;
                            continue;
                        }
                    }
                    selections[i] = sel;
                    cost_hints[i] = hint;
                    live[i] = true;
                    // Overlap window: promotions issued above ride the rest of
                    // this token's compute; prefetches below start a token
                    // early.
                    if pool.migration_mode() == MigrationMode::Async {
                        self.issue_prefetches(state, pool, l, steps[i] + w, &mut budgets[i]);
                    }
                }
                // The serial phase costs one clock tick per live token.
                tracer.advance(live.iter().filter(|&&v| v).count() as u64);
                tracer.span(
                    "decode.serial",
                    "executor",
                    lane::EXECUTOR,
                    CONTROL_TID,
                    serial_start,
                    &[("layer", l as u64)],
                );
                // Phase 2 (parallel): sharded attention for token `w` into
                // preallocated, disjoint per-(sequence × KV-head) slices.
                let par_start = tracer.now();
                let shard_stats = self.attention_phase(
                    pool,
                    rows,
                    &AttentionWave {
                        layer: l,
                        token: w,
                        live: &live,
                        acts: &acts,
                        selections: &selections,
                        cost_hints: &cost_hints,
                        fetch_units: &fetch_units,
                    },
                    &mut attn,
                    threads,
                    plan,
                    exec_stats,
                    par_start,
                );
                // Work counters attributed per row in shard-construction
                // order, so stats stay deterministic too.
                for (i, dense, streaming) in shard_stats {
                    rows[i].0.stats.add_decode(dense, streaming);
                }
            }
            // Phase 3 (serial, row order): output projection + FFN over every
            // live row's tokens at once.
            for i in 0..rows.len() {
                let (Some(x), Some(attn_m)) = (xs[i].take(), attn[i].take()) else {
                    continue;
                };
                let x = post_attention(lw, &x, &attn_m);
                xs[i] = Some(ffn_block(lw, &x));
            }
        }
        // One fed token of compute hides one token of host-link bandwidth:
        // each token buys `HOST_TRANSFER_SPEEDUP` token-units of transfer
        // drain, the exact inverse of `transfer_cost_tokens`. A transfer fully
        // drained by these advances cost the step nothing — that is the
        // overlap the async engine models. (No-op in sync mode.) One advance
        // per token position, as a token-at-a-time feed would issue them, so
        // transfers land in the same order.
        for w in 0..waves {
            let rows_at_w = lens.iter().filter(|&&n| n > w).count();
            pool.advance_transfer_units(rows_at_w as u64 * HOST_TRANSFER_SPEEDUP);
        }
        xs.into_iter()
            .zip(rows.iter_mut())
            .zip(lens)
            .map(|((x, (state, _)), n)| match x {
                Some(x) => {
                    state.tokens_processed += n;
                    state.decode_step_idx += n;
                    state.stats.decode_steps += n as u64;
                    let last = if n == 1 { x } else { x.slice_rows(n - 1, n) };
                    let out = logits(&self.weights, &last);
                    Ok(DecodeOutput {
                        logits: out.row(0).to_vec(),
                    })
                }
                None => Err(OutOfPagesError),
            })
            .collect()
    }

    /// One token's parallel attention phase of [`ModelExecutor::forward_rows`]:
    /// builds a shard per *(live row × KV-head)* reading that row's query
    /// for token `wave.token` and writing its slice of `attn`, runs them on
    /// the plan's head placement (one device is the placement with every head
    /// on device 0), and traces the phase.
    /// Returns each shard's `(row, dense, streaming)` work counters in
    /// shard-construction order.
    #[allow(clippy::too_many_arguments)]
    fn attention_phase(
        &self,
        pool: &PagePool,
        rows: &[(&mut SequenceState, &[u32])],
        wave: &AttentionWave<'_>,
        attn: &mut [Option<Matrix>],
        threads: usize,
        plan: &mut ShardingPlan,
        exec_stats: &mut ParallelExecStats,
        par_start: u64,
    ) -> Vec<(usize, DecodeStats, DecodeStats)> {
        let model = &self.weights.config;
        let d = model.head_dim;
        let group = model.gqa_group_size();
        let l = wave.layer;
        let tracer = pool.tracer();
        let scale = self.attn_cfg.scale();
        let mut shards: Vec<DecodeShard<'_>> = Vec::new();
        let mut shard_seq: Vec<usize> = Vec::new();
        let mut shard_kv: Vec<usize> = Vec::new();
        let mut costs: Vec<u64> = Vec::new();
        for (i, ((state, _), out)) in rows.iter().zip(attn.iter_mut()).enumerate() {
            if !wave.live[i] {
                continue;
            }
            let q = wave.acts[i]
                .as_ref()
                .expect("live row has activations")
                .q
                .row(wave.token);
            let out = out
                .as_mut()
                .expect("live row has an output")
                .row_mut(wave.token);
            let cache = &state.layers[l];
            for (kv, out_chunk) in out.chunks_mut(group * d).enumerate() {
                let selection = wave.selections[i][kv].as_deref();
                costs.push(decode_shard_cost(
                    pool,
                    cache.head(kv),
                    selection,
                    wave.cost_hints[i][kv],
                    wave.fetch_units[i][kv],
                    group,
                ));
                shard_seq.push(i);
                shard_kv.push(kv);
                shards.push(DecodeShard {
                    head: cache.head(kv),
                    queries: &q[kv * group * d..(kv + 1) * group * d],
                    selection,
                    head_dim: d,
                    scale,
                    out: out_chunk,
                    dense: DecodeStats::default(),
                    streaming: DecodeStats::default(),
                });
            }
        }
        // Per-head cost signal for this phase: the placement (and later the
        // rebalancer) act on exactly what the worker-level LPT balances.
        let devices = plan.devices();
        let mut head_costs = vec![0u64; model.num_kv_heads];
        for (s, &kv) in shard_kv.iter().enumerate() {
            head_costs[kv] += costs[s];
        }
        let assign = plan.layer_assignment(l, &head_costs);
        let device_of: Vec<usize> = shard_kv.iter().map(|&kv| assign[kv]).collect();
        // A sequence's home device is where the plurality of its shard cost
        // lives (ties to the lower device id): its other shards' outputs must
        // cross the mesh before the serial output projection, and each such
        // gather charges the topology's modeled interconnect cost — onto the
        // shard (the gather delays it) and into the interconnect ledger. On
        // one device every home is device 0 and nothing is charged.
        let mut seq_dev_cost = vec![vec![0u64; devices]; rows.len()];
        for s in 0..costs.len() {
            seq_dev_cost[shard_seq[s]][device_of[s]] += costs[s];
        }
        let home: Vec<usize> = seq_dev_cost
            .iter()
            .map(|loads| {
                (0..devices)
                    .max_by_key(|&dev| (loads[dev], std::cmp::Reverse(dev)))
                    .expect("devices > 0")
            })
            .collect();
        let gather = plan.topology().gather_cost_tokens();
        let mut gather_tokens = 0u64;
        for s in 0..costs.len() {
            if device_of[s] != home[shard_seq[s]] {
                costs[s] += gather;
                gather_tokens += gather;
            }
        }
        let balance = run_placed(threads, devices, &device_of, &costs, &mut shards, |shard| {
            run_decode_shard(pool, shard)
        });
        exec_stats.absorb(&balance, gather_tokens);
        trace_attention_phase(
            tracer,
            par_start,
            l,
            &balance,
            &costs,
            &shard_seq,
            &device_of,
            exec_stats.interconnect_tokens,
        );
        shard_seq
            .iter()
            .zip(shards.iter())
            .map(|(&i, s)| (i, s.dense, s.streaming))
            .collect()
    }
}

/// The per-token inputs of one attention phase of
/// [`ModelExecutor::forward_rows`]: which rows are live for token `token`
/// of layer `layer`, their activations, and the serial phase's per-row
/// selections, selector cost hints and residency fetch units.
struct AttentionWave<'a> {
    layer: usize,
    token: usize,
    live: &'a [bool],
    acts: &'a [Option<LayerActivations>],
    selections: &'a [Vec<Option<Vec<usize>>>],
    cost_hints: &'a [Vec<Option<u64>>],
    fetch_units: &'a [Vec<u64>],
}

/// One layer's per-KV-head selection results: the selected page sets, the
/// selector's cost hints for LPT balancing, and whether each head's selection
/// was freshly scored this step (the demotion sweep runs only then).
type LayerSelections = (Vec<Option<Vec<usize>>>, Vec<Option<u64>>, Vec<bool>);

/// Emits one decode layer's parallel-phase trace: advances the work-token
/// clock by the phase's modeled critical path, closes the `decode.attention`
/// span, and lays per-shard spans on per-device worker lanes
/// (`tid = device * DEVICE_TID_STRIDE + worker`, so device 0's lanes are the
/// plain worker ids).
///
/// The worker lanes show the *modeled LPT schedule* — [`lpt_assign`] re-run
/// per device over the same deterministic costs [`run_placed`] balanced with
/// — not the measured execution (work stealing may move a straggler shard at
/// runtime). That is the right chart for imbalance analysis: it is
/// bit-reproducible, and the per-shard `cost` args are exactly the
/// sparsity-aware estimates (gather charges included) the balancer acted on.
///
/// Only a multi-device phase carries the `devices` span arg and the
/// cumulative `interconnect` counter track, so single-device traces keep
/// their format.
#[allow(clippy::too_many_arguments)]
fn trace_attention_phase(
    tracer: &Tracer,
    par_start: u64,
    l: usize,
    balance: &BalanceStats,
    costs: &[u64],
    shard_seq: &[usize],
    device_of: &[usize],
    interconnect_total: u64,
) {
    if !tracer.is_enabled() {
        return;
    }
    let multi_device = balance.devices > 1;
    tracer.advance(balance.cost_critical());
    let args = [
        ("layer", l as u64),
        ("shards", balance.shards),
        ("devices", balance.devices as u64),
    ];
    tracer.span(
        "decode.attention",
        "executor",
        lane::EXECUTOR,
        CONTROL_TID,
        par_start,
        if multi_device { &args } else { &args[..2] },
    );
    for dev in 0..balance.devices {
        let group: Vec<usize> = (0..costs.len()).filter(|&s| device_of[s] == dev).collect();
        if group.is_empty() {
            continue;
        }
        let local_costs: Vec<u64> = group.iter().map(|&s| costs[s]).collect();
        let workers = balance.device_workers[dev].max(1);
        for (w, queue) in lpt_assign(&local_costs, workers).iter().enumerate() {
            let mut cursor = par_start;
            for &local in queue {
                let s = group[local];
                tracer.span_at(
                    "shard",
                    "attention",
                    lane::WORKERS,
                    lane::device_worker_tid(dev, w),
                    cursor,
                    costs[s],
                    &[("seq", shard_seq[s] as u64), ("cost", costs[s])],
                );
                cursor += costs[s];
            }
        }
    }
    if multi_device {
        // After the shard spans: the counter's tid-0 timestamp (the advanced
        // clock) must not precede device 0's span closes within the lane.
        tracer.counter(
            "interconnect",
            lane::WORKERS,
            &[("tokens", interconnect_total)],
        );
    }
}

/// Sparsity-aware cost estimate of one *(sequence × KV-head)* decode shard, in
/// visited KV tokens times query heads served (the work the kernel actually
/// does):
///
/// * streaming head → resident sink+local window tokens (constant-bounded);
/// * selected dense head → the selector's cost hint (its selected page set),
///   clamped to the real history;
/// * unselected dense head → the full history;
/// * plus the modeled host-link fetch cost of any cold pages the residency
///   pass just promoted for this shard — a shard whose pages crossed the host
///   link is genuinely slower this step, and the LPT balancer should know.
fn decode_shard_cost(
    pool: &PagePool,
    head: &HeadCache,
    selection: Option<&[usize]>,
    hint: Option<u64>,
    fetch_units: u64,
    group: usize,
) -> u64 {
    let tokens = match head {
        HeadCache::Streaming(c) => c.resident_tokens(pool) as u64,
        HeadCache::Dense(c) => match (selection, hint) {
            (Some(_), Some(h)) => h.min(c.tokens() as u64),
            (Some(sel), None) => (sel.len() as u64 * pool.config().physical_page_size() as u64)
                .min(c.tokens() as u64),
            _ => c.tokens() as u64,
        },
    };
    (tokens * group as u64).max(1) + lserve_kvcache::transfer_cost_tokens(fetch_units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lserve_model::{greedy_next_token, ModelConfig};

    fn tiny_weights() -> Arc<ModelWeights> {
        Arc::new(ModelWeights::random(&ModelConfig::tiny(), 42))
    }

    /// The transient plan [`ModelExecutor::decode_step`] builds per call:
    /// sparsity-aware placement over `LSERVE_DEVICES`.
    fn env_plan(exec: &ModelExecutor) -> ShardingPlan {
        let model = &exec.weights.config;
        ShardingPlan::new(
            Topology::from_env(),
            lserve_costmodel::PlacementPolicy::SparsityAware,
            model.num_layers,
            model.num_kv_heads,
        )
    }

    #[test]
    fn sequences_share_one_executor() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 512);
        let exec = ModelExecutor::new(w, cfg);
        let mut a = exec.new_sequence();
        let mut b = exec.new_sequence();
        exec.prefill(&mut a, &mut pool, &[1, 2, 3]).unwrap();
        exec.prefill(&mut b, &mut pool, &[4, 5, 6, 7]).unwrap();
        assert_eq!(a.context_len(), 3);
        assert_eq!(b.context_len(), 4);
        a.release(&mut pool);
        b.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn batched_decode_matches_sequential_decode() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let prompts: [&[u32]; 3] = [&[1, 2, 3, 4], &[9, 8, 7], &[20, 30, 40, 50, 60]];

        // Sequential: each sequence decoded alone (still sharing the pool).
        let mut pool_seq = cfg.make_pool_for(&w.config, 1024);
        let mut seq_states: Vec<SequenceState> =
            prompts.iter().map(|_| exec.new_sequence()).collect();
        let mut seq_tokens: Vec<Vec<u32>> = Vec::new();
        for (state, prompt) in seq_states.iter_mut().zip(prompts) {
            let first = exec.prefill(state, &mut pool_seq, prompt).unwrap();
            let mut next = greedy_next_token(&first.logits);
            let mut toks = vec![next];
            for _ in 0..6 {
                let out = exec.decode_step(state, &mut pool_seq, next).unwrap();
                next = greedy_next_token(&out.logits);
                toks.push(next);
            }
            seq_tokens.push(toks);
        }

        // Batched: all three advanced one token per decode_batch_sharded call.
        let mut pool_b = cfg.make_pool_for(&w.config, 1024);
        let mut b_states: Vec<SequenceState> =
            prompts.iter().map(|_| exec.new_sequence()).collect();
        let mut pending: Vec<u32> = b_states
            .iter_mut()
            .zip(prompts)
            .map(|(state, prompt)| {
                greedy_next_token(&exec.prefill(state, &mut pool_b, prompt).unwrap().logits)
            })
            .collect();
        let mut b_tokens: Vec<Vec<u32>> = pending.iter().map(|&t| vec![t]).collect();
        for _ in 0..6 {
            let mut batch: Vec<(&mut SequenceState, &[u32])> = b_states
                .iter_mut()
                .zip(pending.iter())
                .map(|(s, t)| (s, std::slice::from_ref(t)))
                .collect();
            let outs = exec.decode_batch_sharded(
                &mut pool_b,
                &mut batch,
                exec.default_threads,
                &mut env_plan(&exec),
                &mut ParallelExecStats::default(),
            );
            for (i, out) in outs.into_iter().enumerate() {
                let next = greedy_next_token(&out.unwrap().logits);
                pending[i] = next;
                b_tokens[i].push(next);
            }
        }
        assert_eq!(seq_tokens, b_tokens);
    }

    /// The tentpole invariant at the executor level: for every thread count,
    /// `decode_batch_sharded` emits bit-identical logits to the serial path —
    /// including a mixed dense/streaming batch with active page selection.
    #[test]
    fn parallel_decode_bit_identical_across_thread_counts() {
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        cfg.dynamic_budget = Some(16); // selection active at toy context lengths
        let w = tiny_weights();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let prompts: [&[u32]; 3] = [&[1, 2, 3, 4], &[9, 8, 7], &[20, 30, 40, 50, 60]];

        let run = |threads: usize| -> (Vec<Vec<Vec<f32>>>, u64) {
            let mut pool = cfg.make_pool_for(&w.config, 1024);
            let mut states: Vec<SequenceState> =
                prompts.iter().map(|_| exec.new_sequence()).collect();
            let mut exec_stats = ParallelExecStats::default();
            let mut pending: Vec<u32> = states
                .iter_mut()
                .zip(prompts)
                .map(|(state, prompt)| {
                    let out = exec
                        .prefill_threads(state, &mut pool, prompt, threads, &mut exec_stats)
                        .unwrap();
                    greedy_next_token(&out.logits)
                })
                .collect();
            let mut all_logits: Vec<Vec<Vec<f32>>> = prompts.iter().map(|_| Vec::new()).collect();
            for _ in 0..24 {
                let mut batch: Vec<(&mut SequenceState, &[u32])> = states
                    .iter_mut()
                    .zip(pending.iter())
                    .map(|(s, t)| (s, std::slice::from_ref(t)))
                    .collect();
                let outs = exec.decode_batch_sharded(
                    &mut pool,
                    &mut batch,
                    threads,
                    &mut env_plan(&exec),
                    &mut exec_stats,
                );
                for (i, out) in outs.into_iter().enumerate() {
                    let logits = out.unwrap().logits;
                    pending[i] = greedy_next_token(&logits);
                    all_logits[i].push(logits);
                }
            }
            (all_logits, exec_stats.shards)
        };

        let (want, shards1) = run(1);
        assert!(shards1 > 0);
        for threads in [2, 3, 8] {
            let (got, shards_t) = run(threads);
            assert_eq!(got, want, "logits diverged at {threads} threads");
            assert_eq!(shards_t, shards1, "shard count must not depend on threads");
        }
    }

    #[test]
    fn shard_cost_reflects_sparsity() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 2048);
        let exec = ModelExecutor::new(Arc::clone(&w), cfg);
        let mut s = exec.new_sequence();
        let prompt: Vec<u32> = (0..200).map(|i| (i % 90) as u32).collect();
        exec.prefill(&mut s, &mut pool, &prompt).unwrap();
        let layer = &s.layers[0];
        let (dense_kv, stream_kv) = {
            let mut dense = None;
            let mut stream = None;
            for kv in 0..layer.num_heads() {
                match layer.head(kv) {
                    HeadCache::Dense(_) => dense = Some(kv),
                    HeadCache::Streaming(_) => stream = Some(kv),
                }
            }
            (dense.expect("mixed layer"), stream.expect("mixed layer"))
        };
        let full = decode_shard_cost(&pool, layer.head(dense_kv), None, None, 0, 2);
        let selected =
            decode_shard_cost(&pool, layer.head(dense_kv), Some(&[0, 1]), Some(128), 0, 2);
        let streaming = decode_shard_cost(&pool, layer.head(stream_kv), None, None, 0, 2);
        assert!(
            full > selected && full > streaming,
            "full {full}, selected {selected}, streaming {streaming}"
        );
        assert_eq!(full, 200 * 2, "unselected dense head costed by history");
        assert_eq!(selected, 128 * 2, "selected head costed by selector hint");
        // Streaming heads are window-bounded no matter how long the context.
        let window = exec.config().streaming_window;
        let np = pool.config().physical_page_size();
        assert!(streaming <= (window.max_pages() * np * 2) as u64);
        // A shard whose pages just crossed the host link costs strictly more.
        let fetched = decode_shard_cost(
            &pool,
            layer.head(dense_kv),
            Some(&[0, 1]),
            Some(128),
            256,
            2,
        );
        assert!(fetched > selected, "fetch cost must surface in the shard");
        s.release(&mut pool);
    }

    /// Selection-driven demotion (tiered KV memory): with `demote_after_chunks`
    /// on, selector-stale dense pages migrate to the cold tier and come back
    /// when a selection re-picks them — and the emitted logits are
    /// bit-identical to the always-resident baseline at every step.
    #[test]
    fn selection_driven_demotion_is_bit_identical_and_migrates() {
        let mut base = EngineConfig::lserve_fp16();
        base.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        base.dynamic_budget = Some(16);
        base.reuse_interval = 2;
        let w = tiny_weights();

        let run = |demote: Option<usize>| -> (Vec<Vec<f32>>, u64, u64, usize) {
            let mut cfg = base.clone();
            cfg.demote_after_chunks = demote;
            let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
            let mut pool = cfg.make_pool_for(&w.config, 1024);
            let mut s = exec.new_sequence();
            let prompt: Vec<u32> = (0..40).map(|i| (i % 90) as u32).collect();
            let first = exec.prefill(&mut s, &mut pool, &prompt).unwrap();
            let mut next = greedy_next_token(&first.logits);
            let mut all = Vec::new();
            let mut peak_cold = 0;
            for _ in 0..40 {
                let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
                next = greedy_next_token(&out.logits);
                peak_cold = peak_cold.max(pool.cold_in_use());
                all.push(out.logits);
            }
            let stats = s.stats();
            s.release(&mut pool);
            assert_eq!(pool.in_use(), 0);
            assert_eq!(pool.cold_in_use(), 0, "release must drain the cold tier");
            (all, stats.pages_demoted, stats.pages_promoted, peak_cold)
        };

        let (want, d0, p0, cold0) = run(None);
        assert_eq!((d0, p0, cold0), (0, 0, 0), "baseline stays resident");
        let (got, demoted, _promoted, peak_cold) = run(Some(1));
        assert_eq!(got, want, "demotion changed the logits");
        assert!(demoted > 0, "stale pages must actually demote");
        assert!(peak_cold > 0, "cold tier must hold the demoted pages");
    }

    #[test]
    fn page_demand_reservation_is_exact() {
        let cfg = EngineConfig::lserve_fp16();
        let w = tiny_weights();
        let mut pool = cfg.make_pool_for(&w.config, 512);
        let exec = ModelExecutor::new(w, cfg);
        let mut s = exec.new_sequence();
        exec.prefill(&mut s, &mut pool, &[1, 2, 3, 4, 5]).unwrap();
        let mut next = 7u32;
        for _ in 0..80 {
            let need = s.pages_needed_for_next_token(&pool);
            let before = pool.in_use();
            let out = exec.decode_step(&mut s, &mut pool, next).unwrap();
            // Streaming heads may free a page after allocating, so actual growth is
            // at most the predicted transient demand.
            assert!(
                pool.in_use() <= before + need,
                "grew {} but predicted {}",
                pool.in_use() - before,
                need
            );
            next = greedy_next_token(&out.logits);
        }
    }

    /// A multi-token feed walked layer-outer allocates within the demand
    /// `pages_needed_for_next_tokens` reserves for it: every cell succeeds in
    /// a pool whose free pages were pinned at exactly that demand.
    #[test]
    fn cell_feed_fits_its_exact_reservation() {
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        cfg.prefill_tile = 8;
        let w = tiny_weights();
        let m = &w.config;
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let mut pool = cfg.make_pool_for(m, 512);
        let mut s = exec.new_sequence();
        exec.prefill(&mut s, &mut pool, &[1, 2, 3, 4, 5]).unwrap();
        let mut plan = ShardingPlan::new(
            Topology::single(),
            lserve_costmodel::PlacementPolicy::SparsityAware,
            m.num_layers,
            m.num_kv_heads,
        );
        let mut stats = ParallelExecStats::default();
        for n in [1usize, 7, 20, 3, 33] {
            let need = s.pages_needed_for_next_tokens(&pool, n);
            assert!(exec.feeds_layer_outer(&pool, &[(&s, n)]));
            let mut filler = Vec::new();
            while pool.free_pages() > need {
                filler.push(pool.allocate().expect("free page"));
            }
            let tokens: Vec<u32> = (0..n as u32).map(|t| (t * 13 + 1) % 90).collect();
            let out = exec
                .decode_batch_sharded(
                    &mut pool,
                    &mut [(&mut s, &tokens[..])],
                    1,
                    &mut plan,
                    &mut stats,
                )
                .pop()
                .unwrap();
            assert!(
                out.is_ok(),
                "{n}-token cell overran its {need}-page reservation"
            );
            for id in filler {
                pool.free(id);
            }
        }
        s.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn batch_failure_isolated_to_one_sequence() {
        let cfg = EngineConfig::dense();
        let w = tiny_weights();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        // Both sequences start on one page per head (2 * lh pages). At the first
        // 64-token page boundary each wants `lh` more; capacity 3*lh + 2 lets the
        // first sequence allocate all of its pages and strands the second partway.
        let m = &w.config;
        let lh = m.num_layers * m.num_kv_heads;
        let mut pool = lserve_kvcache::PagePool::new(cfg.paging, 3 * lh + 2, m.head_dim);
        let mut a = exec.new_sequence();
        let mut b = exec.new_sequence();
        exec.prefill(&mut a, &mut pool, &[1, 2, 3, 4]).unwrap();
        exec.prefill(&mut b, &mut pool, &[5, 6, 7, 8]).unwrap();
        let mut results = Vec::new();
        for step in 0..200 {
            let tokens = [step as u32 % 90, (step + 1) as u32 % 90];
            let mut batch: Vec<(&mut SequenceState, &[u32])> =
                vec![(&mut a, &tokens[..1]), (&mut b, &tokens[1..])];
            let out = exec.decode_batch_sharded(
                &mut pool,
                &mut batch,
                exec.default_threads,
                &mut env_plan(&exec),
                &mut ParallelExecStats::default(),
            );
            if out.iter().any(|r| r.is_err()) {
                results = out;
                break;
            }
        }
        assert!(!results.is_empty(), "pool should exhaust");
        // Exactly the failing sequence errored; at least one other succeeded.
        assert!(results.iter().any(|r| r.is_ok()));
        a.release(&mut pool);
        b.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }
}
