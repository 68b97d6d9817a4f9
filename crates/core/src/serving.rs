//! Continuous-batching serving layer: streamed request lifecycles over a shared
//! page pool, chunked prefill, SLO-class scheduling, preemption, batched decode.
//!
//! The paper's efficiency results are measured inside serving systems (vLLM,
//! QServe) whose scheduler interleaves many sequences over one device memory, and
//! its headline metrics — TTFT and per-token decode latency — are *interactive*
//! metrics. This module reproduces that control plane at small scale around the
//! executor/state split, fronted by a request-handle API:
//!
//! * **Request handles with a streamed event lifecycle**: callers build a
//!   [`RequestSpec`] (SLO class, optional work-token deadline, stop conditions,
//!   optional multi-turn session) and [`Scheduler::submit`] returns a
//!   [`RequestHandle`] whose drainable event queue yields [`ServingEvent`]s —
//!   `Admitted`, `FirstToken`, `Token`, `Preempted`, `Resumed`, `Finished`,
//!   `Cancelled`, `Rejected` — as [`Scheduler::step`] produces them. Std-only,
//!   no async runtime: events cross an `Arc<Mutex<VecDeque>>`, the same
//!   discipline as the scoped-thread executor. Handles support
//!   [`RequestHandle::cancel`]: pages are released at the next step boundary,
//!   the completed prefix is donated to the prefix cache, and survivors'
//!   outputs remain bit-identical to solo runs.
//! * **Class- and cost-aware scheduling**: admission ordering and preemption
//!   victim selection consult the [`SloClass`] (`Interactive` beats `Batch`
//!   beats `BestEffort`), the request's virtual deadline (EDF within a class,
//!   in work tokens; requests without a deadline age via
//!   [`SchedulerConfig::no_deadline_slack`], so nothing starves within its
//!   class), and — under [`PreemptionPolicy::Swap`] — the per-victim swap cost
//!   (fewest sole-owned hot pages).
//! * **Iteration-level continuous batching** (Orca): every scheduler iteration
//!   advances all running sequences by one token through
//!   [`ModelExecutor::decode_batch_sharded`], which walks layers in the outer
//!   loop so the weight/config traversal is amortized across the batch.
//! * **Chunked prefill**: long prompts are admitted immediately and fed in bounded
//!   chunks interleaved with decode iterations, so one long prompt no longer
//!   head-of-line-blocks the whole batch. The first
//!   `min(chunk_tokens, prompt_len)` tokens go through the fused tile prefill;
//!   the rest are fed through the decode path one prefill-grid cell per
//!   executor call ([`ModelExecutor::decode_batch_sharded`] walks the cell
//!   layer-outer: one QKV and one O-proj/FFN GEMM per layer over the whole
//!   cell, append → select → attend per token, LM head on the last token
//!   only). The result is bit-identical to feeding one token per call —
//!   [`lserve_tensor::Matrix::matmul`] computes every output row
//!   independently in ascending `k`, each token still sees append → select →
//!   attend in order within a layer, and layers share no state but the pool —
//!   so the numerics are independent of how the scheduler slices the
//!   remainder across iterations and calls.
//! * **Preemption and resume**: page demand is computed *exactly* before every
//!   decode iteration ([`SequenceState::pages_needed_for_next_token`]); when
//!   demand exceeds the free pool, a cost- and class-chosen victim releases (or
//!   swap-parks) its pages and re-queues. On re-admission it re-feeds its prompt
//!   *plus* the tokens it had already generated through the identical
//!   deterministic pipeline (or promotes its swapped pages), which reconstructs a
//!   bit-identical cache — so preemption never changes the tokens a request
//!   produces.
//! * **Cross-request prefix caching** (opt-in via
//!   [`SchedulerConfig::prefix_cache`]): prompts are matched against a radix tree
//!   of previously computed prefixes ([`lserve_prefixcache::PrefixCache`]). A hit
//!   seeds the new sequence with the cached pages (refcount-shared, copy-on-write
//!   on append) and only the prompt suffix is prefilled. Sequences donate anchors
//!   into the tree on every prefill-grid boundary and donate their full
//!   conversation on completion *or cancellation*, and the tree's LRU entries are
//!   evicted before any running sequence is preempted. Prefix stability rests on
//!   the *fixed prefill tile grid* (see [`tile_grid_boundary`]).
//! * **Multi-turn sessions**: a [`RequestSpec::session`] id makes the new turn's
//!   prompt extend the session's recorded conversation (prior prompt + output),
//!   so with the prefix cache enabled a follow-up turn starts from the donated
//!   pages of the previous one.
//! * **Sparsity-aware parallel decode** ([`SchedulerConfig::decode_threads`],
//!   default from `LSERVE_DECODE_THREADS`): every prefill/decode attention
//!   phase runs as *(sequence × KV-head)* shards, LPT-balanced by the per-head
//!   sparsity cost across a scoped-thread worker pool with work stealing.
//!
//! The determinism guarantee that falls out: for any request set — including
//! arbitrary cancellations and stop-condition terminations — every surviving
//! request's greedy outputs are token-identical to running it alone on a fresh
//! pool under the same [`SchedulerConfig`], with or without the prefix cache,
//! across chunk sizes, pool pressures, KV precisions, preemption policies, and
//! decode worker-thread counts.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use lserve_kvcache::{
    migration_from_env, tier_config_from_env, MigrationMode, PagePool, TierConfig,
};
use lserve_model::{greedy_next_token, ModelConfig};
use lserve_prefixcache::{PrefixCache, PrefixCacheStats};
use lserve_trace::{lane, Tracer};

use lserve_costmodel::{devices_from_env, PlacementPolicy, Topology, DEFAULT_GATHER_COST_TOKENS};

use crate::config::decode_threads_from_env;
use crate::dag::{
    BranchSpec, DagStats, DagStore, ForkError, ForkOutcome, JoinPolicy, JoinStatus,
    SparsityOverride, SparsitySchedule,
};
use crate::executor::{ModelExecutor, SequenceState};
use crate::prefix::CachedPrefix;
use crate::sharding::ShardingPlan;
use crate::stats::ParallelExecStats;
use crate::EngineConfig;

/// The prefill tile grid: the fused tile-prefill path covers absolute token
/// positions `[0, chunk_tokens)` — the first grid cell — and every position at or
/// beyond the grid boundary is always fed through the decode path, no matter
/// how the scheduler slices iterations, whether the sequence is resuming from
/// preemption, or how much of its prompt came from the prefix cache. The
/// decode path absorbs up to one later grid cell per executor call, walking
/// it layer-outer; that is bit-identical to one token per call (rows of a
/// matmul are computed independently in ascending `k`, each token sees
/// append → select → attend in order within a layer, and layers share no
/// state but the pool), so every position's KV is that of a per-token feed.
///
/// Because the boundary is a pure function of absolute token position (not of how
/// much of this particular prompt remains), the KV written for any prompt prefix
/// of at least `chunk_tokens` tokens is bit-identical across requests that share
/// it — the invariant that lets the prefix cache hand one request's pages to
/// another without changing a single output token. A prompt shorter than the grid
/// cell lies entirely inside it and prefills in one fused call; such prompts are
/// below the cache's minimum match and are never shared.
pub fn tile_grid_boundary(chunk_tokens: usize, prompt_len: usize) -> usize {
    chunk_tokens.min(prompt_len)
}

/// Pages needed to hold `tokens` tokens of context for one sequence under
/// `cfg` — dense heads grow with context, streaming heads are bounded by their
/// window. This is the footprint estimate the scheduler's admission control
/// uses; tests and benches that want to size a pool relative to "N sequences"
/// should use it instead of re-deriving the formula.
///
/// The estimate is of the **hot** footprint. When selection-driven demotion is
/// on (`demote_after_chunks` with a `dynamic_budget`), a dense head's
/// steady-state hot set is not its full residency: once history outgrows the
/// selection budget, the selector keeps roughly `budget` tokens hot and the
/// demotion sweep pushes the rest cold. The bound has to cover the demotion
/// *lag*, though — a page only demotes after going unselected for
/// `demote_after_chunks` consecutive fresh scorings, so in the worst case
/// (the top-k churning completely every rescore) up to `k` selections' worth
/// of pages plus `k × reuse_interval` freshly appended tokens are hot at
/// once, on top of the append page and the forced sink page. That caps the
/// per-head hot set at `k × (budget + reuse_interval) + 2 pages` — constant
/// in context length — instead of the whole history. Without demotion (or
/// while the context still fits inside that cap) the full-residency formula
/// stands.
pub fn sequence_pages_estimate(cfg: &EngineConfig, model: &ModelConfig, tokens: usize) -> usize {
    let streaming_heads =
        (cfg.streaming_sparsity * (model.num_layers * model.num_kv_heads) as f64).round() as usize;
    let dense_heads = model.num_layers * model.num_kv_heads - streaming_heads;
    let dense_hot_tokens = match (cfg.demote_after_chunks, cfg.dynamic_budget) {
        (Some(k), Some(budget)) => {
            let churn = k.max(1) * (budget + cfg.reuse_interval.max(1));
            tokens.min(churn + 2 * cfg.paging.physical_page_size())
        }
        _ => tokens,
    };
    dense_heads * (cfg.paging.pages_for(dense_hot_tokens) + 1)
        + streaming_heads * (cfg.streaming_window.max_pages() + 2)
}

/// [`sequence_pages_estimate`] under a per-request [`SparsitySchedule`]: the
/// effective selection budget at position `tokens` replaces the engine-wide
/// budget in the demotion-churn cap, and a position-0 window override replaces
/// the streaming-head window. With an empty schedule this is exactly the base
/// estimate.
pub fn sequence_pages_estimate_sparsity(
    cfg: &EngineConfig,
    model: &ModelConfig,
    tokens: usize,
    sparsity: &SparsitySchedule,
) -> usize {
    let window = sparsity.window_override().unwrap_or(cfg.streaming_window);
    let streaming_heads =
        (cfg.streaming_sparsity * (model.num_layers * model.num_kv_heads) as f64).round() as usize;
    let dense_heads = model.num_layers * model.num_kv_heads - streaming_heads;
    let dense_hot_tokens = match (
        cfg.demote_after_chunks,
        sparsity.effective_budget(cfg.dynamic_budget, tokens),
    ) {
        (Some(k), Some(budget)) => {
            let churn = k.max(1) * (budget + cfg.reuse_interval.max(1));
            tokens.min(churn + 2 * cfg.paging.physical_page_size())
        }
        _ => tokens,
    };
    dense_heads * (cfg.paging.pages_for(dense_hot_tokens) + 1)
        + streaming_heads * (window.max_pages() + 2)
}

/// Service-level-objective class of a request. Scheduling is strict-priority
/// across classes (admission ordering and preemption victim selection both
/// consult it) and starvation-free *within* a class (EDF over virtual
/// deadlines whose no-deadline fallback ages with the work clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SloClass {
    /// Latency-sensitive traffic: admitted ahead of other classes and shielded
    /// from preemption while any lower class is running.
    Interactive,
    /// Throughput traffic with ordinary guarantees — the default, and the
    /// behaviour of the pre-SLO scheduler when every request uses it.
    #[default]
    Batch,
    /// Scavenger traffic: first to be preempted, last to be admitted.
    BestEffort,
}

impl SloClass {
    /// Strict-priority rank: lower is more important.
    fn rank(self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Batch => 1,
            SloClass::BestEffort => 2,
        }
    }
}

/// Why a request finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated its full `max_new_tokens` budget.
    Length,
    /// Emitted a token in [`RequestSpec::stop_tokens`]; the stop token itself
    /// is excluded from the output (and never streamed).
    StopToken,
    /// The generated tail matched a [`RequestSpec::stop_sequences`] entry; the
    /// matched sequence is *included* in the output (its tokens were already
    /// streamed before the match completed).
    StopSequence,
    /// Bounded-memory truncation: the lone running sequence could not grow any
    /// further and was finished with what it had.
    Truncated,
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The spec is degenerate: an empty (resolved) prompt, a zero
    /// `max_new_tokens` budget, or a streaming-window override scheduled past
    /// position 0 (the ring is built at sequence creation). Rejected at
    /// `submit` so a degenerate sequence never reaches admission.
    Invalid,
    /// The estimated full footprint can never fit the pool.
    TooLarge,
    /// A request with this id is already known to the scheduler (live or
    /// terminal). The earlier request is untouched; duplicate ids are an
    /// explicit rejection instead of silent shadowing.
    DuplicateId,
}

/// A generation request under the handle-based API: what to generate, how it
/// terminates, and how the scheduler should treat it relative to other
/// traffic.
///
/// Built with the builder methods:
///
/// ```
/// use lserve_core::{RequestSpec, SloClass};
///
/// let spec = RequestSpec::new(7, vec![1, 2, 3])
///     .max_new_tokens(32)
///     .class(SloClass::Interactive)
///     .deadline_work_tokens(400)
///     .stop_token(0)
///     .stop_sequence(vec![5, 6])
///     .session(1);
/// assert_eq!(spec.id, 7);
/// assert_eq!(spec.class, SloClass::Interactive);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Caller-chosen identifier; must be unique across the scheduler's
    /// lifetime (duplicates are rejected with [`RejectReason::DuplicateId`]).
    pub id: u64,
    /// Prompt token ids for this turn. With a [`RequestSpec::session`], the
    /// effective prompt is the session's recorded conversation followed by
    /// these tokens.
    pub prompt: Vec<u32>,
    /// Generation budget (greedy). Defaults to 16.
    pub max_new_tokens: usize,
    /// SLO class (defaults to [`SloClass::Batch`]).
    pub class: SloClass,
    /// Optional TTFT deadline in *work tokens* (forward-pass tokens across all
    /// sequences) from submission. Within a class, admission and victim
    /// selection order by earliest virtual deadline; [`RequestMetrics`]
    /// records whether it was met.
    pub deadline_work_tokens: Option<u64>,
    /// Generation stops when an emitted token is in this set; the stop token
    /// is excluded from the output.
    pub stop_tokens: Vec<u32>,
    /// Generation stops when the generated tail matches any of these
    /// sequences; the matched sequence stays in the output (its tokens were
    /// already streamed).
    pub stop_sequences: Vec<Vec<u32>>,
    /// Optional session id: the request continues the session's conversation
    /// (prior effective prompt + output), and its own conversation is recorded
    /// back on completion — multi-turn chat over the prefix cache.
    ///
    /// Turns of one session are sequential by contract: submit a follow-up
    /// only after the prior turn's terminal event. A turn submitted while the
    /// session's previous turn is still in flight sees the conversation as it
    /// was last *recorded* (it does not wait), and concurrent turns of one
    /// session record last-completion-wins.
    pub session: Option<u64>,
    /// Positional sparsity-override schedule: each phase applies its knobs
    /// (selection budget, retention ratio, streaming window) from an absolute
    /// token position onward. Empty = engine defaults. Requests carrying
    /// overrides are excluded from prefix-cache sharing in both directions:
    /// their selector history is budget-dependent, so their pages are only
    /// reusable by a consumer replaying the identical schedule.
    pub sparsity: SparsitySchedule,
}

impl RequestSpec {
    /// A spec with the defaults: 16 new tokens, [`SloClass::Batch`], no
    /// deadline, no stop conditions, no session.
    pub fn new(id: u64, prompt: Vec<u32>) -> Self {
        Self {
            id,
            prompt,
            max_new_tokens: 16,
            class: SloClass::Batch,
            deadline_work_tokens: None,
            stop_tokens: Vec::new(),
            stop_sequences: Vec::new(),
            session: None,
            sparsity: SparsitySchedule::new(),
        }
    }

    /// Sets the generation budget.
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.max_new_tokens = n;
        self
    }

    /// Sets the SLO class.
    pub fn class(mut self, class: SloClass) -> Self {
        self.class = class;
        self
    }

    /// Sets a TTFT deadline in work tokens from submission.
    pub fn deadline_work_tokens(mut self, deadline: u64) -> Self {
        self.deadline_work_tokens = Some(deadline);
        self
    }

    /// Adds a stop token (excluded from the output when hit).
    pub fn stop_token(mut self, token: u32) -> Self {
        self.stop_tokens.push(token);
        self
    }

    /// Adds a stop sequence (included in the output when matched). Empty
    /// sequences are ignored.
    pub fn stop_sequence(mut self, seq: Vec<u32>) -> Self {
        self.stop_sequences.push(seq);
        self
    }

    /// Attaches the request to a multi-turn session. Session turns are
    /// sequential by contract: submit a follow-up turn only after the prior
    /// turn's terminal event (see [`RequestSpec::session`]).
    pub fn session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
    }

    /// Applies a sparsity override from position 0 (the whole request).
    pub fn sparsity(self, over: SparsityOverride) -> Self {
        self.sparsity_from(0, over)
    }

    /// Applies a sparsity override from absolute token position `from`
    /// onward — the knob a solo run uses to replay a branch's exact budget
    /// timeline (override active only past the fork point).
    pub fn sparsity_from(mut self, from: usize, over: SparsityOverride) -> Self {
        self.sparsity.push(from, over);
        self
    }
}

/// One step of a request's lifecycle, streamed through its
/// [`RequestHandle`] as the scheduler produces it.
///
/// Event-stream invariants (pinned by the test suite): events arrive in
/// lifecycle order — `Admitted` first, token events only between
/// `Admitted`/`Resumed` and the next `Preempted` or terminal event,
/// `FirstToken` exactly once before any `Token`, every `Resumed` preceded by a
/// matching `Preempted` — and every request sees **exactly one terminal
/// event** (`Finished`, `Cancelled`, or `Rejected`), always last. The
/// concatenated payloads of `FirstToken` + `Token` equal the terminal event's
/// `tokens`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingEvent {
    /// The request was admitted into the running batch for the first time.
    Admitted,
    /// The first output token.
    FirstToken {
        /// The token id.
        token: u32,
    },
    /// A subsequent output token.
    Token {
        /// The token id.
        token: u32,
    },
    /// The request was preempted under pool pressure; it keeps its progress
    /// and will resume.
    Preempted {
        /// How the victim's pages were handled (released for replay, or
        /// demoted for swap-resume).
        policy: PreemptionPolicy,
    },
    /// The request re-entered the running batch after a preemption.
    Resumed,
    /// Terminal: the request completed with `tokens` as its output.
    Finished {
        /// Why generation stopped.
        reason: FinishReason,
        /// The full output (stop-token truncation already applied).
        tokens: Vec<u32>,
    },
    /// Terminal: the request was cancelled; `tokens` is the output produced
    /// before cancellation took effect.
    Cancelled {
        /// Output tokens emitted before the cancellation boundary.
        tokens: Vec<u32>,
    },
    /// Terminal: the request was rejected.
    Rejected {
        /// Why it could not be served.
        reason: RejectReason,
    },
}

impl ServingEvent {
    /// True for `Finished`, `Cancelled`, and `Rejected` — the events that end
    /// a request's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ServingEvent::Finished { .. }
                | ServingEvent::Cancelled { .. }
                | ServingEvent::Rejected { .. }
        )
    }
}

/// The scheduler/handle shared half of a request's lifecycle: the event
/// queue, the cancellation flag, and the terminal marker.
#[derive(Debug)]
struct HandleShared {
    id: u64,
    events: Mutex<VecDeque<ServingEvent>>,
    cancel: AtomicBool,
    terminal: AtomicBool,
}

impl HandleShared {
    fn new(id: u64) -> Arc<Self> {
        Arc::new(Self {
            id,
            events: Mutex::new(VecDeque::new()),
            cancel: AtomicBool::new(false),
            terminal: AtomicBool::new(false),
        })
    }

    fn push(&self, event: ServingEvent) {
        debug_assert!(
            !self.terminal.load(Ordering::Acquire),
            "event after terminal for request {}",
            self.id
        );
        let terminal = event.is_terminal();
        let mut events = self.events.lock().expect("event queue lock poisoned");
        events.push_back(event);
        if terminal {
            // Flagged only after the event is enqueued (and while the queue
            // lock is still held), so a consumer that observes
            // `is_terminal() == true` is guaranteed to find the terminal
            // event in its next drain.
            self.terminal.store(true, Ordering::Release);
        }
    }

    fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }
}

/// A caller's view of one submitted request: a drainable stream of
/// [`ServingEvent`]s plus cooperative cancellation.
///
/// Handles are cheap to clone (an `Arc`) and `Send`, so a driver thread can
/// hand them out; dropping a handle never affects the request — events simply
/// accumulate until the terminal event, after which the scheduler drops its
/// side.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    shared: Arc<HandleShared>,
}

impl RequestHandle {
    /// The request id this handle tracks.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Requests cancellation. The scheduler acts at the next
    /// [`Scheduler::step`] boundary: pages are released, the completed prefix
    /// is donated to the prefix cache, and the terminal
    /// [`ServingEvent::Cancelled`] is pushed. Cancelling an already-terminal
    /// request is a no-op.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// Pops the oldest undrained event, if any.
    pub fn try_next_event(&self) -> Option<ServingEvent> {
        self.shared
            .events
            .lock()
            .expect("event queue lock poisoned")
            .pop_front()
    }

    /// Drains every currently queued event.
    pub fn drain_events(&self) -> Vec<ServingEvent> {
        self.shared
            .events
            .lock()
            .expect("event queue lock poisoned")
            .drain(..)
            .collect()
    }

    /// True once a terminal event (`Finished`/`Cancelled`/`Rejected`) has been
    /// *produced* — it may still be waiting in the queue to be drained.
    pub fn is_terminal(&self) -> bool {
        self.shared.terminal.load(Ordering::Acquire)
    }
}

/// Lifecycle state of a request inside the serving engine — the poll-style
/// compatibility view over the event stream ([`Scheduler::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestStatus {
    /// Waiting for admission (fresh or preempted).
    Queued,
    /// Currently prefilling or decoding.
    Running,
    /// Completed with the generated tokens.
    Finished(Vec<u32>),
    /// Cancelled via its handle, with the tokens generated before the
    /// cancellation boundary.
    Cancelled(Vec<u32>),
    /// Could never fit in the pool (or was otherwise rejected at admission).
    Rejected,
}

/// How the scheduler relieves pool pressure when decode demand exceeds the
/// free hot tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreemptionPolicy {
    /// Release every page the victim holds and re-queue it; on re-admission
    /// its prompt *plus* already-generated tokens are re-fed through the
    /// deterministic pipeline (the classic recompute-based preemption).
    #[default]
    Replay,
    /// Demote the victim's sole-owned pages to the cold (host) tier and park
    /// its sequence state; on re-admission the cold pages are promoted back —
    /// modeled transfer work instead of recompute — and decode continues
    /// exactly where it stopped. Pages co-owned with the prefix cache or
    /// another sequence stay hot for their other readers (the CoW/refcount
    /// discipline), so a swap never disturbs shared prefixes. Outputs are
    /// bit-identical to [`PreemptionPolicy::Replay`].
    Swap,
}

/// Default preemption policy from the `LSERVE_PREEMPTION` environment variable
/// (`replay` | `swap`, defaulting to replay; unknown values fall back to
/// replay).
///
/// Read on every call — deliberately *not* cached in a process-wide
/// `OnceLock` — so tests and benches can vary the knob in-process;
/// [`SchedulerConfig::from_env`] reads it once at construction and pins the
/// result. CI runs the test suite under both values, so the determinism suite
/// exercises swap-based preemption on every push.
pub fn preemption_from_env() -> PreemptionPolicy {
    match std::env::var("LSERVE_PREEMPTION")
        .unwrap_or_default()
        .trim()
        .to_ascii_lowercase()
        .as_str()
    {
        "swap" => PreemptionPolicy::Swap,
        _ => PreemptionPolicy::Replay,
    }
}

/// How the scheduler decides a queued request may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit only when the estimated *full* footprint (prompt + all generated
    /// tokens) fits the free pool. Conservative: preemption is rare, utilization
    /// lower.
    FullFootprint,
    /// Admit as soon as the first prefill chunk fits. Aggressive: memory
    /// oversubscription is resolved by preemption.
    FirstChunk,
}

/// Scheduler policy knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Physical pages in the shared pool (the device-memory budget).
    pub pool_pages: usize,
    /// Per-sequence prompt tokens fed per scheduler iteration, and the size of the
    /// fused tile-prefill first chunk. Larger values lower prefill cost but stall
    /// the decode batch longer per iteration.
    pub chunk_tokens: usize,
    /// Maximum concurrently running sequences.
    pub max_batch: usize,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Enables the cross-request KV prefix cache: admission matches prompts
    /// against previously computed prefixes, prefill donates anchors on tile-grid
    /// boundaries, completed (and cancelled) sequences donate their
    /// conversation, and cached entries are LRU-evicted under pool pressure
    /// (before any preemption). Outputs are token-identical with the cache on
    /// or off.
    pub prefix_cache: bool,
    /// Worker threads for the sharded attention phases of prefill and decode
    /// (the *(sequence × KV-head)* LPT-balanced executor). Defaults to the
    /// `LSERVE_DECODE_THREADS` environment variable (1 when unset). Outputs
    /// are bit-identical for every value — the knob trades wall-clock only.
    pub decode_threads: usize,
    /// Simulated devices decode attention is placed onto
    /// ([`ShardingPlan`]-driven head-parallel sharding). Defaults to the
    /// `LSERVE_DEVICES` environment variable (1 when unset). Outputs are
    /// bit-identical for every value — devices move modeled cost and trace
    /// lanes only.
    pub devices: usize,
    /// How KV heads are assigned to those devices: sparsity-aware device-level
    /// LPT (the default) or the round-robin baseline.
    pub placement: PlacementPolicy,
    /// Scheduler steps between the sharding plan's device-imbalance checks.
    pub rebalance_interval: u64,
    /// Max-over-mean device load ratio past which the plan recomputes
    /// placement and migrates heads (charging their KV across the modeled
    /// interconnect).
    pub rebalance_threshold: f64,
    /// How pool pressure is relieved: recompute-based [`PreemptionPolicy::Replay`]
    /// or the tiered memory's [`PreemptionPolicy::Swap`]. Defaults to the
    /// `LSERVE_PREEMPTION` environment variable (replay when unset). Outputs
    /// are bit-identical for both values.
    pub preemption: PreemptionPolicy,
    /// How tier migrations are executed and accounted: inline
    /// [`MigrationMode::Sync`] (every transfer stalls its issuing step) or
    /// the overlapped [`MigrationMode::Async`] copy engine (transfers drain
    /// behind compute; only demand-forced remainders stall). Defaults to the
    /// `LSERVE_MIGRATION` environment variable (sync when unset). Outputs
    /// are bit-identical for both values — the knob trades modeled stall
    /// time only.
    pub migration: MigrationMode,
    /// Host (cold-tier) page capacity: `0` models an unbounded host — the
    /// historical behavior. A bounded host forces the pool to spill its
    /// oldest cold page to nvme before each demotion (when `nvme` is on) or
    /// to refuse the demotion entirely (drop-and-replay fallback). Defaults
    /// to the `LSERVE_HOST_PAGES` environment variable (0 when unset).
    /// Outputs are bit-identical for every value — tiers move modeled cost
    /// only.
    pub host_pages: usize,
    /// Enables the modeled nvme tier below the host ([`lserve_kvcache::
    /// NVME_TRANSFER_SPEEDUP`], an order of magnitude slower per hop than
    /// the host link). Defaults to the `LSERVE_NVME` environment variable
    /// (off when unset). Outputs are bit-identical either way.
    pub nvme: bool,
    /// Enables SLO-class- and deadline-aware scheduling (the default). When
    /// `false`, admission and victim selection fall back to class-blind FCFS
    /// arrival order — the baseline the interactive-class win is measured
    /// against. Outputs per request are bit-identical either way; only
    /// ordering (and therefore latency) changes.
    pub class_aware: bool,
    /// Virtual-deadline slack, in work tokens, assigned to requests that carry
    /// no explicit deadline. Within a class the scheduler orders by virtual
    /// deadline (`submit-time work clock + deadline-or-slack`), so this is the
    /// aging horizon: a deadline-less request outranks any later arrival once
    /// the work clock has advanced past the difference — starvation-freedom
    /// within the class.
    pub no_deadline_slack: u64,
    /// Shared trace handle threaded through the scheduler, the executor's
    /// per-layer phases, the attention shard workers, the copy engine, and the
    /// page selector. Defaults to [`Tracer::from_env`] (the `LSERVE_TRACE`
    /// variable; disabled when unset). Tracing never changes outputs — the
    /// trace clock is a parallel work-token ledger, not a scheduling input.
    pub tracer: Tracer,
}

impl SchedulerConfig {
    /// Environment-seeded defaults: 128-token prefill chunks, batch of up to
    /// 64, first-chunk admission (preemption-backed), prefix cache off,
    /// class-aware scheduling on, decode threads read once from
    /// `LSERVE_DECODE_THREADS` (1 when unset), preemption policy read once
    /// from `LSERVE_PREEMPTION` (replay when unset), migration mode read
    /// once from `LSERVE_MIGRATION` (sync when unset), tier shape read once
    /// from `LSERVE_HOST_PAGES` / `LSERVE_NVME` (unbounded host, no nvme
    /// when unset), tracing read once from `LSERVE_TRACE` (disabled when
    /// unset).
    ///
    /// The environment is read here, at construction — never cached
    /// process-wide — so tests and benches can vary the variables between
    /// scheduler constructions in one process.
    pub fn from_env(pool_pages: usize) -> Self {
        let tiers = tier_config_from_env();
        Self {
            pool_pages,
            chunk_tokens: 128,
            max_batch: 64,
            admission: AdmissionPolicy::FirstChunk,
            prefix_cache: false,
            decode_threads: decode_threads_from_env(),
            devices: devices_from_env(),
            placement: PlacementPolicy::SparsityAware,
            rebalance_interval: 16,
            rebalance_threshold: 1.5,
            preemption: preemption_from_env(),
            migration: migration_from_env(),
            host_pages: tiers.host_pages,
            nvme: tiers.nvme,
            class_aware: true,
            no_deadline_slack: 1 << 20,
            tracer: Tracer::from_env(),
        }
    }

    /// Alias for [`SchedulerConfig::from_env`] (the historical constructor
    /// name).
    pub fn new(pool_pages: usize) -> Self {
        Self::from_env(pool_pages)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_tokens`, `max_batch`, `pool_pages`, `decode_threads`
    /// or `no_deadline_slack` is zero.
    pub fn validate(&self) {
        assert!(self.pool_pages > 0, "pool must hold at least one page");
        assert!(self.chunk_tokens > 0, "chunk must be at least one token");
        assert!(self.max_batch > 0, "batch must admit at least one sequence");
        assert!(self.decode_threads > 0, "need at least one decode worker");
        assert!(self.devices > 0, "need at least one device");
        assert!(
            self.rebalance_interval > 0,
            "rebalance interval must be at least one step"
        );
        assert!(
            self.rebalance_threshold >= 1.0,
            "rebalance threshold is a max-over-mean ratio (>= 1.0)"
        );
        assert!(
            self.no_deadline_slack > 0,
            "aging horizon must be positive for starvation-freedom"
        );
    }
}

/// Per-request latency/scheduling metrics, in scheduler iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMetrics {
    /// Request id.
    pub id: u64,
    /// SLO class the request ran under.
    pub class: SloClass,
    /// Why generation stopped.
    pub finish: FinishReason,
    /// Iterations from submission until the first generated token (time to first
    /// token). Zero when the request finished without emitting any token.
    pub ttft_iters: u64,
    /// Model work (tokens pushed through the forward pass, all sequences counted)
    /// between submission and the first generated token. Unlike iterations, this
    /// is a faithful time proxy when per-iteration prefill work is unbounded —
    /// it is the unit in which chunked prefill's head-of-line win shows up.
    pub ttft_work_tokens: u64,
    /// Iterations between the first and the last generated token.
    pub decode_span_iters: u64,
    /// Tokens generated (output tokens; stop-token truncation applied).
    pub tokens: usize,
    /// Times this request was preempted (pages released, later re-prefilled).
    pub preemptions: u32,
    /// Prompt tokens served from the prefix cache at admission (the deepest
    /// value across admissions, for requests that were preempted and resumed).
    pub cached_prompt_tokens: usize,
    /// The TTFT deadline the request carried, if any (work tokens from
    /// submission).
    pub deadline_work_tokens: Option<u64>,
    /// Whether the deadline was met (`None` when no deadline was set; a
    /// request that never emitted a token misses by definition).
    pub deadline_met: Option<bool>,
}

impl RequestMetrics {
    /// Mean iterations between consecutive generated tokens (0 for fewer than two
    /// tokens).
    pub fn mean_tbt_iters(&self) -> f64 {
        if self.tokens > 1 {
            self.decode_span_iters as f64 / (self.tokens - 1) as f64
        } else {
            0.0
        }
    }
}

/// Summary of a serving run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingReport {
    /// `(request id, output tokens)` for every completed request.
    pub completed: Vec<(u64, Vec<u32>)>,
    /// Requests that could never be admitted (admission-time rejections;
    /// duplicate-id rejections appear only in [`ServingReport::rejections`]).
    pub rejected: Vec<u64>,
    /// Every rejection with its reason, including duplicate-id rejections
    /// made at submit time.
    pub rejections: Vec<(u64, RejectReason)>,
    /// `(request id, output tokens at the cancellation boundary)` for every
    /// cancelled request.
    pub cancelled: Vec<(u64, Vec<u32>)>,
    /// Scheduler iterations executed.
    pub scheduler_steps: u64,
    /// Total decode steps across all sequences (prompt-continuation feeding
    /// excluded).
    pub decode_steps: u64,
    /// High-water mark of pool pages in use.
    pub peak_pages: usize,
    /// Total preemption events across the run.
    pub preemptions: u64,
    /// Per-request latency metrics for completed requests, sorted by request
    /// id on completion.
    pub request_metrics: Vec<RequestMetrics>,
    /// Prompt tokens served from the prefix cache, summed over admission events
    /// (a preempted request that re-admits with a hit counts again, exactly as
    /// its recomputed tokens would).
    pub prefix_hit_tokens: u64,
    /// Prompt tokens actually computed by prefill (tile chunk + continuation feed),
    /// summed over admission events. Zero when the prefix cache is disabled.
    pub prefix_recomputed_tokens: u64,
    /// Prefixes donated into the cache (anchors, completed conversations, and
    /// cancelled requests' completed prefixes).
    pub prefix_insertions: u64,
    /// Prefix-cache entries evicted under pool pressure.
    pub prefix_evictions: u64,
    /// Worker threads the run's sharded attention phases were configured with.
    pub decode_threads: usize,
    /// Preemption policy the run was configured with.
    pub preemption: PreemptionPolicy,
    /// Pages migrated hot → cold over the run (selection-driven demotion plus
    /// swap-outs), from the pool's lifetime tier ledger.
    pub pages_demoted: u64,
    /// Pages migrated cold → hot over the run (selection re-picks plus
    /// swap-resume promotions).
    pub pages_promoted: u64,
    /// Modeled transfer work of swap-resume promotions specifically, in
    /// forward-pass token-equivalents — the number to hold against the replay
    /// tokens the swap policy avoided re-feeding. Counted into the `work
    /// tokens` clock, so TTFT under swap honestly pays for its transfers.
    pub swap_resume_work_tokens: u64,
    /// High-water mark of cold-tier (host) pages in use.
    pub peak_cold_pages: usize,
    /// High-water mark of nvme-tier pages in use (0 without the nvme tier).
    pub peak_nvme_pages: usize,
    /// Pages spilled host → nvme over the run (bounded-host relief), from
    /// the pool's lifetime tier ledger.
    pub pages_spilled: u64,
    /// Pages recalled nvme → host over the run (demand recalls plus
    /// prefetch-chained recalls).
    pub pages_recalled: u64,
    /// Prefix-cache entries spilled down-tier under pool pressure (the
    /// entry stays cached; contrast [`ServingReport::prefix_evictions`]).
    pub prefix_spills: u64,
    /// Host page capacity the run was configured with (0 = unbounded).
    pub host_pages: usize,
    /// Whether the modeled nvme tier was enabled.
    pub nvme: bool,
    /// Migration mode the run was configured with.
    pub migration: MigrationMode,
    /// Selector-driven prefetches issued into the copy engine (async mode;
    /// always zero under [`MigrationMode::Sync`]).
    pub prefetch_issued: u64,
    /// Prefetched pages a later demand actually read — each one a transfer
    /// that would otherwise have stalled a decode step.
    pub prefetch_hits: u64,
    /// Prefetched pages demoted or freed without ever being demanded (the
    /// cost of wrong guesses: wasted link bandwidth, never wasted hot slots).
    pub prefetch_wasted: u64,
    /// Modeled transfer work the copy engine hid behind compute, in
    /// forward-pass token-equivalents. Always zero under sync migration.
    pub hidden_transfer_tokens: u64,
    /// Modeled transfer work steps actually stalled on, in forward-pass
    /// token-equivalents: everything under sync migration, only demand
    /// fetches and forced completions under async. The cross-mode comparable
    /// stall metric — the async engine's win is this number shrinking while
    /// outputs stay bit-identical.
    pub migration_stall_tokens: u64,
    /// High-water mark of concurrently running sequences.
    pub peak_running: usize,
    /// Sum over scheduler iterations of the running-sequence count (after
    /// admission). `running_seq_steps / scheduler_steps` is the *sustained*
    /// concurrency of the run.
    pub running_seq_steps: u64,
    /// Aggregate parallel-execution counters across every prefill/decode
    /// phase (see [`ParallelExecStats`]).
    pub parallel: ParallelExecStats,
    /// Simulated devices the run's decode attention was placed onto.
    pub devices: usize,
    /// Rebalance passes that moved at least one head (see [`ShardingPlan`]).
    pub rebalances: u64,
    /// (layer, head) placements changed across those passes.
    pub heads_migrated: u64,
    /// Modeled interconnect tokens head migrations charged into the work
    /// clock (priced per KV token-unit moved, like the copy engine's
    /// host-link transfers but over the faster device mesh).
    pub rebalance_migration_tokens: u64,
    /// Request-DAG counters (speculative fork/join branching): successful
    /// `fork()` calls, branches spawned, groups whose join policy resolved,
    /// and branch cancellations requested by join policies or cascade-cancel.
    pub dag: DagStats,
}

impl ServingReport {
    /// Measured mean worker utilization of the sharded attention phases, in
    /// `(0, 1]` (1.0 when no parallel phase ran).
    pub fn worker_utilization(&self) -> f64 {
        self.parallel.utilization()
    }

    /// Measured worker imbalance `>= 1` (critical path over perfect balance).
    pub fn worker_imbalance(&self) -> f64 {
        self.parallel.imbalance()
    }

    /// Mean concurrently running sequences per scheduler iteration (0 when no
    /// iteration ran) — the sustained-concurrency number the tiered memory's
    /// oversubscription win is measured by.
    pub fn mean_running(&self) -> f64 {
        if self.scheduler_steps == 0 {
            return 0.0;
        }
        self.running_seq_steps as f64 / self.scheduler_steps as f64
    }

    /// Fraction of prompt-prefill tokens served from the prefix cache, in
    /// `[0, 1]` (0 when no prompt token was processed).
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.prefix_hit_tokens + self.prefix_recomputed_tokens;
        if total == 0 {
            return 0.0;
        }
        self.prefix_hit_tokens as f64 / total as f64
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`, e.g. 0.5 / 0.95) of per-request
    /// TTFT in work tokens. Returns 0 when no request completed.
    pub fn ttft_work_percentile(&self, q: f64) -> u64 {
        let mut v: Vec<u64> = self
            .request_metrics
            .iter()
            .map(|m| m.ttft_work_tokens)
            .collect();
        v.sort_unstable();
        nearest_rank(&v, q).copied().unwrap_or(0)
    }

    /// Nearest-rank percentile of TTFT (work tokens) restricted to one
    /// [`SloClass`] — the per-class SLO view. Returns 0 when no request of
    /// that class completed.
    pub fn ttft_work_percentile_class(&self, class: SloClass, q: f64) -> u64 {
        let mut v: Vec<u64> = self
            .request_metrics
            .iter()
            .filter(|m| m.class == class)
            .map(|m| m.ttft_work_tokens)
            .collect();
        v.sort_unstable();
        nearest_rank(&v, q).copied().unwrap_or(0)
    }

    /// `(met, total)` deadline counts over completed requests that carried a
    /// deadline.
    pub fn deadlines(&self) -> (usize, usize) {
        let total = self
            .request_metrics
            .iter()
            .filter(|m| m.deadline_met.is_some())
            .count();
        let met = self
            .request_metrics
            .iter()
            .filter(|m| m.deadline_met == Some(true))
            .count();
        (met, total)
    }

    /// Fraction of this run's modeled transfer work the copy engine hid
    /// behind compute, in `[0, 1]` (1.0 when nothing migrated — no transfers
    /// means no stall). Sync migration hides nothing, so it reports 0 the
    /// moment any page moves; the async engine's overlap win is this ratio
    /// approaching 1.
    pub fn migration_overlap_ratio(&self) -> f64 {
        let total = self.hidden_transfer_tokens + self.migration_stall_tokens;
        if total == 0 {
            return 1.0;
        }
        self.hidden_transfer_tokens as f64 / total as f64
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`) of per-request mean
    /// time-between-tokens in scheduler iterations. Returns 0 when no request
    /// completed.
    pub fn tbt_percentile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self
            .request_metrics
            .iter()
            .map(RequestMetrics::mean_tbt_iters)
            .collect();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, q).copied().unwrap_or(0.0)
    }

    /// Nearest-rank percentile of per-request mean time-between-tokens
    /// restricted to one [`SloClass`] — the per-class SLO view. Returns 0
    /// when no request of that class completed.
    pub fn tbt_percentile_class(&self, class: SloClass, q: f64) -> f64 {
        let mut v: Vec<f64> = self
            .request_metrics
            .iter()
            .filter(|m| m.class == class)
            .map(RequestMetrics::mean_tbt_iters)
            .collect();
        v.sort_by(f64::total_cmp);
        nearest_rank(&v, q).copied().unwrap_or(0.0)
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn nearest_rank<T>(sorted: &[T], q: f64) -> Option<&T> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1)
}

/// Metrics bookkeeping that survives a request's whole lifetime, moved as one
/// unit between the queued and running representations (including across
/// preemption cycles).
#[derive(Debug, Clone, Copy)]
struct RequestProgress {
    submit_iter: u64,
    submit_work: u64,
    first_token_iter: Option<u64>,
    first_token_work: Option<u64>,
    last_token_iter: u64,
    preemptions: u32,
    cached_tokens: usize,
    /// Whether the request has ever entered the running batch — decides
    /// between the `Admitted` and `Resumed` events at (re-)admission.
    ever_admitted: bool,
    /// Trace-clock tick at which the request's current lifecycle phase began
    /// (queued at submit/preempt, running at admit/resume). Pure trace
    /// bookkeeping: it closes the retrospective `queued`/`running` spans and
    /// never feeds a scheduling decision.
    trace_mark: u64,
}

impl RequestProgress {
    /// Progress of a request entering the queue at scheduler iteration
    /// `submit_iter` and work clock `submit_work` (`trace_mark` is set by the
    /// transition that enqueues it).
    fn new(submit_iter: u64, submit_work: u64) -> Self {
        Self {
            submit_iter,
            submit_work,
            first_token_iter: None,
            first_token_work: None,
            last_token_iter: 0,
            preemptions: 0,
            cached_tokens: 0,
            ever_admitted: false,
            trace_mark: 0,
        }
    }
}

/// Why a request changes lifecycle phase — the input of
/// [`Scheduler::transition`], carrying what that change records.
#[derive(Debug)]
enum Cause {
    /// A valid submission enters the queue (`prompt` = resolved length).
    Submit { prompt: usize, class: SloClass },
    /// A fork branch enters the queue with its parked CoW snapshot.
    Spawn { suffix: usize },
    /// Admission promoted a parked state (swap victim or fork branch) back
    /// into the running batch, moving `units` transfer units.
    AdmitParked { units: u64 },
    /// Admission seeded a state afresh, `cached` prompt tokens of it from the
    /// prefix cache.
    AdmitFresh { cached: usize },
    /// Pool pressure sent a running request back to the queue.
    Preempt(PreemptionPolicy),
    /// Terminal: the request completed with `tokens`.
    Finish {
        reason: FinishReason,
        tokens: Vec<u32>,
    },
    /// Terminal: the request was cancelled after emitting `tokens`.
    Cancel { tokens: Vec<u32> },
    /// Terminal: the request can never be served.
    Reject(RejectReason),
}

/// The scheduling rank of a request: strict priority by class, earliest
/// virtual deadline within a class, FCFS arrival as the final tiebreak. Lower
/// orders first. With [`SchedulerConfig::class_aware`] off, class and
/// deadline collapse to zero and the key degenerates to pure arrival order
/// (class-blind FCFS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SloKey {
    class: u8,
    vdeadline: u64,
    arrival: u64,
}

/// The identity-and-policy core of a request, shared by its queued and running
/// representations.
#[derive(Debug)]
struct SeqCore {
    spec: RequestSpec,
    /// Session-resolved effective prompt (the session's conversation followed
    /// by this turn's tokens; equal to `spec.prompt` without a session).
    prompt: Vec<u32>,
    /// Monotone submission counter — the unique identity used for re-location
    /// and FCFS tiebreaks.
    arrival: u64,
    /// Scheduling rank (see [`SloKey`]).
    key: SloKey,
    /// The caller's event stream.
    handle: Arc<HandleShared>,
    /// For a fork branch: tokens already absorbed into the CoW-shared
    /// snapshot at fork time (0 for ordinary requests). Admission charges the
    /// branch's page demand *incrementally* — the shared prefix is already
    /// paid for by the parent — but only while the snapshot is parked; once a
    /// spill drops it to a replay, the demand is genuinely the full estimate.
    fork_base_tokens: usize,
}

/// A swapped-out sequence parked in the queue: its full executor state (page
/// tables pointing at cold — or still-shared hot — pages, selector history,
/// position counters) plus the feed bookkeeping needed to continue exactly
/// where preemption stopped. Only clean states are parked (nothing
/// half-written); the unclean OOM fallbacks always take the replay path.
#[derive(Debug)]
struct SwappedSeq {
    state: SequenceState,
    /// Feed tokens (prompt + resume_feed) consumed before the swap.
    fed: usize,
    /// The resume-feed snapshot `fed` indexes into (frozen at swap time so
    /// `feed_token` stays stable even though `generated` kept the full list).
    resume_feed: Vec<u32>,
    /// Most recently emitted token, not yet consumed by a decode step.
    last_token: Option<u32>,
}

/// A request waiting for (re-)admission; carries generation progress across
/// preemptions.
#[derive(Debug)]
struct QueuedSeq {
    core: SeqCore,
    /// Tokens already generated (and emitted) before a preemption.
    generated: Vec<u32>,
    progress: RequestProgress,
    /// Present when the sequence was swapped out instead of released: admission
    /// promotes its cold pages back and resumes without any re-feeding.
    swap: Option<SwappedSeq>,
}

/// A running sequence: executor state plus feed/generation progress.
#[derive(Debug)]
struct SchedSeq {
    core: SeqCore,
    state: SequenceState,
    /// Tokens generated before the last preemption; re-fed after the prompt on
    /// resume so the cache is reconstructed exactly.
    resume_feed: Vec<u32>,
    /// Feed tokens (prompt + resume_feed) consumed so far.
    fed: usize,
    /// All tokens emitted for this request (including pre-preemption ones).
    generated: Vec<u32>,
    /// Most recently emitted token, not yet consumed by a decode step.
    last_token: Option<u32>,
    progress: RequestProgress,
}

impl SchedSeq {
    fn feed_len(&self) -> usize {
        self.core.prompt.len() + self.resume_feed.len()
    }

    fn feed_token(&self, i: usize) -> u32 {
        if i < self.core.prompt.len() {
            self.core.prompt[i]
        } else {
            self.resume_feed[i - self.core.prompt.len()]
        }
    }
}

/// Where a known request id currently lives — the O(1) backing of
/// [`Scheduler::status`] and the phase every [`Scheduler::transition`]
/// leaves (indices point into the report's `completed` / `cancelled`
/// vectors, which only ever grow).
#[derive(Debug, Clone, Copy)]
enum Phase {
    Queued,
    Running,
    Finished(usize),
    Cancelled(usize),
    Rejected,
}

/// Continuous-batching scheduler over one shared page pool.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use lserve_core::{
///     EngineConfig, ModelExecutor, RequestSpec, Scheduler, SchedulerConfig, ServingEvent,
///     SloClass,
/// };
/// use lserve_model::{ModelConfig, ModelWeights};
///
/// let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 3));
/// let exec = Arc::new(ModelExecutor::new(weights, EngineConfig::lserve_fp16()));
/// let mut scfg = SchedulerConfig::new(2048);
/// scfg.chunk_tokens = 4; // prompts longer than 4 tokens prefill across iterations
/// let mut sched = Scheduler::new(exec, scfg);
/// let handle = sched.submit(
///     RequestSpec::new(1, (0..16).collect())
///         .max_new_tokens(4)
///         .class(SloClass::Interactive),
/// );
/// while !handle.is_terminal() {
///     sched.step();
/// }
/// let events = handle.drain_events();
/// assert_eq!(events.first(), Some(&ServingEvent::Admitted));
/// assert!(matches!(events.last(), Some(ServingEvent::Finished { tokens, .. }) if tokens.len() == 4));
/// ```
#[derive(Debug)]
pub struct Scheduler {
    exec: Arc<ModelExecutor>,
    scfg: SchedulerConfig,
    pool: PagePool,
    queue: VecDeque<QueuedSeq>,
    running: Vec<SchedSeq>,
    report: ServingReport,
    next_arrival: u64,
    /// Monotone clock: tokens pushed through the forward pass across all
    /// sequences (tile prefill, prompt-continuation feed, and decode), plus
    /// the modeled transfer work of swap-resume promotions.
    work_tokens: u64,
    /// Accumulated swap-resume promotion cost in token-equivalents, summed
    /// per resume event — exactly the amounts charged to `work_tokens`, so
    /// the report field can never drift from the clock.
    swap_resume_work: u64,
    /// Cross-request KV prefix cache (unused unless `scfg.prefix_cache`).
    prefix: PrefixCache<CachedPrefix>,
    /// id → lifecycle phase, the O(1) index behind [`Scheduler::status`] and
    /// the duplicate-id check.
    index: HashMap<u64, Phase>,
    /// session id → recorded conversation (effective prompt + output of the
    /// session's last *completed* turn; in-flight turns are invisible here —
    /// the sequential-turns contract of [`RequestSpec::session`]).
    sessions: HashMap<u64, Vec<u32>>,
    /// Multi-device placement state: per-layer head → device assignments plus
    /// the load history the periodic rebalancer acts on. Persistent across
    /// steps by design — placement must be sticky for head migration to mean
    /// anything.
    plan: ShardingPlan,
    /// The request-DAG branch graph: fork groups, join policies, and
    /// parent→child edges for cascade-cancel.
    dag: DagStore,
}

impl Scheduler {
    /// Creates a scheduler over `exec` with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `scfg` is inconsistent (see [`SchedulerConfig::validate`]).
    pub fn new(exec: Arc<ModelExecutor>, scfg: SchedulerConfig) -> Self {
        scfg.validate();
        let mut pool = PagePool::new_with_tiers(
            exec.config().paging,
            scfg.pool_pages,
            exec.weights().config.head_dim,
            scfg.migration,
            TierConfig {
                host_pages: scfg.host_pages,
                nvme: scfg.nvme,
            },
        );
        // One shared handle: the pool emission sites (copy engine, prefetch)
        // and the executor (which reaches the tracer through the pool) record
        // into the same ring as the scheduler's lifecycle events.
        pool.set_tracer(scfg.tracer.clone());
        let report = ServingReport {
            decode_threads: scfg.decode_threads,
            preemption: scfg.preemption,
            migration: scfg.migration,
            devices: scfg.devices,
            host_pages: scfg.host_pages,
            nvme: scfg.nvme,
            ..ServingReport::default()
        };
        let model = &exec.weights().config;
        let mut plan = ShardingPlan::new(
            Topology::symmetric(scfg.devices, DEFAULT_GATHER_COST_TOKENS),
            scfg.placement,
            model.num_layers,
            model.num_kv_heads,
        );
        plan.rebalance_interval = scfg.rebalance_interval;
        plan.rebalance_threshold = scfg.rebalance_threshold;
        Self {
            exec,
            scfg,
            pool,
            queue: VecDeque::new(),
            running: Vec::new(),
            report,
            next_arrival: 0,
            work_tokens: 0,
            swap_resume_work: 0,
            prefix: PrefixCache::new(),
            index: HashMap::new(),
            sessions: HashMap::new(),
            plan,
            dag: DagStore::new(),
        }
    }

    /// The shared executor.
    pub fn executor(&self) -> &Arc<ModelExecutor> {
        &self.exec
    }

    /// The scheduling policy.
    pub fn config(&self) -> &SchedulerConfig {
        &self.scfg
    }

    /// The scheduling rank of a spec at the current work clock: strict
    /// priority by class, EDF within a class over `submit work + deadline`
    /// (no-deadline requests age in after `no_deadline_slack`), FCFS arrival
    /// as the tiebreak. With `class_aware` off everything collapses to
    /// arrival order.
    fn slo_key(&self, spec: &RequestSpec, arrival: u64) -> SloKey {
        if !self.scfg.class_aware {
            return SloKey {
                class: 0,
                vdeadline: 0,
                arrival,
            };
        }
        let slack = spec
            .deadline_work_tokens
            .unwrap_or(self.scfg.no_deadline_slack);
        SloKey {
            class: spec.class.rank(),
            vdeadline: self.work_tokens.saturating_add(slack),
            arrival,
        }
    }

    /// Submits a request and returns its lifecycle handle. The queue is
    /// ordered by scheduling rank (class, then virtual deadline, then
    /// arrival), so an interactive or tight-deadline request enters ahead of
    /// queued batch traffic. A spec whose id the scheduler already knows is
    /// rejected immediately with [`RejectReason::DuplicateId`] (the earlier
    /// request is untouched).
    pub fn submit(&mut self, spec: RequestSpec) -> RequestHandle {
        let handle = HandleShared::new(spec.id);
        if self.index.contains_key(&spec.id) {
            // Deliberately not a `transition`: the duplicate never owns an
            // index slot, and its trace lane (the id) belongs to the original
            // request, so only the handle event and the reasons vector apply.
            handle.push(ServingEvent::Rejected {
                reason: RejectReason::DuplicateId,
            });
            self.report
                .rejections
                .push((spec.id, RejectReason::DuplicateId));
            return RequestHandle { shared: handle };
        }
        let prompt = match spec.session.and_then(|sid| self.sessions.get(&sid)) {
            Some(history) => {
                let mut p = history.clone();
                p.extend_from_slice(&spec.prompt);
                p
            }
            None => spec.prompt.clone(),
        };
        let mut progress = RequestProgress::new(self.report.scheduler_steps, self.work_tokens);
        // Degenerate specs are rejected here, before they consume an arrival
        // slot — an empty (resolved) prompt has nothing to prefill, a zero
        // decode budget has nothing to generate, and a streaming-window
        // override past position 0 can never be honoured (the ring is built
        // at sequence creation).
        if prompt.is_empty() || spec.max_new_tokens == 0 || spec.sparsity.has_late_window_override()
        {
            let cause = Cause::Reject(RejectReason::Invalid);
            self.transition(spec.id, &handle, &mut progress, cause);
            return RequestHandle { shared: handle };
        }
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        let key = self.slo_key(&spec, arrival);
        let cause = Cause::Submit {
            prompt: prompt.len(),
            class: spec.class,
        };
        self.transition(spec.id, &handle, &mut progress, cause);
        self.enqueue(QueuedSeq {
            core: SeqCore {
                spec,
                prompt,
                arrival,
                key,
                handle: Arc::clone(&handle),
                fork_base_tokens: 0,
            },
            generated: Vec::new(),
            swap: None,
            progress,
        });
        RequestHandle { shared: handle }
    }

    /// Forks a *running* sequence into speculative branches that CoW-share
    /// every page up to the fork point.
    ///
    /// Each branch gets a [`SequenceState::clone_shared`] snapshot of the
    /// parent — page tables, streaming rings, selector history, position
    /// counters — with one extra reference taken on every page and **zero
    /// pages copied** (copy-on-write happens lazily when either side appends
    /// into a shared page). The branch's effective prompt is the parent's
    /// full token history at the fork point (`prompt ++ generated`) followed
    /// by the branch suffix; the snapshot enters the queue parked like a
    /// swap victim, so admission promotes it at its *incremental* cost (zero
    /// for a fully-hot snapshot) and its first event is `Admitted`.
    ///
    /// Branches race under [`SloClass::BestEffort`]. When the group's
    /// [`JoinPolicy`] resolves, losers are cancelled with prefix donation so
    /// the winner's shared pages stay warm; track resolution with
    /// [`Scheduler::join_status`]. A branch's [`BranchSpec::sparsity`]
    /// override applies from the fork point onward, so a surviving branch is
    /// bit-identical to a solo run of its full history with the same
    /// override scheduled at the same position
    /// ([`RequestSpec::sparsity_from`]).
    ///
    /// # Errors
    ///
    /// [`ForkError::ParentNotRunning`] unless `parent` is currently in the
    /// running batch (fork is a live-sequence operation; queued or terminal
    /// parents have no snapshot to share), [`ForkError::NoBranches`] for an
    /// empty branch list, [`ForkError::DuplicateId`] for a branch id the
    /// scheduler already knows (or repeated within the call), and
    /// [`ForkError::InvalidBranch`] for a zero decode budget or a
    /// streaming-window override (children inherit the parent's rings —
    /// windows are admission-time-only).
    pub fn fork(
        &mut self,
        parent: u64,
        policy: JoinPolicy,
        branches: &[BranchSpec],
    ) -> Result<ForkOutcome, ForkError> {
        if branches.is_empty() {
            return Err(ForkError::NoBranches);
        }
        let Some(pi) = self.running.iter().position(|s| s.core.spec.id == parent) else {
            return Err(ForkError::ParentNotRunning(parent));
        };
        for (bi, b) in branches.iter().enumerate() {
            if self.index.contains_key(&b.id) || branches[..bi].iter().any(|o| o.id == b.id) {
                return Err(ForkError::DuplicateId(b.id));
            }
            if b.max_new_tokens == 0 || b.sparsity.streaming_window.is_some() {
                return Err(ForkError::InvalidBranch(b.id));
            }
        }
        let (full, absorbed, parent_schedule) = {
            let p = &self.running[pi];
            let mut full = p.core.prompt.clone();
            full.extend_from_slice(&p.generated);
            (
                full,
                p.state.context_len(),
                p.state.sparsity_schedule().clone(),
            )
        };
        debug_assert!(absorbed <= full.len(), "snapshot never ahead of history");
        self.scfg.tracer.instant(
            "fork",
            "dag",
            lane::DAG,
            parent,
            &[("branches", branches.len() as u64), ("at", absorbed as u64)],
        );
        let members: Vec<(u64, i64)> = branches.iter().map(|b| (b.id, b.score_bias)).collect();
        let group = self.dag.fork(parent, policy, &members);
        let mut handles = Vec::with_capacity(branches.len());
        for b in branches {
            // The CoW snapshot: clone the parent's tables/rings/selectors and
            // take one extra reference per page — refcounts rise, `in_use`
            // does not (pinned by the pool-accounting test).
            let mut snapshot = self.running[pi].state.clone_shared();
            snapshot.retain_pages(&mut self.pool);
            // The branch replays the parent's budget timeline and adds its
            // own override from the fork point (= the parent's full history
            // length, so the parent's still-pending token is fed under the
            // budget the parent itself would have used).
            let mut schedule = parent_schedule.clone();
            schedule.push(full.len(), b.sparsity);
            snapshot.set_sparsity_schedule(schedule.clone());
            let mut prompt = full.clone();
            prompt.extend_from_slice(&b.suffix);
            let mut spec = RequestSpec::new(b.id, prompt.clone())
                .max_new_tokens(b.max_new_tokens)
                .class(SloClass::BestEffort);
            for &t in &b.stop_tokens {
                spec = spec.stop_token(t);
            }
            spec.sparsity = schedule;
            let handle = HandleShared::new(b.id);
            let arrival = self.next_arrival;
            self.next_arrival += 1;
            let key = self.slo_key(&spec, arrival);
            let mut progress = RequestProgress::new(self.report.scheduler_steps, self.work_tokens);
            let cause = Cause::Spawn {
                suffix: b.suffix.len(),
            };
            self.transition(b.id, &handle, &mut progress, cause);
            self.enqueue(QueuedSeq {
                core: SeqCore {
                    spec,
                    prompt,
                    arrival,
                    key,
                    handle: Arc::clone(&handle),
                    fork_base_tokens: absorbed,
                },
                generated: Vec::new(),
                swap: Some(SwappedSeq {
                    state: snapshot,
                    fed: absorbed,
                    resume_feed: Vec::new(),
                    last_token: None,
                }),
                progress,
            });
            handles.push(RequestHandle { shared: handle });
        }
        Ok(ForkOutcome { group, handles })
    }

    /// Resolution state of fork group `group` (the id in [`ForkOutcome`]):
    /// whether the join policy has fired, and the winning branch id if any
    /// branch finished.
    pub fn join_status(&self, group: u64) -> Option<JoinStatus> {
        self.dag.join_status(group)
    }

    /// The monotone work clock: tokens pushed through the forward pass across
    /// all sequences plus modeled swap-resume transfer work — the denominator
    /// of every work-normalized metric, exposed for cost comparisons (e.g.
    /// speculative fork-out vs. solo runs).
    pub fn work_tokens(&self) -> u64 {
        self.work_tokens
    }

    /// Requests waiting for admission (fresh or preempted).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently prefilling or decoding.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Hot (device) pages currently in use in the shared pool.
    pub fn pool_in_use(&self) -> usize {
        self.pool.in_use()
    }

    /// Cold (host) pages currently in use in the shared pool — swapped-out
    /// victims and selection-demoted stale context.
    pub fn pool_cold_in_use(&self) -> usize {
        self.pool.cold_in_use()
    }

    /// Nvme-tier pages currently in use in the shared pool (always 0 without
    /// the modeled nvme tier).
    pub fn pool_nvme_in_use(&self) -> usize {
        self.pool.nvme_in_use()
    }

    /// The live (unsorted) report accumulated so far.
    pub fn report_snapshot(&self) -> &ServingReport {
        &self.report
    }

    /// Prefixes currently cached in the radix tree.
    pub fn prefix_cache_entries(&self) -> usize {
        self.prefix.entries()
    }

    /// Page references the prefix cache currently holds (shared pages counted
    /// once per referencing entry; the physical footprint is bounded by
    /// `pool_in_use`).
    pub fn prefix_cached_page_refs(&self) -> usize {
        self.prefix.page_refs()
    }

    /// Lifetime hit/miss/eviction counters of the prefix cache.
    pub fn prefix_cache_stats(&self) -> PrefixCacheStats {
        self.prefix.stats()
    }

    /// Evicts every cached prefix, returning its pages to the pool (pages shared
    /// with running sequences survive until those release them). After a run has
    /// drained, `pool_in_use` returns to zero once this is called.
    pub fn flush_prefix_cache(&mut self) {
        self.prefix.clear(&mut self.pool);
    }

    /// Lifecycle state of request `id`, or `None` for an unknown id — an O(1)
    /// index lookup. A preempted request reports [`RequestStatus::Queued`]
    /// until it is re-admitted. Duplicate submissions never enter the index
    /// (they are rejected at submit time), so every id maps to exactly one
    /// lifecycle.
    pub fn status(&self, id: u64) -> Option<RequestStatus> {
        Some(match *self.index.get(&id)? {
            Phase::Queued => RequestStatus::Queued,
            Phase::Running => RequestStatus::Running,
            Phase::Finished(i) => RequestStatus::Finished(self.report.completed[i].1.clone()),
            Phase::Cancelled(i) => RequestStatus::Cancelled(self.report.cancelled[i].1.clone()),
            Phase::Rejected => RequestStatus::Rejected,
        })
    }

    /// Pages needed to hold `tokens` tokens under a request's own sparsity schedule
    /// (see [`sequence_pages_estimate_sparsity`]); identical to the base
    /// estimate for requests without overrides.
    fn pages_estimate_spec(&self, spec: &RequestSpec, tokens: usize) -> usize {
        sequence_pages_estimate_sparsity(
            self.exec.config(),
            &self.exec.weights().config,
            tokens,
            &spec.sparsity,
        )
    }

    /// Admission headroom in *total* pages across the bounded tiers. With a
    /// bounded host and no nvme below it, every page an admission creates
    /// must eventually fit somewhere in hot + host — once both are full,
    /// demotion refuses and swap victims degrade to drop-and-replay, so
    /// reserving against free hot slots alone over-admits into thrash.
    /// An unbounded host or an nvme backstop lifts the constraint
    /// (`usize::MAX`): the hierarchy always has a tier to absorb demotions.
    fn tier_free_total(&self) -> usize {
        let tiers = self.pool.tier_config();
        if tiers.host_pages == 0 || tiers.nvme {
            return usize::MAX;
        }
        (self.pool.capacity() + tiers.host_pages).saturating_sub(self.pool.total_in_use())
    }

    /// True when admitting `need` pages of new demand would overdraw either
    /// the free hot slots (the demotion-aware estimate) or the bounded
    /// hierarchy's total headroom ([`Scheduler::tier_free_total`]). Callers
    /// size `need` with the per-spec estimate so sparsity overrides are
    /// charged at their own footprint.
    fn admission_blocked(&self, need: usize) -> bool {
        need > self.pool.free_pages() || need > self.tier_free_total()
    }

    /// One scheduler iteration: apply pending cancellations, admit, feed
    /// prompt chunks, reserve decode pages (preempting on pressure), then
    /// advance every ready sequence by one decode step (continuous batching).
    pub fn step(&mut self) {
        self.report.scheduler_steps += 1;
        let now = self.report.scheduler_steps;
        let step_start = self.scfg.tracer.now();
        self.apply_cancellations();
        self.admit();
        self.report.peak_running = self.report.peak_running.max(self.running.len());
        self.report.running_seq_steps += self.running.len() as u64;
        self.prefill_phase(now);
        self.decode_phase(now);
        self.rebalance_phase();
        if self.scfg.tracer.is_enabled() {
            let tracer = self.scfg.tracer.clone();
            tracer.span(
                "step",
                "scheduler",
                lane::SCHEDULER,
                lserve_trace::CONTROL_TID,
                step_start,
                &[("iter", now)],
            );
            // Counter tracks: pool residency and batch occupancy, sampled at
            // every step boundary — Perfetto renders these as area charts
            // above the lanes.
            tracer.counter(
                "pages",
                lane::SCHEDULER,
                &[
                    ("hot", self.pool.in_use() as u64),
                    ("cold", self.pool.cold_in_use() as u64),
                    ("nvme", self.pool.nvme_in_use() as u64),
                ],
            );
            tracer.counter(
                "sequences",
                lane::SCHEDULER,
                &[
                    ("running", self.running.len() as u64),
                    ("queued", self.queue.len() as u64),
                ],
            );
        }
        self.report.peak_pages = self.report.peak_pages.max(self.pool.peak_in_use());
        self.report.peak_cold_pages = self.report.peak_cold_pages.max(self.pool.cold_in_use());
        self.report.peak_nvme_pages = self.report.peak_nvme_pages.max(self.pool.nvme_in_use());
        // Tier-migration counters come straight from the pool's lifetime
        // ledger (selection-driven moves in the executor and swap moves here
        // both land in it); swap-resume work is scheduler-side only.
        let tier = self.pool.tier_stats();
        self.report.pages_demoted = tier.pages_demoted;
        self.report.pages_promoted = tier.pages_promoted;
        self.report.pages_spilled = tier.pages_spilled;
        self.report.pages_recalled = tier.pages_recalled;
        self.report.swap_resume_work_tokens = self.swap_resume_work;
        // Copy-engine ledger: prefetch outcomes and the hidden/unhidden split
        // of every transfer, straight from the pool so the report can never
        // drift from `PagePool::migration_stats`.
        let mig = self.pool.migration_stats();
        self.report.prefetch_issued = mig.prefetch_issued;
        self.report.prefetch_hits = mig.prefetch_hits;
        self.report.prefetch_wasted = mig.prefetch_wasted;
        self.report.hidden_transfer_tokens = mig.hidden_transfer_tokens();
        self.report.migration_stall_tokens = mig.migration_stall_tokens();
        // Hit/insert counters come from the cache's own ledger so the report can
        // never drift from `prefix_cache_stats()` (evictions stay scheduler-side:
        // the report counts pressure evictions only, not flushes).
        let stats = self.prefix.stats();
        self.report.prefix_hit_tokens = stats.hit_tokens;
        self.report.prefix_insertions = stats.insertions;
        self.report.rebalances = self.plan.stats.rebalances;
        self.report.heads_migrated = self.plan.stats.heads_migrated;
        self.report.rebalance_migration_tokens = self.plan.stats.migration_cost_tokens;
        // DAG ledger: fork/join/cancel counters live in the branch graph.
        self.report.dag = self.dag.stats();
    }

    /// Checks the multi-device placement for staleness and, when the
    /// rebalancer fires, charges the head migration's interconnect cost into
    /// the work clock (the copy engine's token-unit price over the mesh
    /// link) and traces it on the copy lane. A single-device plan only ticks
    /// its step clock.
    fn rebalance_phase(&mut self) {
        let running = &self.running;
        let pool = &self.pool;
        let outcome = self.plan.maybe_rebalance(|l, kv| {
            running
                .iter()
                .map(|s| s.state.kv_head_resident_tokens(pool, l, kv))
                .sum()
        });
        if let Some(o) = outcome {
            self.work_tokens += o.cost_tokens;
            if self.scfg.tracer.is_enabled() {
                let tracer = self.scfg.tracer.clone();
                let start = tracer.now();
                tracer.advance(o.cost_tokens);
                tracer.span(
                    "rebalance.migrate",
                    "copy",
                    lane::COPY,
                    1,
                    start,
                    &[
                        ("heads", o.heads_migrated),
                        ("token_units", o.token_units),
                        ("cost", o.cost_tokens),
                    ],
                );
            }
        }
    }

    /// Runs until every request completes or `max_steps` scheduler iterations
    /// pass. Returns the report (sorted by request id).
    pub fn run_to_completion(&mut self, max_steps: u64) -> ServingReport {
        let mut steps = 0;
        while (!self.queue.is_empty() || !self.running.is_empty()) && steps < max_steps {
            self.step();
            steps += 1;
        }
        let mut report = self.report.clone();
        report.completed.sort_by_key(|(id, _)| *id);
        report.rejected.sort_unstable();
        report.rejections.sort_by_key(|(id, _)| *id);
        report.cancelled.sort_by_key(|(id, _)| *id);
        report.request_metrics.sort_by_key(|m| m.id);
        report
    }

    /// Acts on every pending [`RequestHandle::cancel`] at the step boundary:
    /// running victims donate their completed prefix to the cache (when
    /// enabled) and release their pages; queued victims release any swapped
    /// state. Each gets its terminal [`ServingEvent::Cancelled`] carrying the
    /// output produced so far.
    fn apply_cancellations(&mut self) {
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].core.handle.cancel_requested() {
                let seq = self.running.remove(i);
                self.cancel(seq.core, seq.progress, seq.generated, Some(seq.state));
            } else {
                i += 1;
            }
        }
        let mut j = 0;
        while j < self.queue.len() {
            if self.queue[j].core.handle.cancel_requested() {
                let q = self.queue.remove(j).expect("index in bounds");
                self.cancel(q.core, q.progress, q.generated, q.swap.map(|s| s.state));
            } else {
                j += 1;
            }
        }
    }

    /// Cancels a request that left the running batch or the queue, holding
    /// `state` when it still has pages (a running sequence or a parked swap
    /// victim), and cascades the cancellation to its speculative subtree.
    fn cancel(
        &mut self,
        core: SeqCore,
        mut progress: RequestProgress,
        generated: Vec<u32>,
        state: Option<SequenceState>,
    ) {
        if let Some(mut state) = state {
            // Loser branches land here when a join policy cancels them: the
            // donation keeps the fork prefix (and the shared pages under it)
            // warm for the winner and for future forks. A parked state is
            // clean, so its completed prefix is donatable like any other; its
            // pages may sit in the cold tier, which the prefix contract
            // supports (a later consumer's residency pass promotes on first
            // use). Overridden sequences never donate — their selector
            // history is budget-dependent.
            if core.spec.sparsity.is_empty() {
                self.donate_tokens(&core.prompt, &generated, &state);
            }
            state.release(&mut self.pool);
        }
        let id = core.spec.id;
        let cause = Cause::Cancel { tokens: generated };
        self.transition(id, &core.handle, &mut progress, cause);
        // Cascade-cancel: cancelling a request takes its whole speculative
        // subtree with it (the descendants' results can never be consumed).
        for child in self.dag.on_cancelled(id) {
            self.flag_branch_cancel(child);
        }
    }

    /// The one lifecycle transition point: moves request `id` from its
    /// current [`Phase`] in the index (none for a request not yet known) to
    /// the phase `cause` leads to, and is the only code that records it —
    /// it closes the retrospective `queued`/`running` span of the phase
    /// being left, emits the cause's trace instant, pushes the handle's
    /// state-change event, writes the index, and appends the report ledgers.
    /// Trace, handle events, status and report therefore cannot disagree
    /// about a request's lifecycle. Token events are not state changes and
    /// stay in [`Scheduler::emit_token`].
    fn transition(
        &mut self,
        id: u64,
        handle: &HandleShared,
        progress: &mut RequestProgress,
        cause: Cause,
    ) {
        let tracer = &self.scfg.tracer;
        let left = match self.index.get(&id) {
            None => None,
            Some(Phase::Queued) => Some("queued"),
            Some(Phase::Running) => Some("running"),
            Some(terminal) => unreachable!("request {id} transitions out of {terminal:?}"),
        };
        if let Some(span) = left {
            let args: &[_] = match cause {
                Cause::AdmitParked { .. } => &[("swapped", 1)],
                _ => &[],
            };
            tracer.span(
                span,
                "scheduler",
                lane::SCHEDULER,
                id,
                progress.trace_mark,
                args,
            );
        }
        let instant = |name: &'static str, args: &[(&'static str, u64)]| {
            tracer.instant(name, "scheduler", lane::SCHEDULER, id, args);
        };
        let admit = |progress: &mut RequestProgress, arg: (&'static str, u64)| {
            // A fork branch enters through the parked path too, but it was
            // never admitted before — its first event is `Admitted`.
            let (name, event) = if progress.ever_admitted {
                ("resume", ServingEvent::Resumed)
            } else {
                ("admit", ServingEvent::Admitted)
            };
            instant(name, &[arg]);
            progress.ever_admitted = true;
            (Phase::Running, Some(event))
        };
        let (phase, event) = match cause {
            Cause::Submit { prompt, class } => {
                let args = [
                    ("prompt", prompt as u64),
                    ("class", u64::from(class.rank())),
                ];
                instant("submit", &args);
                (Phase::Queued, None)
            }
            Cause::Spawn { suffix } => {
                let args = [("suffix", suffix as u64)];
                tracer.instant("branch.spawn", "dag", lane::DAG, id, &args);
                (Phase::Queued, None)
            }
            Cause::AdmitParked { units } => admit(progress, ("units", units)),
            Cause::AdmitFresh { cached } => admit(progress, ("cached", cached as u64)),
            Cause::Preempt(policy) => {
                let swap = u64::from(policy == PreemptionPolicy::Swap);
                instant("preempt", &[("swap", swap)]);
                progress.preemptions += 1;
                self.report.preemptions += 1;
                (Phase::Queued, Some(ServingEvent::Preempted { policy }))
            }
            Cause::Finish { reason, tokens } => {
                instant("finish", &[("tokens", tokens.len() as u64)]);
                let phase = Phase::Finished(self.report.completed.len());
                self.report.completed.push((id, tokens.clone()));
                (phase, Some(ServingEvent::Finished { reason, tokens }))
            }
            Cause::Cancel { tokens } => {
                instant("cancel", &[("tokens", tokens.len() as u64)]);
                let phase = Phase::Cancelled(self.report.cancelled.len());
                self.report.cancelled.push((id, tokens.clone()));
                (phase, Some(ServingEvent::Cancelled { tokens }))
            }
            Cause::Reject(reason) => {
                instant("reject", &[]);
                self.report.rejected.push(id);
                self.report.rejections.push((id, reason));
                (Phase::Rejected, Some(ServingEvent::Rejected { reason }))
            }
        };
        if let Some(event) = event {
            handle.push(event);
        }
        self.index.insert(id, phase);
        progress.trace_mark = tracer.now();
    }

    /// Sets the cooperative cancel flag on a live request on behalf of the
    /// DAG (join-policy losers and cascade-cancel victims); the cancellation
    /// lands at the next `apply_cancellations` boundary, with prefix donation
    /// like any user cancellation. No-op for ids that are already terminal.
    fn flag_branch_cancel(&mut self, id: u64) {
        let handle = self
            .running
            .iter()
            .find(|s| s.core.spec.id == id)
            .map(|s| &s.core.handle)
            .or_else(|| {
                self.queue
                    .iter()
                    .find(|q| q.core.spec.id == id)
                    .map(|q| &q.core.handle)
            });
        if let Some(h) = handle {
            h.cancel.store(true, Ordering::Release);
            self.scfg
                .tracer
                .instant("branch.cancel", "dag", lane::DAG, id, &[]);
        }
    }

    /// Rank-ordered admission from the queue head, seeding from the prefix
    /// cache when a prompt matches a cached prefix. The queue is kept sorted
    /// by [`SloKey`], so the head is always the most entitled request
    /// (interactive before batch before best-effort; EDF within a class);
    /// admission never skips the head, which preserves within-class FCFS
    /// fairness under pressure.
    fn admit(&mut self) {
        while self.running.len() < self.scfg.max_batch {
            let Some(front) = self.queue.front() else {
                break;
            };
            let full_tokens = front.core.prompt.len() + front.core.spec.max_new_tokens;
            // Capacity check, per-spec (a sparsity override changes the
            // footprint) and *incremental* for a fork branch whose CoW
            // snapshot is still parked: the pages up to the fork point are
            // already paid for by the parent, so only the branch's growth
            // beyond them is new demand. A spilled branch lost its snapshot
            // and replays from scratch — full demand again.
            let full_est = self.pages_estimate_spec(&front.core.spec, full_tokens);
            let base_est = if front.swap.is_some() && front.core.fork_base_tokens > 0 {
                self.pages_estimate_spec(&front.core.spec, front.core.fork_base_tokens)
            } else {
                0
            };
            if full_est.saturating_sub(base_est) > self.pool.capacity() {
                let mut q = self.queue.pop_front().expect("front checked");
                let cause = Cause::Reject(RejectReason::TooLarge);
                self.transition(q.core.spec.id, &q.core.handle, &mut q.progress, cause);
                continue;
            }
            // A swapped-out victim resumes by promotion, not by re-feeding:
            // its exact hot demand is its cold page count plus its own
            // demotions still in flight on the copy engine (forcing one frees
            // a slot but lands a new cold page — net-zero supply). Evict idle
            // cached prefixes first, exactly like fresh admission does.
            if let Some(parked) = &front.swap {
                let need = parked.state.swap_in_demand(&self.pool);
                while need > self.pool.free_pages() {
                    if !self.evict_prefix_one() {
                        break;
                    }
                }
                if need > self.pool.free_pages() {
                    // With nothing running, no future completion will free hot
                    // pages — spill the swap-parked states (including this
                    // one) back to replay so admission can always make
                    // progress, then retry.
                    if self.running.is_empty() && self.spill_swapped_queue() {
                        continue;
                    }
                    break; // wait for hot pages to free up
                }
                let mut q = self.queue.pop_front().expect("front checked");
                let swap = q.swap.expect("checked above");
                let (_, units) = swap
                    .state
                    .promote_resident(&mut self.pool)
                    .expect("swap-in demand reserved above");
                // Under sync migration the promotion is accounted work on the
                // run's monotone clock: TTFT/TBT honestly pay for the
                // transfer. The async engine instead queues it on the copy
                // engine, where it drains behind the very compute that
                // resumes the sequence — only remainders a decode step
                // demand-forces surface, in the pool's migration ledger.
                if self.scfg.migration == MigrationMode::Sync {
                    let cost = lserve_kvcache::transfer_cost_tokens(units);
                    self.swap_resume_work += cost;
                    self.work_tokens += cost;
                    // The stall is real work on the request's critical path,
                    // so it advances the trace clock too — the resume instant
                    // lands *after* the promotion it paid for.
                    self.scfg.tracer.advance(cost);
                }
                let cause = Cause::AdmitParked { units };
                self.transition(q.core.spec.id, &q.core.handle, &mut q.progress, cause);
                self.running.push(SchedSeq {
                    core: q.core,
                    state: swap.state,
                    resume_feed: swap.resume_feed,
                    fed: swap.fed,
                    generated: q.generated,
                    last_token: swap.last_token,
                    progress: q.progress,
                });
                continue;
            }
            let feed_len = front.core.prompt.len() + front.generated.len();
            // Sparsity-overridden requests are excluded from prefix sharing in
            // both directions: the selector history inside a cached snapshot
            // is budget-dependent, so pages cached under the base budget would
            // poison an overridden consumer's replay (and vice versa).
            let has_overrides = !front.core.spec.sparsity.is_empty();
            // A cached match makes the request cheaper to admit and must survive
            // the eviction loop below, so LRU-protect it before evicting and size
            // the first-chunk estimate by the uncached remainder.
            let matched = if self.scfg.prefix_cache && !has_overrides {
                let min_match = self.scfg.chunk_tokens;
                let max_match = front.core.prompt.len().saturating_sub(1);
                if max_match >= min_match {
                    self.prefix
                        .touch(&front.core.prompt, min_match, max_match)
                        .unwrap_or(0)
                } else {
                    0
                }
            } else {
                0
            };
            let admit_tokens = match self.scfg.admission {
                AdmissionPolicy::FullFootprint => full_tokens,
                AdmissionPolicy::FirstChunk => self.scfg.chunk_tokens.min(feed_len - matched),
            };
            let need = self.pages_estimate_spec(&front.core.spec, admit_tokens);
            while self.admission_blocked(need) {
                if !self.evict_prefix_one() {
                    break;
                }
            }
            if self.admission_blocked(need) {
                // Swap-parked states can pin shared prefix pages the eviction
                // loop cannot free; with nothing running, spilling them back
                // to replay is the only way admission can make progress.
                if self.running.is_empty() && self.spill_swapped_queue() {
                    continue;
                }
                break; // wait for running sequences to finish or be preempted
            }
            let mut q = self.queue.pop_front().expect("front checked");
            let (cached, mut state) = self.seeded_state(&q.core.prompt, &q.core.spec.sparsity);
            state.set_sparsity_schedule(q.core.spec.sparsity.clone());
            let id = q.core.spec.id;
            self.transition(
                id,
                &q.core.handle,
                &mut q.progress,
                Cause::AdmitFresh { cached },
            );
            if cached > 0 {
                self.scfg.tracer.instant(
                    "prefix.hit",
                    "prefix",
                    lane::SCHEDULER,
                    id,
                    &[("tokens", cached as u64)],
                );
            }
            q.progress.cached_tokens = q.progress.cached_tokens.max(cached);
            self.running.push(SchedSeq {
                generated: q.generated.clone(),
                resume_feed: q.generated,
                core: q.core,
                state,
                fed: cached,
                last_token: None,
                progress: q.progress,
            });
        }
        // Resumed sequences have old (small) ranks; keep the running list in
        // rank order so the prefill phase serves the most entitled sequences
        // first and victim reasoning stays simple.
        self.running.sort_by_key(|s| s.core.key);
    }

    /// Looks `prompt` up in the prefix cache and seeds a sequence from the
    /// deepest usable match, or creates a fresh sequence on a miss. Matches are
    /// bounded below by the prefill tile grid (the suffix must run entirely on
    /// the position-stable decode path) and above by `prompt_len - 1` (at least
    /// one token must be computed to produce first-token logits).
    fn seeded_state(
        &mut self,
        prompt: &[u32],
        sparsity: &SparsitySchedule,
    ) -> (usize, SequenceState) {
        if !sparsity.is_empty() {
            // Overridden requests never consume the cache (budget-dependent
            // selector history, see `admit`); a position-0 window override is
            // honoured here, where the streaming rings are built.
            return (
                0,
                self.exec
                    .new_sequence_with_window(sparsity.window_override()),
            );
        }
        if self.scfg.prefix_cache {
            let min_match = self.scfg.chunk_tokens;
            let max_match = prompt.len().saturating_sub(1);
            if max_match >= min_match {
                if let Some((depth, hit)) = self.prefix.lookup(prompt, min_match, max_match) {
                    return (depth, hit.seed(&mut self.pool));
                }
            }
        }
        (0, self.exec.new_sequence())
    }

    /// Donates the current prompt prefix of running sequence `i` into the cache
    /// when its feed position sits on a donation point: a tile-grid boundary
    /// inside the prompt, or the end of the prompt. Idempotent — a prefix that is
    /// already cached is refused by the tree (and LRU-touched).
    fn maybe_donate(&mut self, i: usize) {
        if !self.scfg.prefix_cache {
            return;
        }
        let seq = &self.running[i];
        // Budget-dependent selector history: overridden sequences never seed
        // the cache (see `admit`).
        if !seq.core.spec.sparsity.is_empty() {
            return;
        }
        let fed = seq.fed;
        let plen = seq.core.prompt.len();
        let chunk = self.scfg.chunk_tokens;
        let on_grid = fed > 0 && fed.is_multiple_of(chunk);
        if fed < chunk || fed > plen || !(on_grid || fed == plen) {
            return;
        }
        debug_assert_eq!(
            seq.state.context_len(),
            fed,
            "donation off a clean feed position"
        );
        // Skip the state capture entirely when the prefix is already cached (the
        // common case on warm traffic re-walking a donated prompt).
        if self.prefix.is_cached(&seq.core.prompt[..fed]) {
            return;
        }
        let value = CachedPrefix::capture(&seq.state);
        self.prefix
            .insert(&mut self.pool, &seq.core.prompt[..fed], value);
    }

    /// Donates the absorbed token stream of a clean state — `prompt ++
    /// generated`, truncated to `state.context_len()` — into the prefix
    /// cache. The generalization of completion donation that also serves
    /// cancellation: whatever prefix the request got through is warm for the
    /// next request that walks it. Sub-grid prompts never donate (their tile
    /// covered `[0, prompt_len)`, so their KV is not what a longer prompt's
    /// cold run would compute).
    fn donate_tokens(&mut self, prompt: &[u32], generated: &[u32], state: &SequenceState) {
        if !self.scfg.prefix_cache {
            return;
        }
        let chunk = self.scfg.chunk_tokens;
        let absorbed = state.context_len();
        if prompt.len() < chunk || absorbed < chunk {
            return;
        }
        let mut key: Vec<u32> = prompt[..prompt.len().min(absorbed)].to_vec();
        if absorbed > prompt.len() {
            key.extend(&generated[..absorbed - prompt.len()]);
        }
        debug_assert_eq!(key.len(), absorbed);
        if self.prefix.is_cached(&key) {
            return;
        }
        let value = CachedPrefix::capture(state);
        self.prefix.insert(&mut self.pool, &key, value);
    }

    /// One pressure-relief step against the prefix cache. With a memory
    /// hierarchy configured (bounded host and/or nvme), the cache first
    /// *spills*: the LRU entry's sole-owned hot pages demote into the cold
    /// tiers while the entry stays cached — long-tail prefixes keep their
    /// warm-capacity value, and a later hit pays an accounted promotion
    /// instead of a prefill recompute. Only when nothing can spill (all
    /// cold already, or the bounded tiers are full) does it fall back to
    /// real eviction: removing the LRU entry whose removal actually frees
    /// physical pages, skipping entries whose pages are all co-owned
    /// elsewhere. Returns `false` when neither lever can relieve the pool
    /// and the caller needs preemption instead.
    ///
    /// Under the default tier shape (unbounded host, no nvme) spilling is
    /// skipped entirely: an unbounded modeled host would be free fake
    /// capacity, and the historical evict-under-pressure behavior stands.
    fn evict_prefix_one(&mut self) -> bool {
        let tiers = self.pool.tier_config();
        if (tiers.host_pages > 0 || tiers.nvme) && self.prefix.spill_lru(&mut self.pool).is_some() {
            self.report.prefix_spills += 1;
            self.scfg.tracer.instant(
                "prefix.spill",
                "prefix",
                lane::SCHEDULER,
                lserve_trace::CONTROL_TID,
                &[],
            );
            return true;
        }
        if self.prefix.evict_lru_freeing(&mut self.pool).is_none() {
            return false;
        }
        self.report.prefix_evictions += 1;
        self.scfg.tracer.instant(
            "prefix.evict",
            "prefix",
            lane::SCHEDULER,
            lserve_trace::CONTROL_TID,
            &[],
        );
        true
    }

    /// Drains the prefix cache entirely — the last resort before truncating a
    /// lone sequence that cannot grow, where reclaiming every tree-only page
    /// matters more than cache warmth. Returns `true` if any page was freed.
    fn evict_prefix_all(&mut self) -> bool {
        let before = self.pool.free_pages();
        while self.prefix.evict_lru(&mut self.pool).is_some() {
            self.report.prefix_evictions += 1;
        }
        self.pool.free_pages() > before
    }

    /// Feeds prompt (and resume) tokens, up to `chunk_tokens` per sequence per
    /// iteration, in rank order (interactive sequences feed before batch ones).
    fn prefill_phase(&mut self, now: u64) {
        let exec = Arc::clone(&self.exec);
        let order: Vec<u64> = self.running.iter().map(|s| s.core.arrival).collect();
        for ar in order {
            // Re-locate: earlier work in this phase may have preempted sequences.
            let Some(i) = self.running.iter().position(|s| s.core.arrival == ar) else {
                continue;
            };
            if self.running[i].fed >= self.running[i].feed_len() {
                continue;
            }
            let my_key = self.running[i].core.key;
            let mut budget = self.scfg.chunk_tokens;
            // First grid cell: fused tile prefill over the fixed tile grid (a pure
            // function of absolute token position), so replays after preemption and
            // prefix-cached peers compute bit-identical KV. Sequences seeded from
            // the prefix cache start with `fed > 0` and never take this path.
            if self.running[i].fed == 0 {
                let boundary =
                    tile_grid_boundary(self.scfg.chunk_tokens, self.running[i].core.prompt.len());
                loop {
                    let need = self.pages_estimate_spec(&self.running[i].core.spec, boundary);
                    if need <= self.pool.free_pages() {
                        break;
                    }
                    if self.evict_prefix_one() {
                        continue;
                    }
                    if self.make_room_below(my_key) {
                        continue;
                    }
                    // Swap-parked states may pin the very prefix pages the
                    // eviction loop needs; spill them to replay (what Replay
                    // freed at preemption time) before giving up.
                    if !self.spill_swapped_queue() {
                        break;
                    }
                }
                let tokens: Vec<u32> = (0..boundary)
                    .map(|t| self.running[i].feed_token(t))
                    .collect();
                let chunk_start = self.scfg.tracer.now();
                match exec.prefill_threads(
                    &mut self.running[i].state,
                    &mut self.pool,
                    &tokens,
                    self.scfg.decode_threads,
                    &mut self.report.parallel,
                ) {
                    Ok(out) => {
                        self.scfg.tracer.span(
                            "prefill.chunk",
                            "scheduler",
                            lane::SCHEDULER,
                            self.running[i].core.spec.id,
                            chunk_start,
                            &[("tokens", boundary as u64)],
                        );
                        self.running[i].fed = boundary;
                        self.work_tokens += boundary as u64;
                        if self.scfg.prefix_cache {
                            self.report.prefix_recomputed_tokens += boundary as u64;
                        }
                        budget = budget.saturating_sub(boundary);
                        self.maybe_donate(i);
                        if self.running[i].fed == self.running[i].feed_len() {
                            self.emit_token(i, greedy_next_token(&out.logits), now);
                            continue;
                        }
                    }
                    Err(_) => {
                        // The estimate was optimistic and no lower-rank victim
                        // is left. Give the partial pages back and retry on a later
                        // iteration — unless this sequence is alone, in which case
                        // it can never fit and must fail.
                        self.running[i].state.release(&mut self.pool);
                        self.running[i].fed = 0;
                        if self.running.len() == 1 && self.queue.is_empty() {
                            let mut seq = self.running.remove(i);
                            let cause = Cause::Reject(RejectReason::TooLarge);
                            self.transition(
                                seq.core.spec.id,
                                &seq.core.handle,
                                &mut seq.progress,
                                cause,
                            );
                        }
                        continue;
                    }
                }
            }
            // Continuation: one prefill-grid cell per executor call, fed
            // layer-outer through the decode path. Numerically independent of
            // how the scheduler slices the feed (bit-identical to one token per
            // call). A cell ends at the next grid boundary, at the end of the
            // prompt, at the end of the feed, or where this step's budget runs
            // out — so `maybe_donate` sees exactly the donation points a
            // per-token feed would show it.
            let cont_start = self.scfg.tracer.now();
            let cont_id = self.running[i].core.spec.id;
            let mut cont_fed = 0u64;
            while budget > 0 && self.running[i].fed < self.running[i].feed_len() {
                let fed_pos = self.running[i].fed;
                let plen = self.running[i].core.prompt.len();
                let chunk = self.scfg.chunk_tokens;
                let mut end = (fed_pos / chunk + 1) * chunk;
                end = end.min(self.running[i].feed_len()).min(fed_pos + budget);
                if fed_pos < plen {
                    end = end.min(plen);
                }
                // Reserve the cell's exact page demand. Under pressure feed
                // the longest prefix of the cell that fits, and relieve the
                // pool only when not even one token does — exactly where a
                // per-token feed would, so eviction and preemption decisions
                // do not depend on the cell size.
                let mut n = self.cell_tokens_that_fit(i, end - fed_pos);
                if n == 0 {
                    if self.evict_prefix_one() {
                        continue;
                    }
                    if self.make_room_below(my_key) {
                        continue;
                    }
                    // Unpin prefix pages held by swap-parked peers (degrading
                    // them to replay) before stalling the feed.
                    if self.spill_swapped_queue() {
                        continue;
                    }
                    break; // wait for a later iteration
                }
                // A cell the executor cannot walk layer-outer exactly (pages
                // to promote, transfers it could issue or force) goes one
                // token per call, re-checking pool pressure between tokens
                // exactly as a per-token feed does.
                if !exec.feeds_layer_outer(&self.pool, &[(&self.running[i].state, n)]) {
                    n = 1;
                }
                let tokens: Vec<u32> = (fed_pos..fed_pos + n)
                    .map(|t| self.running[i].feed_token(t))
                    .collect();
                let result = exec
                    .decode_batch_sharded(
                        &mut self.pool,
                        &mut [(&mut self.running[i].state, &tokens[..])],
                        self.scfg.decode_threads,
                        &mut self.plan,
                        &mut self.report.parallel,
                    )
                    .pop()
                    .expect("one result per input row");
                match result {
                    Ok(out) => {
                        self.running[i].fed += n;
                        self.work_tokens += n as u64;
                        cont_fed += n as u64;
                        if self.scfg.prefix_cache && fed_pos < plen {
                            self.report.prefix_recomputed_tokens += n as u64;
                        }
                        budget -= n;
                        self.maybe_donate(i);
                        if self.running[i].fed == self.running[i].feed_len() {
                            self.emit_token(i, greedy_next_token(&out.logits), now);
                            break;
                        }
                    }
                    Err(_) => {
                        // Exact reservation should prevent this; self-preempt to
                        // discard the partially-written cell and replay later.
                        // Always the replay path: the state is unclean and must
                        // not be parked for swap-resume.
                        self.preempt(i, PreemptionPolicy::Replay);
                        break;
                    }
                }
            }
            if cont_fed > 0 {
                // One span per iteration's continuation feed (not per token):
                // the decode-path re-feed is the same "prompt chunk" unit to
                // the flame chart, however the scheduler sliced it.
                self.scfg.tracer.span(
                    "prefill.chunk",
                    "scheduler",
                    lane::SCHEDULER,
                    cont_id,
                    cont_start,
                    &[("tokens", cont_fed)],
                );
            }
        }
    }

    /// The longest prefix of running sequence `i`'s next `cell` feed tokens
    /// whose exact page demand fits the free pool (0 when not even one token
    /// fits). Demand is monotone in the feed length, so a binary search finds
    /// it.
    fn cell_tokens_that_fit(&self, i: usize, cell: usize) -> usize {
        let state = &self.running[i].state;
        let free = self.pool.free_pages();
        if state.pages_needed_for_next_tokens(&self.pool, cell) <= free {
            return cell;
        }
        let (mut fits, mut over) = (0, cell);
        while over - fits > 1 {
            let mid = (fits + over) / 2;
            if state.pages_needed_for_next_tokens(&self.pool, mid) <= free {
                fits = mid;
            } else {
                over = mid;
            }
        }
        fits
    }

    /// Reserve pages for one decode token per ready sequence, preempting the
    /// cost- and class-chosen victim until demand fits, then run the batched
    /// decode step.
    fn decode_phase(&mut self, now: u64) {
        loop {
            let demand: usize = self
                .running
                .iter()
                .filter(|s| s.last_token.is_some())
                .map(|s| s.state.pages_needed_for_next_token(&self.pool))
                .sum();
            if demand <= self.pool.free_pages() {
                break;
            }
            // Cached-but-idle prefixes go first; preemption is the last resort.
            if self.evict_prefix_one() {
                continue;
            }
            if self.running.len() <= 1 {
                // Before truncating the lone sequence, spill swap-parked
                // states back to replay: releasing their pages unpins any
                // prefix-cache entries they co-own — exactly what the Replay
                // policy would already have freed at preemption time — and
                // keeps bounded-memory truncation policy-independent.
                if self.spill_swapped_queue() {
                    continue;
                }
                // Then reclaim every page the cache still holds exclusively.
                if self.evict_prefix_all() {
                    continue;
                }
                // Nothing to preempt in favor of: the lone sequence cannot grow any
                // further. Finish it with what it has (bounded-memory truncation).
                if let Some(seq) = self.running.pop() {
                    self.complete(seq, FinishReason::Truncated);
                }
                return;
            }
            // Progress guarantee: the best-ranked running sequence is never a
            // victim here, so the most entitled live request always advances —
            // without this, the swap-cost choice could ping-pong a cheap
            // victim through resume/preempt cycles forever.
            let best = self
                .running
                .iter()
                .map(|s| s.core.key)
                .min()
                .expect("running list non-empty");
            let victim = self
                .pick_victim(Some(best))
                .expect("more than one running sequence with unique ranks");
            self.preempt_index(victim);
        }
        // Batched decode: one token for every sequence whose feed is complete.
        let exec = Arc::clone(&self.exec);
        let mut batch_idx: Vec<usize> = Vec::new();
        let mut batch: Vec<(&mut SequenceState, &[u32])> = Vec::new();
        for (i, seq) in self.running.iter_mut().enumerate() {
            if let Some(t) = seq.last_token.as_ref() {
                batch_idx.push(i);
                batch.push((&mut seq.state, std::slice::from_ref(t)));
            }
        }
        if batch.is_empty() {
            return;
        }
        let results = exec.decode_batch_sharded(
            &mut self.pool,
            &mut batch,
            self.scfg.decode_threads,
            &mut self.plan,
            &mut self.report.parallel,
        );
        drop(batch);
        // Walk results in reverse index order so removals (completion, fallback
        // preemption) do not shift the indices still to be visited.
        for (&i, result) in batch_idx.iter().zip(results.iter()).rev() {
            match result {
                Ok(out) => {
                    self.report.decode_steps += 1;
                    self.work_tokens += 1;
                    let next = greedy_next_token(&out.logits);
                    self.emit_token(i, next, now);
                }
                Err(_) => {
                    // Reservation makes this unreachable in practice; keep the
                    // conservative fallback anyway. Replay, never swap: the
                    // failed step left the state partially written.
                    self.preempt(i, PreemptionPolicy::Replay);
                }
            }
        }
    }

    /// Records a newly generated token for running sequence `i`: streams the
    /// token event, applies stop conditions, and completes the request when it
    /// hits a stop or its token budget.
    fn emit_token(&mut self, i: usize, token: u32, now: u64) {
        let work_now = self.work_tokens;
        let stop_token = {
            let seq = &mut self.running[i];
            debug_assert!(seq.generated.len() < seq.core.spec.max_new_tokens);
            seq.generated.push(token);
            seq.last_token = Some(token);
            if seq.core.spec.stop_tokens.contains(&token) {
                true
            } else {
                let first = seq.progress.first_token_work.is_none();
                if seq.progress.first_token_iter.is_none() {
                    seq.progress.first_token_iter = Some(now);
                }
                if first {
                    seq.progress.first_token_work = Some(work_now);
                }
                seq.progress.last_token_iter = now;
                self.scfg.tracer.instant(
                    if first { "first_token" } else { "token" },
                    "scheduler",
                    lane::SCHEDULER,
                    seq.core.spec.id,
                    &[],
                );
                seq.core.handle.push(if first {
                    ServingEvent::FirstToken { token }
                } else {
                    ServingEvent::Token { token }
                });
                false
            }
        };
        if stop_token {
            // The stop token terminates generation and is excluded from the
            // output (it was never streamed).
            let seq = self.running.remove(i);
            self.complete(seq, FinishReason::StopToken);
            return;
        }
        let seq = &self.running[i];
        if seq
            .core
            .spec
            .stop_sequences
            .iter()
            .any(|s| !s.is_empty() && seq.generated.ends_with(s))
        {
            let seq = self.running.remove(i);
            self.complete(seq, FinishReason::StopSequence);
            return;
        }
        if seq.generated.len() >= seq.core.spec.max_new_tokens {
            let seq = self.running.remove(i);
            self.complete(seq, FinishReason::Length);
        }
    }

    /// Releases a finished sequence — donating its conversation (prompt plus
    /// absorbed generated tokens) into the prefix cache first, so follow-up turns
    /// that extend this conversation start from its pages — then records its
    /// report entries, terminal event, and (for session requests) the session's
    /// updated conversation.
    fn complete(&mut self, mut seq: SchedSeq, reason: FinishReason) {
        if seq.core.spec.sparsity.is_empty() {
            self.donate_tokens(&seq.core.prompt, &seq.generated, &seq.state);
        }
        seq.state.release(&mut self.pool);
        let output = match reason {
            FinishReason::StopToken => {
                let mut g = seq.generated;
                g.pop();
                g
            }
            _ => seq.generated,
        };
        let id = seq.core.spec.id;
        let tokens = output.len();
        let p = seq.progress;
        let ttft_work = p.first_token_work.map_or(0, |first| first - p.submit_work);
        let deadline = seq.core.spec.deadline_work_tokens;
        self.report.request_metrics.push(RequestMetrics {
            id,
            class: seq.core.spec.class,
            finish: reason,
            ttft_iters: p.first_token_iter.map_or(0, |first| first - p.submit_iter),
            ttft_work_tokens: ttft_work,
            decode_span_iters: p
                .first_token_iter
                .map_or(0, |first| p.last_token_iter - first),
            tokens,
            preemptions: p.preemptions,
            cached_prompt_tokens: p.cached_tokens,
            deadline_work_tokens: deadline,
            deadline_met: deadline
                .map(|d| p.first_token_work.is_some_and(|fw| fw - p.submit_work <= d)),
        });
        if let Some(sid) = seq.core.spec.session {
            let mut conversation = seq.core.prompt.clone();
            conversation.extend_from_slice(&output);
            self.sessions.insert(sid, conversation);
        }
        let cause = Cause::Finish {
            reason,
            tokens: output,
        };
        self.transition(id, &seq.core.handle, &mut seq.progress, cause);
        // Join bookkeeping: a finishing branch may resolve its fork group,
        // in which case the policy's losers get their cancel flags now and
        // are cancelled (with prefix donation) at the next step boundary.
        let joins_before = self.dag.stats().joins;
        let losers = self.dag.on_finished(id, tokens);
        if self.dag.stats().joins > joins_before {
            self.scfg.tracer.instant(
                "join",
                "dag",
                lane::DAG,
                id,
                &[("losers", losers.len() as u64)],
            );
        }
        for loser in losers {
            self.flag_branch_cancel(loser);
        }
    }

    /// Chooses the preemption victim among running sequences whose rank is
    /// strictly worse than `than` (all of them when `than` is `None`).
    ///
    /// Selection is class-first (the worst class present loses), then
    /// cost-aware within that class: under [`PreemptionPolicy::Swap`] the
    /// victim is the sequence with the smallest modeled promote-back cost
    /// ([`SequenceState::promote_back_cost_units`] — shared hot pages free,
    /// sole-owned hot pages one round trip, cold pages one host hop, nvme
    /// pages recall plus hop), i.e. the cheapest to move across the tiers
    /// now *and* to bring back later, priced by where its pages actually
    /// sit (latest virtual deadline, then latest arrival, break ties) —
    /// while under [`PreemptionPolicy::Replay`] it is the least entitled
    /// sequence (latest virtual deadline, then latest arrival), whose
    /// replayed context is the least urgent work to redo.
    fn pick_victim(&self, than: Option<SloKey>) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.running.len())
            .filter(|&i| than.is_none_or(|k| self.running[i].core.key > k))
            .collect();
        let worst_class = candidates
            .iter()
            .map(|&i| self.running[i].core.key.class)
            .max()?;
        let same_class = candidates
            .into_iter()
            .filter(|&i| self.running[i].core.key.class == worst_class);
        // The cost-aware choice is part of SLO-aware scheduling; with
        // `class_aware` off the baseline is honestly class-blind FCFS under
        // *both* policies (latest arrival loses, exactly the pre-SLO rule).
        if self.scfg.class_aware && self.scfg.preemption == PreemptionPolicy::Swap {
            same_class.min_by_key(|&i| {
                let s = &self.running[i];
                (
                    s.state.promote_back_cost_units(&self.pool),
                    std::cmp::Reverse(s.core.key.vdeadline),
                    std::cmp::Reverse(s.core.key.arrival),
                )
            })
        } else {
            same_class.max_by_key(|&i| {
                let s = &self.running[i];
                (s.core.key.vdeadline, s.core.key.arrival)
            })
        }
    }

    /// Preempts the chosen victim among sequences ranked strictly worse than
    /// `than`. Returns `false` when no such victim exists.
    fn make_room_below(&mut self, than: SloKey) -> bool {
        match self.pick_victim(Some(than)) {
            Some(victim) => {
                self.preempt_index(victim);
                true
            }
            None => false,
        }
    }

    /// Preempts running sequence `i` under the configured policy. The sequence
    /// must be at a clean step boundary (nothing half-written) — the unclean
    /// OOM fallbacks preempt with [`PreemptionPolicy::Replay`] directly.
    ///
    /// Swap demotes every sole-owned page the sequence holds to the cold tier
    /// (pages co-owned with the prefix cache or other sequences stay hot for
    /// their readers) and parks the intact sequence state in the queue;
    /// resume is an accounted promotion instead of a replay. Drop-and-replay
    /// is the final fallback: when a bounded host (with no nvme below it)
    /// refuses the *entire* swap-out — nothing demoted while the victim still
    /// holds sole-owned hot pages — parking the state would relieve no hot
    /// pressure at all, so the preemption degrades to replay and releases
    /// the pages instead. A partially refused swap-out still parks: every
    /// page that did move is a hot slot relieved, and the remainder stays
    /// hot for a cheap resume.
    fn preempt_index(&mut self, i: usize) {
        let mut policy = self.scfg.preemption;
        if policy == PreemptionPolicy::Swap {
            let state = &mut self.running[i].state;
            let (moved, _) = state.demote_resident(&mut self.pool);
            if moved == 0 && state.sole_owned_hot_pages(&self.pool) > 0 {
                policy = PreemptionPolicy::Replay;
            }
        }
        self.preempt(i, policy);
    }

    /// Re-queues running sequence `i` with its generation progress: under
    /// [`PreemptionPolicy::Replay`] its pages are released to be re-fed
    /// later, under [`PreemptionPolicy::Swap`] its (already demoted) state
    /// is parked for promotion.
    fn preempt(&mut self, i: usize, policy: PreemptionPolicy) {
        let mut seq = self.running.remove(i);
        let swap = match policy {
            PreemptionPolicy::Replay => {
                seq.state.release(&mut self.pool);
                None
            }
            PreemptionPolicy::Swap => Some(SwappedSeq {
                state: seq.state,
                fed: seq.fed,
                resume_feed: seq.resume_feed,
                last_token: seq.last_token,
            }),
        };
        let cause = Cause::Preempt(policy);
        self.transition(seq.core.spec.id, &seq.core.handle, &mut seq.progress, cause);
        self.enqueue(QueuedSeq {
            core: seq.core,
            generated: seq.generated,
            swap,
            progress: seq.progress,
        });
    }

    /// Last-resort pressure relief under [`PreemptionPolicy::Swap`]: spills
    /// every swap-parked state in the queue. With the prefix cache on, the
    /// spill is *partial*: the parked state's completed prefix is donated
    /// into the cache first, then the state is released — its sole-owned
    /// cold/nvme pages drop, but the prefix seed (the pages a re-admission
    /// can share) survives in the tree, so the request replays only the
    /// suffix past its deepest cache hit instead of degrading all the way
    /// to a full replay. Without the prefix cache it is the historical full
    /// spill: everything released, resume by complete re-feed.
    ///
    /// Either way this drops the parked states' references on shared prefix
    /// pages, so the eviction loop regains everything the Replay policy
    /// would have freed at preemption time — a donated entry sole-owning
    /// its pages is exactly what [`Scheduler::evict_prefix_one`] can spill
    /// down-tier or evict under further pressure. Returns `true` if any
    /// state was spilled.
    fn spill_swapped_queue(&mut self) -> bool {
        let mut any = false;
        for qi in 0..self.queue.len() {
            let Some(mut swap) = self.queue[qi].swap.take() else {
                continue;
            };
            // Donate before releasing. The borrow dance: donation needs
            // `&mut self` (cache + pool), so lift the key material out of
            // the queue entry and put it back after.
            let prompt = std::mem::take(&mut self.queue[qi].core.prompt);
            let generated = std::mem::take(&mut self.queue[qi].generated);
            if self.queue[qi].core.spec.sparsity.is_empty() {
                self.donate_tokens(&prompt, &generated, &swap.state);
            }
            swap.state.release(&mut self.pool);
            self.queue[qi].core.prompt = prompt;
            self.queue[qi].generated = generated;
            self.scfg.tracer.instant(
                "swap.spill",
                "scheduler",
                lane::SCHEDULER,
                self.queue[qi].core.spec.id,
                &[],
            );
            any = true;
        }
        any
    }

    /// Inserts a request into the queue, keeping it sorted by scheduling rank
    /// ([`SloKey`]: class, virtual deadline, arrival). Fresh submissions and
    /// preempted requeues share this path, so admission order always reflects
    /// the SLO policy while within-class FCFS survives preemption.
    fn enqueue(&mut self, q: QueuedSeq) {
        let pos = self
            .queue
            .iter()
            .position(|other| other.core.key > q.core.key)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use lserve_kvcache::StreamingWindow;
    use lserve_model::{ModelConfig, ModelWeights};

    fn weights() -> Arc<ModelWeights> {
        Arc::new(ModelWeights::random(&ModelConfig::tiny(), 5))
    }

    fn request(id: u64, len: usize, gen: usize) -> RequestSpec {
        RequestSpec::new(id, (0..len).map(|i| (i % 90) as u32).collect()).max_new_tokens(gen)
    }

    fn scheduler(cfg: EngineConfig, scfg: SchedulerConfig) -> Scheduler {
        Scheduler::new(Arc::new(ModelExecutor::new(weights(), cfg)), scfg)
    }

    /// A scheduler with monolithic prefill and conservative FCFS admission:
    /// unbounded chunk and batch, full-footprint admission, no prefix cache.
    fn monolithic(weights: Arc<ModelWeights>, cfg: EngineConfig, pool_pages: usize) -> Scheduler {
        let scfg = SchedulerConfig {
            chunk_tokens: usize::MAX,
            max_batch: usize::MAX,
            admission: AdmissionPolicy::FullFootprint,
            prefix_cache: false,
            ..SchedulerConfig::from_env(pool_pages)
        };
        Scheduler::new(Arc::new(ModelExecutor::new(weights, cfg)), scfg)
    }

    #[test]
    fn single_request_completes() {
        let mut srv = monolithic(weights(), EngineConfig::lserve_fp16(), 2048);
        srv.submit(request(1, 8, 5));
        let r = srv.run_to_completion(1000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].1.len(), 5);
        assert!(r.rejected.is_empty());
        assert_eq!(srv.pool_in_use(), 0, "all pages returned");
    }

    #[test]
    fn serving_output_matches_standalone_engine() {
        let w = weights();
        let mut srv = monolithic(Arc::clone(&w), EngineConfig::dense(), 4096);
        srv.submit(request(1, 6, 6));
        let r = srv.run_to_completion(1000);
        let cfg = EngineConfig::dense();
        let mut pool = cfg.make_pool_for(&w.config, 64);
        let mut e = Engine::new(w, cfg);
        let want = e.generate(&mut pool, &request(1, 6, 6).prompt, 6).unwrap();
        assert_eq!(r.completed[0].1, want);
    }

    #[test]
    fn batch_of_requests_all_complete() {
        let mut srv = monolithic(weights(), EngineConfig::lserve_fp16(), 8192);
        for id in 0..6 {
            srv.submit(request(id, 6 + id as usize, 4));
        }
        let r = srv.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 6);
        let ids: Vec<u64> = r.completed.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn oversized_request_rejected_not_deadlocked() {
        let mut srv = monolithic(weights(), EngineConfig::dense(), 16);
        let h1 = srv.submit(request(1, 512, 4)); // needs ~40 pages, can never fit in 16
        srv.submit(request(2, 4, 2));
        let r = srv.run_to_completion(1000);
        assert_eq!(r.rejected, vec![1]);
        assert_eq!(r.rejections, vec![(1, RejectReason::TooLarge)]);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].0, 2);
        assert_eq!(
            h1.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::TooLarge
            }]
        );
    }

    #[test]
    fn status_tracks_request_lifecycle() {
        // 24 pages: request 1 (est. 14 pages) fits, request 2 (est. 32) never can.
        let mut srv = monolithic(weights(), EngineConfig::lserve_fp16(), 24);
        assert_eq!(srv.status(1), None);
        srv.submit(request(1, 4, 20));
        srv.submit(request(2, 600, 4)); // can never fit: rejected at admission
        assert_eq!(srv.status(1), Some(RequestStatus::Queued));
        srv.step();
        assert_eq!(srv.status(1), Some(RequestStatus::Running));
        assert_eq!(srv.status(2), Some(RequestStatus::Rejected));
        let r = srv.run_to_completion(1000);
        match srv.status(1) {
            Some(RequestStatus::Finished(tokens)) => {
                assert_eq!(tokens.len(), 20);
                assert_eq!(tokens, r.completed[0].1);
            }
            other => panic!("expected finished, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_specs_rejected_at_submit_not_stuck() {
        let mut srv = monolithic(weights(), EngineConfig::lserve_fp16(), 2048);
        let h_empty = srv.submit(request(1, 0, 3)); // empty prompt
        srv.submit(request(2, 4, 3));
        let h_zero = srv.submit(request(3, 4, 0)); // nothing to generate
                                                   // Degenerate specs are rejected synchronously at submit...
        assert_eq!(
            h_empty.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::Invalid
            }]
        );
        assert_eq!(
            h_zero.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::Invalid
            }]
        );
        // ...and their ids are burned like any other known id.
        assert!(matches!(srv.status(1), Some(RequestStatus::Rejected)));
        let r = srv.run_to_completion(1000);
        assert_eq!(r.rejected, vec![1, 3]);
        assert_eq!(
            r.rejections,
            vec![(1, RejectReason::Invalid), (3, RejectReason::Invalid)]
        );
        assert_eq!(r.completed.len(), 1);
        assert!(r.scheduler_steps < 100, "must not spin to the step cap");
    }

    #[test]
    fn memory_pressure_serializes_admission() {
        // Pool fits roughly one dense sequence at a time; both must still finish.
        let w = weights();
        let cfg = EngineConfig::dense();
        let one_seq_pages = {
            let m = &w.config;
            m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(40) + 1)
        };
        let mut srv = monolithic(w, cfg, one_seq_pages + 4);
        srv.submit(request(1, 16, 8));
        srv.submit(request(2, 16, 8));
        let r = srv.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 2);
        assert!(r.peak_pages <= one_seq_pages + 4);
    }

    #[test]
    fn pages_estimate_tracks_demotion_peak_not_full_residency() {
        use lserve_kvcache::PagingConfig;
        use lserve_quant::KvPrecision;
        let w = weights();
        let mut cfg = EngineConfig::lserve_fp16();
        cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
        cfg.prefill_tile = 8;
        cfg.dynamic_budget = Some(24);
        cfg.demote_after_chunks = Some(1);
        cfg.reuse_interval = 2;
        let total = 264;
        let est = sequence_pages_estimate(&cfg, &w.config, total);
        let full = {
            let mut full_cfg = cfg.clone();
            full_cfg.demote_after_chunks = None;
            sequence_pages_estimate(&full_cfg, &w.config, total)
        };
        assert!(
            est * 2 < full,
            "demotion-aware estimate {est} must undercut full residency {full}"
        );
        // The tightened estimate must still bound the measured peak: feed the
        // whole context solo in a roomy pool and compare the pool high-water
        // mark against what admission would have reserved.
        let mut scfg = SchedulerConfig::new(full * 2);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(cfg, scfg);
        sched.submit(request(1, total - 16, 16));
        let report = sched.run_to_completion(100_000);
        assert_eq!(report.completed.len(), 1);
        assert!(
            report.peak_pages <= est,
            "estimate {est} must bound measured peak {}",
            report.peak_pages
        );
    }

    #[test]
    fn continuous_batching_interleaves() {
        let mut srv = monolithic(weights(), EngineConfig::lserve_fp16(), 8192);
        srv.submit(request(1, 4, 10));
        srv.submit(request(2, 4, 10));
        srv.step();
        assert_eq!(srv.running(), 2, "both admitted in one step");
    }

    #[test]
    fn chunked_prefill_interleaves_long_prompt_with_decode() {
        // One long prompt plus one short request: with chunked prefill, the short
        // request must finish long before the long prompt is even fully fed.
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 96, 4)); // 96-token prompt: 12 iterations of feeding
        sched.submit(request(2, 4, 3));
        let mut short_done_at = None;
        for iter in 1..200u64 {
            sched.step();
            if short_done_at.is_none()
                && sched
                    .report_snapshot()
                    .completed
                    .iter()
                    .any(|(id, _)| *id == 2)
            {
                short_done_at = Some(iter);
            }
            if sched.queued() == 0 && sched.running() == 0 {
                break;
            }
        }
        let r = sched.run_to_completion(1);
        assert_eq!(r.completed.len(), 2);
        let short_done_at = short_done_at.expect("short request completed");
        assert!(
            short_done_at <= 6,
            "short request head-of-line blocked until iteration {short_done_at}"
        );
    }

    #[test]
    fn chunked_prefill_output_matches_monolithic_prefill() {
        // With FP16 paging and no sparsity interference, feeding the prompt in
        // chunks must not change the greedy output of a solo request (chunk
        // boundaries only move computation between the tile and decode paths of the
        // same deterministic pipeline; the greedy argmax survives the reordering
        // at this scale).
        let w = weights();
        let cfg = EngineConfig::dense();
        let mut mono = monolithic(Arc::clone(&w), cfg.clone(), 4096);
        mono.submit(request(7, 24, 8));
        let want = mono.run_to_completion(10_000).completed[0].1.clone();

        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 7; // does not divide 24: exercises a ragged last chunk
        let mut sched = scheduler(cfg, scfg);
        sched.submit(request(7, 24, 8));
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed[0].1, want);
    }

    #[test]
    fn preemption_fires_and_everything_completes() {
        // First-chunk admission over a pool that cannot hold both sequences'
        // full footprint: the scheduler must preempt (not deadlock, not reject)
        // and still complete both requests.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        // Both prompts fit at admission; decoding both to completion overflows.
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);
        let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        sched.submit(request(1, 60, 10));
        sched.submit(request(2, 60, 10));
        let r = sched.run_to_completion(100_000);
        assert_eq!(r.completed.len(), 2, "rejected: {:?}", r.rejected);
        assert!(r.preemptions > 0, "pool pressure must trigger preemption");
        assert_eq!(sched.pool_in_use(), 0, "all pages returned");
        assert_eq!(r.completed[0].1.len(), 10);
        assert_eq!(r.completed[1].1.len(), 10);
    }

    #[test]
    fn preemption_does_not_change_tokens() {
        // The preempted-and-resumed run must emit exactly the tokens of an
        // unconstrained run.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let mut roomy_cfg = SchedulerConfig::new(8192);
        roomy_cfg.chunk_tokens = 16;
        let mut roomy = scheduler(cfg.clone(), roomy_cfg);
        roomy.submit(request(1, 60, 10));
        roomy.submit(request(2, 60, 10));
        let want = roomy.run_to_completion(100_000);
        assert_eq!(want.preemptions, 0);

        let mut tight_cfg = SchedulerConfig::new(one_seq_pages + 2);
        tight_cfg.chunk_tokens = 16;
        tight_cfg.admission = AdmissionPolicy::FirstChunk;
        let mut tight = scheduler(cfg, tight_cfg);
        tight.submit(request(1, 60, 10));
        tight.submit(request(2, 60, 10));
        let got = tight.run_to_completion(100_000);
        assert!(got.preemptions > 0);
        assert_eq!(got.completed, want.completed);
    }

    #[test]
    fn tile_grid_boundary_is_position_pure() {
        // The grid cell is [0, chunk): any prompt at least chunk long has the
        // same boundary, so shared prefixes >= chunk produce identical tile work.
        assert_eq!(tile_grid_boundary(8, 8), 8);
        assert_eq!(tile_grid_boundary(8, 100), 8);
        assert_eq!(tile_grid_boundary(8, 9), 8);
        // Prompts inside the first cell prefill whole (and are never shared: the
        // cache's minimum match is the grid boundary).
        assert_eq!(tile_grid_boundary(8, 5), 5);
    }

    /// Builds a request whose prompt is `shared ++ suffix`.
    fn extend(shared: &[u32], suffix: &[u32], id: u64, gen: usize) -> RequestSpec {
        let mut prompt = shared.to_vec();
        prompt.extend_from_slice(suffix);
        RequestSpec::new(id, prompt).max_new_tokens(gen)
    }

    fn shared_tokens(len: usize) -> Vec<u32> {
        (0..len).map(|i| ((i * 5 + 3) % 90) as u32).collect()
    }

    #[test]
    fn prefix_hit_matches_cold_run_and_skips_prefill() {
        let cfg = EngineConfig::lserve_fp16();
        let shared = shared_tokens(40);
        let donor = extend(&shared, &[1, 2, 3, 4, 5, 6, 7, 8], 1, 6);
        let consumer = extend(&shared, &[70, 71, 72, 73, 74, 75, 76, 77], 2, 6);

        // Cold reference: same scheduler policy, prefix cache off.
        let mut cold_cfg = SchedulerConfig::new(4096);
        cold_cfg.chunk_tokens = 8;
        let mut cold = scheduler(cfg.clone(), cold_cfg);
        cold.submit(consumer.clone());
        let cold_report = cold.run_to_completion(10_000);
        let cold_tokens = cold_report.completed[0].1.clone();
        let cold_ttft = cold_report.request_metrics[0].ttft_work_tokens;

        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg, scfg);
        sched.submit(donor);
        sched.run_to_completion(10_000);
        assert!(sched.prefix_cache_entries() > 0, "donor donated anchors");
        sched.submit(consumer);
        let report = sched.run_to_completion(10_000);
        let m2 = report
            .request_metrics
            .iter()
            .find(|m| m.id == 2)
            .expect("consumer completed");
        // The 40 shared tokens sit on tile-grid anchors (multiples of 8).
        assert_eq!(m2.cached_prompt_tokens, 40);
        assert_eq!(
            report.completed.iter().find(|(id, _)| *id == 2).unwrap().1,
            cold_tokens,
            "warm outputs must be bit-identical to cold"
        );
        // Acceptance: warm TTFT (work tokens) at least 3x better than cold.
        assert!(
            m2.ttft_work_tokens * 3 <= cold_ttft,
            "warm ttft {} vs cold {}",
            m2.ttft_work_tokens,
            cold_ttft
        );
        assert!(report.prefix_hit_tokens >= 40);
        assert!(report.prefix_hit_rate() > 0.0);
    }

    #[test]
    fn flush_prefix_cache_returns_all_pages() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 32, 4));
        sched.run_to_completion(10_000);
        assert!(sched.pool_in_use() > 0, "cache retains the donor's pages");
        assert!(sched.prefix_cache_entries() > 0);
        assert!(sched.prefix_cached_page_refs() >= sched.pool_in_use());
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0, "flush releases everything");
        assert_eq!(sched.prefix_cache_entries(), 0);
    }

    #[test]
    fn multi_turn_followup_hits_completed_conversation() {
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg, scfg);
        let turn1 = request(1, 32, 8);
        sched.submit(turn1.clone());
        let r1 = sched.run_to_completion(10_000);
        let generated = r1.completed[0].1.clone();
        assert_eq!(generated.len(), 8);
        // Turn 2: the whole first exchange plus a new query.
        let mut prompt2 = turn1.prompt.clone();
        prompt2.extend_from_slice(&generated);
        prompt2.extend_from_slice(&[33, 44, 55, 66]);
        sched.submit(RequestSpec::new(2, prompt2).max_new_tokens(4));
        let r2 = sched.run_to_completion(10_000);
        let m2 = r2.request_metrics.iter().find(|m| m.id == 2).unwrap();
        // The completed-conversation entry covers prompt + generated[..7]: the
        // deepest match beats every prompt-only anchor.
        assert_eq!(m2.cached_prompt_tokens, 32 + generated.len() - 1);
    }

    #[test]
    fn sub_grid_prompt_never_donates_even_after_long_generation() {
        // A prompt shorter than the tile grid cell tiles only [0, prompt_len)
        // and bases its decode-step indices there, so its KV is not what a cold
        // run of a longer prompt would compute. Even when generation pushes the
        // absorbed conversation past chunk_tokens, nothing may be donated.
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 16;
        scfg.prefix_cache = true;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 4, 40)); // absorbed conversation: 43 tokens
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed[0].1.len(), 40);
        assert_eq!(
            sched.prefix_cache_entries(),
            0,
            "sub-grid prompt must not donate its conversation"
        );
        assert_eq!(sched.pool_in_use(), 0);
    }

    #[test]
    fn prefix_cache_evicts_under_pressure_instead_of_blocking() {
        // Pool sized for roughly one sequence: distinct prompts fill the cache,
        // and later admissions must evict stale entries rather than wedge.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(48) + 1);
        let mut scfg = SchedulerConfig::new(one_seq_pages + 4);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        for id in 0..4u64 {
            sched.submit(
                RequestSpec::new(
                    id,
                    (0..24)
                        .map(|t| ((t * 7 + id as usize * 13) % 90) as u32)
                        .collect(),
                )
                .max_new_tokens(6),
            );
        }
        let r = sched.run_to_completion(100_000);
        assert_eq!(r.completed.len(), 4, "rejected: {:?}", r.rejected);
        assert!(r.prefix_evictions > 0, "pressure must evict cache entries");
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0);
    }

    #[test]
    fn swap_preemption_matches_replay_and_reports_migrations() {
        // Same tight-pool workload as `preemption_does_not_change_tokens`, but
        // under PreemptionPolicy::Swap: victims demote their page set instead
        // of releasing it and resume by promotion — outputs must still be
        // bit-identical, and the tier counters must show real traffic.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let run = |policy: PreemptionPolicy| {
            let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
            scfg.chunk_tokens = 16;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.preemption = policy;
            let mut sched = scheduler(cfg.clone(), scfg);
            sched.submit(request(1, 60, 10));
            sched.submit(request(2, 60, 10));
            let r = sched.run_to_completion(100_000);
            assert_eq!(sched.pool_in_use(), 0, "hot pages leaked under {policy:?}");
            assert_eq!(
                sched.pool_cold_in_use(),
                0,
                "cold pages leaked under {policy:?}"
            );
            r
        };
        let replay = run(PreemptionPolicy::Replay);
        let swap = run(PreemptionPolicy::Swap);
        assert!(
            swap.preemptions > 0,
            "pool pressure must trigger preemption"
        );
        assert_eq!(swap.completed, replay.completed, "swap changed outputs");
        assert!(swap.pages_demoted > 0, "swap must demote victim pages");
        assert!(swap.pages_promoted > 0, "resume must promote them back");
        assert!(swap.peak_cold_pages > 0);
        assert_eq!(swap.preemption, PreemptionPolicy::Swap);
        assert_eq!(replay.pages_demoted, 0, "replay never touches the tiers");
        assert_eq!(replay.swap_resume_work_tokens, 0);
        // The resume-cost accounting is mode-split: sync migration charges
        // the promotion to the work clock at resume; the async copy engine
        // hides it behind re-admission compute instead (CI runs both legs).
        match swap.migration {
            MigrationMode::Sync => {
                assert!(swap.swap_resume_work_tokens > 0, "resume work accounted");
                // The whole point: resuming by transfer is far cheaper than
                // replaying the victim's context through the forward pass.
                let replayed_tokens: u64 = 60 + 10; // one victim replay, upper bound
                assert!(
                    swap.swap_resume_work_tokens < replayed_tokens,
                    "swap resume ({}) should undercut replay (~{replayed_tokens})",
                    swap.swap_resume_work_tokens
                );
            }
            MigrationMode::Async => {
                assert_eq!(
                    swap.swap_resume_work_tokens, 0,
                    "async resume promotions ride the copy engine, not the clock"
                );
                assert!(
                    swap.hidden_transfer_tokens > 0,
                    "overlapped resume transfers must be hidden"
                );
                assert!(swap.migration_overlap_ratio() > 0.5);
            }
        }
    }

    #[test]
    fn bounded_host_with_nvme_spills_and_matches_unbounded_outputs() {
        // Same overcommitted swap workload under three tier shapes: the
        // historical unbounded host, and a host too small to absorb a full
        // victim backed by the modeled nvme tier. The bounded run must spill
        // host pages down, recall them on resume, and still produce
        // bit-identical outputs — tiers move modeled cost only.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let run = |host_pages: usize, nvme: bool| {
            let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
            scfg.chunk_tokens = 16;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.preemption = PreemptionPolicy::Swap;
            // Sync keeps every swap-out demotion (and therefore the host
            // overflow this test is about) on the issuing step, whatever the
            // ambient `LSERVE_MIGRATION`; async tier traffic is covered by
            // the `proptest_hierarchy` suite.
            scfg.migration = MigrationMode::Sync;
            scfg.host_pages = host_pages;
            scfg.nvme = nvme;
            let mut sched = scheduler(cfg.clone(), scfg);
            sched.submit(request(1, 60, 10));
            sched.submit(request(2, 60, 10));
            let r = sched.run_to_completion(100_000);
            assert_eq!(sched.pool_in_use(), 0, "hot pages leaked");
            assert_eq!(sched.pool_cold_in_use(), 0, "cold pages leaked");
            assert_eq!(sched.pool_nvme_in_use(), 0, "nvme pages leaked");
            r
        };
        let unbounded = run(0, false);
        assert!(unbounded.preemptions > 0, "workload must overcommit");
        // Host capacity well below one victim's page set forces spills.
        let tight = run((one_seq_pages / 4).max(1), true);
        assert_eq!(
            tight.completed, unbounded.completed,
            "tier shape changed outputs"
        );
        assert!(tight.pages_spilled > 0, "bounded host must spill to nvme");
        assert!(tight.pages_recalled > 0, "resume must recall from nvme");
        assert!(tight.peak_nvme_pages > 0);
        assert_eq!(unbounded.pages_spilled, 0);
        assert_eq!(unbounded.peak_nvme_pages, 0);
    }

    #[test]
    fn bounded_host_without_nvme_degrades_to_replay_and_matches_outputs() {
        // With a bounded host and no tier below it, a swap-out that finds the
        // host full is refused page by page; the scheduler's drop-and-replay
        // fallbacks keep the run progressing and the outputs bit-identical.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);

        let run = |host_pages: usize| {
            let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
            scfg.chunk_tokens = 16;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.preemption = PreemptionPolicy::Swap;
            scfg.migration = MigrationMode::Sync; // see the nvme test above
            scfg.host_pages = host_pages;
            scfg.nvme = false; // the point: no tier below the bounded host
            let mut sched = scheduler(cfg.clone(), scfg);
            sched.submit(request(1, 60, 10));
            sched.submit(request(2, 60, 10));
            let r = sched.run_to_completion(100_000);
            assert_eq!(sched.pool_in_use(), 0, "hot pages leaked");
            assert_eq!(sched.pool_cold_in_use(), 0, "cold pages leaked");
            r
        };
        let unbounded = run(0);
        let tight = run((one_seq_pages / 4).max(1));
        assert_eq!(
            tight.completed, unbounded.completed,
            "bounded host changed outputs"
        );
        assert_eq!(tight.pages_spilled, 0, "no nvme tier to spill into");
        assert!(
            tight.pages_demoted <= unbounded.pages_demoted,
            "refused demotions cannot exceed the unbounded baseline"
        );
    }

    #[test]
    fn swap_preemption_never_demotes_shared_prefix_pages() {
        // A victim seeded from the prefix cache co-owns its prefix pages with
        // the tree. Swapping it out must leave those pages hot (the tree's
        // readers may need them) and demote only the sole-owned suffix.
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        scfg.preemption = PreemptionPolicy::Swap;
        let mut sched = scheduler(cfg, scfg);
        sched.submit(request(1, 32, 4));
        sched.run_to_completion(10_000);
        assert!(sched.prefix_cache_entries() > 0);
        let tree_pages = sched.pool_in_use();
        // Manually drive a second consumer to a running state, then swap it.
        sched.submit(request(2, 32, 30));
        while sched.running() == 0 {
            sched.step();
        }
        let m2 = sched
            .report_snapshot()
            .request_metrics
            .iter()
            .find(|m| m.id == 2);
        assert!(m2.is_none(), "request 2 still running");
        sched.preempt_index(0);
        assert_eq!(sched.running(), 0);
        assert!(
            sched.pool_in_use() >= tree_pages,
            "co-owned prefix pages must stay hot through a swap-out"
        );
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 2, "rejected: {:?}", r.rejected);
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0);
        assert_eq!(sched.pool_cold_in_use(), 0);
    }

    #[test]
    fn report_metrics_track_latency_and_preemptions() {
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 32, 6)); // 4 feed iterations before the first token
        sched.submit(request(2, 4, 6));
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.request_metrics.len(), 2);
        let m1 = r.request_metrics[0];
        let m2 = r.request_metrics[1];
        assert_eq!((m1.id, m2.id), (1, 2));
        assert!(
            m1.ttft_iters > m2.ttft_iters,
            "longer prompt must have higher TTFT: {} vs {}",
            m1.ttft_iters,
            m2.ttft_iters
        );
        assert_eq!(m1.tokens, 6);
        assert_eq!(m2.tokens, 6);
        assert_eq!(m1.finish, FinishReason::Length);
        assert_eq!(m1.class, SloClass::Batch);
        assert_eq!(m1.deadline_met, None);
        // Decode proceeds one token per iteration once feeding is done (the first
        // iteration emits two tokens — feed completion plus one decode — so the
        // mean sits just below 1).
        assert!(m2.mean_tbt_iters() > 0.0 && m2.mean_tbt_iters() <= 1.0);
        assert_eq!(m1.preemptions + m2.preemptions, 0);
    }

    // ------------------------------------------------------------------
    // Handle-lifecycle, SLO-class, and stop-condition tests (the new API).
    // ------------------------------------------------------------------

    #[test]
    fn spec_builder_sets_every_field() {
        let spec = RequestSpec::new(3, vec![1, 2])
            .max_new_tokens(9)
            .class(SloClass::BestEffort)
            .deadline_work_tokens(77)
            .stop_token(5)
            .stop_sequence(vec![6, 7])
            .session(11);
        assert_eq!(spec.max_new_tokens, 9);
        assert_eq!(spec.class, SloClass::BestEffort);
        assert_eq!(spec.deadline_work_tokens, Some(77));
        assert_eq!(spec.stop_tokens, vec![5]);
        assert_eq!(spec.stop_sequences, vec![vec![6, 7]]);
        assert_eq!(spec.session, Some(11));
    }

    #[test]
    fn handle_streams_events_in_lifecycle_order() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let handle = sched.submit(request(1, 20, 5));
        assert_eq!(handle.id(), 1);
        assert!(!handle.is_terminal());
        let mut events = Vec::new();
        while !handle.is_terminal() {
            sched.step();
            events.extend(handle.drain_events());
        }
        events.extend(handle.drain_events());
        assert_eq!(events.first(), Some(&ServingEvent::Admitted));
        let streamed: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ServingEvent::FirstToken { token } | ServingEvent::Token { token } => Some(*token),
                _ => None,
            })
            .collect();
        assert_eq!(streamed.len(), 5);
        match events.last() {
            Some(ServingEvent::Finished {
                reason: FinishReason::Length,
                tokens,
            }) => assert_eq!(tokens, &streamed),
            other => panic!("expected Finished(Length), got {other:?}"),
        }
        // Exactly one FirstToken, before every Token.
        let first_pos = events
            .iter()
            .position(|e| matches!(e, ServingEvent::FirstToken { .. }))
            .expect("first token streamed");
        assert!(events
            .iter()
            .enumerate()
            .all(|(i, e)| !matches!(e, ServingEvent::Token { .. }) || i > first_pos));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ServingEvent::FirstToken { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn duplicate_id_rejected_with_reason_original_untouched() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let h1 = sched.submit(request(1, 12, 4));
        let h_dup = sched.submit(request(1, 6, 2));
        assert!(h_dup.is_terminal(), "duplicate rejected at submit time");
        assert_eq!(
            h_dup.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::DuplicateId
            }]
        );
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0].1.len(), 4, "original request served intact");
        assert!(r.rejected.is_empty(), "admission-level rejects unaffected");
        assert_eq!(r.rejections, vec![(1, RejectReason::DuplicateId)]);
        assert!(h1.is_terminal());
        // A terminal id stays taken: re-submitting after completion is still a
        // duplicate (ids are unique across the scheduler's lifetime).
        let h_dup2 = sched.submit(request(1, 6, 2));
        assert_eq!(
            h_dup2.drain_events(),
            vec![ServingEvent::Rejected {
                reason: RejectReason::DuplicateId
            }]
        );
    }

    #[test]
    fn stop_token_truncates_output_and_is_never_streamed() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg.clone());
        sched.submit(request(1, 20, 8));
        let reference = sched.run_to_completion(10_000).completed[0].1.clone();
        assert_eq!(reference.len(), 8);
        let stop_at = 4;
        let stop = reference[stop_at];
        // Guard against an earlier occurrence making the expectation ambiguous.
        assert!(!reference[..stop_at].contains(&stop));

        let mut sched2 = scheduler(EngineConfig::lserve_fp16(), scfg);
        let handle = sched2.submit(request(2, 20, 8).stop_token(stop));
        let r = sched2.run_to_completion(10_000);
        assert_eq!(r.completed[0].1, reference[..stop_at].to_vec());
        let m = r.request_metrics[0];
        assert_eq!(m.finish, FinishReason::StopToken);
        assert_eq!(m.tokens, stop_at);
        let events = handle.drain_events();
        assert!(
            events
                .iter()
                .all(|e| !matches!(e, ServingEvent::FirstToken { token } | ServingEvent::Token { token } if *token == stop)),
            "the stop token must never be streamed"
        );
        match events.last() {
            Some(ServingEvent::Finished { reason, tokens }) => {
                assert_eq!(*reason, FinishReason::StopToken);
                assert_eq!(tokens, &reference[..stop_at].to_vec());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
    }

    #[test]
    fn stop_sequence_completes_inclusively() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg.clone());
        sched.submit(request(1, 20, 8));
        let reference = sched.run_to_completion(10_000).completed[0].1.clone();
        let stop_seq = reference[3..5].to_vec();

        let mut sched2 = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched2.submit(request(2, 20, 8).stop_sequence(stop_seq.clone()));
        let r = sched2.run_to_completion(10_000);
        // Inclusive semantics: output ends with the matched sequence (its
        // tokens were already streamed when the match completed).
        let out = &r.completed[0].1;
        assert!(out.ends_with(&stop_seq));
        assert_eq!(out, &reference[..5].to_vec());
        assert_eq!(r.request_metrics[0].finish, FinishReason::StopSequence);
    }

    #[test]
    fn interactive_class_jumps_queue_and_batch_still_completes() {
        // Serialized admission (max_batch 1): under class-aware scheduling the
        // interactive request submitted *after* two batch requests runs first.
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.max_batch = 1;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg.clone());
        sched.submit(request(1, 24, 6));
        sched.submit(request(2, 24, 6));
        sched.submit(request(3, 8, 4).class(SloClass::Interactive));
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 3);
        let m3 = r.request_metrics.iter().find(|m| m.id == 3).unwrap();
        let m2 = r.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m3.ttft_work_tokens < m2.ttft_work_tokens,
            "interactive must not wait behind queued batch traffic: {} vs {}",
            m3.ttft_work_tokens,
            m2.ttft_work_tokens
        );
        // Class-blind FCFS instead serves arrival order.
        let mut blind_cfg = scfg;
        blind_cfg.class_aware = false;
        let mut blind = scheduler(EngineConfig::lserve_fp16(), blind_cfg);
        blind.submit(request(1, 24, 6));
        blind.submit(request(2, 24, 6));
        blind.submit(request(3, 8, 4).class(SloClass::Interactive));
        let rb = blind.run_to_completion(10_000);
        let b3 = rb.request_metrics.iter().find(|m| m.id == 3).unwrap();
        assert!(
            b3.ttft_work_tokens > m3.ttft_work_tokens,
            "class-aware scheduling must beat FCFS for the interactive request"
        );
        // Identical outputs under both orderings (determinism).
        assert_eq!(r.completed, rb.completed);
    }

    #[test]
    fn deadline_edf_orders_within_class() {
        // Two batch requests; the later arrival carries a tight deadline and
        // must be admitted first under serialized admission.
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.max_batch = 1;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 24, 6));
        sched.submit(request(2, 24, 6).deadline_work_tokens(40));
        let r = sched.run_to_completion(10_000);
        let m1 = r.request_metrics.iter().find(|m| m.id == 1).unwrap();
        let m2 = r.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m2.ttft_work_tokens < m1.ttft_work_tokens,
            "EDF must serve the tight deadline first: {} vs {}",
            m2.ttft_work_tokens,
            m1.ttft_work_tokens
        );
        assert_eq!(m2.deadline_work_tokens, Some(40));
        assert_eq!(m2.deadline_met, Some(m2.ttft_work_tokens <= 40));
        let (met, total) = r.deadlines();
        assert_eq!(total, 1);
        assert_eq!(met == 1, m2.deadline_met == Some(true));
    }

    #[test]
    fn cancel_mid_flight_releases_pages_and_survivor_matches_solo() {
        let w = weights();
        let cfg = EngineConfig::dense();
        // Solo reference for the survivor.
        let mut solo_cfg = SchedulerConfig::new(8192);
        solo_cfg.chunk_tokens = 8;
        let mut solo = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            solo_cfg,
        );
        solo.submit(request(2, 30, 10));
        let want = solo.run_to_completion(10_000).completed[0].1.clone();

        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        let victim = sched.submit(request(1, 40, 20));
        sched.submit(request(2, 30, 10));
        for _ in 0..4 {
            sched.step();
        }
        victim.cancel();
        victim.cancel(); // idempotent
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.completed[0], (2, want));
        assert_eq!(r.cancelled.len(), 1);
        assert_eq!(r.cancelled[0].0, 1);
        assert_eq!(sched.pool_in_use(), 0, "cancelled pages must be released");
        match sched.status(1) {
            Some(RequestStatus::Cancelled(tokens)) => assert_eq!(tokens, r.cancelled[0].1),
            other => panic!("expected cancelled, got {other:?}"),
        }
        match victim.drain_events().last() {
            Some(ServingEvent::Cancelled { tokens }) => assert_eq!(tokens, &r.cancelled[0].1),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn cancel_queued_request_never_runs() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.max_batch = 1;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        sched.submit(request(1, 24, 30));
        let queued = sched.submit(request(2, 24, 4));
        sched.step();
        assert_eq!(sched.status(2), Some(RequestStatus::Queued));
        queued.cancel();
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(r.cancelled, vec![(2, vec![])]);
        assert_eq!(
            queued.drain_events(),
            vec![ServingEvent::Cancelled { tokens: vec![] }]
        );
    }

    #[test]
    fn cancel_donates_completed_prefix_to_cache() {
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg, scfg);
        let handle = sched.submit(request(1, 48, 20));
        // Step until the prompt is partially fed, then cancel mid-flight.
        for _ in 0..3 {
            sched.step();
        }
        handle.cancel();
        sched.step();
        assert!(handle.is_terminal());
        assert!(
            sched.prefix_cache_entries() > 0,
            "cancellation must donate the completed prefix"
        );
        // A follow-up with the same prompt starts warm from the donation.
        sched.submit(request(2, 48, 4));
        let r = sched.run_to_completion(10_000);
        let m2 = r.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m2.cached_prompt_tokens > 0,
            "follow-up must hit the cancelled request's donated prefix"
        );
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0);
        assert_eq!(sched.pool_cold_in_use(), 0);
    }

    #[test]
    fn cancel_swapped_queued_victim_releases_cold_pages() {
        // Drive a victim into the swap-parked state, cancel it there, and
        // verify both tiers drain.
        let w = weights();
        let cfg = EngineConfig::dense();
        let m = &w.config;
        let one_seq_pages = m.num_layers * m.num_kv_heads * (cfg.paging.pages_for(70) + 1);
        let mut scfg = SchedulerConfig::new(one_seq_pages + 2);
        scfg.chunk_tokens = 16;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = PreemptionPolicy::Swap;
        let mut sched = Scheduler::new(Arc::new(ModelExecutor::new(w, cfg)), scfg);
        let h1 = sched.submit(request(1, 60, 10));
        let h2 = sched.submit(request(2, 60, 10));
        // Run until one of them has been swap-preempted.
        for _ in 0..200 {
            sched.step();
            if sched.pool_cold_in_use() > 0 {
                break;
            }
        }
        assert!(sched.pool_cold_in_use() > 0, "no swap-out happened");
        let parked = if matches!(sched.status(1), Some(RequestStatus::Queued)) {
            &h1
        } else {
            assert_eq!(sched.status(2), Some(RequestStatus::Queued));
            &h2
        };
        parked.cancel();
        let r = sched.run_to_completion(10_000);
        assert_eq!(r.completed.len() + r.cancelled.len(), 2);
        assert_eq!(r.cancelled.len(), 1);
        assert_eq!(sched.pool_in_use(), 0);
        assert_eq!(sched.pool_cold_in_use(), 0, "cold pages must drain");
    }

    #[test]
    fn session_continues_prior_turn() {
        let cfg = EngineConfig::lserve_fp16();
        let mut scfg = SchedulerConfig::new(8192);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(cfg.clone(), scfg);
        let turn1 = request(1, 32, 8).session(7);
        sched.submit(turn1.clone());
        let r1 = sched.run_to_completion(10_000);
        let out1 = r1.completed[0].1.clone();
        // Turn 2 carries only the *new* tokens; the session store prepends the
        // recorded conversation.
        let new_tokens = vec![33u32, 44, 55, 66];
        sched.submit(
            RequestSpec::new(2, new_tokens.clone())
                .max_new_tokens(4)
                .session(7),
        );
        let r2 = sched.run_to_completion(10_000);
        let out2 = r2
            .completed
            .iter()
            .find(|(id, _)| *id == 2)
            .unwrap()
            .1
            .clone();
        let m2 = r2.request_metrics.iter().find(|m| m.id == 2).unwrap();
        assert!(
            m2.cached_prompt_tokens > 0,
            "session turn must start warm from the donated conversation"
        );
        // Reference: a fresh scheduler fed the concatenated conversation
        // explicitly produces the same tokens.
        let mut fresh_cfg = SchedulerConfig::new(8192);
        fresh_cfg.chunk_tokens = 8;
        let mut fresh = scheduler(cfg, fresh_cfg);
        let mut full_prompt = turn1.prompt.clone();
        full_prompt.extend_from_slice(&out1);
        full_prompt.extend_from_slice(&new_tokens);
        fresh.submit(RequestSpec::new(9, full_prompt).max_new_tokens(4));
        let want = fresh.run_to_completion(10_000).completed[0].1.clone();
        assert_eq!(
            out2, want,
            "session continuation must match explicit concat"
        );
    }

    /// Small pages so the two sequences' hot footprints actually differ in
    /// page counts at toy context lengths.
    fn small_page_dense() -> EngineConfig {
        let mut cfg = EngineConfig::dense();
        cfg.paging = lserve_kvcache::PagingConfig::new(8, 4, lserve_quant::KvPrecision::Fp16);
        cfg.prefill_tile = 8;
        cfg
    }

    #[test]
    fn swap_victim_choice_prefers_fewest_sole_owned_hot_pages() {
        // Two running sequences of very different page footprints: under Swap
        // the cheap victim (fewer sole-owned hot pages) is chosen, under
        // Replay the least entitled (latest arrival).
        let run = |policy: PreemptionPolicy| {
            let mut scfg = SchedulerConfig::new(8192);
            scfg.chunk_tokens = 64;
            scfg.preemption = policy;
            let mut sched = scheduler(small_page_dense(), scfg);
            sched.submit(request(1, 60, 10)); // large context, earliest arrival
            sched.submit(request(2, 8, 10)); // small context
            sched.step(); // both admitted and prefilled (chunk covers both)
            assert_eq!(sched.running(), 2);
            let victim = sched.pick_victim(None).expect("two candidates");
            sched.running[victim].core.spec.id
        };
        assert_eq!(
            run(PreemptionPolicy::Swap),
            2,
            "swap must pick the cheapest victim (fewest sole-owned hot pages)"
        );
        assert_eq!(
            run(PreemptionPolicy::Replay),
            2,
            "replay picks the least entitled (latest) arrival"
        );
        // With the arrivals reversed — the large sequence arriving last — the
        // two policies diverge: replay still takes the latest arrival (the
        // large one), swap takes the cheap one.
        let run_rev = |policy: PreemptionPolicy| {
            let mut scfg = SchedulerConfig::new(8192);
            scfg.chunk_tokens = 64;
            scfg.preemption = policy;
            let mut sched = scheduler(small_page_dense(), scfg);
            sched.submit(request(1, 8, 10)); // small context, earliest arrival
            sched.submit(request(2, 60, 10)); // large context, latest arrival
            sched.step();
            assert_eq!(sched.running(), 2);
            let victim = sched.pick_victim(None).expect("two candidates");
            sched.running[victim].core.spec.id
        };
        assert_eq!(run_rev(PreemptionPolicy::Replay), 2);
        assert_eq!(
            run_rev(PreemptionPolicy::Swap),
            1,
            "swap-cost choice must override arrival order"
        );
    }

    #[test]
    fn victim_selection_spares_interactive_class() {
        // An interactive sequence is never preempted while a batch sequence
        // runs, regardless of arrival order or page footprint.
        for policy in [PreemptionPolicy::Replay, PreemptionPolicy::Swap] {
            let mut scfg = SchedulerConfig::new(8192);
            scfg.chunk_tokens = 64;
            scfg.preemption = policy;
            let mut sched = scheduler(EngineConfig::dense(), scfg);
            sched.submit(request(1, 8, 10).class(SloClass::Interactive));
            sched.submit(request(2, 60, 10)); // batch, huge footprint
            sched.step();
            assert_eq!(sched.running(), 2);
            let victim = sched.pick_victim(None).expect("two candidates");
            assert_eq!(
                sched.running[victim].core.spec.id, 2,
                "the batch sequence must lose under {policy:?}"
            );
        }
    }

    // ---------------------------------------------------------------- DAGs

    /// Output tokens drained so far from a handle's event stream.
    fn drained_tokens(events: &[ServingEvent]) -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match e {
                ServingEvent::FirstToken { token } | ServingEvent::Token { token } => Some(*token),
                _ => None,
            })
            .collect()
    }

    /// Steps `sched` until request `parent` has generated at least `want`
    /// tokens, returning the tokens seen so far (the fork-time history).
    fn run_until_generated(sched: &mut Scheduler, h: &RequestHandle, want: usize) -> Vec<u32> {
        let mut got = Vec::new();
        for _ in 0..1000 {
            if got.len() >= want {
                return got;
            }
            sched.step();
            got.extend(drained_tokens(&h.drain_events()));
        }
        panic!("parent never generated {want} tokens (got {})", got.len());
    }

    #[test]
    fn fork_is_zero_copy_and_branches_admit_free() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 12));
        run_until_generated(&mut sched, &hp, 3);

        let in_use_before = sched.pool_in_use();
        assert!(in_use_before > 0, "parent holds pages");
        let out = sched
            .fork(
                1,
                JoinPolicy::All,
                &[
                    BranchSpec::new(2, vec![50, 51]).max_new_tokens(4),
                    BranchSpec::new(3, vec![52, 53]).max_new_tokens(4),
                ],
            )
            .unwrap();
        // Acceptance: zero page copies at fork time. Every branch CoW-shares
        // the parent's pages, so refcounts rise but `in_use` does not.
        assert_eq!(
            sched.pool_in_use(),
            in_use_before,
            "fork must not allocate or copy pages"
        );
        assert_eq!(out.handles.len(), 2);

        // A branch's snapshot is fully hot, so admission is free: its first
        // event is `Admitted` (never `Resumed` — it was never preempted).
        sched.step();
        let first = out.handles[0].drain_events();
        assert_eq!(first.first(), Some(&ServingEvent::Admitted));

        let r = sched.run_to_completion(100_000);
        assert_eq!(r.dag.forks, 1);
        assert_eq!(r.dag.branches_spawned, 2);
        assert_eq!(r.dag.joins, 1, "All policy resolves once");
        assert_eq!(r.completed.len(), 3);
        assert_eq!(sched.pool_in_use(), 0, "all pages returned");
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved);
        assert!(js.winner.is_some());
    }

    #[test]
    fn surviving_branch_matches_solo_replay() {
        // A branch forked mid-decode — with or without a per-branch sparsity
        // override — must emit exactly the tokens of a solo run over its full
        // token history with the same positional schedule.
        let cfg = EngineConfig::lserve_with_budget(16);
        let mk = || {
            let mut scfg = SchedulerConfig::new(4096);
            scfg.chunk_tokens = 8;
            scfg
        };
        let mut sched = scheduler(cfg.clone(), mk());
        let hp = sched.submit(request(1, 16, 24));
        let gen_at_fork = run_until_generated(&mut sched, &hp, 3);
        let boundary = 16 + gen_at_fork.len();
        let over = SparsityOverride::none().with_budget(8);
        sched
            .fork(
                1,
                JoinPolicy::All,
                &[
                    BranchSpec::new(2, vec![60, 61, 62])
                        .max_new_tokens(6)
                        .sparsity(over),
                    BranchSpec::new(3, vec![63, 64, 65]).max_new_tokens(6),
                ],
            )
            .unwrap();
        let r = sched.run_to_completion(100_000);
        let branch_out = |id: u64| {
            r.completed
                .iter()
                .find(|(i, _)| *i == id)
                .unwrap_or_else(|| panic!("branch {id} completed"))
                .1
                .clone()
        };

        // Solo reference: same full history, same positional schedule.
        let mut history = request(1, 16, 0).prompt;
        history.extend_from_slice(&gen_at_fork);
        for (id, suffix, over) in [
            (2u64, vec![60, 61, 62], Some(over)),
            (3u64, vec![63, 64, 65], None),
        ] {
            let mut solo = scheduler(cfg.clone(), mk());
            let mut prompt = history.clone();
            prompt.extend_from_slice(&suffix);
            let mut spec = RequestSpec::new(id, prompt).max_new_tokens(6);
            if let Some(over) = over {
                spec = spec.sparsity_from(boundary, over);
            }
            solo.submit(spec);
            let solo_r = solo.run_to_completion(100_000);
            assert_eq!(
                branch_out(id),
                solo_r.completed[0].1,
                "branch {id} must be bit-identical to its solo replay"
            );
        }
    }

    #[test]
    fn first_finished_join_cancels_losers_with_donation() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        scfg.prefix_cache = true;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 8));
        run_until_generated(&mut sched, &hp, 2);
        let out = sched
            .fork(
                1,
                JoinPolicy::FirstFinished,
                &[
                    BranchSpec::new(2, vec![40]).max_new_tokens(2),
                    BranchSpec::new(3, vec![41]).max_new_tokens(40),
                ],
            )
            .unwrap();
        let h3 = out.handles[1].clone();
        let r = sched.run_to_completion(100_000);
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved);
        assert_eq!(js.winner, Some(2), "the short branch finishes first");
        assert_eq!(sched.status(2), Some(RequestStatus::Finished(branch2(&r))));
        assert!(matches!(sched.status(3), Some(RequestStatus::Cancelled(_))));
        assert!(h3
            .drain_events()
            .iter()
            .any(|e| matches!(e, ServingEvent::Cancelled { .. })));
        assert_eq!(r.dag.joins, 1);
        assert!(r.dag.branch_cancels >= 1, "the loser was cascade-cancelled");
        // Losers without sparsity overrides donate their prefix on the way out.
        assert!(sched.prefix_cache_entries() > 0);
        sched.flush_prefix_cache();
        assert_eq!(sched.pool_in_use(), 0, "only cache-held pages remained");
    }

    fn branch2(r: &ServingReport) -> Vec<u32> {
        r.completed
            .iter()
            .find(|(id, _)| *id == 2)
            .expect("branch 2 completed")
            .1
            .clone()
    }

    #[test]
    fn cancelling_parent_cascades_to_live_branches() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 200));
        run_until_generated(&mut sched, &hp, 2);
        let out = sched
            .fork(
                1,
                JoinPolicy::All,
                &[
                    BranchSpec::new(2, vec![40]).max_new_tokens(100),
                    BranchSpec::new(3, vec![41]).max_new_tokens(100),
                ],
            )
            .unwrap();
        hp.cancel();
        let r = sched.run_to_completion(100_000);
        assert!(matches!(sched.status(1), Some(RequestStatus::Cancelled(_))));
        assert!(matches!(sched.status(2), Some(RequestStatus::Cancelled(_))));
        assert!(matches!(sched.status(3), Some(RequestStatus::Cancelled(_))));
        assert_eq!(r.dag.branch_cancels, 2);
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved, "a fully-cancelled group still resolves");
        assert_eq!(js.winner, None);
        assert_eq!(sched.pool_in_use(), 0);
    }

    #[test]
    fn best_score_join_picks_biased_winner() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        let hp = sched.submit(request(1, 16, 8));
        run_until_generated(&mut sched, &hp, 2);
        let out = sched
            .fork(
                1,
                JoinPolicy::BestScore,
                &[
                    BranchSpec::new(2, vec![40]).max_new_tokens(3),
                    BranchSpec::new(3, vec![41])
                        .max_new_tokens(3)
                        .score_bias(100),
                    BranchSpec::new(4, vec![42]).max_new_tokens(3),
                ],
            )
            .unwrap();
        let r = sched.run_to_completion(100_000);
        let js = sched.join_status(out.group).unwrap();
        assert!(js.resolved);
        assert_eq!(js.winner, Some(3), "bias dominates equal token counts");
        // BestScore waits for the whole panel: nobody is cancelled.
        assert_eq!(r.dag.branch_cancels, 0);
        assert_eq!(r.completed.len(), 4);
    }

    #[test]
    fn fork_rejects_invalid_requests() {
        let mut scfg = SchedulerConfig::new(4096);
        scfg.chunk_tokens = 8;
        let mut sched = scheduler(EngineConfig::lserve_fp16(), scfg);
        assert_eq!(
            sched
                .fork(9, JoinPolicy::All, &[BranchSpec::new(2, vec![1])])
                .unwrap_err(),
            ForkError::ParentNotRunning(9)
        );
        let hp = sched.submit(request(1, 16, 8));
        run_until_generated(&mut sched, &hp, 1);
        assert_eq!(
            sched.fork(1, JoinPolicy::All, &[]).unwrap_err(),
            ForkError::NoBranches
        );
        assert_eq!(
            sched
                .fork(1, JoinPolicy::All, &[BranchSpec::new(1, vec![1])])
                .unwrap_err(),
            ForkError::DuplicateId(1),
            "an id the scheduler already knows is rejected"
        );
        assert_eq!(
            sched
                .fork(
                    1,
                    JoinPolicy::All,
                    &[BranchSpec::new(2, vec![1]), BranchSpec::new(2, vec![2])]
                )
                .unwrap_err(),
            ForkError::DuplicateId(2),
            "intra-batch duplicates are rejected"
        );
        assert_eq!(
            sched
                .fork(
                    1,
                    JoinPolicy::All,
                    &[BranchSpec::new(2, vec![1]).max_new_tokens(0)]
                )
                .unwrap_err(),
            ForkError::InvalidBranch(2)
        );
        assert_eq!(
            sched
                .fork(
                    1,
                    JoinPolicy::All,
                    &[BranchSpec::new(2, vec![1]).sparsity(
                        SparsityOverride::none().with_window(StreamingWindow::new(1, 2))
                    )]
                )
                .unwrap_err(),
            ForkError::InvalidBranch(2),
            "window overrides are admission-time-only"
        );
        // A failed fork leaves no trace: the scheduler still drains cleanly.
        let r = sched.run_to_completion(100_000);
        assert_eq!(r.dag.forks, 0);
        assert_eq!(r.completed.len(), 1);
        assert_eq!(sched.pool_in_use(), 0);
    }
}
