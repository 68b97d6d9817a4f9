//! The LServe engine: long-sequence LLM serving with unified sparse attention.
//!
//! This crate composes every substrate of the reproduction into the system of
//! Figure 5:
//!
//! * [`heads`] — the §3.3 static sparsity determination: DuoAttention gate values
//!   are thresholded at a sparsity quantile, classifying each KV head as a
//!   **retrieval (dense)** or **streaming** head, fixed offline for both stages.
//! * [`config`] — [`EngineConfig`] presets for LServe and the baselines it is
//!   compared against (dense, Quest-like flat selection, DuoAttention-like static
//!   only, QServe-like quantized dense), expressed over one shared engine so
//!   accuracy comparisons isolate the *policy*, exactly like the paper's setup.
//! * [`executor`] — the engine split into its shared and per-request halves:
//!   [`ModelExecutor`] (weights, policy, RoPE, head classification; immutable and
//!   `Arc`-shared) and [`SequenceState`] (per-layer two-way KV caches, selector
//!   state, position, stats). The executor runs block-sparse fused prefill (§3.4),
//!   two-way paged KV writeback, and decode with hierarchical + reusable page
//!   selection feeding the fused decode kernel (§3.5–3.6) — including
//!   [`ModelExecutor::decode_batch_sharded`], the layer-outer entry point that
//!   absorbs one token per decode row or a whole prefill-grid cell per prompt
//!   feed row (one GEMM per layer over the cell, bit-identical to one token per
//!   call), with an attention phase sharded across a sparsity-aware worker pool
//!   (bit-identical at every thread count).
//! * [`engine`] — [`Engine`], the single-sequence convenience wrapper over one
//!   executor + one sequence state.
//! * [`serving`] — the continuous-batching [`Scheduler`] behind the
//!   handle-based streaming request API ([`RequestSpec`] → [`RequestHandle`] →
//!   [`ServingEvent`]): chunked prefill over a fixed tile grid, exact
//!   page-demand reservation, SLO-class/deadline/swap-cost-aware admission and
//!   preemption, cancellation, multi-turn sessions, cross-request prefix
//!   caching — standing in for the vLLM-style serving loop the paper builds
//!   on. Every request state change goes through one transition point, so
//!   trace, handle events, status and report cannot drift apart.
//! * [`prefix`] — [`CachedPrefix`], the positionally exact per-sequence KV
//!   snapshot the scheduler donates into (and seeds from) the
//!   `lserve-prefixcache` radix tree.
//! * [`stats`] — work counters every stage reports (tiles, pages, selector calls),
//!   the quantities the cost model turns into GPU time.

pub mod cluster;
pub mod config;
pub mod dag;
pub mod engine;
pub mod executor;
pub mod heads;
pub mod metrics;
pub mod prefix;
pub mod serving;
pub mod sharding;
pub mod stats;

pub use cluster::{Cluster, ClusterConfig, ClusterForkOutcome, ClusterReport, RouterStats};
pub use config::{decode_threads_from_env, EngineConfig, SelectorKind};
pub use dag::{
    BranchSpec, DagStats, DagStore, ForkError, ForkOutcome, JoinPolicy, JoinStatus,
    SparsityOverride, SparsitySchedule,
};
pub use engine::{DecodeOutput, Engine, PrefillOutput};
pub use executor::{ModelExecutor, OutOfPagesError, SequenceState};
pub use heads::{classify_heads, streaming_masks_from_gates};
pub use lserve_costmodel::{devices_from_env, Placement, PlacementPolicy, Topology};
pub use lserve_kvcache::{migration_from_env, MigrationMode, MigrationStats};
pub use lserve_prefixcache::PrefixCacheStats;
pub use metrics::MetricsSnapshot;
pub use prefix::CachedPrefix;
pub use serving::{
    preemption_from_env, sequence_pages_estimate, tile_grid_boundary, AdmissionPolicy,
    FinishReason, PreemptionPolicy, RejectReason, RequestHandle, RequestMetrics, RequestSpec,
    RequestStatus, Scheduler, SchedulerConfig, ServingEvent, ServingReport, SloClass,
};
pub use sharding::{RebalanceOutcome, ShardingPlan, ShardingStats};
pub use stats::{EngineStats, MigrationDelta, ParallelExecStats};
