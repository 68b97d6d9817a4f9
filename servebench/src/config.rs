//! The one pinned server configuration every workload runs against.
//!
//! Every knob the library would otherwise read from the environment is
//! written here explicitly, and the `LSERVE_*` variables are overwritten with
//! the same values at start-up ([`pin_environment`]), so a stray shell
//! variable or a CI matrix leg cannot change what is measured.

use std::sync::Arc;

use lserve_core::{
    AdmissionPolicy, EngineConfig, MigrationMode, ModelExecutor, PlacementPolicy, PreemptionPolicy,
    SchedulerConfig,
};
use lserve_model::{ModelConfig, ModelWeights};
use lserve_trace::Tracer;

use crate::json::Json;

/// Seed of the model weights: part of the server, not of the traffic.
pub const WEIGHT_SEED: u64 = 0x5EB0_0C4E;
/// Dynamic page budget of dense heads, in tokens.
pub const BUDGET_TOKENS: usize = 512;
/// Prompt tokens fed per sequence per scheduler step (and the fused
/// tile-prefill cell).
pub const CHUNK_TOKENS: usize = 128;
/// Longest sequence the server must hold: the largest `longdoc` prompt plus
/// its output.
pub const MAX_SEQUENCE_TOKENS: usize = 16_384 + 512;
/// Hot (device) pool headroom above one maximal sequence, in pages.
pub const POOL_HEADROOM_PAGES: usize = 32;
/// Bounded host (cold) tier, in pages; bounded so cached prefixes spill.
pub const HOST_PAGES: usize = 1024;
/// Running-batch cap.
pub const MAX_BATCH: usize = 64;
/// Attention worker threads: one, leaving the second core to the OS.
pub const DECODE_THREADS: usize = 1;

/// The bench model: 2 layers, hidden 256, 8 query / 4 KV heads of dim 32,
/// FFN 512, vocab 1024.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        name: "servebench".into(),
        num_layers: 2,
        hidden: 256,
        num_q_heads: 8,
        num_kv_heads: 4,
        head_dim: 32,
        ffn_hidden: 512,
        vocab: 1024,
        rope_base: 10_000.0,
    }
}

/// The LServe engine: INT4 KV, 64/16 hierarchical pages, 50% streaming heads,
/// a 512-token dynamic budget, reuse interval 4.
pub fn engine_config() -> EngineConfig {
    EngineConfig::lserve_with_budget(BUDGET_TOKENS)
}

/// Hot pool size: one maximal sequence plus headroom.
pub fn pool_pages() -> usize {
    lserve_core::sequence_pages_estimate(&engine_config(), &model_config(), MAX_SEQUENCE_TOKENS)
        + POOL_HEADROOM_PAGES
}

/// The scheduler policy with every field set explicitly.
pub fn scheduler_config() -> SchedulerConfig {
    let mut s = SchedulerConfig::from_env(pool_pages());
    s.pool_pages = pool_pages();
    s.chunk_tokens = CHUNK_TOKENS;
    s.max_batch = MAX_BATCH;
    s.admission = AdmissionPolicy::FirstChunk;
    s.prefix_cache = true;
    s.decode_threads = DECODE_THREADS;
    s.devices = 1;
    s.placement = PlacementPolicy::SparsityAware;
    s.rebalance_interval = 16;
    s.rebalance_threshold = 1.5;
    s.preemption = PreemptionPolicy::Swap;
    s.migration = MigrationMode::Async;
    s.host_pages = HOST_PAGES;
    s.nvme = false;
    s.class_aware = true;
    s.no_deadline_slack = 1 << 20;
    s.tracer = Tracer::disabled();
    s
}

/// Overwrites every `LSERVE_*` variable the library reads with the pinned
/// value. Call once, first thing in `main`, before any thread exists.
pub fn pin_environment() {
    let pinned = [
        ("LSERVE_DECODE_THREADS", DECODE_THREADS.to_string()),
        ("LSERVE_PREEMPTION", "swap".to_string()),
        ("LSERVE_MIGRATION", "async".to_string()),
        ("LSERVE_DEVICES", "1".to_string()),
        ("LSERVE_HOST_PAGES", HOST_PAGES.to_string()),
        ("LSERVE_NVME", "0".to_string()),
    ];
    for (k, v) in pinned {
        std::env::set_var(k, v);
    }
    std::env::remove_var("LSERVE_TRACE");
}

/// Seeded weights and the shared executor built over them.
pub fn build_executor() -> Arc<ModelExecutor> {
    let weights = Arc::new(ModelWeights::random(&model_config(), WEIGHT_SEED));
    Arc::new(ModelExecutor::new(weights, engine_config()))
}

/// The pinned configuration as JSON, echoed in the run's output.
pub fn describe() -> Json {
    let m = model_config();
    let e = engine_config();
    let s = scheduler_config();
    Json::obj([
        (
            "model",
            Json::obj([
                ("layers", Json::from(m.num_layers)),
                ("hidden", Json::from(m.hidden)),
                ("q_heads", Json::from(m.num_q_heads)),
                ("kv_heads", Json::from(m.num_kv_heads)),
                ("head_dim", Json::from(m.head_dim)),
                ("ffn", Json::from(m.ffn_hidden)),
                ("vocab", Json::from(m.vocab)),
                ("weight_seed", Json::from(WEIGHT_SEED)),
            ]),
        ),
        (
            "engine",
            Json::obj([
                (
                    "kv_precision",
                    Json::from(format!("{:?}", e.paging.precision())),
                ),
                ("physical_page", Json::from(e.paging.physical_page_size())),
                ("logical_page", Json::from(e.paging.logical_page_size())),
                ("streaming_sparsity", Json::from(e.streaming_sparsity)),
                ("dynamic_budget", Json::from(BUDGET_TOKENS)),
                ("selector", Json::from(format!("{:?}", e.selector))),
                ("reuse_interval", Json::from(e.reuse_interval)),
                (
                    "demote_after_chunks",
                    e.demote_after_chunks.map_or(Json::Null, Json::from),
                ),
            ]),
        ),
        (
            "scheduler",
            Json::obj([
                ("pool_pages", Json::from(s.pool_pages)),
                ("host_pages", Json::from(s.host_pages)),
                ("nvme", Json::from(s.nvme)),
                ("chunk_tokens", Json::from(s.chunk_tokens)),
                ("max_batch", Json::from(s.max_batch)),
                ("admission", Json::from(format!("{:?}", s.admission))),
                ("prefix_cache", Json::from(s.prefix_cache)),
                ("decode_threads", Json::from(s.decode_threads)),
                ("devices", Json::from(s.devices)),
                ("preemption", Json::from(format!("{:?}", s.preemption))),
                ("migration", Json::from(format!("{:?}", s.migration))),
                ("class_aware", Json::from(s.class_aware)),
            ]),
        ),
    ])
}
