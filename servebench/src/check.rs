//! The output check: sampled requests replayed solo through [`Engine`].
//!
//! The scheduler promises that every request's tokens are bit-identical to a
//! solo run of the same prompt on the same weights and [`EngineConfig`],
//! whatever the batching, preemption, prefix-cache hits or tier moves. The
//! solo replay follows the scheduler's prefill tile grid: the first
//! [`tile_grid_boundary`] tokens go through fused prefill, the rest of the
//! prompt through the per-token decode path, then greedy decoding.
//!
//! [`EngineConfig`]: lserve_core::EngineConfig

use std::sync::Arc;

use lserve_core::{tile_grid_boundary, Engine, EngineStats, ModelExecutor};
use lserve_model::greedy_next_token;

/// Tokens a solo [`Engine`] generates for `prompt`, and the engine's work
/// counters.
///
/// # Panics
///
/// Panics if the solo pool (sized for exactly this sequence) runs out.
pub fn replay_solo(
    exec: &Arc<ModelExecutor>,
    prompt: &[u32],
    max_new_tokens: usize,
    chunk_tokens: usize,
) -> (Vec<u32>, EngineStats) {
    let cfg = exec.config().clone();
    let mut pool = cfg.make_pool_for(&exec.weights().config, prompt.len() + max_new_tokens);
    let mut engine = Engine::from_executor(Arc::clone(exec));
    let cell = tile_grid_boundary(chunk_tokens, prompt.len());
    let mut logits = engine
        .prefill(&mut pool, &prompt[..cell])
        .expect("solo pool holds the prompt")
        .logits;
    for &t in &prompt[cell..] {
        logits = engine
            .decode_step(&mut pool, t)
            .expect("solo pool holds the prompt")
            .logits;
    }
    let mut out = Vec::with_capacity(max_new_tokens);
    while out.len() < max_new_tokens {
        let next = greedy_next_token(&logits);
        out.push(next);
        if out.len() < max_new_tokens {
            logits = engine
                .decode_step(&mut pool, next)
                .expect("solo pool holds the sequence")
                .logits;
        }
    }
    let stats = engine.stats();
    engine.release(&mut pool);
    (out, stats)
}

/// Indices of the requests to replay: every `every`-th of `sent`, at most
/// `max` of them.
pub fn sample(sent: usize, every: usize, max: usize) -> Vec<usize> {
    (0..sent).step_by(every.max(1)).take(max).collect()
}
