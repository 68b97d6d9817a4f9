//! Tracing overhead guard: the preempting scheduler scene from
//! `scheduler_throughput`, run back-to-back with the tracer disabled and with
//! the bounded ring sink recording every span. The traced leg must stay
//! within 5% of the untraced wall time (min-of-N, interleaved so the two legs
//! see the same thermal/cache conditions), and outputs must be bit-identical
//! either way — tracing is observation, never behavior.
//!
//! Plain `main` (no Criterion): the comparison is a hard assertion, not a
//! statistics report, and CI runs it as its own bench leg.
//!
//! ```text
//! cargo bench -p lserve-bench --bench trace_overhead
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lserve_core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, ModelExecutor, RequestSpec, Scheduler,
    SchedulerConfig, ServingReport,
};
use lserve_kvcache::PagingConfig;
use lserve_model::{ModelConfig, ModelWeights};
use lserve_quant::KvPrecision;
use lserve_trace::{Tracer, DEFAULT_RING_CAPACITY};

/// Interleaved timing rounds per leg; the minimum is the noise-resistant
/// estimate of each leg's true cost.
const ROUNDS: usize = 9;

/// A step up from `ModelConfig::tiny()`: trace events are emitted per step,
/// layer, and shard — not per FLOP — so the overhead ratio is only meaningful
/// once each layer does non-trivial arithmetic, as any real model does.
fn bench_model() -> ModelConfig {
    ModelConfig {
        name: "trace-overhead-small".into(),
        num_layers: 4,
        hidden: 128,
        num_q_heads: 8,
        num_kv_heads: 4,
        head_dim: 16,
        ffn_hidden: 256,
        vocab: 97,
        rope_base: 10_000.0,
    }
}

fn mixed_requests() -> Vec<RequestSpec> {
    (0..6u64)
        .map(|i| {
            let prompt = (0..32 + 20 * i as usize)
                .map(|t| ((t * 3 + i as usize) % 90) as u32)
                .collect();
            RequestSpec::new(i, prompt).max_new_tokens(8)
        })
        .collect()
}

fn engine_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg
}

fn run_once(
    exec: &Arc<ModelExecutor>,
    requests: &[RequestSpec],
    pool_pages: usize,
    tracer: Tracer,
) -> ServingReport {
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = 16;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.tracer = tracer;
    let mut sched = Scheduler::new(Arc::clone(exec), scfg);
    for r in requests {
        sched.submit(r.clone());
    }
    let report = sched.run_to_completion(1_000_000);
    assert_eq!(report.completed.len(), requests.len());
    assert!(report.preemptions > 0, "pool must force preemption");
    report
}

fn main() {
    let weights = Arc::new(ModelWeights::random(&bench_model(), 6));
    let cfg = engine_cfg();
    let requests = mixed_requests();
    let max_tokens = requests
        .iter()
        .map(|r| r.prompt.len() + r.max_new_tokens)
        .max()
        .unwrap();
    let one = sequence_pages_estimate(&cfg, &weights.config, max_tokens);
    let pool_pages = one + one / 2;
    let exec = Arc::new(ModelExecutor::new(Arc::clone(&weights), cfg));

    // Tracing must never move outputs (the proptest suite pins this across the
    // policy matrix; re-checked here on the timed scene).
    let untraced_out = run_once(&exec, &requests, pool_pages, Tracer::disabled()).completed;
    let traced_tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
    let traced_out = run_once(&exec, &requests, pool_pages, traced_tracer.clone()).completed;
    assert_eq!(untraced_out, traced_out, "tracing must not change outputs");
    let (events, dropped) = traced_tracer.drain();
    assert!(!events.is_empty(), "ring sink must have recorded spans");
    assert!(
        events.len() <= DEFAULT_RING_CAPACITY,
        "ring sink must bound retention"
    );

    // Warmup, then interleave the legs and keep the minimum of each.
    for _ in 0..2 {
        black_box(run_once(&exec, &requests, pool_pages, Tracer::disabled()));
    }
    let mut min_off = Duration::MAX;
    let mut min_ring = Duration::MAX;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(run_once(&exec, &requests, pool_pages, Tracer::disabled()));
        min_off = min_off.min(t.elapsed());

        let tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
        let t = Instant::now();
        black_box(run_once(&exec, &requests, pool_pages, tracer.clone()));
        min_ring = min_ring.min(t.elapsed());
        black_box(tracer.drain());
    }

    let overhead = min_ring.as_secs_f64() / min_off.as_secs_f64() - 1.0;
    println!(
        "trace_overhead: untraced {:?}, ring-traced {:?} ({} events, {dropped} dropped) \
         -> overhead {:+.2}%",
        min_off,
        min_ring,
        events.len(),
        100.0 * overhead,
    );
    assert!(
        min_ring.as_secs_f64() <= min_off.as_secs_f64() * 1.05,
        "ring-sink tracing must cost < 5% of untraced scheduler wall time \
         (untraced {min_off:?}, traced {min_ring:?})"
    );
}
