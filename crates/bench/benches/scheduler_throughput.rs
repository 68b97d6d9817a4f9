//! Criterion: continuous-batching scheduler throughput under memory pressure.
//!
//! Mixed prompt lengths over a pool deliberately sized below the joint footprint,
//! so the run exercises chunked prefill, batched decode, and at least one
//! preemption/resume cycle — the full control-plane cost, not just the kernels.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lserve_core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, ModelExecutor, RequestSpec, Scheduler,
    SchedulerConfig,
};
use lserve_kvcache::PagingConfig;
use lserve_model::{ModelConfig, ModelWeights};
use lserve_quant::KvPrecision;
use std::hint::black_box;

fn mixed_requests() -> Vec<RequestSpec> {
    // Short, medium, and long prompts interleaved (the arrival mix that makes
    // head-of-line blocking visible without chunked prefill).
    (0..6u64)
        .map(|i| {
            let prompt = (0..16 + 14 * i as usize)
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

fn pool_for_one_and_a_half(cfg: &EngineConfig, model: &ModelConfig, max_tokens: usize) -> usize {
    let one = sequence_pages_estimate(cfg, model, max_tokens);
    one + one / 2
}

fn bench_scheduler(c: &mut Criterion) {
    let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 6));
    let cfg = engine_cfg();
    let requests = mixed_requests();
    let max_tokens = requests
        .iter()
        .map(|r| r.prompt.len() + r.max_new_tokens)
        .max()
        .unwrap();
    let pool_pages = pool_for_one_and_a_half(&cfg, &weights.config, max_tokens);
    let exec = Arc::new(ModelExecutor::new(Arc::clone(&weights), cfg));

    let mut group = c.benchmark_group("scheduler_throughput");
    group.sample_size(10);
    for chunk in [8usize, 32] {
        group.bench_function(BenchmarkId::new("mixed_6req_preempting", chunk), |b| {
            b.iter(|| {
                let mut scfg = SchedulerConfig::new(pool_pages);
                scfg.chunk_tokens = chunk;
                scfg.admission = AdmissionPolicy::FirstChunk;
                let mut sched = Scheduler::new(Arc::clone(&exec), scfg);
                for r in &requests {
                    sched.submit(r.clone());
                }
                let report = sched.run_to_completion(1_000_000);
                assert_eq!(report.completed.len(), requests.len());
                assert!(report.preemptions > 0, "pool must force preemption");
                black_box(report)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
