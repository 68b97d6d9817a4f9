//! Direct per-layer timings for the traced run.
//!
//! Each probe calls one layer's public functions at the shapes the workload
//! just produced (its contexts, its prompt set, the model's matrices) and
//! records every timed batch as a span charged to that layer. Timings are the
//! median over several batches of the per-call wall time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lserve_attention::{
    decode_dense_head, decode_streaming_head, fused_prefill_layer, LayerAttnConfig,
};
use lserve_core::ModelExecutor;
use lserve_kvcache::{DenseHeadCache, KvPage, PagePool, StreamingHeadCache};
use lserve_prefixcache::{PageRunPrefix, PrefixCache};
use lserve_quant::{KvPrecision, QuantParams, QuantizedTensor};
use lserve_selector::{HierarchicalSelector, PageSelector};
use lserve_tensor::{Matrix, SeededGaussian};

use crate::config::{BUDGET_TOKENS, CHUNK_TOKENS};
use crate::spans::SpanRecorder;
use crate::stats::median;

/// Timed batches per measurement.
pub const BATCHES: usize = 7;

/// One per-layer number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median per-call wall time of `f`, in ns, over [`BATCHES`] spans of `reps`
/// calls each.
fn per_call_ns(
    rec: &mut SpanRecorder,
    name: &'static str,
    layer: &'static str,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let span = rec.begin(name, layer, None);
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            let ns = start.elapsed().as_nanos() as f64 / reps as f64;
            rec.end(span);
            ns
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

fn gaussian_rows(g: &mut SeededGaussian, rows: usize, cols: usize) -> Vec<Vec<f32>> {
    (0..rows)
        .map(|_| (0..cols).map(|_| g.sample()).collect())
        .collect()
}

/// A pool and one dense and one streaming head cache holding `ctx` random
/// tokens, built with the engine's paging; returns the mean append cost in
/// ns per token (both caches).
fn build_caches(
    exec: &ModelExecutor,
    rec: &mut SpanRecorder,
    ctx: usize,
    seed: u64,
) -> (PagePool, DenseHeadCache, StreamingHeadCache, f64) {
    let cfg = exec.config();
    let d = exec.weights().config.head_dim;
    let paging = cfg.paging;
    let mut pool = PagePool::new(paging, paging.pages_for(ctx) + 16, d);
    let mut g = SeededGaussian::new(seed);
    let keys = gaussian_rows(&mut g, ctx, d);
    let values = gaussian_rows(&mut g, ctx, d);
    let mut dense = DenseHeadCache::new();
    let mut streaming = StreamingHeadCache::new(cfg.streaming_window);
    let span = rec.begin("kvcache.append", "kvcache", None);
    let start = Instant::now();
    for (k, v) in keys.iter().zip(&values) {
        assert!(dense.append(&mut pool, k, v), "probe pool sized for ctx");
        assert!(
            streaming.append(&mut pool, k, v),
            "probe pool sized for ctx"
        );
    }
    let ns_per_token = start.elapsed().as_nanos() as f64 / (2 * ctx) as f64;
    rec.end(span);
    (pool, dense, streaming, ns_per_token)
}

/// Decode attention by head kind and one fused prefill chunk, at `ctx`
/// tokens of history; plus the INT4 append cost measured while building it.
pub fn attention_and_kvcache(
    exec: &ModelExecutor,
    rec: &mut SpanRecorder,
    ctx: usize,
) -> Vec<Metric> {
    let d = exec.weights().config.head_dim;
    let (pool, dense, streaming, append_ns) = build_caches(exec, rec, ctx, 0xA77);
    let mut g = SeededGaussian::new(0xA78);
    let q: Vec<f32> = (0..d).map(|_| g.sample()).collect();
    let scale = 1.0 / (d as f32).sqrt();
    let selected = HierarchicalSelector::new(true)
        .select(&pool, &dense, &[&q], BUDGET_TOKENS, 0)
        .pages;
    let reps = (200_000 / ctx).max(4);
    let full = per_call_ns(rec, "attention.decode_full", "attention", reps, || {
        black_box(decode_dense_head(&pool, &dense, &q, scale, None));
    });
    let sel = per_call_ns(rec, "attention.decode_selected", "attention", 200, || {
        black_box(decode_dense_head(&pool, &dense, &q, scale, Some(&selected)));
    });
    let stream = per_call_ns(rec, "attention.decode_streaming", "attention", 200, || {
        black_box(decode_streaming_head(&pool, &streaming, &q, scale));
    });

    // One fused prefill cell over every head of a layer, with the layer's
    // real head classification.
    let m = &exec.weights().config;
    let rows = CHUNK_TOKENS;
    let mk = |g: &mut SeededGaussian, cols: usize| {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| g.sample()).collect())
    };
    let (qm, km, vm) = (
        mk(&mut g, m.num_q_heads * d),
        mk(&mut g, m.num_kv_heads * d),
        mk(&mut g, m.num_kv_heads * d),
    );
    let cfg = exec.config();
    let attn_cfg = LayerAttnConfig {
        num_q_heads: m.num_q_heads,
        num_kv_heads: m.num_kv_heads,
        head_dim: d,
        tile: cfg.prefill_tile,
        sink_blocks: cfg.streaming_window.sink_pages,
        local_blocks: cfg.streaming_window.local_pages,
    };
    let kinds = exec.head_kinds()[0].clone();
    let prefill = per_call_ns(rec, "attention.prefill_chunk", "attention", 3, || {
        black_box(fused_prefill_layer(&qm, &km, &vm, &attn_cfg, &kinds));
    });
    vec![
        Metric::new("attention.decode_full_us", full / 1e3, "us"),
        Metric::new("attention.decode_selected_us", sel / 1e3, "us"),
        Metric::new("attention.decode_streaming_us", stream / 1e3, "us"),
        Metric::new("attention.prefill_chunk_ms", prefill / 1e6, "ms"),
        Metric::new("kvcache.append_ns_per_token", append_ns, "ns"),
    ]
}

/// Hierarchical page selection (one GQA group, the engine's budget) at each
/// of `contexts`, named `selector.select_us.<label>`.
pub fn selector(
    exec: &ModelExecutor,
    rec: &mut SpanRecorder,
    contexts: &[(usize, &str)],
) -> Vec<Metric> {
    let m = &exec.weights().config;
    let group = m.num_q_heads / m.num_kv_heads;
    let mut g = SeededGaussian::new(0x5E1);
    let queries = gaussian_rows(&mut g, group, m.head_dim);
    let qrefs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    contexts
        .iter()
        .map(|&(ctx, label)| {
            let (pool, dense, _, _) = build_caches(exec, rec, ctx, 0x5E2 + ctx as u64);
            let mut sel = HierarchicalSelector::new(true);
            let ns = per_call_ns(rec, "selector.select", "selector", 20, || {
                black_box(sel.select(&pool, &dense, &qrefs, BUDGET_TOKENS, 0));
            });
            Metric::new(format!("selector.select_us.{label}"), ns / 1e3, "us")
        })
        .collect()
}

/// Host bytes one token occupies in one KV head's page at the engine's
/// precision, from the page's field layout: the effective f32 key and value
/// rows, the packed codes, the per-row scale/zero pairs, and the per-logical
/// -page key min/max statistics amortized over the logical page, plus the
/// page struct itself amortized over the physical page. Computed, not
/// measured: it moves only when the page layout changes.
pub fn kv_bytes_per_token(exec: &ModelExecutor) -> f64 {
    let cfg = exec.config().paging;
    let d = exec.weights().config.head_dim as f64;
    let f32b = std::mem::size_of::<f32>() as f64;
    let vec_header = std::mem::size_of::<Vec<f32>>() as f64;
    let rows = 2.0 * d * f32b;
    let (codes, params) = match cfg.precision() {
        KvPrecision::Fp16 => (0.0, 0.0),
        KvPrecision::Int8 => (2.0 * d, 2.0 * std::mem::size_of::<QuantParams>() as f64),
        KvPrecision::Int4 => (
            2.0 * (d / 2.0).ceil(),
            2.0 * std::mem::size_of::<QuantParams>() as f64,
        ),
    };
    // kmin + kmax vectors, their headers and a token counter.
    let stats = 2.0 * (d * f32b + vec_header) + std::mem::size_of::<usize>() as f64;
    let page_struct = std::mem::size_of::<KvPage>() as f64;
    rows + codes
        + params
        + stats / cfg.logical_page_size() as f64
        + page_struct / cfg.physical_page_size() as f64
}

/// The fused INT4 dequantize-dot over one physical page of keys.
pub fn quant(exec: &ModelExecutor, rec: &mut SpanRecorder) -> Vec<Metric> {
    let d = exec.weights().config.head_dim;
    let page = exec.config().paging.physical_page_size();
    let mut g = SeededGaussian::new(0x0A47);
    let data: Vec<f32> = (0..page * d).map(|_| g.sample()).collect();
    let q: Vec<f32> = (0..d).map(|_| g.sample()).collect();
    let t = QuantizedTensor::quantize(&data, page, d, KvPrecision::Int4);
    let ns = per_call_ns(rec, "quant.fused_dot_page", "quant", 200, || {
        let mut acc = 0.0f32;
        for row in 0..page {
            acc += t.dot_row(row, &q);
        }
        black_box(acc);
    });
    vec![Metric::new("quant.fused_dot_ns_per_page", ns, "ns")]
}

/// `matmul` throughput at the model's QKV, O and FFN shapes for one prefill
/// cell of activations, with the layer's real weights.
pub fn tensor(exec: &ModelExecutor, rec: &mut SpanRecorder) -> Vec<Metric> {
    let w = exec.weights();
    let lw = &w.layers[0];
    let m = &w.config;
    let rows = CHUNK_TOKENS;
    let mut g = SeededGaussian::new(0x7E5);
    let x = Matrix::from_vec(
        rows,
        m.hidden,
        (0..rows * m.hidden).map(|_| g.sample()).collect(),
    );
    let attn = Matrix::from_vec(
        rows,
        m.q_width(),
        (0..rows * m.q_width()).map(|_| g.sample()).collect(),
    );
    let act = Matrix::from_vec(
        rows,
        m.ffn_hidden,
        (0..rows * m.ffn_hidden).map(|_| g.sample()).collect(),
    );
    let flops = |k: usize, n: usize| 2.0 * (rows * k * n) as f64;
    let qkv_flops = flops(m.hidden, m.q_width()) + 2.0 * flops(m.hidden, m.kv_width());
    let qkv = per_call_ns(rec, "tensor.matmul_qkv", "tensor", 3, || {
        black_box((x.matmul(&lw.wq), x.matmul(&lw.wk), x.matmul(&lw.wv)));
    });
    let o = per_call_ns(rec, "tensor.matmul_o", "tensor", 3, || {
        black_box(attn.matmul(&lw.wo));
    });
    let ffn_flops = 2.0 * flops(m.hidden, m.ffn_hidden) + flops(m.ffn_hidden, m.hidden);
    let ffn = per_call_ns(rec, "tensor.matmul_ffn", "tensor", 3, || {
        black_box((
            x.matmul(&lw.w_gate),
            x.matmul(&lw.w_up),
            act.matmul(&lw.w_down),
        ));
    });
    // flops / ns = GFLOP/s.
    vec![
        Metric::new("tensor.matmul_gflops.qkv", qkv_flops / qkv, "GFLOP/s"),
        Metric::new(
            "tensor.matmul_gflops.o",
            flops(m.q_width(), m.hidden) / o,
            "GFLOP/s",
        ),
        Metric::new("tensor.matmul_gflops.ffn", ffn_flops / ffn, "GFLOP/s"),
    ]
}

/// Radix-tree lookups of the workload's own prompts in a cache holding all
/// of them (the serving lookup bounds: at least one prefill cell matched, at
/// least one token left to compute).
pub fn prefixcache(
    exec: &ModelExecutor,
    rec: &mut SpanRecorder,
    prompts: &[&[u32]],
) -> Vec<Metric> {
    let cfg = exec.config().paging;
    let mut pool = PagePool::new(cfg, 1, exec.weights().config.head_dim);
    let mut cache: PrefixCache<PageRunPrefix> = PrefixCache::new();
    for p in prompts {
        let value = PageRunPrefix {
            tokens: p.len(),
            runs: Vec::new(),
        };
        cache.insert(&mut pool, p, value);
    }
    let ns = per_call_ns(rec, "prefixcache.lookup", "prefixcache", 4, || {
        for p in prompts {
            black_box(
                cache
                    .lookup(p, CHUNK_TOKENS, p.len().saturating_sub(1))
                    .is_some(),
            );
        }
    });
    cache.clear(&mut pool);
    vec![Metric::new(
        "prefixcache.lookup_us",
        ns / prompts.len().max(1) as f64 / 1e3,
        "us",
    )]
}

/// Wall time of `ModelExecutor::decode_step` for one sequence grown token by
/// token (the scheduler's prompt-feed path) to each of `contexts`: the median
/// step over the 64 steps starting at each context. Returns one value per
/// context, in ms.
pub fn executor_decode_ms(
    exec: &Arc<ModelExecutor>,
    rec: &mut SpanRecorder,
    contexts: &[usize],
) -> Vec<f64> {
    const WINDOW: usize = 64;
    let last = contexts.iter().max().copied().unwrap_or(0) + WINDOW;
    let cfg = exec.config().clone();
    let mut pool = cfg.make_pool_for(&exec.weights().config, last + 1);
    let mut state = exec.new_sequence();
    let mut g = crate::rng::Rng::new(0xE8EC, 0);
    let vocab = exec.weights().config.vocab as u32;
    let span = rec.begin("executor.grow", "executor", None);
    exec.prefill(&mut state, &mut pool, &g.tokens(CHUNK_TOKENS, vocab))
        .expect("probe pool holds the sequence");
    let mut per_ctx: Vec<Vec<f64>> = vec![Vec::new(); contexts.len()];
    for pos in CHUNK_TOKENS..last {
        let bucket = contexts
            .iter()
            .position(|&c| (c..c + WINDOW).contains(&pos));
        let token = g.below(u64::from(vocab)) as u32;
        let start = Instant::now();
        exec.decode_step(&mut state, &mut pool, token)
            .expect("probe pool holds the sequence");
        if let Some(b) = bucket {
            per_ctx[b].push(start.elapsed().as_nanos() as f64 / 1e6);
        }
    }
    state.release(&mut pool);
    rec.end(span);
    per_ctx.iter().map(|v| median(v).unwrap_or(0.0)).collect()
}
