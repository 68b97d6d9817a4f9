//! Fused layer-level hybrid prefill attention (§3.2 prefill dataflow, §3.6 kernel).
//!
//! One call processes every head of a layer: dense (retrieval) heads with full causal
//! or dynamic block-sparse attention and streaming heads with the Λ pattern, mirroring
//! the single fused CUDA kernel that "enables different sparsity patterns to be
//! applied independently on each head". GQA's query→KV head mapping
//! (`h_kv = h / n`, Eq. 1) is applied here. Decode's per-layer counterpart is the
//! executor's shard set over [`crate::parallel::run_decode_shard`].

use lserve_tensor::Matrix;

use crate::dynamic::build_dynamic_prefill_mask;
use crate::parallel::{run_placed, BalanceStats};
use crate::pattern::{DensePattern, StreamingPattern};
use crate::prefill::{prefill_attention, PrefillStats};

/// Static classification of one KV head (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// Retrieval head: full history, eligible for dynamic page sparsity.
    Dense,
    /// Streaming head: Λ mask (sink + local blocks).
    Streaming,
}

/// Geometry of a layer's attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerAttnConfig {
    /// Number of query heads `H`.
    pub num_q_heads: usize,
    /// Number of KV heads `Ĥ` (equal to `H` for MHA, smaller for GQA).
    pub num_kv_heads: usize,
    /// Per-head feature dimension `D`.
    pub head_dim: usize,
    /// Square tile size (`TQ = TK`) for prefill block sparsity.
    pub tile: usize,
    /// Streaming pattern for streaming heads (in blocks of `tile` tokens for
    /// prefill; in physical pages for decode).
    pub sink_blocks: usize,
    /// Local blocks of the streaming pattern.
    pub local_blocks: usize,
}

impl LayerAttnConfig {
    /// Query heads per KV head (`n` in Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `num_q_heads` is not a multiple of `num_kv_heads`.
    pub fn group_size(&self) -> usize {
        assert_eq!(
            self.num_q_heads % self.num_kv_heads,
            0,
            "query heads must divide into KV heads"
        );
        self.num_q_heads / self.num_kv_heads
    }

    /// KV head serving query head `h`.
    pub fn kv_head_of(&self, h: usize) -> usize {
        h / self.group_size()
    }

    /// Logit scale `1/sqrt(D)`.
    pub fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }
}

/// Extracts head `h`'s column block from a `(N x heads*D)` activation matrix.
fn head_slice(m: &Matrix, h: usize, d: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), d);
    for r in 0..m.rows() {
        out.row_mut(r)
            .copy_from_slice(&m.row(r)[h * d..(h + 1) * d]);
    }
    out
}

/// Fused block-sparse prefill over all heads of one layer.
///
/// `q` is `(N x H·D)`; `k`, `v` are `(N x Ĥ·D)`; `kinds` classifies each **KV** head
/// (query heads inherit their KV head's kind, since streaming heads drop the KV that
/// grouped query heads would need). Returns the `(N x H·D)` attention output plus
/// aggregate tile counters split by head kind.
///
/// # Panics
///
/// Panics on shape mismatches or if `kinds.len() != num_kv_heads`.
pub fn fused_prefill_layer(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &LayerAttnConfig,
    kinds: &[HeadKind],
) -> (Matrix, PrefillStats, PrefillStats) {
    let (out, dense, stream, _) = fused_prefill_layer_threads(q, k, v, cfg, kinds, None, 1);
    (out, dense, stream)
}

/// One query head's unit of prefill work inside the sharded layer kernel.
struct PrefillShard {
    h: usize,
    kind: HeadKind,
    qh: Matrix,
    kh: Matrix,
    vh: Matrix,
    out: Matrix,
    stats: PrefillStats,
}

/// Sharded variant of [`fused_prefill_layer`]: each query head is one shard,
/// executed on one device across up to `threads` scoped worker threads with an
/// LPT assignment by estimated tile cost (dense heads grow quadratically with
/// the prompt, streaming heads linearly — the per-head sparsity asymmetry that
/// makes naive partitioning unbalanced).
///
/// `dynamic_keep` selects the MInference-style *dynamic* mask for dense heads
/// (`Some(keep)`: each head builds its own query-aware mask keeping the
/// diagonal, the sink blocks, and `keep` top-affinity past blocks per query
/// tile, §4.3) or full causal attention (`None`); streaming heads run the Λ
/// pattern either way. Outputs are bit-identical for every thread count: each
/// shard computes into its own buffer with the same kernel on the same inputs,
/// and the scatter into the layer output runs serially in head order.
///
/// # Panics
///
/// Same shape requirements as [`fused_prefill_layer`].
pub fn fused_prefill_layer_threads(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &LayerAttnConfig,
    kinds: &[HeadKind],
    dynamic_keep: Option<usize>,
    threads: usize,
) -> (Matrix, PrefillStats, PrefillStats, BalanceStats) {
    let n = q.rows();
    let d = cfg.head_dim;
    assert_eq!(q.cols(), cfg.num_q_heads * d, "Q width mismatch");
    assert_eq!(k.cols(), cfg.num_kv_heads * d, "K width mismatch");
    assert_eq!(v.cols(), cfg.num_kv_heads * d, "V width mismatch");
    assert_eq!(k.rows(), n, "K rows mismatch");
    assert_eq!(kinds.len(), cfg.num_kv_heads, "kinds length mismatch");

    let streaming = StreamingPattern::new(cfg.sink_blocks, cfg.local_blocks);
    let nt = n.div_ceil(cfg.tile) as u64;
    let causal_tiles = nt * (nt + 1) / 2;
    let mut shards: Vec<PrefillShard> = Vec::with_capacity(cfg.num_q_heads);
    let mut costs: Vec<u64> = Vec::with_capacity(cfg.num_q_heads);
    for h in 0..cfg.num_q_heads {
        let kv = cfg.kv_head_of(h);
        // Estimated tiles the shard will visit: the sparsity-aware signal the
        // LPT assignment balances on.
        let cost = match (kinds[kv], dynamic_keep) {
            (HeadKind::Streaming, _) => {
                (nt * (cfg.sink_blocks + cfg.local_blocks + 1) as u64).min(causal_tiles)
            }
            (HeadKind::Dense, Some(keep)) => {
                (nt * (keep + cfg.sink_blocks + 1) as u64).min(causal_tiles)
            }
            (HeadKind::Dense, None) => causal_tiles,
        };
        costs.push(cost.max(1));
        shards.push(PrefillShard {
            h,
            kind: kinds[kv],
            qh: head_slice(q, h, d),
            kh: head_slice(k, kv, d),
            vh: head_slice(v, kv, d),
            out: Matrix::zeros(0, 0),
            stats: PrefillStats::default(),
        });
    }

    let on_one_device = vec![0; shards.len()];
    let balance = run_placed(threads, 1, &on_one_device, &costs, &mut shards, |s| {
        let (oh, stats) = match s.kind {
            HeadKind::Dense => match dynamic_keep {
                None => prefill_attention(
                    &s.qh,
                    &s.kh,
                    &s.vh,
                    cfg.scale(),
                    cfg.tile,
                    cfg.tile,
                    &DensePattern,
                ),
                Some(keep) => {
                    let mask =
                        build_dynamic_prefill_mask(&s.qh, &s.kh, cfg.tile, keep, cfg.sink_blocks);
                    prefill_attention(&s.qh, &s.kh, &s.vh, cfg.scale(), cfg.tile, cfg.tile, &mask)
                }
            },
            HeadKind::Streaming => prefill_attention(
                &s.qh,
                &s.kh,
                &s.vh,
                cfg.scale(),
                cfg.tile,
                cfg.tile,
                &streaming,
            ),
        };
        s.out = oh;
        s.stats = stats;
    });

    let mut out = Matrix::zeros(n, cfg.num_q_heads * d);
    let mut dense_stats = PrefillStats::default();
    let mut stream_stats = PrefillStats::default();
    for s in &shards {
        let agg = match s.kind {
            HeadKind::Dense => &mut dense_stats,
            HeadKind::Streaming => &mut stream_stats,
        };
        agg.tiles_visited += s.stats.tiles_visited;
        agg.tiles_total_causal += s.stats.tiles_total_causal;
        for r in 0..n {
            out.row_mut(r)[s.h * d..(s.h + 1) * d].copy_from_slice(s.out.row(r));
        }
    }
    (out, dense_stats, stream_stats, balance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_dense_head, decode_streaming_head, DecodeStats};
    use crate::parallel::{run_decode_shard, DecodeShard};
    use crate::reference::causal_attention_reference;
    use lserve_kvcache::{LayerKvCache, PagePool, PagingConfig, StreamingWindow};
    use lserve_quant::KvPrecision;
    use lserve_tensor::SeededGaussian;

    fn cfg() -> LayerAttnConfig {
        LayerAttnConfig {
            num_q_heads: 4,
            num_kv_heads: 2,
            head_dim: 8,
            tile: 4,
            sink_blocks: 1,
            local_blocks: 2,
        }
    }

    /// Every KV head's query group of one decode token through
    /// [`run_decode_shard`] against the full history, serially; returns the
    /// `H·D` output and the per-kind work counters.
    fn decode_layer(
        pool: &PagePool,
        cache: &LayerKvCache,
        q: &[f32],
        c: &LayerAttnConfig,
    ) -> (Vec<f32>, DecodeStats, DecodeStats) {
        let d = c.head_dim;
        let group = c.group_size();
        let mut out = vec![0.0f32; q.len()];
        let mut dense = DecodeStats::default();
        let mut streaming = DecodeStats::default();
        for (kv, out_chunk) in out.chunks_mut(group * d).enumerate() {
            let mut shard = DecodeShard {
                head: cache.head(kv),
                queries: &q[kv * group * d..(kv + 1) * group * d],
                selection: None,
                head_dim: d,
                scale: c.scale(),
                out: out_chunk,
                dense: DecodeStats::default(),
                streaming: DecodeStats::default(),
            };
            run_decode_shard(pool, &mut shard);
            dense.accumulate(shard.dense);
            streaming.accumulate(shard.streaming);
        }
        (out, dense, streaming)
    }

    #[test]
    fn gqa_mapping() {
        let c = cfg();
        assert_eq!(c.group_size(), 2);
        assert_eq!(c.kv_head_of(0), 0);
        assert_eq!(c.kv_head_of(1), 0);
        assert_eq!(c.kv_head_of(2), 1);
        assert_eq!(c.kv_head_of(3), 1);
    }

    #[test]
    fn all_dense_prefill_matches_per_head_reference() {
        let c = cfg();
        let mut g = SeededGaussian::new(100);
        let n = 12;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Dense];
        let (out, dense, stream) = fused_prefill_layer(&q, &k, &v, &c, &kinds);
        assert_eq!(stream.tiles_visited, 0);
        assert!(dense.tiles_visited > 0);
        for h in 0..c.num_q_heads {
            let kv = c.kv_head_of(h);
            let qh = head_slice(&q, h, c.head_dim);
            let kh = head_slice(&k, kv, c.head_dim);
            let vh = head_slice(&v, kv, c.head_dim);
            let want = causal_attention_reference(&qh, &kh, &vh, c.scale());
            let got = head_slice(&out, h, c.head_dim);
            assert!(got.max_abs_diff(&want) < 1e-4, "head {h}");
        }
    }

    #[test]
    fn mixed_kinds_split_tile_counters() {
        let c = cfg();
        let mut g = SeededGaussian::new(4);
        let n = 32;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Streaming];
        let (_, dense, stream) = fused_prefill_layer(&q, &k, &v, &c, &kinds);
        assert!(dense.tiles_visited > 0 && stream.tiles_visited > 0);
        // Streaming heads must visit strictly fewer tiles than their causal total.
        assert!(stream.tiles_visited < stream.tiles_total_causal);
        assert_eq!(dense.tiles_visited, dense.tiles_total_causal);
    }

    #[test]
    fn fused_decode_matches_single_head_kernels() {
        let c = cfg();
        let pcfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(pcfg, 256, c.head_dim);
        let mut cache = LayerKvCache::new(&[false, true], StreamingWindow::new(1, 2));
        let mut g = SeededGaussian::new(55);
        let n = 25;
        for _ in 0..n {
            let keys: Vec<f32> = (0..c.num_kv_heads * c.head_dim)
                .map(|_| g.sample())
                .collect();
            let vals: Vec<f32> = (0..c.num_kv_heads * c.head_dim)
                .map(|_| g.sample())
                .collect();
            assert!(cache.append_token(&mut pool, &keys, &vals, c.head_dim));
        }
        let q: Vec<f32> = (0..c.num_q_heads * c.head_dim)
            .map(|_| g.sample())
            .collect();
        let (out, dstats, sstats) = decode_layer(&pool, &cache, &q, &c);
        assert!(dstats.tokens_visited > 0 && sstats.tokens_visited > 0);
        // Check head 0 (dense) and head 2 (streaming via kv head 1) against the
        // single-head kernels.
        let d = c.head_dim;
        let (want0, _) =
            decode_dense_head(&pool, cache.head(0).as_dense(), &q[0..d], c.scale(), None);
        for (a, b) in out[0..d].iter().zip(&want0) {
            assert!((a - b).abs() < 1e-6);
        }
        let (want2, _) = decode_streaming_head(
            &pool,
            cache.head(1).as_streaming(),
            &q[2 * d..3 * d],
            c.scale(),
        );
        for (a, b) in out[2 * d..3 * d].iter().zip(&want2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn dynamic_prefill_skips_tiles_but_tracks_output_shape() {
        let c = cfg();
        let mut g = SeededGaussian::new(71);
        let n = 48;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Dense];
        let (out, dense, _, _) = fused_prefill_layer_threads(&q, &k, &v, &c, &kinds, Some(2), 1);
        assert_eq!(out.shape(), (n, c.num_q_heads * c.head_dim));
        assert!(dense.tiles_visited < dense.tiles_total_causal);
        // Enormous keep budget == dense attention exactly.
        let (full, stats_full, _, _) =
            fused_prefill_layer_threads(&q, &k, &v, &c, &kinds, Some(1000), 1);
        let (want, _, _) = fused_prefill_layer(&q, &k, &v, &c, &kinds);
        assert_eq!(stats_full.tiles_visited, stats_full.tiles_total_causal);
        assert!(full.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn threaded_prefill_bit_identical_to_serial() {
        let c = cfg();
        let mut g = SeededGaussian::new(23);
        let n = 40;
        let q = g.matrix(n, c.num_q_heads * c.head_dim, 1.0);
        let k = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let v = g.matrix(n, c.num_kv_heads * c.head_dim, 1.0);
        let kinds = [HeadKind::Dense, HeadKind::Streaming];
        for dynamic_keep in [None, Some(2)] {
            let (want, wd, ws, _) =
                fused_prefill_layer_threads(&q, &k, &v, &c, &kinds, dynamic_keep, 1);
            for threads in [2, 3, 8] {
                let (got, gd, gs, balance) =
                    fused_prefill_layer_threads(&q, &k, &v, &c, &kinds, dynamic_keep, threads);
                assert_eq!(got.max_abs_diff(&want), 0.0, "threads {threads}");
                assert_eq!((gd, gs), (wd, ws));
                assert_eq!(balance.shards, c.num_q_heads as u64);
                assert!(balance.workers <= threads);
            }
        }
    }

    #[test]
    fn streaming_decode_visits_fewer_pages() {
        let c = cfg();
        let pcfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(pcfg, 1024, c.head_dim);
        let mut cache = LayerKvCache::new(&[false, true], StreamingWindow::new(1, 2));
        let mut g = SeededGaussian::new(9);
        for _ in 0..100 {
            let keys: Vec<f32> = (0..c.num_kv_heads * c.head_dim)
                .map(|_| g.sample())
                .collect();
            let vals: Vec<f32> = (0..c.num_kv_heads * c.head_dim)
                .map(|_| g.sample())
                .collect();
            assert!(cache.append_token(&mut pool, &keys, &vals, c.head_dim));
        }
        let q: Vec<f32> = (0..c.num_q_heads * c.head_dim)
            .map(|_| g.sample())
            .collect();
        let (_, dstats, sstats) = decode_layer(&pool, &cache, &q, &c);
        // Dense kv head serves 2 query heads over 25 pages each; streaming <= 3 pages.
        assert_eq!(dstats.pages_visited, 50);
        assert!(sstats.pages_visited <= 6);
    }
}
