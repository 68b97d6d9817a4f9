//! Per-layer two-way composition: dense heads and streaming heads side by side.

use crate::{DenseHeadCache, PagePool, StreamingHeadCache, StreamingWindow};

/// The KV cache of one head: either a dense (retrieval) head keeping full history or
/// a streaming head keeping only sink + local pages.
///
/// This is the "two-way paged KV cache" of Figure 5 at the granularity the kernels
/// consume it.
#[derive(Debug, Clone)]
pub enum HeadCache {
    /// Full-history head with key statistics for page selection.
    Dense(DenseHeadCache),
    /// Λ-masked head retaining only sink and local pages.
    Streaming(StreamingHeadCache),
}

impl HeadCache {
    /// True for the streaming variant.
    pub fn is_streaming(&self) -> bool {
        matches!(self, HeadCache::Streaming(_))
    }

    /// Total tokens ever appended to this head.
    pub fn tokens(&self) -> usize {
        match self {
            HeadCache::Dense(c) => c.tokens(),
            HeadCache::Streaming(c) => c.tokens(),
        }
    }

    /// Appends one `(key, value)` row. Returns `false` if the pool is exhausted.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        match self {
            HeadCache::Dense(c) => c.append(pool, key, value),
            HeadCache::Streaming(c) => c.append(pool, key, value),
        }
    }

    /// True when appending the next token must allocate a fresh pool page
    /// (transiently, for streaming heads that evict after allocating).
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        self.pages_needed_for_next_tokens(pool, 1) > 0
    }

    /// Exact peak number of fresh pool pages appending the next `n` tokens
    /// will hold at once (see [`DenseHeadCache::pages_needed_for_next_tokens`]
    /// and [`StreamingHeadCache::pages_needed_for_next_tokens`]).
    pub fn pages_needed_for_next_tokens(&self, pool: &PagePool, n: usize) -> usize {
        match self {
            HeadCache::Dense(c) => c.pages_needed_for_next_tokens(pool, n),
            HeadCache::Streaming(c) => c.pages_needed_for_next_tokens(pool, n),
        }
    }

    /// Frees all pages.
    pub fn release(&mut self, pool: &mut PagePool) {
        match self {
            HeadCache::Dense(c) => c.release(pool),
            HeadCache::Streaming(c) => c.release(pool),
        }
    }

    /// Takes one additional reference on every page this head retains (prefix
    /// sharing).
    pub fn retain_all(&self, pool: &mut PagePool) {
        match self {
            HeadCache::Dense(c) => c.retain_all(pool),
            HeadCache::Streaming(c) => c.retain_all(pool),
        }
    }

    /// Number of pool pages this head currently references.
    pub fn resident_pages(&self) -> usize {
        match self {
            HeadCache::Dense(c) => c.num_pages(),
            HeadCache::Streaming(c) => c.resident_pages(),
        }
    }

    /// True when this head references at least one page that no other owner
    /// shares (releasing it would free physical pages).
    pub fn holds_sole_reference(&self, pool: &PagePool) -> bool {
        match self {
            HeadCache::Dense(c) => c.holds_sole_reference(pool),
            HeadCache::Streaming(c) => c.holds_sole_reference(pool),
        }
    }

    /// Demotes every sole-owned hot page this head retains (swap-out).
    /// Returns `(pages moved, token-units moved)`.
    pub fn demote_all(&self, pool: &mut PagePool) -> (u64, u64) {
        match self {
            HeadCache::Dense(c) => c.demote_all(pool),
            HeadCache::Streaming(c) => c.demote_all(pool),
        }
    }

    /// Promotes every cold page this head retains (swap-in). `None` if the hot
    /// tier filled up mid-way; reserve [`HeadCache::cold_pages`] slots first.
    pub fn promote_all(&self, pool: &mut PagePool) -> Option<(u64, u64)> {
        match self {
            HeadCache::Dense(c) => c.promote_all(pool),
            HeadCache::Streaming(c) => c.promote_all(pool),
        }
    }

    /// Makes every page this head retains kernel-readable *now* (see
    /// [`PagePool::ensure_hot`]). Returns `(pages moved, token-units issued,
    /// token-units unhidden)`, or `None` if the hot tier filled up mid-way.
    pub fn ensure_resident(&self, pool: &mut PagePool) -> Option<(u64, u64, u64)> {
        match self {
            HeadCache::Dense(c) => c.ensure_resident(pool),
            HeadCache::Streaming(c) => c.ensure_resident(pool),
        }
    }

    /// Pages this head retains that currently sit in the cold tier.
    pub fn cold_pages(&self, pool: &PagePool) -> usize {
        match self {
            HeadCache::Dense(c) => c.cold_pages(pool),
            HeadCache::Streaming(c) => c.cold_pages(pool),
        }
    }

    /// Hot slots a swap-in of this head must newly claim (see
    /// [`DenseHeadCache::swap_in_demand`]).
    pub fn swap_in_demand(&self, pool: &PagePool) -> usize {
        match self {
            HeadCache::Dense(c) => c.swap_in_demand(pool),
            HeadCache::Streaming(c) => c.swap_in_demand(pool),
        }
    }

    /// Pages this head retains that are both sole-owned and hot — the pages a
    /// swap-out would actually move.
    pub fn sole_owned_hot_pages(&self, pool: &PagePool) -> usize {
        match self {
            HeadCache::Dense(c) => c.sole_owned_hot_pages(pool),
            HeadCache::Streaming(c) => c.sole_owned_hot_pages(pool),
        }
    }

    /// Modeled ledger units to bring every page this head retains hot again,
    /// by tier (see [`DenseHeadCache::promote_back_cost_units`]).
    pub fn promote_back_cost_units(&self, pool: &PagePool) -> u64 {
        match self {
            HeadCache::Dense(c) => c.promote_back_cost_units(pool),
            HeadCache::Streaming(c) => c.promote_back_cost_units(pool),
        }
    }

    /// Borrow the dense cache.
    ///
    /// # Panics
    ///
    /// Panics if this is a streaming head.
    pub fn as_dense(&self) -> &DenseHeadCache {
        match self {
            HeadCache::Dense(c) => c,
            HeadCache::Streaming(_) => panic!("expected dense head"),
        }
    }

    /// Borrow the streaming cache.
    ///
    /// # Panics
    ///
    /// Panics if this is a dense head.
    pub fn as_streaming(&self) -> &StreamingHeadCache {
        match self {
            HeadCache::Streaming(c) => c,
            HeadCache::Dense(_) => panic!("expected streaming head"),
        }
    }
}

/// One transformer layer's KV cache: one [`HeadCache`] per KV head, partitioned into
/// dense and streaming heads by the static (offline) classification of §3.3.
///
/// # Example
///
/// ```
/// use lserve_kvcache::{LayerKvCache, PagePool, PagingConfig, StreamingWindow};
/// use lserve_quant::KvPrecision;
///
/// let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
/// let mut pool = PagePool::new(cfg, 64, 8);
/// // Head 0 dense, head 1 streaming.
/// let cache = LayerKvCache::new(&[false, true], StreamingWindow::paper_default());
/// assert!(!cache.head(0).is_streaming());
/// assert!(cache.head(1).is_streaming());
/// # let _ = pool;
/// ```
#[derive(Debug, Clone)]
pub struct LayerKvCache {
    heads: Vec<HeadCache>,
}

impl LayerKvCache {
    /// Creates the layer cache from a per-KV-head streaming mask (`true` = streaming
    /// head) and the streaming window geometry.
    pub fn new(streaming_mask: &[bool], window: StreamingWindow) -> Self {
        let heads = streaming_mask
            .iter()
            .map(|&s| {
                if s {
                    HeadCache::Streaming(StreamingHeadCache::new(window))
                } else {
                    HeadCache::Dense(DenseHeadCache::new())
                }
            })
            .collect();
        Self { heads }
    }

    /// Number of KV heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Access one head's cache.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of bounds.
    pub fn head(&self, h: usize) -> &HeadCache {
        &self.heads[h]
    }

    /// Mutable access to one head's cache.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of bounds.
    pub fn head_mut(&mut self, h: usize) -> &mut HeadCache {
        &mut self.heads[h]
    }

    /// Appends one token's `(key, value)` rows for all heads at once.
    ///
    /// `keys`/`values` are row-major `(num_heads x head_dim)`. Returns `false` if any
    /// head ran out of pool space (heads appended before the failure keep their row;
    /// callers treat this as a fatal out-of-memory for the sequence).
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes do not match `num_heads * head_dim`.
    pub fn append_token(
        &mut self,
        pool: &mut PagePool,
        keys: &[f32],
        values: &[f32],
        head_dim: usize,
    ) -> bool {
        assert_eq!(
            keys.len(),
            self.heads.len() * head_dim,
            "keys size mismatch"
        );
        assert_eq!(
            values.len(),
            self.heads.len() * head_dim,
            "values size mismatch"
        );
        for (h, cache) in self.heads.iter_mut().enumerate() {
            let k = &keys[h * head_dim..(h + 1) * head_dim];
            let v = &values[h * head_dim..(h + 1) * head_dim];
            if !cache.append(pool, k, v) {
                return false;
            }
        }
        true
    }

    /// Exact number of fresh pool pages appending one token to every head will
    /// allocate (counting streaming heads' transient evict-after-alloc demand).
    ///
    /// A scheduler that reserves this many free pages before a decode step is
    /// guaranteed the step cannot fail mid-layer with an out-of-pages error.
    pub fn pages_needed_for_next_token(&self, pool: &PagePool) -> usize {
        self.pages_needed_for_next_tokens(pool, 1)
    }

    /// Page demand of appending the next `n` tokens to every head: the sum of
    /// each head's exact peak demand. Heads allocate from one pool but never
    /// free each other's pages, so the sum covers every order in which the
    /// heads' appends can interleave; reserving it guarantees all `n`
    /// appends succeed.
    pub fn pages_needed_for_next_tokens(&self, pool: &PagePool, n: usize) -> usize {
        self.heads
            .iter()
            .map(|h| h.pages_needed_for_next_tokens(pool, n))
            .sum()
    }

    /// Frees all pages of all heads.
    pub fn release(&mut self, pool: &mut PagePool) {
        for h in &mut self.heads {
            h.release(pool);
        }
    }

    /// Takes one additional reference on every page of every head (prefix
    /// sharing: the caller co-owns the layer's pages and must `release` its copy).
    pub fn retain_all(&self, pool: &mut PagePool) {
        for h in &self.heads {
            h.retain_all(pool);
        }
    }

    /// Total pool pages this layer currently references, across all heads.
    pub fn resident_pages(&self) -> usize {
        self.heads.iter().map(HeadCache::resident_pages).sum()
    }

    /// True when any head references a page no other owner shares.
    pub fn holds_sole_reference(&self, pool: &PagePool) -> bool {
        self.heads.iter().any(|h| h.holds_sole_reference(pool))
    }

    /// Demotes every sole-owned hot page of every head (full-layer swap-out).
    /// Returns `(pages moved, token-units moved)`.
    pub fn demote_all(&self, pool: &mut PagePool) -> (u64, u64) {
        self.heads.iter().fold((0, 0), |(p, u), h| {
            let (hp, hu) = h.demote_all(pool);
            (p + hp, u + hu)
        })
    }

    /// Promotes every cold page of every head (full-layer swap-in). `None` if
    /// the hot tier filled up mid-way; reserve [`LayerKvCache::cold_pages`]
    /// free slots first.
    pub fn promote_all(&self, pool: &mut PagePool) -> Option<(u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        for h in &self.heads {
            let (hp, hu) = h.promote_all(pool)?;
            pages += hp;
            units += hu;
        }
        Some((pages, units))
    }

    /// Makes every page of every head kernel-readable *now* (see
    /// [`PagePool::ensure_hot`]). Returns `(pages moved, token-units issued,
    /// token-units unhidden)`, or `None` if the hot tier filled up mid-way.
    pub fn ensure_resident(&self, pool: &mut PagePool) -> Option<(u64, u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        let mut unhidden = 0;
        for h in &self.heads {
            let (hp, hu, huh) = h.ensure_resident(pool)?;
            pages += hp;
            units += hu;
            unhidden += huh;
        }
        Some((pages, units, unhidden))
    }

    /// Pages of this layer currently in the cold tier, across all heads.
    pub fn cold_pages(&self, pool: &PagePool) -> usize {
        self.heads.iter().map(|h| h.cold_pages(pool)).sum()
    }

    /// Hot slots a swap-in of this layer must newly claim, across all heads
    /// (see [`DenseHeadCache::swap_in_demand`]).
    pub fn swap_in_demand(&self, pool: &PagePool) -> usize {
        self.heads.iter().map(|h| h.swap_in_demand(pool)).sum()
    }

    /// Pages of this layer that are both sole-owned and hot, across all heads —
    /// the exact page traffic a full-layer swap-out would generate.
    pub fn sole_owned_hot_pages(&self, pool: &PagePool) -> usize {
        self.heads
            .iter()
            .map(|h| h.sole_owned_hot_pages(pool))
            .sum()
    }

    /// Modeled ledger units to bring every page of this layer hot again, by
    /// tier, across all heads (see
    /// [`DenseHeadCache::promote_back_cost_units`]).
    pub fn promote_back_cost_units(&self, pool: &PagePool) -> u64 {
        self.heads
            .iter()
            .map(|h| h.promote_back_cost_units(pool))
            .sum()
    }

    /// Tokens stored (identical across heads by construction; reported from head 0).
    pub fn tokens(&self) -> usize {
        self.heads.first().map(HeadCache::tokens).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagingConfig;
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, LayerKvCache) {
        let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
        let pool = PagePool::new(cfg, 256, 2);
        let cache = LayerKvCache::new(&[false, true, false, true], StreamingWindow::new(1, 2));
        (pool, cache)
    }

    #[test]
    fn append_token_feeds_every_head() {
        let (mut pool, mut c) = setup();
        let keys = vec![1.0f32; 8];
        let values = vec![2.0f32; 8];
        assert!(c.append_token(&mut pool, &keys, &values, 2));
        assert_eq!(c.tokens(), 1);
        for h in 0..4 {
            assert_eq!(c.head(h).tokens(), 1);
        }
    }

    #[test]
    fn memory_asymmetry_between_head_kinds() {
        let (mut pool, mut c) = setup();
        let keys = vec![0.5f32; 8];
        let values = vec![0.5f32; 8];
        for _ in 0..200 {
            assert!(c.append_token(&mut pool, &keys, &values, 2));
        }
        // Dense heads: ceil(200/4)=50 pages each. Streaming: <= 3 pages each.
        let dense_pages = c.head(0).as_dense().num_pages();
        let stream_pages = c.head(1).as_streaming().resident_pages();
        assert_eq!(dense_pages, 50);
        assert!(stream_pages <= 3);
        assert!(pool.in_use() <= 2 * 50 + 2 * 3);
    }

    #[test]
    fn release_empties_pool() {
        let (mut pool, mut c) = setup();
        let keys = vec![0.0f32; 8];
        let values = vec![0.0f32; 8];
        for _ in 0..30 {
            c.append_token(&mut pool, &keys, &values, 2);
        }
        c.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "expected dense head")]
    fn wrong_kind_access_panics() {
        let (_, c) = setup();
        let _ = c.head(1).as_dense();
    }
}
