//! Exactness of the multi-token page demand (`pages_needed_for_next_tokens`):
//! `n` appends succeed when exactly that many pages are free and fail with one
//! fewer — across partial last pages, copy-on-write-shared tails, and
//! streaming rings that wrap mid-feed.

use lserve_kvcache::{
    DenseHeadCache, LayerKvCache, PagePool, PagingConfig, StreamingHeadCache, StreamingWindow,
};
use lserve_quant::KvPrecision;

const NP: usize = 4;

fn pool() -> PagePool {
    PagePool::new(PagingConfig::new(NP, 2, KvPrecision::Fp16), 256, 2)
}

fn row(x: f32) -> [f32; 2] {
    [x, -x]
}

/// Pins the pool's free pages at exactly `free` by allocating filler pages.
fn pad_free_to(pool: &mut PagePool, free: usize) {
    while pool.free_pages() > free {
        pool.allocate().expect("pool has free pages");
    }
    assert_eq!(pool.free_pages(), free);
}

/// Builds the cache with `build`, asks it for the demand of `n` appends, and
/// checks the demand is exact: with that many free pages all `n` appends
/// succeed, with one fewer one of them fails. Returns the demand.
fn assert_exact<C>(
    build: impl Fn(&mut PagePool) -> C,
    demand: impl Fn(&C, &PagePool, usize) -> usize,
    append: impl Fn(&mut C, &mut PagePool, usize) -> bool,
    n: usize,
) -> usize {
    let mut p = pool();
    let mut c = build(&mut p);
    let need = demand(&c, &p, n);
    pad_free_to(&mut p, need);
    for t in 0..n {
        assert!(
            append(&mut c, &mut p, t),
            "append {t}/{n} failed with {need} pages reserved"
        );
    }
    if need > 0 {
        let mut p = pool();
        let mut c = build(&mut p);
        assert_eq!(
            demand(&c, &p, n),
            need,
            "demand is a pure function of state"
        );
        pad_free_to(&mut p, need - 1);
        assert!(
            (0..n).any(|t| !append(&mut c, &mut p, t)),
            "{n} appends fit in {} pages, but demand said {need}",
            need - 1
        );
    }
    need
}

fn dense(tokens: usize, share: bool) -> impl Fn(&mut PagePool) -> DenseHeadCache {
    move |p| {
        let mut c = DenseHeadCache::new();
        for t in 0..tokens {
            assert!(c.append(p, &row(t as f32), &row(1.0)));
        }
        if share {
            c.retain_all(p);
        }
        c
    }
}

fn dense_demand(c: &DenseHeadCache, p: &PagePool, n: usize) -> usize {
    c.pages_needed_for_next_tokens(p, n)
}

fn dense_append(c: &mut DenseHeadCache, p: &mut PagePool, t: usize) -> bool {
    c.append(p, &row(t as f32), &row(2.0))
}

#[test]
fn dense_partial_last_page_is_exact() {
    // 6 tokens: one full page plus a half-full tail with 2 free rows.
    for n in 1..=13 {
        let need = assert_exact(dense(6, false), dense_demand, dense_append, n);
        assert_eq!(need, (n.saturating_sub(2)).div_ceil(NP), "n = {n}");
    }
    // Empty cache and page-aligned cache: every 4 tokens open a page.
    for tokens in [0, 8] {
        for n in 1..=9 {
            let need = assert_exact(dense(tokens, false), dense_demand, dense_append, n);
            assert_eq!(need, n.div_ceil(NP), "tokens = {tokens}, n = {n}");
        }
    }
}

#[test]
fn dense_cow_shared_partial_page_counts_the_fork() {
    for n in 1..=10 {
        let need = assert_exact(dense(6, true), dense_demand, dense_append, n);
        assert_eq!(need, 1 + (n.saturating_sub(2)).div_ceil(NP), "n = {n}");
    }
    // A shared but full tail is never forked: only new pages count.
    for n in 1..=6 {
        let need = assert_exact(dense(8, true), dense_demand, dense_append, n);
        assert_eq!(need, n.div_ceil(NP), "n = {n}");
    }
}

fn streaming(tokens: usize, share: bool) -> impl Fn(&mut PagePool) -> StreamingHeadCache {
    move |p| {
        let mut c = StreamingHeadCache::new(StreamingWindow::new(1, 2));
        for t in 0..tokens {
            assert!(c.append(p, &row(t as f32), &row(1.0)));
        }
        if share {
            c.retain_all(p);
        }
        c
    }
}

fn streaming_demand(c: &StreamingHeadCache, p: &PagePool, n: usize) -> usize {
    c.pages_needed_for_next_tokens(p, n)
}

fn streaming_append(c: &mut StreamingHeadCache, p: &mut PagePool, t: usize) -> bool {
    c.append(p, &row(t as f32), &row(2.0))
}

#[test]
fn streaming_ring_wrapping_mid_feed_is_exact() {
    // From empty (sink fills, ring grows, then wraps) and from a full ring
    // with a partial newest page; every feed length up to several wraps.
    for tokens in [0, 3, 13, 16] {
        for n in 1..=20 {
            let need = assert_exact(
                streaming(tokens, false),
                streaming_demand,
                streaming_append,
                n,
            );
            assert!(
                need <= 4,
                "a sole-owned ring recycles its evictions: {need}"
            );
        }
    }
    // Full ring, aligned: each wrap allocates before it evicts, so the feed
    // needs one page of headroom however many times it wraps.
    assert_eq!(
        assert_exact(streaming(12, false), streaming_demand, streaming_append, 17),
        1
    );
}

#[test]
fn streaming_shared_ring_gets_no_credit_for_co_owned_evictions() {
    // Every retained page is co-owned: the partial tail must fork, and
    // evicting an old page frees nothing (it stays alive elsewhere). Only the
    // pages this feed itself allocated are recycled once they wrap out.
    for n in 1..=14 {
        let shared = assert_exact(streaming(14, true), streaming_demand, streaming_append, n);
        let private = assert_exact(streaming(14, false), streaming_demand, streaming_append, n);
        assert!(
            shared > private,
            "n = {n}: shared {shared}, private {private}"
        );
        assert!(
            shared <= 3,
            "the window bounds the feed's own pages: {shared}"
        );
    }
}

#[test]
fn one_token_demand_matches_the_single_append_predicate() {
    for tokens in 0..20 {
        for share in [false, true] {
            let mut p = pool();
            let d = dense(tokens, share)(&mut p);
            let s = streaming(tokens, share)(&mut p);
            assert_eq!(
                d.pages_needed_for_next_tokens(&p, 1),
                usize::from(d.needs_page_for_next_append(&p))
            );
            assert_eq!(
                s.pages_needed_for_next_tokens(&p, 1),
                usize::from(s.needs_page_for_next_append(&p))
            );
            assert_eq!(d.pages_needed_for_next_tokens(&p, 0), 0);
            assert_eq!(s.pages_needed_for_next_tokens(&p, 0), 0);
        }
    }
}

fn layer(mask: &'static [bool], tokens: usize) -> impl Fn(&mut PagePool) -> LayerKvCache {
    move |p| {
        let mut l = LayerKvCache::new(mask, StreamingWindow::new(1, 2));
        let kv = vec![0.5f32; 2 * mask.len()];
        for _ in 0..tokens {
            assert!(l.append_token(p, &kv, &kv, 2));
        }
        l
    }
}

fn layer_demand(l: &LayerKvCache, p: &PagePool, n: usize) -> usize {
    l.pages_needed_for_next_tokens(p, n)
}

fn layer_append(l: &mut LayerKvCache, p: &mut PagePool, _t: usize) -> bool {
    let kv = vec![0.25f32; 2 * l.num_heads()];
    l.append_token(p, &kv, &kv, 2)
}

#[test]
fn layer_demand_sums_heads_and_is_exact_for_dense_layers() {
    for n in 1..=11 {
        assert_exact(layer(&[false, false], 6), layer_demand, layer_append, n);
    }
    // Mixed layers: the per-head sum is a safe reservation for the
    // interleaved appends, and equals the heads' own demands added up.
    let mut p = pool();
    let l = layer(&[false, true, false], 14)(&mut p);
    for n in 1..=11 {
        let sum: usize = (0..l.num_heads())
            .map(|h| l.head(h).pages_needed_for_next_tokens(&p, n))
            .sum();
        assert_eq!(l.pages_needed_for_next_tokens(&p, n), sum);
        let mut q = pool();
        let mut l2 = layer(&[false, true, false], 14)(&mut q);
        pad_free_to(&mut q, sum);
        for t in 0..n {
            assert!(layer_append(&mut l2, &mut q, t), "n = {n}, token {t}");
        }
    }
    assert_eq!(
        l.pages_needed_for_next_token(&p),
        l.pages_needed_for_next_tokens(&p, 1)
    );
}
