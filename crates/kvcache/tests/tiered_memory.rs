//! Demote/promote edge cases of the two-tier page pool as the head caches
//! drive it: shared CoW pages, partial last pages, streaming rings, and the
//! exactness of cold-page demand accounting.

use lserve_kvcache::{
    transfer_cost_tokens, DenseHeadCache, LayerKvCache, PagePool, PagingConfig, StreamingHeadCache,
    StreamingWindow, HOST_TRANSFER_SPEEDUP,
};
use lserve_quant::KvPrecision;

fn pool(capacity: usize) -> PagePool {
    PagePool::new(PagingConfig::new(4, 2, KvPrecision::Fp16), capacity, 2)
}

fn fill_dense(pool: &mut PagePool, cache: &mut DenseHeadCache, n: usize) {
    for i in 0..n {
        assert!(cache.append(pool, &[i as f32, 1.0], &[2.0, i as f32]));
    }
}

#[test]
fn dense_swap_round_trip_preserves_partial_last_page() {
    let mut p = pool(16);
    let mut c = DenseHeadCache::new();
    fill_dense(&mut p, &mut c, 10); // pages: 4 + 4 + 2 (partial last)
    let hot_before = p.in_use();
    let (pages, units) = c.demote_all(&mut p);
    assert_eq!(pages, 3, "the partial last page swaps out too");
    assert_eq!(
        units,
        3 * 4,
        "full page slots cross the link, not just rows"
    );
    assert_eq!(p.in_use(), hot_before - 3);
    assert_eq!(c.cold_pages(&p), 3);
    let (back, back_units) = c.promote_all(&mut p).unwrap();
    assert_eq!((back, back_units), (3, 12));
    assert_eq!(c.cold_pages(&p), 0);
    // Contents and append position survive the round trip: the partial last
    // page keeps accepting rows.
    assert_eq!(c.key(&p, 9), vec![9.0, 1.0]);
    assert!(c.append(&mut p, &[99.0, 1.0], &[0.0, 0.0]));
    assert_eq!(c.tokens(), 11);
    assert_eq!(
        c.num_pages(),
        3,
        "append lands in the promoted partial page"
    );
}

#[test]
fn shared_cow_pages_stay_hot_through_demote_all() {
    let mut p = pool(16);
    let mut c = DenseHeadCache::new();
    fill_dense(&mut p, &mut c, 6);
    // A prefix-cache entry co-owns the first page only.
    p.retain(c.page_table()[0]);
    let (pages, _) = c.demote_all(&mut p);
    assert_eq!(pages, 1, "only the sole-owned page may leave the hot tier");
    assert!(p.is_hot(c.page_table()[0]), "co-owned page pinned hot");
    assert!(!p.is_hot(c.page_table()[1]));
    assert_eq!(c.cold_pages(&p), 1);
    // The co-owner drops its reference; a second pass may now demote it.
    p.free(c.page_table()[0]);
    let (pages, _) = c.demote_all(&mut p);
    assert_eq!(pages, 1);
    assert_eq!(c.cold_pages(&p), 2);
    c.promote_all(&mut p).unwrap();
    c.release(&mut p);
    assert_eq!(p.total_in_use(), 0);
}

#[test]
fn streaming_ring_swaps_whole_and_keeps_evicting() {
    let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
    let mut p = PagePool::new(cfg, 16, 2);
    let mut c = StreamingHeadCache::new(StreamingWindow::new(1, 2));
    for i in 0..20 {
        assert!(c.append(&mut p, &[i as f32, 0.0], &[0.0, 0.0]));
    }
    let resident = c.resident_pages();
    let (pages, _) = c.demote_all(&mut p);
    assert_eq!(pages as usize, resident, "sink + local ring all swap out");
    assert_eq!(c.cold_pages(&p), resident);
    c.promote_all(&mut p).unwrap();
    assert_eq!(c.cold_pages(&p), 0);
    // The ring keeps rolling after the round trip: eviction still frees the
    // oldest local page and the pool's hot accounting stays consistent.
    for i in 20..40 {
        assert!(c.append(&mut p, &[i as f32, 0.0], &[0.0, 0.0]));
    }
    assert!(c.resident_pages() <= c.window().max_pages());
    assert_eq!(p.cold_in_use(), 0);
    c.release(&mut p);
    assert_eq!(p.total_in_use(), 0);
}

#[test]
fn promote_all_reports_exhaustion_without_corruption() {
    let mut p = pool(4);
    let mut c = DenseHeadCache::new();
    fill_dense(&mut p, &mut c, 12); // 3 pages, pool of 4
    c.demote_all(&mut p);
    // Another tenant grabs the freed hot slots.
    let squatters: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
    assert_eq!(p.free_pages(), 1);
    assert!(
        c.promote_all(&mut p).is_none(),
        "promotion must report a full hot tier"
    );
    assert_eq!(
        c.cold_pages(&p),
        2,
        "exactly the pages that fit were promoted"
    );
    for id in squatters {
        p.free(id);
    }
    c.promote_all(&mut p).unwrap();
    assert_eq!(c.cold_pages(&p), 0);
    c.release(&mut p);
    assert_eq!(p.total_in_use(), 0);
}

#[test]
fn layer_cold_demand_is_exact_across_head_kinds() {
    let cfg = PagingConfig::new(4, 2, KvPrecision::Fp16);
    let mut p = PagePool::new(cfg, 256, 2);
    let layer = {
        let mut l = LayerKvCache::new(&[false, true, false], StreamingWindow::new(1, 2));
        let keys = vec![0.5f32; 6];
        let values = vec![0.5f32; 6];
        for _ in 0..30 {
            assert!(l.append_token(&mut p, &keys, &values, 2));
        }
        l
    };
    let resident = layer.resident_pages();
    let (pages, units) = layer.demote_all(&mut p);
    assert_eq!(pages as usize, resident);
    assert_eq!(layer.cold_pages(&p), resident);
    assert_eq!(units, pages * 4);
    // The modeled transfer cost is deterministic and rounds up.
    assert_eq!(
        transfer_cost_tokens(units),
        units.div_ceil(HOST_TRANSFER_SPEEDUP)
    );
    let (back, _) = layer.promote_all(&mut p).unwrap();
    assert_eq!(back, pages);
    assert_eq!(layer.cold_pages(&p), 0);
}

#[test]
fn quantized_pages_survive_the_round_trip_bit_exactly() {
    let cfg = PagingConfig::new(4, 2, KvPrecision::Int4);
    let mut p = PagePool::new(cfg, 16, 4);
    let mut c = DenseHeadCache::new();
    for i in 0..7 {
        let x = i as f32 * 0.37 - 1.0;
        assert!(c.append(&mut p, &[x, -x, 2.0 * x, 0.5], &[x, x, -x, 1.0]));
    }
    let before: Vec<Vec<f32>> = (0..7).map(|t| c.key(&p, t)).collect();
    c.demote_all(&mut p);
    c.promote_all(&mut p).unwrap();
    let after: Vec<Vec<f32>> = (0..7).map(|t| c.key(&p, t)).collect();
    assert_eq!(before, after, "migration must never touch stored rows");
}
