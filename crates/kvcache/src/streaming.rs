//! Page table of a streaming head: only sink and local pages are retained.

use std::collections::VecDeque;

use crate::{MigrationDir, PageId, PagePool, Residency};

/// Λ-mask geometry of a streaming head, in *pages*.
///
/// A streaming head attends to the first `sink_pages` physical pages (attention
/// sinks) and the most recent `local_pages` pages (the local window), per
/// StreamingLLM/DuoAttention. Figure 4(c) draws one sink block and two local blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingWindow {
    /// Number of leading (sink) pages always kept.
    pub sink_pages: usize,
    /// Number of trailing (local) pages always kept.
    pub local_pages: usize,
}

impl StreamingWindow {
    /// Creates a window description.
    ///
    /// # Panics
    ///
    /// Panics if `local_pages == 0` (the newest page must always be attendable).
    pub fn new(sink_pages: usize, local_pages: usize) -> Self {
        assert!(
            local_pages > 0,
            "streaming window needs at least one local page"
        );
        Self {
            sink_pages,
            local_pages,
        }
    }

    /// The paper's illustrative default: one sink page, two local pages.
    pub fn paper_default() -> Self {
        Self::new(1, 2)
    }

    /// Maximum number of pages this head ever retains.
    pub fn max_pages(&self) -> usize {
        self.sink_pages + self.local_pages
    }
}

/// The KV history of one streaming head: sink pages plus a ring of local pages
/// (Figure 5, "Streaming Head Pages" — the page table contains only sink & local
/// pages). Tokens between sink and window are *evicted*, their pages freed.
///
/// Each retained page remembers the global position of its first token so kernels can
/// recover absolute token indices.
#[derive(Debug, Clone)]
pub struct StreamingHeadCache {
    window: StreamingWindow,
    sink: Vec<PageId>,
    /// `(start_token, page)` pairs, oldest first.
    local: VecDeque<(usize, PageId)>,
    tokens: usize,
}

impl StreamingHeadCache {
    /// Creates an empty cache with the given window geometry.
    pub fn new(window: StreamingWindow) -> Self {
        Self {
            window,
            sink: Vec::new(),
            local: VecDeque::new(),
            tokens: 0,
        }
    }

    /// The window geometry.
    pub fn window(&self) -> StreamingWindow {
        self.window
    }

    /// Total tokens ever appended (including evicted ones).
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Number of pages currently retained (sink + local).
    pub fn resident_pages(&self) -> usize {
        self.sink.len() + self.local.len()
    }

    /// Number of *tokens* currently resident, i.e. the attention span of the head.
    pub fn resident_tokens(&self, pool: &PagePool) -> usize {
        let sink: usize = self.sink.iter().map(|&id| pool.page(id).len()).sum();
        let local: usize = self.local.iter().map(|&(_, id)| pool.page(id).len()).sum();
        sink + local
    }

    /// The retained page table: sink pages first, then local pages oldest-first,
    /// each with the global token index of its first token.
    pub fn page_table(&self, pool: &PagePool) -> Vec<(usize, PageId)> {
        let np = pool.config().physical_page_size();
        let mut out: Vec<(usize, PageId)> = self
            .sink
            .iter()
            .enumerate()
            .map(|(i, &id)| (i * np, id))
            .collect();
        out.extend(self.local.iter().copied());
        out
    }

    /// True when appending the next token requires allocating a fresh page —
    /// because the target page is full, missing, or *shared* with another owner
    /// (prefix-cache sharing) and must be copy-on-write forked before writing.
    ///
    /// Eviction runs *after* allocation, so even when the append nets zero resident
    /// growth it transiently needs one free page; this method reports that
    /// transient demand, which is what a scheduler must reserve.
    pub fn needs_page_for_next_append(&self, pool: &PagePool) -> bool {
        self.pages_needed_for_next_tokens(pool, 1) > 0
    }

    /// Exact peak number of fresh pool pages appending the next `n` tokens
    /// will hold at once — the reservation that guarantees all `n` appends
    /// succeed.
    ///
    /// Walks the page events of the `n` appends: a copy-on-write fork of a
    /// shared partial target page, then one allocation per page boundary
    /// crossed. Each local-ring allocation is followed by evictions down to
    /// `local_pages`, and an evicted page gives its slot back only when it
    /// is sole-owned and holds a hot slot (a page the prefix cache co-owns
    /// stays alive, and a cold page frees host capacity, not device
    /// capacity). Because eviction runs after allocation, a ring that wraps
    /// needs one page of headroom even when it nets zero growth.
    pub fn pages_needed_for_next_tokens(&self, pool: &PagePool, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let np = pool.config().physical_page_size();
        let pos = self.tokens;
        let in_sink_region = |p: usize| p / np < self.window.sink_pages;
        let target = if in_sink_region(pos) {
            self.sink.last().copied()
        } else {
            self.local.back().map(|&(_, id)| id)
        };
        let (room, fork) = match target {
            Some(id) => {
                let room = np - pool.page(id).len();
                (room, room > 0 && pool.is_shared(id))
            }
            None => (0, false),
        };
        // Whether evicting each local page (oldest first) returns a slot.
        let mut ring: VecDeque<bool> = self
            .local
            .iter()
            .map(|&(_, id)| {
                pool.refcount(id) == 1
                    && matches!(
                        pool.residency(id),
                        Residency::Hot | Residency::Migrating(MigrationDir::ToHot)
                    )
            })
            .collect();
        let mut held = usize::from(fork);
        if fork && !in_sink_region(pos) {
            *ring.back_mut().expect("target is the ring's newest page") = true;
        }
        let mut peak = held;
        let mut p = pos + room;
        while p < pos + n {
            held += 1;
            peak = peak.max(held);
            if !in_sink_region(p) {
                ring.push_back(true);
                while ring.len() > self.window.local_pages {
                    if ring.pop_front().expect("len checked") {
                        held -= 1;
                    }
                }
            }
            p += np;
        }
        peak
    }

    /// Appends one `(key, value)` row, allocating/evicting pages as needed.
    ///
    /// Returns `false` (cache unchanged) if a new page was needed and the pool was
    /// exhausted. Eviction frees the oldest local page once more than `local_pages`
    /// non-sink pages exist, so allocation pressure is bounded by
    /// `window.max_pages() + 1`.
    pub fn append(&mut self, pool: &mut PagePool, key: &[f32], value: &[f32]) -> bool {
        let np = pool.config().physical_page_size();
        let pos = self.tokens;
        let in_sink_region = pos / np < self.window.sink_pages;
        if in_sink_region {
            let need_new = match self.sink.last() {
                Some(&id) => pool.page(id).is_full(),
                None => true,
            };
            if need_new {
                match pool.allocate() {
                    Some(id) => self.sink.push(id),
                    None => return false,
                }
            } else {
                // Copy-on-write: never append into a page another owner shares.
                let id = *self.sink.last().expect("sink page ensured");
                if pool.is_shared(id) {
                    match pool.fork(id) {
                        Some(forked) => *self.sink.last_mut().expect("sink page ensured") = forked,
                        None => return false,
                    }
                }
            }
            let id = *self.sink.last().expect("sink page ensured");
            pool.page_mut(id).append(key, value);
        } else {
            let need_new = match self.local.back() {
                Some(&(_, id)) => pool.page(id).is_full(),
                None => true,
            };
            if need_new {
                match pool.allocate() {
                    Some(id) => {
                        let start = (pos / np) * np;
                        self.local.push_back((start, id));
                    }
                    None => return false,
                }
            } else {
                let (_, id) = *self.local.back().expect("local page ensured");
                if pool.is_shared(id) {
                    match pool.fork(id) {
                        Some(forked) => {
                            self.local.back_mut().expect("local page ensured").1 = forked;
                        }
                        None => return false,
                    }
                }
            }
            let (_, id) = *self.local.back().expect("local page ensured");
            pool.page_mut(id).append(key, value);
            // Evict pages that fell out of the local window.
            while self.local.len() > self.window.local_pages {
                let (_, old) = self.local.pop_front().expect("len checked");
                pool.free(old);
            }
        }
        self.tokens += 1;
        true
    }

    /// Frees every retained page and clears the cache.
    pub fn release(&mut self, pool: &mut PagePool) {
        for id in self.sink.drain(..) {
            pool.free(id);
        }
        for (_, id) in self.local.drain(..) {
            pool.free(id);
        }
        self.tokens = 0;
    }

    /// Takes one additional reference on every retained page (prefix sharing: the
    /// caller becomes a co-owner and must eventually `release` its copy).
    pub fn retain_all(&self, pool: &mut PagePool) {
        for &id in &self.sink {
            pool.retain(id);
        }
        for &(_, id) in &self.local {
            pool.retain(id);
        }
    }

    /// True when at least one retained page is referenced by this cache alone,
    /// i.e. releasing the cache would return physical pages to the pool.
    pub fn holds_sole_reference(&self, pool: &PagePool) -> bool {
        self.sink.iter().any(|&id| pool.refcount(id) == 1)
            || self.local.iter().any(|&(_, id)| pool.refcount(id) == 1)
    }

    /// All pages this head currently retains (sink first, then local).
    fn retained_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.sink
            .iter()
            .copied()
            .chain(self.local.iter().map(|&(_, id)| id))
    }

    /// Demotes every sole-owned hot page (sink + local ring) to the cold tier
    /// (swap-out of a whole sequence; the *selection-driven* demotion policy
    /// never touches streaming heads — their window is the working set).
    /// Returns `(pages moved, token-units moved)`.
    pub fn demote_all(&self, pool: &mut PagePool) -> (u64, u64) {
        let mut pages = 0;
        let mut units = 0;
        for id in self.retained_ids() {
            if let Some(u) = pool.demote(id) {
                pages += 1;
                units += u;
            }
        }
        (pages, units)
    }

    /// Promotes every cold retained page back to the hot tier. Returns
    /// `(pages moved, token-units moved)`, or `None` if the hot tier filled up
    /// mid-way (reserve [`StreamingHeadCache::cold_pages`] free slots first).
    ///
    /// Every page goes through [`PagePool::promote`], so in-flight states are
    /// handled uniformly (see [`crate::DenseHeadCache::promote_all`]).
    pub fn promote_all(&self, pool: &mut PagePool) -> Option<(u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        for id in self.retained_ids() {
            match pool.promote(id)? {
                0 => {}
                u => {
                    pages += 1;
                    units += u;
                }
            }
        }
        Some((pages, units))
    }

    /// Makes every retained page kernel-readable *now* (see
    /// [`PagePool::ensure_hot`]). Returns `(pages moved, token-units issued,
    /// token-units unhidden)`, or `None` if the hot tier filled up mid-way.
    pub fn ensure_resident(&self, pool: &mut PagePool) -> Option<(u64, u64, u64)> {
        let mut pages = 0;
        let mut units = 0;
        let mut unhidden = 0;
        for id in self.retained_ids() {
            let (u, uh) = pool.ensure_hot(id)?;
            if u > 0 {
                pages += 1;
            }
            units += u;
            unhidden += uh;
        }
        Some((pages, units, unhidden))
    }

    /// Number of retained pages currently in the cold tier.
    pub fn cold_pages(&self, pool: &PagePool) -> usize {
        self.retained_ids().filter(|&id| !pool.is_hot(id)).count()
    }

    /// Hot slots a swap-in of this head must newly claim (see
    /// [`crate::DenseHeadCache::swap_in_demand`]): below-hot pages plus own
    /// outbound transfers still in flight.
    pub fn swap_in_demand(&self, pool: &PagePool) -> usize {
        self.retained_ids()
            .filter(|&id| {
                matches!(
                    pool.residency(id),
                    Residency::Cold
                        | Residency::Migrating(MigrationDir::ToCold)
                        | Residency::Nvme
                        | Residency::MigratingNvme(_)
                )
            })
            .count()
    }

    /// Retained pages that are both sole-owned and hot — exactly what a
    /// swap-out ([`StreamingHeadCache::demote_all`]) would move.
    pub fn sole_owned_hot_pages(&self, pool: &PagePool) -> usize {
        self.retained_ids()
            .filter(|&id| pool.refcount(id) == 1 && pool.is_hot(id))
            .count()
    }

    /// Modeled ledger units to bring every retained page hot again, by tier
    /// (see [`crate::DenseHeadCache::promote_back_cost_units`]).
    pub fn promote_back_cost_units(&self, pool: &PagePool) -> u64 {
        let np = pool.config().physical_page_size() as u64;
        let nvme_cost = crate::nvme_ledger_units(np) + np;
        self.retained_ids()
            .map(|id| match pool.residency(id) {
                Residency::Hot | Residency::Migrating(_) => {
                    if pool.is_shared(id) {
                        0
                    } else {
                        np
                    }
                }
                Residency::Cold => np,
                Residency::Nvme | Residency::MigratingNvme(_) => nvme_cost,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagingConfig;
    use lserve_quant::KvPrecision;

    fn setup() -> (PagePool, StreamingHeadCache) {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let pool = PagePool::new(cfg, 64, 2);
        let cache = StreamingHeadCache::new(StreamingWindow::new(1, 2));
        (pool, cache)
    }

    fn push_n(pool: &mut PagePool, c: &mut StreamingHeadCache, n: usize) {
        for i in 0..n {
            assert!(c.append(pool, &[i as f32, 0.0], &[0.0, i as f32]));
        }
    }

    #[test]
    fn resident_pages_bounded_by_window() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 100);
        assert_eq!(c.tokens(), 100);
        assert!(c.resident_pages() <= c.window().max_pages());
        // 1 sink page (4 tokens) + at most 2 local pages (8 tokens).
        assert!(c.resident_tokens(&pool) <= 12);
    }

    #[test]
    fn pool_usage_is_constant_during_long_decode() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 40);
        let used_at_40 = pool.in_use();
        push_n(&mut pool, &mut c, 60);
        assert_eq!(pool.in_use(), used_at_40, "streaming head must not grow");
    }

    #[test]
    fn sink_pages_retain_first_tokens() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 50);
        let table = c.page_table(&pool);
        // First entry must be the sink page starting at token 0 holding keys 0..4.
        let (start, id) = table[0];
        assert_eq!(start, 0);
        assert_eq!(pool.page(id).key_row(0)[0], 0.0);
        assert_eq!(pool.page(id).key_row(3)[0], 3.0);
    }

    #[test]
    fn local_pages_cover_most_recent_tokens() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 50);
        let table = c.page_table(&pool);
        let (last_start, last_id) = *table.last().unwrap();
        let last_len = pool.page(last_id).len();
        assert_eq!(
            last_start + last_len,
            50,
            "newest page must end at token 50"
        );
    }

    #[test]
    fn page_starts_are_increasing_and_aligned() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 37);
        let table = c.page_table(&pool);
        let np = pool.config().physical_page_size();
        let mut prev = None;
        for (start, _) in table {
            assert_eq!(start % np, 0);
            if let Some(p) = prev {
                assert!(start > p);
            }
            prev = Some(start);
        }
    }

    #[test]
    fn release_frees_everything() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 30);
        assert!(pool.in_use() > 0);
        c.release(&mut pool);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn append_into_shared_pages_forks_not_mutates() {
        let (mut pool, mut c) = setup();
        push_n(&mut pool, &mut c, 10); // 1 sink page + local pages, last partial
        c.retain_all(&mut pool); // a prefix-cache entry now co-owns every page
        let frozen: Vec<(usize, PageId)> = c.page_table(&pool);
        let frozen_lens: Vec<usize> = frozen.iter().map(|&(_, id)| pool.page(id).len()).collect();
        assert!(c.needs_page_for_next_append(&pool));
        push_n(&mut pool, &mut c, 8);
        // The co-owned snapshot is bit-for-bit untouched: same lengths, and the
        // evicted-from-the-window pages are still alive through the extra refs.
        for (&(_, id), &len) in frozen.iter().zip(&frozen_lens) {
            assert_eq!(pool.page(id).len(), len, "shared page {id:?} mutated");
        }
        assert_eq!(c.tokens(), 18);
    }

    #[test]
    fn zero_sink_pages_allowed() {
        let cfg = PagingConfig::new(4, 4, KvPrecision::Fp16);
        let mut pool = PagePool::new(cfg, 8, 2);
        let mut c = StreamingHeadCache::new(StreamingWindow::new(0, 1));
        for i in 0..20 {
            assert!(c.append(&mut pool, &[i as f32, 0.0], &[0.0, 0.0]));
        }
        assert!(c.resident_pages() <= 1 + 1); // one live local + transient
        assert!(c.resident_tokens(&pool) <= 8);
    }
}
