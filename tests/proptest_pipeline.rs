//! Property tests spanning crates: selection→kernel equivalence, engine
//! equivalences, and allocator safety under arbitrary workloads.

use std::sync::Arc;

use lserve::attention::{decode_dense_head, masked_attention_reference};
use lserve::core::{
    Engine, EngineConfig, EngineStats, MigrationMode, ModelExecutor, ParallelExecStats,
    PlacementPolicy, SelectorKind, ShardingPlan, SparsityOverride, SparsitySchedule, Topology,
};
use lserve::kvcache::{DenseHeadCache, PagePool, PagingConfig};
use lserve::model::{greedy_next_token, ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::selector::{
    FlatSelector, HierarchicalSelector, PageSelector, ReusableSelector, Selection,
};
use lserve::tensor::{Matrix, SeededGaussian};
use proptest::prelude::*;

fn build_cache(seed: u64, tokens: usize, np: usize, nl: usize) -> (PagePool, DenseHeadCache) {
    let cfg = PagingConfig::new(np, nl, KvPrecision::Fp16);
    let mut pool = PagePool::new(cfg, cfg.pages_for(tokens) + 2, 8);
    let mut cache = DenseHeadCache::new();
    let mut g = SeededGaussian::new(seed);
    for _ in 0..tokens {
        let k: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let v: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        assert!(cache.append(&mut pool, &k, &v));
    }
    (pool, cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the selector picks, the decode kernel over those pages must equal
    /// the masked reference restricted to the same token set.
    #[test]
    fn selected_decode_equals_masked_reference(
        seed in 0u64..500,
        tokens in 9usize..120,
        budget in 1usize..64,
    ) {
        let np = 8;
        let (pool, cache) = build_cache(seed, tokens, np, 4);
        let mut g = SeededGaussian::new(seed ^ 0xDEAD);
        let q: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let mut sel = HierarchicalSelector::new(true);
        let s = sel.select(&pool, &cache, &[&q], budget * np, 0);
        let (got, _) = decode_dense_head(&pool, &cache, &q, 0.35, Some(&s.pages));

        let k_all = Matrix::from_vec(tokens, 8, (0..tokens).flat_map(|t| cache.key(&pool, t)).collect());
        let v_all = Matrix::from_vec(tokens, 8, (0..tokens).flat_map(|t| cache.value(&pool, t)).collect());
        let q_m = Matrix::from_vec(1, 8, q.clone());
        let want = masked_attention_reference(&q_m, &k_all, &v_all, 0.35, |_, j| {
            s.pages.contains(&(j / np))
        });
        for (a, b) in got.iter().zip(want.row(0)) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Selections always include the most recent page, never an out-of-range page,
    /// and respect the page budget (up to the forced pages).
    #[test]
    fn selection_invariants(
        seed in 0u64..500,
        tokens in 5usize..200,
        budget_pages in 1usize..32,
        flat in proptest::bool::ANY,
    ) {
        let np = 8;
        let (pool, cache) = build_cache(seed, tokens, np, 4);
        let mut g = SeededGaussian::new(seed ^ 77);
        let q: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let s: Selection = if flat {
            FlatSelector::new(true).select(&pool, &cache, &[&q], budget_pages * np, 0)
        } else {
            HierarchicalSelector::new(true).select(&pool, &cache, &[&q], budget_pages * np, 0)
        };
        let last = cache.num_pages() - 1;
        prop_assert!(s.pages.contains(&last), "last page missing: {:?}", s.pages);
        prop_assert!(s.pages.iter().all(|&p| p < cache.num_pages()));
        prop_assert!(s.pages.len() <= budget_pages.max(2));
        let mut sorted = s.pages.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted, s.pages);
    }

    /// A reusable selector's replayed selection equals the fresh one within a chunk
    /// when the cache does not grow.
    #[test]
    fn reuse_is_transparent_on_static_cache(
        seed in 0u64..200,
        tokens in 33usize..150,
        interval in 2usize..8,
    ) {
        let (pool, cache) = build_cache(seed, tokens, 8, 4);
        let mut g = SeededGaussian::new(seed ^ 3);
        let q: Vec<f32> = (0..8).map(|_| g.sample()).collect();
        let mut sel = ReusableSelector::new(HierarchicalSelector::new(true), interval);
        let fresh = sel.select(&pool, &cache, &[&q], 64, 0);
        for step in 1..interval {
            let replay = sel.select(&pool, &cache, &[&q], 64, step);
            prop_assert!(replay.reused);
            prop_assert_eq!(&replay.pages, &fresh.pages);
        }
        let rescore = sel.select(&pool, &cache, &[&q], 64, interval);
        prop_assert!(!rescore.reused);
    }

    /// The engine's generation is a pure function of (weights seed, config, prompt).
    #[test]
    fn engine_determinism(
        wseed in 0u64..50,
        plen in 4usize..24,
        lserve in proptest::bool::ANY,
    ) {
        let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), wseed));
        let prompt: Vec<u32> = (0..plen).map(|i| ((i * 7) % 90) as u32).collect();
        let cfg = if lserve { EngineConfig::lserve() } else { EngineConfig::dense() };
        let run = |cfg: EngineConfig| {
            let mut pool = cfg.make_pool_for(&w.config, 256);
            let mut e = Engine::new(Arc::clone(&w), cfg);
            e.generate(&mut pool, &prompt, 8).unwrap()
        };
        prop_assert_eq!(run(cfg.clone()), run(cfg));
    }

    /// Pool accounting: after any engine run and release, zero pages remain.
    #[test]
    fn no_page_leaks(
        wseed in 0u64..50,
        plen in 4usize..32,
        steps in 1usize..24,
    ) {
        let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), wseed));
        let cfg = EngineConfig::lserve_fp16();
        let mut pool = cfg.make_pool_for(&w.config, 256);
        let mut e = Engine::new(w, cfg);
        let prompt: Vec<u32> = (0..plen).map(|i| (i % 90) as u32).collect();
        e.generate(&mut pool, &prompt, steps).unwrap();
        e.release(&mut pool);
        prop_assert_eq!(pool.in_use(), 0);
    }
}

/// How a chunked feed slices the prompt remainder into executor calls.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// Every call feeds `n` tokens (the last call takes what is left).
    Cells(usize),
    /// Call sizes cycle through a ragged pattern.
    Uneven,
}

impl Split {
    fn cell(self, call: usize) -> usize {
        match self {
            Split::Cells(n) => n,
            Split::Uneven => [3, 50, 1, 17, 9][call % 5],
        }
    }
}

/// One feed scenario of the chunked-feed equivalence matrix.
#[derive(Debug, Clone, Copy)]
struct FeedCase {
    precision: KvPrecision,
    selector: SelectorKind,
    override_from: Option<usize>,
    demote: Option<usize>,
    migration: MigrationMode,
    /// A second sequence swapped out just before the feed, so its outbound
    /// transfers are in flight on the copy engine while the prompt is fed.
    bystander: bool,
}

impl FeedCase {
    fn config(self) -> EngineConfig {
        let mut cfg = match self.selector {
            SelectorKind::None => EngineConfig::duo_like(),
            kind => {
                let mut cfg = EngineConfig::lserve_with_budget(24);
                cfg.selector = kind;
                cfg
            }
        };
        cfg.paging = PagingConfig::new(8, 4, self.precision);
        cfg.prefill_tile = 8;
        cfg.reuse_interval = 2;
        cfg.demote_after_chunks = self.demote;
        cfg
    }

    /// Prefills the first grid cell, feeds the rest of the prompt through the
    /// executor in calls sized by `split` (`None`: one `decode_step` per
    /// token), then decodes greedily. Returns the logits after the last
    /// prompt token, the generated tokens, the sequence's work counters, and
    /// the pool's migration ledgers.
    fn run(self, split: Option<Split>) -> (Vec<u32>, Vec<u32>, EngineStats, String) {
        const PROMPT: usize = 150;
        const GRID: usize = 8;
        const DECODE: usize = 32;
        let w = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 17));
        let cfg = self.config();
        let exec = ModelExecutor::new(Arc::clone(&w), cfg.clone());
        let mut pool =
            PagePool::new_with_migration(cfg.paging, 4096, w.config.head_dim, self.migration);
        let mut state = exec.new_sequence();
        if let Some(from) = self.override_from {
            let mut schedule = SparsitySchedule::new();
            schedule.push(from, SparsityOverride::none().with_budget(8));
            state.set_sparsity_schedule(schedule);
        }
        let prompt: Vec<u32> = (0..PROMPT).map(|i| ((i * 31 + 7) % 97) as u32).collect();
        let mut logits = exec
            .prefill(&mut state, &mut pool, &prompt[..GRID])
            .unwrap()
            .logits;
        let mut bystander = exec.new_sequence();
        if self.bystander {
            exec.prefill(&mut bystander, &mut pool, &prompt[..GRID])
                .unwrap();
            for &t in &prompt[GRID..80] {
                exec.decode_step(&mut bystander, &mut pool, t).unwrap();
            }
            bystander.demote_resident(&mut pool);
        }
        match split {
            None => {
                for &t in &prompt[GRID..] {
                    logits = exec.decode_step(&mut state, &mut pool, t).unwrap().logits;
                }
            }
            Some(split) => {
                let m = &w.config;
                let mut plan = ShardingPlan::new(
                    Topology::from_env(),
                    PlacementPolicy::SparsityAware,
                    m.num_layers,
                    m.num_kv_heads,
                );
                let mut exec_stats = ParallelExecStats::default();
                let (mut fed, mut call) = (GRID, 0);
                while fed < PROMPT {
                    let end = (fed + split.cell(call)).min(PROMPT);
                    let mut rows = [(&mut state, &prompt[fed..end])];
                    let out = exec
                        .decode_batch_sharded(&mut pool, &mut rows, 1, &mut plan, &mut exec_stats)
                        .pop()
                        .unwrap();
                    logits = out.unwrap().logits;
                    fed = end;
                    call += 1;
                }
            }
        }
        let last_prompt_logits: Vec<u32> = logits.iter().map(|x| x.to_bits()).collect();
        let mut generated = Vec::with_capacity(DECODE);
        for _ in 0..DECODE {
            let next = greedy_next_token(&logits);
            generated.push(next);
            logits = exec
                .decode_step(&mut state, &mut pool, next)
                .unwrap()
                .logits;
        }
        let stats = state.stats();
        let ledgers = format!("{:?} {:?}", pool.tier_stats(), pool.migration_stats());
        state.release(&mut pool);
        bystander.release(&mut pool);
        assert_eq!(pool.in_use(), 0, "feed leaked pages");
        (last_prompt_logits, generated, stats, ledgers)
    }
}

/// Feeding the prompt remainder in multi-token executor calls — one
/// layer-outer pass per call — is bit-identical to feeding it one
/// `decode_step` at a time: the last prompt token's logits bit for bit, the
/// next 32 greedy tokens, every work counter, and the pool's migration
/// ledgers. Covered across KV precision, selector kind, a positional sparsity
/// override, selection-driven demotion, migration mode (with and without
/// another sequence's transfers in flight) and cell splits.
#[test]
fn chunked_feed_matches_per_token_feed() {
    let splits = [
        Split::Cells(1),
        Split::Cells(7),
        Split::Cells(64),
        Split::Cells(128),
        Split::Uneven,
    ];
    let mut cases = 0;
    for precision in [KvPrecision::Fp16, KvPrecision::Int4] {
        for selector in [
            SelectorKind::Flat,
            SelectorKind::Hierarchical,
            SelectorKind::None,
        ] {
            let demotes: &[Option<usize>] = match selector {
                SelectorKind::None => &[None],
                _ => &[None, Some(1)],
            };
            for &demote in demotes {
                for override_from in [None, Some(60)] {
                    for (migration, bystander) in [
                        (MigrationMode::Sync, false),
                        (MigrationMode::Async, false),
                        (MigrationMode::Async, true),
                    ] {
                        let case = FeedCase {
                            precision,
                            selector,
                            override_from,
                            demote,
                            migration,
                            bystander,
                        };
                        let want = case.run(None);
                        for split in splits {
                            let got = case.run(Some(split));
                            assert!(
                                got.0 == want.0,
                                "{case:?} {split:?}: last prompt logits differ"
                            );
                            assert_eq!(got.1, want.1, "{case:?} {split:?}: generated tokens");
                            assert_eq!(got.2, want.2, "{case:?} {split:?}: engine stats");
                            assert_eq!(got.3, want.3, "{case:?} {split:?}: pool ledgers");
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 5 * 2 * 3 * 5);
}
