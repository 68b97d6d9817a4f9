//! Scheduler-level properties: page conservation under arbitrary workloads
//! (including preemption), and determinism of continuous batching — the batched
//! scheduler must emit token-identical greedy outputs to running each request
//! alone on a fresh pool, across chunked prefill, preemption/resume cycles, and
//! cross-request prefix caching (warm cache hits must be bit-identical to cold
//! runs, for any chunk size, pool pressure, and KV precision).
//!
//! Since the executor grew its sharded parallel attention phase, the same file
//! also pins the thread-count axis: for any worker count, chunk size, pool
//! pressure (preemption/resume included), and KV precision, the scheduler's
//! outputs are bit-identical to the single-threaded run.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, EngineConfig, ModelExecutor, PreemptionPolicy,
    RejectReason, RequestSpec, RequestStatus, Scheduler, SchedulerConfig, ServingEvent,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::{lane, EventKind, Tracer};
use proptest::prelude::*;

fn weights(seed: u64) -> Arc<ModelWeights> {
    Arc::new(ModelWeights::random(&ModelConfig::tiny(), seed))
}

/// Small-page FP16 LServe policy: page pressure shows up at toy context lengths.
fn small_page_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::lserve_fp16();
    cfg.paging = PagingConfig::new(8, 4, KvPrecision::Fp16);
    cfg.prefill_tile = 8;
    cfg
}

use sequence_pages_estimate as estimate;

fn run_solo(cfg: &EngineConfig, w: &Arc<ModelWeights>, chunk: usize, req: RequestSpec) -> Vec<u32> {
    // Fresh, generously sized pool; same chunk size as the batched run so the
    // tile-prefill boundary is identical.
    let pool_pages = estimate(cfg, &w.config, req.prompt.len() + req.max_new_tokens) * 2 + 16;
    let mut scfg = SchedulerConfig::new(pool_pages);
    scfg.chunk_tokens = chunk;
    let mut solo = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(w), cfg.clone())),
        scfg,
    );
    let id = req.id;
    solo.submit(req);
    let report = solo.run_to_completion(100_000);
    assert_eq!(solo.pool_in_use(), 0);
    let (got_id, tokens) = report.completed.into_iter().next().expect("solo completes");
    assert_eq!(got_id, id);
    tokens
}

/// Deterministic anchor for the acceptance criterion: chunk smaller than every
/// prompt, a pool that forces at least one preemption/resume cycle, and outputs
/// that still match per-request solo runs exactly.
#[test]
fn forced_preemption_and_chunked_prefill_match_solo_runs() {
    let w = weights(41);
    let cfg = small_page_cfg();
    let requests: Vec<RequestSpec> = vec![
        RequestSpec::new(1, (0..52).map(|i| (i % 90) as u32).collect()).max_new_tokens(12),
        RequestSpec::new(2, (0..44).map(|i| ((i * 3) % 90) as u32).collect()).max_new_tokens(12),
        RequestSpec::new(3, (0..36).map(|i| ((i * 7) % 90) as u32).collect()).max_new_tokens(12),
    ];
    // Pool: any single request fits with room to spare, all three together do not.
    let single_max = requests
        .iter()
        .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let mut scfg = SchedulerConfig::new(single_max + single_max / 2);
    scfg.chunk_tokens = 8; // smaller than every prompt
    scfg.admission = AdmissionPolicy::FirstChunk;
    let mut sched = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
        scfg,
    );
    for r in &requests {
        sched.submit(r.clone());
    }
    let report = sched.run_to_completion(200_000);
    assert!(
        report.preemptions > 0,
        "pool sized for ~1.5 sequences must force preemption"
    );
    assert_eq!(report.completed.len(), 3, "rejected: {:?}", report.rejected);
    assert_eq!(
        sched.pool_in_use(),
        0,
        "page conservation after preemptions"
    );
    for req in requests {
        let want = run_solo(&cfg, &w, 8, req.clone());
        let got = &report
            .completed
            .iter()
            .find(|(id, _)| *id == req.id)
            .unwrap()
            .1;
        assert_eq!(got, &want, "request {} diverged", req.id);
    }
    // Preempted requests must report their preemption count.
    let preempted: u32 = report.request_metrics.iter().map(|m| m.preemptions).sum();
    assert!(preempted as u64 >= report.preemptions);
}

/// Deterministic anchor for the parallel-decode acceptance criterion: a mixed
/// workload under enough pool pressure to force preemption/resume cycles must
/// produce byte-identical reports at every thread count in {1, 2, 3, 8}.
#[test]
fn parallel_decode_matches_single_thread_under_preemption() {
    let w = weights(17);
    let cfg = small_page_cfg();
    let requests: Vec<RequestSpec> = (0..3u64)
        .map(|i| {
            RequestSpec::new(
                i,
                (0..30 + 11 * i as usize)
                    .map(|t| ((t * 5 + i as usize * 3) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(10)
        })
        .collect();
    let single_max = requests
        .iter()
        .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let run = |threads: usize| {
        let mut scfg = SchedulerConfig::new(single_max + single_max / 2);
        scfg.chunk_tokens = 8;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.decode_threads = threads;
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        for r in &requests {
            sched.submit(r.clone());
        }
        let report = sched.run_to_completion(200_000);
        assert_eq!(sched.pool_in_use(), 0, "leaked pages at {threads} threads");
        report
    };
    let want = run(1);
    assert_eq!(want.completed.len(), 3);
    assert!(want.preemptions > 0, "pool must force preemption");
    for threads in [2usize, 3, 8] {
        let got = run(threads);
        assert_eq!(got.completed, want.completed, "{threads} threads diverged");
        assert_eq!(got.decode_steps, want.decode_steps);
        assert_eq!(got.preemptions, want.preemptions);
        assert_eq!(got.scheduler_steps, want.scheduler_steps);
        assert_eq!(
            got.parallel.shards, want.parallel.shards,
            "shard decomposition must not depend on thread count"
        );
        assert_eq!(got.decode_threads, threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Page conservation: whatever the workload, pool size, chunk size, and
    /// admission policy — including runs with preemptions and rejections — every
    /// page returns to the pool by the end of the run.
    #[test]
    fn scheduler_conserves_pages(
        wseed in 0u64..20,
        nreq in 1usize..5,
        chunk in 3usize..24,
        pool_pages in 24usize..160,
        aggressive in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let cfg = small_page_cfg();
        let mut scfg = SchedulerConfig::new(pool_pages);
        scfg.chunk_tokens = chunk;
        scfg.admission = if aggressive {
            AdmissionPolicy::FirstChunk
        } else {
            AdmissionPolicy::FullFootprint
        };
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg)),
            scfg,
        );
        for i in 0..nreq {
            sched.submit(RequestSpec::new(i as u64, (0..8 + 9 * i + wseed as usize % 7)
                    .map(|t| ((t * (i + 2)) % 90) as u32)
                    .collect()).max_new_tokens(4 + i));
        }
        let report = sched.run_to_completion(200_000);
        prop_assert_eq!(sched.pool_in_use(), 0, "leaked pages");
        prop_assert_eq!(report.completed.len() + report.rejected.len(), nreq);
    }

    /// Prefix-cache determinism (the acceptance property): with the cache
    /// enabled, every request's outputs are bit-identical to a cold solo run with
    /// the cache disabled — across chunk sizes, pool pressures (evictions and
    /// preemptions included), FP16/INT4 KV, and multi-wave traffic where later
    /// waves hit prefixes donated by earlier ones.
    #[test]
    fn prefix_cache_outputs_match_cold_solo_runs(
        wseed in 0u64..20,
        chunk in 3usize..14,
        shared_len in 8usize..40,
        slack in 0usize..60,
        quantized in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        // A request family sharing a `shared_len`-token prefix with per-request
        // suffixes (the persona/query traffic shape).
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| {
                let mut prompt: Vec<u32> =
                    (0..shared_len).map(|t| ((t * 3 + 1) % 90) as u32).collect();
                prompt.extend(
                    (0..10 + 4 * i as usize).map(|t| ((t * 7 + i as usize * 11) % 90) as u32),
                );
                RequestSpec::new(i, prompt).max_new_tokens(6)
            })
            .collect();
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let mut scfg = SchedulerConfig::new(single_max + slack);
        scfg.chunk_tokens = chunk;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.prefix_cache = true;
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        // Wave 1 populates the cache; wave 2 (same prompts re-issued under new
        // ids plus the originals' suffix family) consumes it.
        sched.submit(requests[0].clone());
        sched.run_to_completion(200_000);
        for r in &requests[1..] {
            sched.submit(r.clone());
        }
        let report = sched.run_to_completion(200_000);
        prop_assert_eq!(report.completed.len(), 3);
        for req in &requests {
            let want = run_solo(&cfg, &w, chunk, req.clone());
            let got = &report
                .completed
                .iter()
                .find(|(id, _)| *id == req.id)
                .unwrap()
                .1;
            prop_assert_eq!(got, &want, "request {} diverged under prefix caching", req.id);
        }
        // Page conservation: after the run only the cache holds pages, and
        // flushing it returns the pool to empty.
        sched.flush_prefix_cache();
        prop_assert_eq!(sched.pool_in_use(), 0, "leaked pages after flush");
        // The cache must actually have been exercised when prompts are long
        // enough to clear the tile grid.
        if shared_len >= chunk && slack >= 40 {
            prop_assert!(
                report.prefix_hit_tokens > 0,
                "no hits despite shareable prefixes (shared_len {} chunk {})",
                shared_len,
                chunk
            );
        }
    }

    /// Tiered-memory determinism (the tentpole property of the tiered KV
    /// refactor): `PreemptionPolicy::Swap` — with selection-driven demotion on
    /// or off — emits outputs bit-identical to `Replay` and to per-request
    /// solo runs, across chunk sizes, pool pressures (swap-outs and resumes
    /// included), FP16/INT4 KV, and prefix caching on/off. Migrations move
    /// pages between tiers; they must never move a single output token.
    #[test]
    fn swap_preemption_outputs_match_replay_and_solo_runs(
        wseed in 0u64..20,
        chunk in 3usize..16,
        slack in 0usize..50,
        quantized in proptest::bool::ANY,
        prefix_cache in proptest::bool::ANY,
        demote in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        if demote {
            // Activate page selection at toy scale (in BOTH configs, so the
            // attention numerics are identical) so selection-driven demotion
            // actually fires alongside the swap traffic.
            cfg.dynamic_budget = Some(16);
        }
        let mut tiered_cfg = cfg.clone();
        if demote {
            tiered_cfg.demote_after_chunks = Some(1);
        }
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| {
                RequestSpec::new(
                    i,
                    (0..26 + 9 * i as usize)
                        .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                        .collect(),
                )
                .max_new_tokens(8)
            })
            .collect();
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let run = |engine_cfg: &EngineConfig, policy: PreemptionPolicy| {
            let mut scfg = SchedulerConfig::new(single_max + slack);
            scfg.chunk_tokens = chunk;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.prefix_cache = prefix_cache;
            scfg.preemption = policy;
            // Pin the historical two-tier shape: this property contrasts the
            // preemption policies, and its "replay must not touch tiers"
            // invariant only holds with an unbounded host (a bounded one
            // makes prefix eviction spill — by design). The memory-hierarchy
            // knobs get their own equivalence suite in `proptest_hierarchy`.
            scfg.host_pages = 0;
            scfg.nvme = false;
            let mut sched = Scheduler::new(
                Arc::new(ModelExecutor::new(Arc::clone(&w), engine_cfg.clone())),
                scfg,
            );
            for r in &requests {
                sched.submit(r.clone());
            }
            let report = sched.run_to_completion(200_000);
            sched.flush_prefix_cache();
            assert_eq!(
                sched.pool_in_use(),
                0,
                "hot pages leaked under {policy:?} \
                 (wseed {wseed} chunk {chunk} slack {slack} quantized {quantized} \
                 prefix {prefix_cache} demote {demote}; queued {} running {} \
                 completed {})",
                sched.queued(),
                sched.running(),
                report.completed.len()
            );
            assert_eq!(
                sched.pool_cold_in_use(), 0,
                "cold pages leaked under {policy:?}"
            );
            report
        };
        let replay = run(&cfg, PreemptionPolicy::Replay);
        let swap = run(&tiered_cfg, PreemptionPolicy::Swap);
        prop_assert_eq!(replay.completed.len(), 3);
        prop_assert_eq!(
            &swap.completed, &replay.completed,
            "swap/tiered outputs diverged from replay (wseed {} chunk {} slack {} \
             quantized {} prefix {} demote {})",
            wseed, chunk, slack, quantized, prefix_cache, demote
        );
        // Every promotion consumes a page some demotion produced (a victim
        // preempted before holding any sole-owned page migrates nothing, so
        // preemptions alone need not imply traffic).
        prop_assert!(
            swap.pages_promoted <= swap.pages_demoted,
            "promoted {} pages but only {} were ever demoted",
            swap.pages_promoted,
            swap.pages_demoted
        );
        prop_assert_eq!(replay.pages_demoted, 0, "replay must not touch tiers");
        for req in &requests {
            let want = run_solo(&cfg, &w, chunk, req.clone());
            let got = &swap
                .completed
                .iter()
                .find(|(id, _)| *id == req.id)
                .unwrap()
                .1;
            prop_assert_eq!(got, &want, "request {} diverged under swap", req.id);
        }
    }

    /// Thread-count determinism (the tentpole property): for any worker count,
    /// chunk size, pool pressure (preemption/resume cycles included), and KV
    /// precision, the scheduler's outputs are bit-identical to the
    /// single-threaded run of the same workload — the sharded attention phase
    /// only redistributes work, never changes it.
    #[test]
    fn parallel_decode_outputs_match_single_thread(
        wseed in 0u64..20,
        chunk in 3usize..16,
        slack in 0usize..50,
        threads_pick in 0usize..3,
        quantized in proptest::bool::ANY,
    ) {
        let threads = [2usize, 3, 8][threads_pick];
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| RequestSpec::new(i, (0..20 + 9 * i as usize)
                    .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                    .collect()).max_new_tokens(6))
            .collect();
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let run = |threads: usize| {
            let mut scfg = SchedulerConfig::new(single_max + slack);
            scfg.chunk_tokens = chunk;
            scfg.admission = AdmissionPolicy::FirstChunk;
            scfg.decode_threads = threads;
            let mut sched = Scheduler::new(
                Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
                scfg,
            );
            for r in &requests {
                sched.submit(r.clone());
            }
            let report = sched.run_to_completion(200_000);
            assert_eq!(sched.pool_in_use(), 0, "leaked pages at {threads} threads");
            report
        };
        let want = run(1);
        let got = run(threads);
        prop_assert_eq!(&got.completed, &want.completed, "{} threads diverged", threads);
        prop_assert_eq!(got.decode_steps, want.decode_steps);
        prop_assert_eq!(got.preemptions, want.preemptions);
        prop_assert_eq!(got.parallel.shards, want.parallel.shards);
    }

    /// Determinism: the batched scheduler's greedy outputs are token-identical to
    /// running each request alone on a fresh pool, for arbitrary chunk sizes and
    /// pool pressure (preemptions included).
    #[test]
    fn batched_outputs_match_solo_runs(
        wseed in 0u64..20,
        chunk in 3usize..20,
        slack in 0usize..40,
        quantized in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| RequestSpec::new(i, (0..24 + 13 * i as usize)
                    .map(|t| ((t * 5 + i as usize) % 90) as u32)
                    .collect()).max_new_tokens(8))
            .collect();
        // Pool always fits the largest single request, plus variable slack: small
        // slack forces preemption, large slack lets everything run concurrently.
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let mut scfg = SchedulerConfig::new(single_max + slack);
        scfg.chunk_tokens = chunk;
        scfg.admission = AdmissionPolicy::FirstChunk;
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        for r in &requests {
            sched.submit(r.clone());
        }
        let report = sched.run_to_completion(200_000);
        prop_assert_eq!(report.completed.len(), 3);
        prop_assert_eq!(sched.pool_in_use(), 0);
        for req in requests {
            let want = run_solo(&cfg, &w, chunk, req.clone());
            let got = &report
                .completed
                .iter()
                .find(|(id, _)| *id == req.id)
                .unwrap()
                .1;
            prop_assert_eq!(got, &want, "request {} diverged", req.id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lifecycle determinism (the streaming-API acceptance property):
    /// cancelling — or stop-sequence-terminating — an arbitrary request
    /// mid-flight leaves every survivor's output bit-identical to its solo
    /// run, across FP16/INT4 KV, replay/swap preemption (swap victim choice
    /// included), and prefix cache on/off. The terminated request itself
    /// always ends on a clean prefix of its own solo run.
    #[test]
    fn cancellation_and_stops_leave_survivors_bit_identical(
        wseed in 0u64..20,
        chunk in 3usize..14,
        slack in 0usize..50,
        victim_pick in 0usize..3,
        cancel_step in 1u64..12,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        prefix_cache in proptest::bool::ANY,
        use_stop in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| {
                RequestSpec::new(
                    i,
                    (0..24 + 9 * i as usize)
                        .map(|t| ((t * 5 + i as usize * 7) % 90) as u32)
                        .collect(),
                )
                .max_new_tokens(8)
            })
            .collect();
        let victim_id = victim_pick as u64;
        // Per-request solo references (the bit-identity baseline).
        let solo: Vec<Vec<u32>> = requests
            .iter()
            .map(|r| run_solo(&cfg, &w, chunk, r.clone()))
            .collect();
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let mut scfg = SchedulerConfig::new(single_max + slack);
        scfg.chunk_tokens = chunk;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.prefix_cache = prefix_cache;
        scfg.preemption = if swap {
            PreemptionPolicy::Swap
        } else {
            PreemptionPolicy::Replay
        };
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        // In stop mode the victim carries a stop sequence drawn from its own
        // solo output, so it terminates mid-flight through the stop path.
        let stop_seq: Vec<u32> = solo[victim_pick][1..3].to_vec();
        let mut handles = Vec::new();
        for r in &requests {
            let mut spec = r.clone();
            if use_stop && r.id == victim_id {
                spec = spec.stop_sequence(stop_seq.clone());
            }
            handles.push(sched.submit(spec));
        }
        if !use_stop {
            for _ in 0..cancel_step {
                sched.step();
            }
            handles[victim_pick].cancel();
        }
        let report = sched.run_to_completion(200_000);
        prop_assert_eq!(
            report.completed.len() + report.cancelled.len(),
            3,
            "every request must reach a terminal state"
        );
        for req in &requests {
            let want = &solo[req.id as usize];
            if req.id == victim_id {
                // The terminated request ends on a prefix of its solo run: the
                // exact stop point for stop sequences, the cancel boundary for
                // cancellations.
                let got = report
                    .completed
                    .iter()
                    .chain(report.cancelled.iter())
                    .find(|(id, _)| *id == req.id)
                    .map(|(_, t)| t)
                    .expect("victim reached a terminal state");
                prop_assert!(
                    got.len() <= want.len() && &want[..got.len()] == got.as_slice(),
                    "victim {} diverged from its solo prefix",
                    req.id
                );
                if use_stop {
                    let expect_len = (1..=want.len())
                        .find(|&k| want[..k].ends_with(&stop_seq))
                        .expect("stop sequence drawn from the solo output");
                    prop_assert_eq!(
                        got,
                        &want[..expect_len].to_vec(),
                        "stop-terminated output must end exactly at the first match"
                    );
                }
                continue;
            }
            let got = &report
                .completed
                .iter()
                .find(|(id, _)| *id == req.id)
                .expect("survivor completed")
                .1;
            prop_assert_eq!(
                got,
                want,
                "survivor {} diverged after mid-flight termination of {}",
                req.id,
                victim_id
            );
        }
        // Page conservation across both tiers, cache included.
        sched.flush_prefix_cache();
        prop_assert_eq!(sched.pool_in_use(), 0, "leaked hot pages");
        prop_assert_eq!(sched.pool_cold_in_use(), 0, "leaked cold pages");
    }

    /// Event-stream invariants: for every request — across pool pressure,
    /// preemption policies, and cancellation — events arrive in lifecycle
    /// order (`Admitted` first, `FirstToken` exactly once before any `Token`,
    /// every `Resumed` preceded by a matching `Preempted`, no token events
    /// while preempted), exactly one terminal event arrives and it is last,
    /// and the streamed tokens reassemble the terminal event's output.
    ///
    /// The trace, the handle and `status` tell the same lifecycle: with an
    /// invalid spec (rejected at submit) and an oversized one (rejected at
    /// admission) in the mix, every request's scheduler-lane lifecycle
    /// instants match its handle's state-change events one-for-one and in
    /// order, `status` agrees with the terminal event, and one `queued` or
    /// `running` span closes per phase the request entered. A duplicate-id
    /// submit only gets its rejection event: its lane is the original's.
    #[test]
    fn event_streams_follow_lifecycle_order(
        wseed in 0u64..20,
        chunk in 3usize..14,
        slack in 0usize..40,
        swap in proptest::bool::ANY,
        cancel_pick in 0usize..4, // 3 = nobody cancelled
    ) {
        let w = weights(wseed);
        let cfg = small_page_cfg();
        let requests: Vec<RequestSpec> = (0..3u64)
            .map(|i| {
                RequestSpec::new(
                    i,
                    (0..20 + 9 * i as usize)
                        .map(|t| ((t * 3 + i as usize) % 90) as u32)
                        .collect(),
                )
                .max_new_tokens(6)
            })
            .collect();
        let single_max = requests
            .iter()
            .map(|r| estimate(&cfg, &w.config, r.prompt.len() + r.max_new_tokens))
            .max()
            .unwrap();
        let mut scfg = SchedulerConfig::new(single_max + slack);
        scfg.chunk_tokens = chunk;
        scfg.admission = AdmissionPolicy::FirstChunk;
        scfg.preemption = if swap {
            PreemptionPolicy::Swap
        } else {
            PreemptionPolicy::Replay
        };
        let pool_pages = scfg.pool_pages;
        let tracer = Tracer::ring(1 << 16);
        scfg.tracer = tracer.clone();
        let mut sched = Scheduler::new(
            Arc::new(ModelExecutor::new(Arc::clone(&w), cfg.clone())),
            scfg,
        );
        let mut handles: Vec<_> = requests.iter().map(|r| sched.submit(r.clone())).collect();
        let duplicate = sched.submit(RequestSpec::new(0, vec![1, 2, 3]).max_new_tokens(2));
        // Rejected at submit: an empty prompt.
        handles.push(sched.submit(RequestSpec::new(3, Vec::new()).max_new_tokens(4)));
        // Rejected at admission: the footprint can never fit the pool.
        let too_large = RequestSpec::new(4, (0..400).map(|t| (t % 90) as u32).collect())
            .max_new_tokens(6);
        prop_assert!(estimate(&cfg, &w.config, 406) > pool_pages);
        handles.push(sched.submit(too_large));
        if cancel_pick < 3 {
            sched.step();
            sched.step();
            handles[cancel_pick].cancel();
        }
        sched.run_to_completion(200_000);
        prop_assert_eq!(
            duplicate.drain_events(),
            vec![ServingEvent::Rejected { reason: RejectReason::DuplicateId }]
        );
        let (trace, dropped) = tracer.drain();
        prop_assert_eq!(dropped, 0);
        for handle in &handles {
            prop_assert!(handle.is_terminal(), "request {} never terminated", handle.id());
            let events = handle.drain_events();
            prop_assert!(!events.is_empty());
            // Exactly one terminal event, and it is last.
            let terminal_count = events.iter().filter(|e| e.is_terminal()).count();
            prop_assert_eq!(terminal_count, 1, "request {} terminal events", handle.id());
            prop_assert!(events.last().unwrap().is_terminal());
            let mut admitted = 0usize;
            let mut first_tokens = 0usize;
            let mut preempted = 0usize;
            let mut resumed = 0usize;
            let mut in_batch = false;
            let mut streamed: Vec<u32> = Vec::new();
            for event in &events {
                match event {
                    ServingEvent::Admitted => {
                        prop_assert_eq!(
                            (admitted, preempted, streamed.len()),
                            (0, 0, 0),
                            "Admitted must be the first lifecycle event"
                        );
                        admitted += 1;
                        in_batch = true;
                    }
                    ServingEvent::FirstToken { token } => {
                        prop_assert!(in_batch, "token while not running");
                        prop_assert_eq!(first_tokens, 0, "duplicate FirstToken");
                        prop_assert!(streamed.is_empty(), "FirstToken after Token");
                        first_tokens += 1;
                        streamed.push(*token);
                    }
                    ServingEvent::Token { token } => {
                        prop_assert!(in_batch, "token while not running");
                        prop_assert_eq!(first_tokens, 1, "Token before FirstToken");
                        streamed.push(*token);
                    }
                    ServingEvent::Preempted { .. } => {
                        prop_assert!(in_batch, "preempted while not running");
                        preempted += 1;
                        in_batch = false;
                    }
                    ServingEvent::Resumed => {
                        prop_assert!(!in_batch, "resumed while running");
                        prop_assert!(
                            resumed < preempted,
                            "every Resumed needs a matching earlier Preempted"
                        );
                        resumed += 1;
                        in_batch = true;
                    }
                    ServingEvent::Finished { tokens, .. } => {
                        prop_assert_eq!(tokens, &streamed, "Finished payload != streamed tokens");
                    }
                    ServingEvent::Cancelled { tokens } => {
                        prop_assert_eq!(tokens, &streamed, "Cancelled payload != streamed tokens");
                    }
                    ServingEvent::Rejected { .. } => {}
                }
            }
            prop_assert!(resumed <= preempted);

            let id = handle.id();
            let lane_events = || {
                trace
                    .iter()
                    .filter(move |e| e.pid == lane::SCHEDULER && e.tid == id)
            };
            let instants: Vec<(String, Vec<(&str, u64)>)> = lane_events()
                .filter(|e| e.kind == EventKind::Instant)
                .filter(|e| {
                    ["admit", "resume", "preempt", "finish", "cancel", "reject"]
                        .contains(&e.name.as_ref())
                })
                .map(|e| (e.name.to_string(), e.args.clone()))
                .collect();
            let expected: Vec<&str> = events
                .iter()
                .filter_map(|e| match e {
                    ServingEvent::Admitted => Some("admit"),
                    ServingEvent::Resumed => Some("resume"),
                    ServingEvent::Preempted { .. } => Some("preempt"),
                    ServingEvent::Finished { .. } => Some("finish"),
                    ServingEvent::Cancelled { .. } => Some("cancel"),
                    ServingEvent::Rejected { .. } => Some("reject"),
                    ServingEvent::FirstToken { .. } | ServingEvent::Token { .. } => None,
                })
                .collect();
            let names: Vec<&str> = instants.iter().map(|(n, _)| n.as_str()).collect();
            prop_assert_eq!(names, expected, "request {} trace vs handle lifecycle", id);
            let swaps: Vec<u64> = instants
                .iter()
                .filter(|(n, _)| n == "preempt")
                .map(|(_, args)| args[0].1)
                .collect();
            let policies: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    ServingEvent::Preempted { policy } => {
                        Some(u64::from(*policy == PreemptionPolicy::Swap))
                    }
                    _ => None,
                })
                .collect();
            prop_assert_eq!(swaps, policies, "request {} preempt policies", id);

            let status = sched.status(id);
            match events.last().unwrap() {
                ServingEvent::Finished { tokens, .. } => {
                    prop_assert_eq!(status, Some(RequestStatus::Finished(tokens.clone())));
                }
                ServingEvent::Cancelled { tokens } => {
                    prop_assert_eq!(status, Some(RequestStatus::Cancelled(tokens.clone())));
                }
                ServingEvent::Rejected { .. } => {
                    prop_assert_eq!(status, Some(RequestStatus::Rejected));
                }
                other => prop_assert!(false, "non-terminal last event {:?}", other),
            }

            // Queued at submit (unless rejected there) and after every
            // preemption; running after every admission or resume.
            let rejected_at_submit = events
                == [ServingEvent::Rejected { reason: RejectReason::Invalid }];
            let phases = usize::from(!rejected_at_submit) + preempted + admitted + resumed;
            let spans = lane_events()
                .filter(|e| e.kind == EventKind::Span)
                .filter(|e| e.name == "queued" || e.name == "running")
                .count();
            prop_assert_eq!(spans, phases, "request {} phase spans", id);
        }
    }
}
