//! Device-matrix determinism: multi-device head placement is a pure
//! accounting change. For any workload, running the scheduler against 1, 2 or
//! 4 simulated devices emits bit-identical outputs — across FP16/INT4 KV,
//! replay/swap preemption, sync/async migration, and prefix caching on/off.
//! Placement, cross-device gathers and the rebalancer only move *modeled*
//! cost between simulated devices; the arithmetic never changes.
//!
//! The same file anchors the cluster front door: the prefix-affinity router
//! must actually produce affinity hits on a shared-prefix workload, and the
//! per-replica reports must sum exactly to the rolled-up cluster snapshot.

use std::sync::Arc;

use lserve::core::{
    sequence_pages_estimate, AdmissionPolicy, Cluster, ClusterConfig, EngineConfig, MigrationMode,
    ModelExecutor, PreemptionPolicy, RequestSpec, Scheduler, SchedulerConfig, ServingReport,
};
use lserve::kvcache::PagingConfig;
use lserve::model::{ModelConfig, ModelWeights};
use lserve::quant::KvPrecision;
use lserve::trace::{EventKind, TraceEvent, Tracer};
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

fn requests() -> Vec<RequestSpec> {
    (0..3u64)
        .map(|i| {
            RequestSpec::new(
                i,
                (0..30 + 9 * i as usize)
                    .map(|t| ((t * 3 + i as usize * 7) % 90) as u32)
                    .collect(),
            )
            .max_new_tokens(8)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_devices(
    w: &Arc<ModelWeights>,
    cfg: &EngineConfig,
    devices: usize,
    chunk: usize,
    slack: usize,
    swap: bool,
    prefix_cache: bool,
    migration: MigrationMode,
    tracer: Tracer,
) -> ServingReport {
    let reqs = requests();
    let single_max = reqs
        .iter()
        .map(|r| sequence_pages_estimate(cfg, &w.config, r.prompt.len() + r.max_new_tokens))
        .max()
        .unwrap();
    let mut scfg = SchedulerConfig::new(single_max + single_max / 2 + slack);
    scfg.chunk_tokens = chunk;
    scfg.admission = AdmissionPolicy::FirstChunk;
    scfg.prefix_cache = prefix_cache;
    scfg.preemption = if swap {
        PreemptionPolicy::Swap
    } else {
        PreemptionPolicy::Replay
    };
    scfg.migration = migration;
    scfg.devices = devices;
    scfg.tracer = tracer;
    let mut sched = Scheduler::new(
        Arc::new(ModelExecutor::new(Arc::clone(w), cfg.clone())),
        scfg,
    );
    for r in &reqs {
        sched.submit(r.clone());
    }
    let report = sched.run_to_completion(200_000);
    sched.flush_prefix_cache();
    assert_eq!(
        sched.pool_in_use(),
        0,
        "hot pages leaked at {devices} devices"
    );
    report
}

/// Deterministic anchor: a demanding scene (swap preemption, async migration,
/// selection-driven demotion) where the 2- and 4-device runs must keep every
/// output token identical to the single-device run while charging modeled
/// interconnect tokens for cross-device gathers.
///
/// Every run is traced into a ring. One device is the degenerate placement:
/// its device ledger equals the worker ledger's serial cost, and its trace
/// keeps the single-device format (no `devices` span arg, no `interconnect`
/// counter), while multi-device runs carry both.
#[test]
fn device_matrix_preserves_outputs_and_charges_interconnect() {
    let w = weights(23);
    let mut cfg = small_page_cfg();
    cfg.dynamic_budget = Some(24);
    cfg.demote_after_chunks = Some(1);
    cfg.reuse_interval = 2;
    let traced = |devices: usize| {
        let tracer = Tracer::ring(1 << 18);
        let report = run_devices(
            &w,
            &cfg,
            devices,
            8,
            0,
            true,
            false,
            MigrationMode::Async,
            tracer.clone(),
        );
        let (events, dropped) = tracer.drain();
        assert_eq!(dropped, 0, "ring evicted events at {devices} devices");
        (report, events)
    };
    // (decode.attention spans carrying a `devices` arg, interconnect counters)
    let device_events = |events: &[TraceEvent]| {
        let attention = events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.name == "decode.attention")
            .collect::<Vec<_>>();
        assert!(!attention.is_empty(), "no decode attention phase traced");
        let with_devices = attention
            .iter()
            .filter(|e| e.args.iter().any(|&(k, _)| k == "devices"))
            .count();
        let interconnect = events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name == "interconnect")
            .count();
        (with_devices, attention.len(), interconnect)
    };
    let (base, events) = traced(1);
    assert_eq!(base.completed.len(), 3, "rejected: {:?}", base.rejected);
    assert_eq!(base.devices, 1);
    assert_eq!(base.parallel.interconnect_tokens, 0);
    assert_eq!(base.parallel.device_cost_total, base.parallel.cost_total);
    assert_eq!(
        base.parallel.device_cost_critical,
        base.parallel.device_cost_capacity
    );
    let (with_devices, _, interconnect) = device_events(&events);
    assert_eq!(with_devices, 0, "single-device spans carry no devices arg");
    assert_eq!(interconnect, 0, "single-device runs emit no interconnect");
    for devices in [2usize, 4] {
        let (multi, events) = traced(devices);
        assert_eq!(
            multi.completed, base.completed,
            "{devices}-device outputs diverged"
        );
        assert_eq!(multi.devices, devices);
        assert!(
            multi.parallel.interconnect_tokens > 0,
            "multi-device batches must charge cross-device gathers"
        );
        assert!(multi.parallel.device_cost_capacity >= multi.parallel.device_cost_total);
        assert!(multi.parallel.device_imbalance() >= 1.0);
        let (with_devices, phases, interconnect) = device_events(&events);
        assert_eq!(
            with_devices, phases,
            "every {devices}-device phase names its devices"
        );
        assert_eq!(interconnect, phases, "one interconnect sample per phase");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property: for any chunk size, pool slack, KV precision,
    /// preemption policy, migration mode and prefix caching, the scheduler's
    /// outputs are bit-identical across {1, 2, 4} simulated devices.
    #[test]
    fn outputs_identical_across_device_counts(
        wseed in 0u64..20,
        chunk in 3usize..16,
        slack in 0usize..50,
        quantized in proptest::bool::ANY,
        swap in proptest::bool::ANY,
        prefix_cache in proptest::bool::ANY,
        async_migration in proptest::bool::ANY,
        demote in proptest::bool::ANY,
    ) {
        let w = weights(wseed);
        let mut cfg = small_page_cfg();
        if quantized {
            cfg.paging = PagingConfig::new(8, 4, KvPrecision::Int4);
        }
        if demote {
            cfg.dynamic_budget = Some(16);
            cfg.demote_after_chunks = Some(1);
        }
        let migration = if async_migration {
            MigrationMode::Async
        } else {
            MigrationMode::Sync
        };
        let base = run_devices(
            &w,
            &cfg,
            1,
            chunk,
            slack,
            swap,
            prefix_cache,
            migration,
            Tracer::disabled(),
        );
        prop_assert_eq!(base.completed.len(), 3, "rejected: {:?}", base.rejected);
        for devices in [2usize, 4] {
            let multi = run_devices(
                &w,
                &cfg,
                devices,
                chunk,
                slack,
                swap,
                prefix_cache,
                migration,
                Tracer::disabled(),
            );
            prop_assert_eq!(
                &multi.completed, &base.completed,
                "outputs diverged at {} devices (wseed {} chunk {} slack {} \
                 quantized {} swap {} prefix {} async {} demote {})",
                devices, wseed, chunk, slack, quantized, swap, prefix_cache,
                async_migration, demote
            );
        }
    }
}

/// Router anchor: on a two-family shared-prefix workload, affinity routing
/// produces hits, keeps each family on one replica (so the prefix cache
/// hits), and the rolled-up snapshot's cluster totals are exact sums of the
/// per-replica reports.
#[test]
fn router_affinity_hits_and_rollup_sums_replicas() {
    let weights = weights(7);
    let exec = Arc::new(ModelExecutor::new(weights, EngineConfig::lserve_fp16()));
    let mut scfg = SchedulerConfig::new(2048);
    scfg.prefix_cache = true;
    scfg.chunk_tokens = 8;
    let mut cluster = Cluster::new(
        exec,
        scfg,
        ClusterConfig {
            replicas: 2,
            affinity_tokens: 16,
        },
    );
    let family = |seed: u32, q: u32| -> Vec<u32> {
        let mut p: Vec<u32> = (0..24u32).map(|t| (seed + t) % 40).collect();
        p.push(40 + q);
        p
    };
    // Wave 1 seeds each family's replica; wave 2 follows the recorded prefix.
    let mut id = 0u64;
    for seed in [0u32, 7] {
        cluster.submit(RequestSpec::new(id, family(seed, 0)).max_new_tokens(4));
        id += 1;
    }
    cluster.run_to_completion(10_000);
    for seed in [0u32, 7] {
        for q in 1..4u32 {
            cluster.submit(RequestSpec::new(id, family(seed, q)).max_new_tokens(4));
            id += 1;
        }
    }
    let report = cluster.run_to_completion(10_000);
    let stats = cluster.router_stats();
    assert_eq!(stats.routed, 8);
    assert!(stats.affinity_hits > 0, "affinity must route follow-ups");
    assert_eq!(stats.affinity_hits + stats.least_loaded, stats.routed);
    assert_eq!(report.completed(), 8);
    assert!(
        report.prefix_hit_tokens() > 0,
        "affinity must enable cache hits"
    );

    // Exact-sum anchor: the cluster section of the rollup equals manual sums
    // over the per-replica reports.
    assert_eq!(
        report.completed(),
        report
            .replicas
            .iter()
            .map(|r| r.completed.len())
            .sum::<usize>()
    );
    assert_eq!(
        report.decode_steps(),
        report.replicas.iter().map(|r| r.decode_steps).sum::<u64>()
    );
    assert_eq!(
        report.prefix_hit_tokens(),
        report
            .replicas
            .iter()
            .map(|r| r.prefix_hit_tokens)
            .sum::<u64>()
    );
    let rendered = report.rollup().render();
    lserve::trace::validate_json(&rendered).unwrap();
    assert!(rendered.contains(&format!("\"completed\":{}", report.completed())));
    assert!(rendered.contains("\"replica0\""));
    assert!(rendered.contains("\"replica1\""));
}
