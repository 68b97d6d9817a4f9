//! Engine configuration and the policy presets compared in the paper.

use lserve_kvcache::{PagingConfig, StreamingWindow};
use lserve_quant::KvPrecision;

/// Default decode/prefill worker-thread count from the `LSERVE_DECODE_THREADS`
/// environment variable (defaults to 1; invalid or zero values fall back
/// to 1).
///
/// The variable is read on every call — deliberately *not* cached in a
/// process-wide `OnceLock` — so tests and benches can vary the knob
/// in-process (`std::env::set_var` between scheduler constructions takes
/// effect immediately). [`crate::ModelExecutor::decode_step`] and
/// [`crate::ModelExecutor::prefill`] use it when no explicit thread count is
/// given, and [`crate::SchedulerConfig::from_env`] reads it once at
/// construction and pins the result in its `decode_threads` field. CI runs
/// the whole test suite under a `{1, 8}` matrix of this variable (crossed
/// with `LSERVE_PREEMPTION` and `LSERVE_MIGRATION` — see
/// [`lserve_kvcache::migration_from_env`] for the latter), so the
/// determinism suite exercises both the serial and the sharded path on every
/// push.
pub fn decode_threads_from_env() -> usize {
    std::env::var("LSERVE_DECODE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Which dynamic page-selection policy dense heads use during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// No dynamic sparsity: dense heads attend their full history.
    None,
    /// Flat, Quest-style physical-page statistics.
    Flat,
    /// LServe's hierarchical logical→physical scoring (§3.5.2).
    Hierarchical,
}

/// Full policy configuration of an [`crate::Engine`].
///
/// Presets mirror the paper's systems so accuracy comparisons isolate the policy:
/// everything runs on the same weights, caches and kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Page geometry and KV precision.
    pub paging: PagingConfig,
    /// Fraction of KV heads converted to streaming heads (0.0 disables static
    /// sparsity).
    pub streaming_sparsity: f64,
    /// Sink/local window of streaming heads, in physical pages.
    pub streaming_window: StreamingWindow,
    /// Dynamic sparsity token budget for dense heads (`None` = full attention).
    pub dynamic_budget: Option<usize>,
    /// Page-selector policy.
    pub selector: SelectorKind,
    /// Selector reuse interval `C` (§3.5.3); 1 = select every step.
    pub reuse_interval: usize,
    /// Square tile size for block-sparse prefill.
    pub prefill_tile: usize,
    /// MInference-style dynamic prefill sparsity on retrieval heads: `Some(keep)`
    /// retains `keep` top-affinity past blocks per query tile (plus diagonal and
    /// sinks) once the prompt exceeds [`EngineConfig::dynamic_prefill_after`].
    pub dynamic_prefill_keep: Option<usize>,
    /// Prompt length (tokens) beyond which dynamic prefill activates (§4.3 uses
    /// 128K).
    pub dynamic_prefill_after: usize,
    /// Seed for the synthetic DuoAttention gate values.
    pub gate_seed: u64,
    /// Selection-driven demotion for the tiered KV memory: `Some(k)` demotes a
    /// dense-head page to the cold (host) tier once the head's
    /// [`lserve_selector::ReusableSelector`] has skipped it for `k` consecutive
    /// fresh selection chunks; a later selection that picks a cold page
    /// triggers an accounted promote before the decode kernel runs. `None`
    /// keeps every page device-resident (the single-tier baseline). Outputs
    /// are bit-identical either way — the knob trades hot-tier footprint for
    /// modeled transfer work. Whether that work stalls the decode loop or is
    /// hidden behind it is a separate, orthogonal knob:
    /// [`lserve_kvcache::MigrationMode`] (env `LSERVE_MIGRATION`), which
    /// routes the transfers through the asynchronous copy engine.
    pub demote_after_chunks: Option<usize>,
}

impl EngineConfig {
    /// LServe defaults: INT4 KV, 64/16 hierarchical paging, 50% streaming heads,
    /// 4096-token dynamic budget, reuse interval 4.
    pub fn lserve() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Int4),
            streaming_sparsity: 0.5,
            streaming_window: StreamingWindow::new(1, 2),
            dynamic_budget: Some(4096),
            selector: SelectorKind::Hierarchical,
            reuse_interval: 4,
            prefill_tile: 64,
            dynamic_prefill_keep: Some(64),
            dynamic_prefill_after: 131_072,
            gate_seed: 0xD00D,
            demote_after_chunks: None,
        }
    }

    /// Accuracy-test variant of [`EngineConfig::lserve`] with FP16 KV, so
    /// sparsity-induced error is isolated from quantization error.
    pub fn lserve_fp16() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Fp16),
            ..Self::lserve()
        }
    }

    /// Dense baseline: full attention everywhere, FP16 KV.
    pub fn dense() -> Self {
        Self {
            paging: PagingConfig::new(64, 16, KvPrecision::Fp16),
            streaming_sparsity: 0.0,
            streaming_window: StreamingWindow::new(1, 2),
            dynamic_budget: None,
            selector: SelectorKind::None,
            reuse_interval: 1,
            prefill_tile: 64,
            dynamic_prefill_keep: None,
            dynamic_prefill_after: usize::MAX,
            gate_seed: 0xD00D,
            demote_after_chunks: None,
        }
    }

    /// QServe-like: INT4 KV with large flat pages, no sparsity.
    pub fn qserve_like() -> Self {
        Self {
            paging: PagingConfig::flat(64, KvPrecision::Int4),
            ..Self::dense()
        }
    }

    /// Quest-like: FP16 KV, flat 16-token pages, selection every step, dense
    /// prefill (no streaming heads).
    pub fn quest_like(budget: usize) -> Self {
        Self {
            paging: PagingConfig::flat(16, KvPrecision::Fp16),
            streaming_sparsity: 0.0,
            streaming_window: StreamingWindow::new(1, 2),
            dynamic_budget: Some(budget),
            selector: SelectorKind::Flat,
            reuse_interval: 1,
            prefill_tile: 64,
            dynamic_prefill_keep: None,
            dynamic_prefill_after: usize::MAX,
            gate_seed: 0xD00D,
            demote_after_chunks: None,
        }
    }

    /// Quest with a coarser flat page size, the Figure 6 failure configuration.
    pub fn quest_like_paged(page: usize, budget: usize) -> Self {
        Self {
            paging: PagingConfig::flat(page, KvPrecision::Fp16),
            ..Self::quest_like(budget)
        }
    }

    /// DuoAttention-like: static sparsity only (50% streaming heads), FP16, dense
    /// retrieval heads.
    pub fn duo_like() -> Self {
        Self {
            streaming_sparsity: 0.5,
            ..Self::dense()
        }
    }

    /// LServe with a custom dynamic budget (`LServe-N` in Tables 3/6).
    pub fn lserve_with_budget(budget: usize) -> Self {
        Self {
            dynamic_budget: Some(budget),
            ..Self::lserve()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if a selector is configured without a budget or vice versa, or the
    /// reuse interval is zero.
    pub fn validate(&self) {
        assert!(self.reuse_interval >= 1, "reuse interval must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.streaming_sparsity),
            "streaming sparsity must be in [0,1]"
        );
        match (self.dynamic_budget, self.selector) {
            (Some(_), SelectorKind::None) => panic!("budget set but selector is None"),
            (None, SelectorKind::Flat | SelectorKind::Hierarchical) => {
                panic!("selector set but no budget")
            }
            _ => {}
        }
        assert!(self.prefill_tile > 0, "prefill tile must be positive");
        if let Some(keep) = self.dynamic_prefill_keep {
            assert!(keep > 0, "dynamic prefill keep budget must be positive");
        }
        if let Some(k) = self.demote_after_chunks {
            assert!(k >= 1, "demotion staleness must be at least one chunk");
            assert!(
                self.dynamic_budget.is_some(),
                "selection-driven demotion needs an active page selector"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        EngineConfig::lserve().validate();
        EngineConfig::lserve_fp16().validate();
        EngineConfig::dense().validate();
        EngineConfig::qserve_like().validate();
        EngineConfig::quest_like(4096).validate();
        EngineConfig::duo_like().validate();
        EngineConfig::lserve_with_budget(8192).validate();
    }

    #[test]
    fn lserve_matches_paper_defaults() {
        let c = EngineConfig::lserve();
        assert_eq!(c.paging.physical_page_size(), 64);
        assert_eq!(c.paging.logical_page_size(), 16);
        assert_eq!(c.dynamic_budget, Some(4096));
        assert_eq!(c.reuse_interval, 4);
        assert_eq!(c.streaming_sparsity, 0.5);
    }

    #[test]
    #[should_panic(expected = "selector set but no budget")]
    fn inconsistent_config_rejected() {
        let mut c = EngineConfig::lserve();
        c.dynamic_budget = None;
        c.validate();
    }
}
