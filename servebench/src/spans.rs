//! In-memory wall-clock spans for the traced run.
//!
//! Each span has a name, the layer it times, start and end in nanoseconds
//! since the recorder's origin, its parent span and the request it belongs to
//! (if any). Spans nest strictly (single driver thread), and a span's *self
//! time* is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was timed (`"step"`, `"attention.decode_selected"`, ...).
    pub name: &'static str,
    /// The layer the time is charged to (`"serving"`, `"attention"`, ...).
    pub layer: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span served, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a no-op returning immediately
/// when disabled, so the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True when spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one; returns its index
    /// (meaningless when disabled).
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: Option<u64>,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (must be the innermost open span).
    pub fn end(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(name, layer, request);
        let out = f();
        self.end(idx);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array (for the run's span file).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("layer", Json::from(s.layer)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("request", s.request.map_or(Json::Null, Json::from)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children of one parent may
/// arrive in any order and may even overlap; the covered part is counted
/// once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Summed self time per layer, in ns.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Length of the union of `intervals` inside `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}
