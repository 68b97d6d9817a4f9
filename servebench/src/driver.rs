//! The single-threaded wall-clock driver: offers a workload's requests to a
//! [`Scheduler`], steps it, and timestamps every handle event.
//!
//! Time starts at each request's *due* time: an open-loop request is due at
//! its scheduled arrival whether or not the driver managed to submit it then
//! (the difference is the driver's lag, reported separately), and a
//! closed-loop request is due the moment its client's previous request ends.
//! Events are stamped when the driver drains them, right after the step that
//! produced them.

use std::time::{Duration, Instant};

use lserve_core::{RequestHandle, RequestSpec, Scheduler, ServingEvent, ServingReport};

use crate::spans::SpanRecorder;
use crate::workload::{
    longdoc_request, plan_persona, Arrivals, Planned, WorkloadSpec, LONGDOC_PROMPTS,
};

/// Seconds past the window an unfinished request may take before the driver
/// cancels it (it then counts as failed).
pub const DRAIN_CAP_S: f64 = 60.0;

/// How a request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Still running when the driver gave up (counted as unfinished).
    Pending,
    /// Completed with these tokens.
    Finished(Vec<u32>),
    /// Cancelled (by the driver at the drain cap).
    Cancelled,
    /// Refused by the scheduler.
    Rejected,
}

/// Everything the driver observed about one request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The request as offered.
    pub planned: Planned,
    /// Due time, seconds since the window opened.
    pub due_s: f64,
    /// When `submit` was called.
    pub submit_s: f64,
    /// When `Admitted` was drained.
    pub admitted_s: Option<f64>,
    /// When the first token was drained.
    pub first_s: Option<f64>,
    /// When the latest token was drained.
    pub last_s: Option<f64>,
    /// Gaps between consecutive token events, ms.
    pub gaps_ms: Vec<f64>,
    /// Tokens as streamed by `FirstToken` / `Token` events.
    pub streamed: Vec<u32>,
    /// How it ended.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// Time to first token from the due time, ms.
    pub fn ttft_ms(&self) -> Option<f64> {
        self.first_s.map(|f| (f - self.due_s) * 1e3)
    }

    /// Mean time between tokens, ms (`None` with fewer than two tokens).
    pub fn mean_tbt_ms(&self) -> Option<f64> {
        if self.gaps_ms.is_empty() {
            None
        } else {
            Some(crate::stats::mean(&self.gaps_ms))
        }
    }

    /// True once a terminal event was seen.
    pub fn is_terminal(&self) -> bool {
        self.outcome != Outcome::Pending
    }

    /// True when the request completed.
    pub fn is_finished(&self) -> bool {
        matches!(self.outcome, Outcome::Finished(_))
    }
}

/// One scheduler step as seen by the traced driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Wall time of `Scheduler::step`, ns.
    pub wall_ns: u64,
    /// A request was mid-prefill (admitted, no first token yet) during the
    /// step.
    pub prefill: bool,
    /// Queued requests before the step.
    pub queued: usize,
    /// For a lone decoding request (no prefill in the step): its prompt
    /// length, so `longdoc` decode steps can be bucketed by context.
    pub decode_prompt_len: Option<usize>,
}

/// The result of driving one workload.
#[derive(Debug)]
pub struct RunOutput {
    /// Every sent request, in send order.
    pub records: Vec<RequestRecord>,
    /// Per-step records (traced runs only).
    pub steps: Vec<StepRecord>,
    /// The scheduler's report at the end of the drain.
    pub report: ServingReport,
    /// Seconds from the window's start to the last terminal event.
    pub elapsed_s: f64,
    /// Wall seconds spent inside `Scheduler::step` (the server busy) from
    /// the first measured request's due time on.
    pub busy_s: f64,
    /// Tokens streamed by those steps.
    pub busy_tokens: usize,
    /// `completed + rejected + cancelled == sent` per the scheduler's report
    /// (a request the driver never saw end breaks this).
    pub accounted: bool,
    /// Hot pages still in use after the drain and a prefix-cache flush.
    pub leaked_pages: usize,
    /// Wall time the traced run spent on tracing itself, ns: the measured
    /// per-step bookkeeping plus the recorded spans times a calibrated
    /// per-span cost (0 untraced).
    pub trace_ns: u64,
}

/// Server busy time and the tokens it produced, counted from `from_s`.
#[derive(Default)]
struct Busy {
    from_s: f64,
    ns: u64,
    tokens: usize,
}

struct Tracked {
    rec: RequestRecord,
    handle: RequestHandle,
}

/// Drives `spec` against `sched` for a `seconds`-long window.
///
/// An open loop sends every arrival due inside the window; a closed loop
/// keeps its client busy and stops only at the end of a whole
/// [`LONGDOC_PROMPTS`] cycle (the one ending nearest the window's end, see
/// [`another_cycle`]), so every run covers each context length equally
/// often. Either way the driver then drains (up to
/// [`DRAIN_CAP_S`]), cancels stragglers, flushes the prefix cache and checks
/// the scheduler's accounting.
pub fn drive(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    sched: &mut Scheduler,
    rec: &mut SpanRecorder,
) -> RunOutput {
    let traced = rec.enabled();
    let mut tracked: Vec<Tracked> = Vec::new();
    let mut steps = Vec::new();
    let mut trace_ns = 0u64;
    let mut busy = Busy::default();
    let run_span = rec.begin("run", "driver", None);
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64();
    let mut cancelled_stragglers = false;

    match spec.arrivals {
        Arrivals::Open { rate_per_s } => {
            let plan = plan_persona(seed, rate_per_s, seconds);
            busy.from_s = plan
                .get(spec.warmup_requests(plan.len()))
                .map_or(0.0, |p| p.due_s);
            let mut next = 0;
            loop {
                while next < plan.len() && plan[next].due_s <= now() {
                    let due = plan[next].due_s;
                    submit(sched, rec, &mut tracked, plan[next].clone(), due, now());
                    next += 1;
                }
                let pending = tracked.iter().any(|t| !t.rec.is_terminal());
                if pending {
                    if !cancelled_stragglers && now() > seconds + DRAIN_CAP_S {
                        cancel_all(&tracked);
                        cancelled_stragglers = true;
                    }
                    step(
                        sched,
                        rec,
                        &mut tracked,
                        &mut steps,
                        &mut busy,
                        &mut trace_ns,
                        &now,
                    );
                } else if next < plan.len() {
                    let wait = plan[next].due_s - now();
                    if wait > 0.0 {
                        // Idle, not driver work: kept out of its self time.
                        rec.time("idle", "idle", None, || {
                            std::thread::sleep(Duration::from_secs_f64(wait))
                        });
                    }
                } else {
                    break;
                }
                if cancelled_stragglers && sched.queued() + sched.running() == 0 {
                    break;
                }
            }
        }
        Arrivals::Closed => {
            let mut i = 0;
            let mut cycle_start_s = 0.0;
            submit(
                sched,
                rec,
                &mut tracked,
                longdoc_request(seed, i),
                0.0,
                now(),
            );
            loop {
                step(
                    sched,
                    rec,
                    &mut tracked,
                    &mut steps,
                    &mut busy,
                    &mut trace_ns,
                    &now,
                );
                if !tracked[i].rec.is_terminal() {
                    if !cancelled_stragglers && now() > seconds + DRAIN_CAP_S {
                        cancel_all(&tracked);
                        cancelled_stragglers = true;
                    }
                    if cancelled_stragglers && sched.queued() + sched.running() == 0 {
                        break;
                    }
                    continue;
                }
                i += 1;
                if cancelled_stragglers {
                    break;
                }
                if i % LONGDOC_PROMPTS.len() == 0 {
                    let t = now();
                    if !another_cycle(t, t - cycle_start_s, seconds) {
                        break;
                    }
                    cycle_start_s = t;
                }
                let t = now();
                submit(sched, rec, &mut tracked, longdoc_request(seed, i), t, t);
            }
        }
    }
    let elapsed_s = tracked
        .iter()
        .filter_map(|t| t.rec.last_s)
        .fold(0.0, f64::max);
    rec.end(run_span);

    let report = sched.report_snapshot().clone();
    let resolved = report.completed.len() + report.rejected.len() + report.cancelled.len();
    let accounted = resolved == tracked.len();
    sched.flush_prefix_cache();
    if traced {
        trace_ns += (rec.spans().len() as f64 * span_cost_ns()) as u64;
    }
    RunOutput {
        records: tracked.into_iter().map(|t| t.rec).collect(),
        steps,
        report,
        elapsed_s,
        busy_s: busy.ns as f64 / 1e9,
        busy_tokens: busy.tokens,
        accounted,
        leaked_pages: sched.pool_in_use(),
        trace_ns,
    }
}

/// Whether the closed loop starts another [`LONGDOC_PROMPTS`] cycle at
/// `now_s`, the last one having taken `last_cycle_s`: only if that brings
/// the run's end closer to the window's. The run thus ends within half a
/// cycle of the window instead of up to a whole cycle past it.
pub fn another_cycle(now_s: f64, last_cycle_s: f64, seconds: f64) -> bool {
    now_s + last_cycle_s / 2.0 < seconds
}

/// Measured cost of one span (`begin` + `end`) on the running host, ns.
fn span_cost_ns() -> f64 {
    const PAIRS: usize = 20_000;
    let mut scratch = SpanRecorder::new(true);
    let start = Instant::now();
    for _ in 0..PAIRS {
        let s = scratch.begin("calibrate", "trace", None);
        scratch.end(s);
    }
    start.elapsed().as_nanos() as f64 / PAIRS as f64
}

fn submit(
    sched: &mut Scheduler,
    rec: &mut SpanRecorder,
    tracked: &mut Vec<Tracked>,
    planned: Planned,
    due_s: f64,
    submit_s: f64,
) {
    let spec =
        RequestSpec::new(planned.id, planned.prompt.clone()).max_new_tokens(planned.max_new_tokens);
    let handle = rec.time("submit", "serving", Some(planned.id), || sched.submit(spec));
    let mut t = Tracked {
        rec: RequestRecord {
            planned,
            due_s,
            submit_s,
            admitted_s: None,
            first_s: None,
            last_s: None,
            gaps_ms: Vec::new(),
            streamed: Vec::new(),
            outcome: Outcome::Pending,
        },
        handle,
    };
    // Submit-time rejections arrive immediately.
    drain_one(&mut t, submit_s);
    tracked.push(t);
}

/// One `Scheduler::step` plus the event drain.
fn step(
    sched: &mut Scheduler,
    rec: &mut SpanRecorder,
    tracked: &mut [Tracked],
    steps: &mut Vec<StepRecord>,
    busy: &mut Busy,
    trace_ns: &mut u64,
    now: &impl Fn() -> f64,
) {
    let traced = rec.enabled();
    let bookkeeping = Instant::now();
    let before = traced.then(|| {
        let live = tracked.iter().filter(|t| !t.rec.is_terminal());
        let prefilling = live
            .clone()
            .any(|t| t.rec.admitted_s.is_some() && t.rec.first_s.is_none());
        let decoding: Vec<usize> = live
            .filter(|t| t.rec.first_s.is_some())
            .map(|t| t.rec.planned.prompt.len())
            .collect();
        (prefilling, decoding, sched.queued(), sched.running())
    });
    if traced {
        *trace_ns += bookkeeping.elapsed().as_nanos() as u64;
    }
    let span = rec.begin("step", "serving", None);
    let start_s = now();
    let start = Instant::now();
    sched.step();
    let wall_ns = start.elapsed().as_nanos() as u64;
    rec.end(span);

    let drain_span = rec.begin("drain", "driver", None);
    let t = now();
    let mut admitted_now = false;
    let mut tokens = 0;
    for tr in tracked.iter_mut().filter(|t| !t.rec.is_terminal()) {
        let was_admitted = tr.rec.admitted_s.is_some();
        let streamed = tr.rec.streamed.len();
        drain_one(tr, t);
        admitted_now |= !was_admitted && tr.rec.admitted_s.is_some();
        tokens += tr.rec.streamed.len() - streamed;
    }
    rec.end(drain_span);
    if start_s >= busy.from_s {
        busy.ns += wall_ns;
        busy.tokens += tokens;
    }

    if let Some((prefilling, decoding, queued, running)) = before {
        let bookkeeping = Instant::now();
        let prefill = prefilling || admitted_now;
        let decode_prompt_len = match (prefill, running, decoding.as_slice()) {
            (false, 1, [len]) => Some(*len),
            _ => None,
        };
        steps.push(StepRecord {
            wall_ns,
            prefill,
            queued,
            decode_prompt_len,
        });
        *trace_ns += bookkeeping.elapsed().as_nanos() as u64;
    }
}

fn drain_one(t: &mut Tracked, at_s: f64) {
    while let Some(ev) = t.handle.try_next_event() {
        let r = &mut t.rec;
        match ev {
            ServingEvent::Admitted => {
                r.admitted_s.get_or_insert(at_s);
            }
            ServingEvent::FirstToken { token } => {
                r.first_s = Some(at_s);
                r.last_s = Some(at_s);
                r.streamed.push(token);
            }
            ServingEvent::Token { token } => {
                if let Some(last) = r.last_s {
                    r.gaps_ms.push((at_s - last) * 1e3);
                }
                r.last_s = Some(at_s);
                r.streamed.push(token);
            }
            ServingEvent::Preempted { .. } | ServingEvent::Resumed => {}
            ServingEvent::Finished { tokens, .. } => {
                r.last_s = Some(at_s);
                r.outcome = Outcome::Finished(tokens);
            }
            ServingEvent::Cancelled { .. } => {
                r.last_s = Some(at_s);
                r.outcome = Outcome::Cancelled;
            }
            ServingEvent::Rejected { .. } => {
                r.last_s = Some(at_s);
                r.outcome = Outcome::Rejected;
            }
        }
    }
}

fn cancel_all(tracked: &[Tracked]) {
    for t in tracked.iter().filter(|t| !t.rec.is_terminal()) {
        t.handle.cancel();
    }
}
