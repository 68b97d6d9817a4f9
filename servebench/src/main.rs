//! `servebench`: wall-clock serving benchmark.
//!
//! ```text
//! servebench --workload <longdoc|persona> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets up the engine (weights, executor, one warm-up request), drives the
//! workload for the window on the wall clock, replays a fixed sample of its
//! requests solo and checks the tokens, then prints one line per metric
//! followed by the JSON result as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans, runs the per-layer probes,
//! reports the per-layer metrics and writes the spans to
//! `.bench_out/<workload>-seed<n>.spans.json`. Exits nonzero when any
//! output or accounting check fails.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use lserve_core::{ModelExecutor, RequestSpec, Scheduler};
use lserve_servebench::check::{replay_solo, sample};
use lserve_servebench::config::{self, CHUNK_TOKENS};
use lserve_servebench::driver::{drive, Outcome, RequestRecord, RunOutput, StepRecord};
use lserve_servebench::json::Json;
use lserve_servebench::probes::{self, Metric};
use lserve_servebench::rng::Rng;
use lserve_servebench::spans::{self_time_by_layer, SpanRecorder};
use lserve_servebench::stats::{
    band_median, mean, median, percentile, ratio, tail_percentile, Quantile,
};
use lserve_servebench::workload::{Workload, WorkloadSpec, LONGDOC_PROMPTS};

/// Set-ups per round. A round runs before the window, after it, and after
/// each solo replay of the output check; `setup_s` is the median over all
/// rounds. The host's speed drifts over seconds, so set-ups spread over the
/// run's length vary less from run to run than back-to-back ones.
const SETUPS_PER_ROUND: usize = 3;

/// Layers whose spans cover the serving window; each gets a
/// `selftime.<layer>_s` metric. The probes' spans, recorded after the
/// window, are written out with the rest but not reported: their self time
/// follows the probes' fixed repetition counts, not the workload.
const LAYERS: [&str; 2] = ["driver", "serving"];

struct Args {
    workload: WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WorkloadSpec::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Weights, executor, one warm-up request on a throwaway scheduler, and the
/// measured scheduler, [`SETUPS_PER_ROUND`] times; pushes each set-up's wall
/// time to `times` and returns the last one built.
fn setup_round(times: &mut Vec<f64>) -> (Arc<ModelExecutor>, Scheduler) {
    let mut built = None;
    for _ in 0..SETUPS_PER_ROUND {
        let start = Instant::now();
        let exec = config::build_executor();
        let mut warm = Scheduler::new(Arc::clone(&exec), config::scheduler_config());
        let prompt =
            Rng::new(0x3A53, 0).tokens(2 * CHUNK_TOKENS, exec.weights().config.vocab as u32);
        warm.submit(RequestSpec::new(0, prompt).max_new_tokens(16));
        let report = warm.run_to_completion(10_000);
        assert_eq!(report.completed.len(), 1, "warm-up request must complete");
        let sched = Scheduler::new(Arc::clone(&exec), config::scheduler_config());
        times.push(start.elapsed().as_secs_f64());
        built = Some((exec, sched));
    }
    built.expect("at least one set-up")
}

/// The solo-replay check over the workload's fixed sample.
struct CheckResult {
    checked: usize,
    matched: usize,
    /// Streamed tokens equal each finished request's final tokens.
    streams_consistent: bool,
    selector_scored: u64,
    selector_invocations: u64,
    selector_reuses: u64,
}

/// `after_each` runs after every replay.
fn check_outputs(
    exec: &Arc<ModelExecutor>,
    spec: &WorkloadSpec,
    out: &RunOutput,
    mut after_each: impl FnMut(),
) -> CheckResult {
    let mut res = CheckResult {
        checked: 0,
        matched: 0,
        streams_consistent: true,
        selector_scored: 0,
        selector_invocations: 0,
        selector_reuses: 0,
    };
    for r in &out.records {
        if let Outcome::Finished(tokens) = &r.outcome {
            res.streams_consistent &= *tokens == r.streamed;
        }
    }
    for i in sample(out.records.len(), spec.check_every, spec.check_max) {
        let r = &out.records[i];
        let Outcome::Finished(tokens) = &r.outcome else {
            continue;
        };
        let (want, stats) = replay_solo(
            exec,
            &r.planned.prompt,
            r.planned.max_new_tokens,
            CHUNK_TOKENS,
        );
        res.checked += 1;
        if *tokens == want {
            res.matched += 1;
        } else {
            eprintln!("output mismatch on request {}", r.planned.id);
        }
        res.selector_scored += stats.selector_logical_scored;
        res.selector_invocations += stats.selector_invocations;
        res.selector_reuses += stats.selector_reuses;
        after_each();
    }
    res
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric line for the human-readable part of the output.
struct Line {
    metric: Metric,
    n: usize,
    q: Option<f64>,
}

impl Line {
    fn plain(name: &str, value: f64, unit: &'static str, n: usize) -> Self {
        Line {
            metric: Metric::new(name, value, unit),
            n,
            q: None,
        }
    }

    fn quantile(name: &str, q: Option<Quantile>, unit: &'static str) -> Self {
        let q = q.unwrap_or(Quantile {
            value: 0.0,
            effective_q: 0.0,
            n: 0,
        });
        Line {
            metric: Metric::new(name, q.value, unit),
            n: q.n,
            q: Some(q.effective_q),
        }
    }
}

/// TTFTs (ms) and token gaps (ms) of `records`.
fn latencies(records: &[&RequestRecord]) -> (Vec<f64>, Vec<f64>) {
    let ttfts = records.iter().filter_map(|r| r.ttft_ms()).collect();
    let gaps = records
        .iter()
        .flat_map(|r| r.gaps_ms.iter().copied())
        .collect();
    (ttfts, gaps)
}

fn end_to_end(
    args: &Args,
    out: &RunOutput,
    check: &CheckResult,
    setup: &[f64],
    peak_rss_mb: f64,
) -> Vec<Line> {
    let spec = &args.workload;
    let sent = out.records.len();
    let measured = spec.measured(&out.records);
    let (ttfts, gaps) = latencies(&measured);
    let finished = out.records.iter().filter(|r| r.is_finished()).count();
    let met = measured
        .iter()
        .filter(|r| {
            r.is_finished()
                && r.ttft_ms().is_some_and(|t| t <= spec.slo.ttft_ms)
                && r.mean_tbt_ms().is_none_or(|t| t <= spec.slo.tbt_ms)
        })
        .count();
    vec![
        Line::plain("setup_s", median(setup).unwrap_or(0.0), "s", setup.len()),
        Line::quantile("ttft_p50_ms", band_median(&ttfts), "ms"),
        Line::quantile("tbt_p50_ms", band_median(&gaps), "ms"),
        Line::plain(
            "slo_attainment",
            ratio(met as f64, measured.len() as f64),
            "frac",
            measured.len(),
        ),
        Line::plain(
            "output_tok_s",
            ratio(out.busy_tokens as f64, out.busy_s),
            "1/s",
            out.busy_tokens,
        ),
        Line::plain(
            "completed_frac",
            ratio(finished as f64, sent as f64),
            "frac",
            sent,
        ),
        Line::plain("peak_rss_mb", peak_rss_mb, "MB", 1),
        Line::plain(
            "output_match",
            ratio(check.matched as f64, check.checked as f64),
            "frac",
            check.checked,
        ),
    ]
}

fn per_layer(
    args: &Args,
    exec: &Arc<ModelExecutor>,
    out: &RunOutput,
    check: &CheckResult,
    rec: &mut SpanRecorder,
) -> Vec<Line> {
    let recs = &out.records;
    let report = &out.report;
    let steps = &out.steps;
    let sent = recs.len();
    let succeeded = recs.iter().filter(|r| r.is_finished()).count();
    let lags: Vec<f64> = recs.iter().map(|r| (r.submit_s - r.due_s) * 1e3).collect();
    let step_ms: Vec<f64> = steps.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    let step_ms_if = |f: &dyn Fn(&StepRecord) -> bool| -> Vec<f64> {
        steps
            .iter()
            .filter(|s| f(s))
            .map(|s| s.wall_ns as f64 / 1e6)
            .collect()
    };
    let submit_us: Vec<f64> = rec
        .durations_ms("submit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let waits: Vec<f64> = recs
        .iter()
        .filter_map(|r| r.admitted_s.map(|a| (a - r.due_s) * 1e3))
        .collect();
    let queued: Vec<f64> = steps.iter().map(|s| s.queued as f64).collect();
    // Latency tails of the steady-state requests: too noisy across seeds to
    // gate on (see the README), reported here for diagnosis.
    let (ttfts, gaps) = latencies(&args.workload.measured(recs));
    let step_wall_ns: u64 = steps.iter().map(|s| s.wall_ns).sum();
    let mut lines = vec![
        Line::plain("driver.sent", sent as f64, "count", sent),
        Line::plain("driver.succeeded", succeeded as f64, "count", sent),
        Line::plain("driver.failed", (sent - succeeded) as f64, "count", sent),
        Line::quantile("driver.lag_ms_p50", percentile(&lags, 0.5), "ms"),
        Line::quantile("driver.lag_ms_p99", tail_percentile(&lags, 0.99), "ms"),
        Line::plain(
            "serving.steps",
            report.scheduler_steps as f64,
            "count",
            steps.len(),
        ),
        Line::quantile("serving.step_ms_p50", percentile(&step_ms, 0.5), "ms"),
        Line::quantile("serving.step_ms_p99", tail_percentile(&step_ms, 0.99), "ms"),
        Line::quantile(
            "serving.prefill_step_ms_p50",
            percentile(&step_ms_if(&|s| s.prefill), 0.5),
            "ms",
        ),
        Line::quantile(
            "serving.decode_step_ms_p50",
            percentile(&step_ms_if(&|s| !s.prefill), 0.5),
            "ms",
        ),
        Line::quantile("serving.submit_us_p50", percentile(&submit_us, 0.5), "us"),
        Line::quantile("serving.queue_wait_ms_p50", percentile(&waits, 0.5), "ms"),
        Line::quantile("serving.ttft_p90_ms", tail_percentile(&ttfts, 0.9), "ms"),
        Line::quantile("serving.tbt_p99_ms", tail_percentile(&gaps, 0.99), "ms"),
        Line::plain(
            "serving.batch_mean",
            report.mean_running(),
            "count",
            steps.len(),
        ),
        Line::plain("serving.queued_mean", mean(&queued), "count", steps.len()),
        Line::plain(
            "serving.queued_max",
            queued.iter().copied().fold(0.0, f64::max),
            "count",
            steps.len(),
        ),
        Line::plain(
            "serving.preemptions",
            report.preemptions as f64,
            "count",
            sent,
        ),
        Line::plain(
            "executor.attention_busy_s",
            report.parallel.busy_ns_critical as f64 / 1e9,
            "s",
            report.parallel.phases as usize,
        ),
        Line::plain(
            "executor.attention_share",
            ratio(report.parallel.busy_ns_critical as f64, step_wall_ns as f64),
            "frac",
            steps.len(),
        ),
    ];

    // Decode step time by context: longdoc's own lone decode steps, else a
    // probe sequence grown through the same decode path.
    let labels = ["ctx4k", "ctx8k", "ctx16k"];
    let decode_ms: Vec<(f64, usize)> = if args.workload.workload == Workload::Longdoc {
        LONGDOC_PROMPTS
            .iter()
            .map(|&len| {
                let v = step_ms_if(&|s| s.decode_prompt_len == Some(len));
                (median(&v).unwrap_or(0.0), v.len())
            })
            .collect()
    } else {
        probes::executor_decode_ms(exec, rec, &LONGDOC_PROMPTS)
            .into_iter()
            .map(|ms| (ms, 64))
            .collect()
    };
    for (label, (ms, n)) in labels.iter().zip(decode_ms) {
        lines.push(Line::plain(
            &format!("executor.decode_step_ms.{label}"),
            ms,
            "ms",
            n,
        ));
    }

    // Attention and KV append at the workload's longest context (p90 of
    // prompt + output for the open loops).
    let ctxs: Vec<f64> = recs
        .iter()
        .map(|r| (r.planned.prompt.len() + r.planned.max_new_tokens) as f64)
        .collect();
    let probe_ctx = tail_percentile(&ctxs, 0.9).map_or(1, |q| q.value as usize);
    let mut probe_metrics = probes::attention_and_kvcache(exec, rec, probe_ctx);
    let sel_contexts: Vec<(usize, &str)> = LONGDOC_PROMPTS.iter().copied().zip(labels).collect();
    probe_metrics.extend(probes::selector(exec, rec, &sel_contexts));
    probe_metrics.extend(probes::quant(exec, rec));
    probe_metrics.extend(probes::tensor(exec, rec));
    let prompts: Vec<&[u32]> = recs.iter().map(|r| r.planned.prompt.as_slice()).collect();
    probe_metrics.extend(probes::prefixcache(exec, rec, &prompts));
    lines.extend(probe_metrics.into_iter().map(|metric| Line {
        metric,
        n: probes::BATCHES,
        q: None,
    }));

    lines.extend([
        Line::plain(
            "selector.pages_scored",
            ratio(
                check.selector_scored as f64,
                check.selector_invocations as f64,
            ),
            "count",
            check.selector_invocations as usize,
        ),
        Line::plain(
            "selector.reuse_ratio",
            ratio(
                check.selector_reuses as f64,
                (check.selector_reuses + check.selector_invocations) as f64,
            ),
            "frac",
            (check.selector_reuses + check.selector_invocations) as usize,
        ),
        Line::plain(
            "kvcache.peak_hot_pages",
            report.peak_pages as f64,
            "count",
            1,
        ),
        Line::plain(
            "kvcache.pages_demoted",
            report.pages_demoted as f64,
            "count",
            1,
        ),
        Line::plain(
            "kvcache.pages_promoted",
            report.pages_promoted as f64,
            "count",
            1,
        ),
        Line::plain(
            "kvcache.prefetch_waste_ratio",
            ratio(report.prefetch_wasted as f64, report.prefetch_issued as f64),
            "frac",
            report.prefetch_issued as usize,
        ),
        Line::plain(
            "kvcache.bytes_per_token",
            probes::kv_bytes_per_token(exec),
            "B",
            1,
        ),
        Line::plain(
            "prefixcache.hit_rate",
            report.prefix_hit_rate(),
            "frac",
            sent,
        ),
        Line::plain(
            "prefixcache.hit_tokens",
            report.prefix_hit_tokens as f64,
            "count",
            sent,
        ),
        Line::plain(
            "prefixcache.insertions",
            report.prefix_insertions as f64,
            "count",
            sent,
        ),
        Line::plain(
            "prefixcache.evictions",
            report.prefix_evictions as f64,
            "count",
            sent,
        ),
        Line::plain(
            "prefixcache.spills",
            report.prefix_spills as f64,
            "count",
            sent,
        ),
    ]);

    let self_time = self_time_by_layer(rec.spans());
    for layer in LAYERS {
        let ns = self_time.get(layer).copied().unwrap_or(0);
        lines.push(Line::plain(
            &format!("selftime.{layer}_s"),
            ns as f64 / 1e9,
            "s",
            1,
        ));
    }
    let run_ns = out.elapsed_s * 1e9;
    lines.push(Line::plain(
        "trace.overhead_frac",
        ratio(out.trace_ns as f64, run_ns - out.trace_ns as f64),
        "frac",
        rec.spans().len(),
    ));
    lines
}

fn write_spans(args: &Args, rec: &SpanRecorder, out: &RunOutput) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}.spans.json",
        args.workload.name, args.seed
    ));
    let r = &out.report;
    let counters = Json::obj([
        ("scheduler_steps", Json::from(r.scheduler_steps)),
        ("decode_steps", Json::from(r.decode_steps)),
        ("peak_pages", Json::from(r.peak_pages)),
        ("peak_cold_pages", Json::from(r.peak_cold_pages)),
        ("preemptions", Json::from(r.preemptions)),
        ("prefix_hit_tokens", Json::from(r.prefix_hit_tokens)),
        (
            "prefix_recomputed_tokens",
            Json::from(r.prefix_recomputed_tokens),
        ),
        ("prefix_insertions", Json::from(r.prefix_insertions)),
        ("prefix_evictions", Json::from(r.prefix_evictions)),
        ("prefix_spills", Json::from(r.prefix_spills)),
        ("pages_demoted", Json::from(r.pages_demoted)),
        ("pages_promoted", Json::from(r.pages_promoted)),
        ("prefetch_issued", Json::from(r.prefetch_issued)),
        ("prefetch_wasted", Json::from(r.prefetch_wasted)),
        (
            "migration_stall_tokens",
            Json::from(r.migration_stall_tokens),
        ),
        (
            "parallel_busy_ns_total",
            Json::from(r.parallel.busy_ns_total),
        ),
        (
            "parallel_busy_ns_critical",
            Json::from(r.parallel.busy_ns_critical),
        ),
        ("parallel_phases", Json::from(r.parallel.phases)),
        ("parallel_shards", Json::from(r.parallel.shards)),
    ]);
    let self_time = Json::Obj(
        self_time_by_layer(rec.spans())
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), Json::from(ns)))
            .collect(),
    );
    let doc = Json::obj([
        ("workload", Json::from(args.workload.name)),
        ("seed", Json::from(args.seed)),
        ("self_time_ns", self_time),
        ("counters", counters),
        ("spans", rec.to_json()),
    ]);
    std::fs::write(&path, doc.render())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    config::pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <longdoc|persona> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    println!("config {}", config::describe().render());
    println!(
        "workload {} arrivals={:?} slo_ttft_ms={} slo_tbt_ms={} seed={} seconds={} trace={}",
        spec.name,
        spec.arrivals,
        spec.slo.ttft_ms,
        spec.slo.tbt_ms,
        args.seed,
        args.seconds,
        args.trace
    );

    let mut setup_times = Vec::new();
    let (exec, mut sched) = setup_round(&mut setup_times);
    let mut rec = SpanRecorder::new(args.trace);
    let out = drive(&spec, args.seed, args.seconds, &mut sched, &mut rec);
    // The serving window's peak, before the replays and later set-ups.
    let rss_mb = peak_rss_mb();
    drop(sched);
    setup_round(&mut setup_times);
    let check = check_outputs(&exec, &spec, &out, || {
        setup_round(&mut setup_times);
    });

    let sent = out.records.len();
    let failed = out.records.iter().filter(|r| !r.is_finished()).count();
    let unfinished = out.records.iter().filter(|r| !r.is_terminal()).count();
    let correct = check.checked > 0
        && check.matched == check.checked
        && check.streams_consistent
        && out.accounted
        && out.leaked_pages == 0;
    println!(
        "check sent={sent} failed={failed} unfinished={unfinished} failed_frac={} \
         replayed={} matched={} streams_consistent={} accounted={} leaked_pages={}",
        ratio(failed as f64, sent as f64),
        check.checked,
        check.matched,
        check.streams_consistent,
        out.accounted,
        out.leaked_pages
    );

    let lines = if args.trace {
        let lines = per_layer(&args, &exec, &out, &check, &mut rec);
        match write_spans(&args, &rec, &out) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("servebench: could not write spans: {e}"),
        }
        lines
    } else {
        end_to_end(&args, &out, &check, &setup_times, rss_mb)
    };
    for l in &lines {
        let q = l.q.map_or(String::new(), |q| format!(" q={q:.4}"));
        println!(
            "metric {} = {} {} (n={}{q})",
            l.metric.name, l.metric.value, l.metric.unit, l.n
        );
    }
    let metrics = Json::Obj(
        lines
            .iter()
            .map(|l| {
                (
                    l.metric.name.clone(),
                    Json::obj([
                        ("value", Json::from(l.metric.value)),
                        ("unit", Json::from(l.metric.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(sent)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
