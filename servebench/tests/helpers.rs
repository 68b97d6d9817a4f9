//! Tests for the benchmark's own helpers: the tail percentile rule, seed
//! determinism of the generated traffic, and span self-time arithmetic.

use lserve_servebench::check::sample;
use lserve_servebench::driver::{another_cycle, Outcome, RequestRecord};
use lserve_servebench::rng::Rng;
use lserve_servebench::spans::{self_time_by_layer, self_times_ns, Span};
use lserve_servebench::stats::{
    band_median, median, nearest_rank, percentile, tail_percentile, TAIL_MIN,
};
use lserve_servebench::workload::{
    arrival_schedule, longdoc_request, persona_set, plan_persona, stratified_probabilities,
    Planned, WorkloadSpec, BLOCK, LONGDOC_PROMPTS, PERSONA_QUERY, PERSONA_SYSTEM, PERSONA_TOKENS,
};

fn ramp(n: usize) -> Vec<f64> {
    // 1..=n, shuffled so the helpers cannot rely on sorted input.
    let mut xs: Vec<f64> = (1..=n).map(|x| x as f64).collect();
    xs.reverse();
    xs.rotate_left(n / 3);
    xs
}

#[test]
fn nearest_rank_matches_the_textbook_definition() {
    assert_eq!(nearest_rank(10, 0.5), 4); // 5th smallest
    assert_eq!(nearest_rank(10, 0.9), 8);
    assert_eq!(nearest_rank(10, 1.0), 9);
    assert_eq!(nearest_rank(10, 0.0), 0);
    assert_eq!(nearest_rank(1, 0.99), 0);
    let p = percentile(&ramp(100), 0.5).unwrap();
    assert_eq!((p.value, p.n), (50.0, 100));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn band_median_averages_the_middle_fifth_of_the_ranks() {
    // 1..=100: ranks 40..60 (0-based) hold the values 41..=60.
    let q = band_median(&ramp(100)).unwrap();
    assert_eq!(q.value, (41..=60).sum::<usize>() as f64 / 20.0);
    assert_eq!(q.n, 100);
    // Small samples fall back to (at least) the nearest-rank median.
    assert_eq!(band_median(&[5.0]).unwrap().value, 5.0);
    assert_eq!(band_median(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
    // Two modes straddling the median: the band mixes them in proportion
    // instead of jumping to either one.
    let mut two_modes = vec![10.0; 49];
    two_modes.extend(vec![20.0; 51]);
    let v = band_median(&two_modes).unwrap().value;
    assert!(v > 10.0 && v < 20.0, "{v}");
    assert_eq!(band_median(&[]), None);
}

#[test]
fn tail_keeps_the_requested_rank_when_enough_samples_lie_beyond() {
    // p99 of 2000 samples leaves 20 beyond it: no capping.
    let q = tail_percentile(&ramp(2000), 0.99).unwrap();
    assert_eq!(q.value, 1980.0);
    assert!((q.effective_q - 0.99).abs() < 1e-12);
    // p90 of 200 samples leaves 20 beyond it.
    assert_eq!(tail_percentile(&ramp(200), 0.9).unwrap().value, 180.0);
}

#[test]
fn tail_is_capped_at_the_highest_rank_with_ten_samples_beyond() {
    // p99 of 300 samples would leave 3 beyond; the rule moves down to the
    // rank leaving exactly TAIL_MIN beyond.
    let q = tail_percentile(&ramp(300), 0.99).unwrap();
    assert_eq!(q.value, (300 - TAIL_MIN) as f64);
    assert!((q.effective_q - 290.0 / 300.0).abs() < 1e-12);
    // p90 of 50 samples: 5 beyond at the nominal rank, capped to 40.
    assert_eq!(tail_percentile(&ramp(50), 0.9).unwrap().value, 40.0);
    // The smallest count with a resolvable tail: 11 samples, rank 1.
    assert_eq!(tail_percentile(&ramp(11), 0.99).unwrap().value, 1.0);
}

#[test]
fn tail_with_too_few_samples_reports_the_maximum_at_q_one() {
    let q = tail_percentile(&ramp(TAIL_MIN), 0.9).unwrap();
    assert_eq!(q.value, TAIL_MIN as f64);
    assert_eq!(q.effective_q, 1.0);
    assert_eq!(tail_percentile(&[], 0.9), None);
}

#[test]
fn arrival_schedule_is_a_pure_function_of_the_seed() {
    let a = arrival_schedule(7, 3.6, 20.0);
    assert_eq!(a, arrival_schedule(7, 3.6, 20.0));
    assert_ne!(a, arrival_schedule(8, 3.6, 20.0));
    // Exactly rate × window arrivals, starting at 0, increasing, inside the
    // window — for every seed.
    for seed in 0..20 {
        let d = arrival_schedule(seed, 3.6, 20.0);
        assert_eq!(d.len(), 72);
        assert_eq!(d[0], 0.0);
        assert!(d.windows(2).all(|w| w[0] < w[1]));
        assert!(*d.last().unwrap() < 20.0);
    }
    // Rates that do not fill whole blocks are rounded to them.
    assert_eq!(arrival_schedule(1, 1.5, 20.0).len(), 4 * BLOCK);
    assert_eq!(arrival_schedule(1, 0.01, 20.0).len(), BLOCK);
}

fn record(i: usize) -> RequestRecord {
    RequestRecord {
        planned: Planned {
            id: i as u64,
            due_s: i as f64,
            prompt: vec![1],
            max_new_tokens: 1,
        },
        due_s: i as f64,
        submit_s: i as f64,
        admitted_s: None,
        first_s: None,
        last_s: None,
        gaps_ms: Vec::new(),
        streamed: Vec::new(),
        outcome: Outcome::Pending,
    }
}

#[test]
fn open_loops_measure_all_but_the_warm_up_blocks() {
    let records: Vec<RequestRecord> = (0..9 * BLOCK).map(record).collect();
    let persona = WorkloadSpec::parse("persona").unwrap();
    let measured = persona.measured(&records);
    // A quarter of 9 blocks rounds to 2 warm-up blocks.
    assert_eq!(measured.len(), 7 * BLOCK);
    assert_eq!(measured[0].planned.id, 2 * BLOCK as u64);
    let longdoc = WorkloadSpec::parse("longdoc").unwrap();
    assert_eq!(longdoc.measured(&records[..6]).len(), 6);
}

#[test]
fn stratified_probabilities_cover_every_stratum_once_per_block() {
    // Every complete block draws once from each stratum; a trailing partial
    // block from distinct strata.
    let mut rng = Rng::new(1, 2);
    let probs = stratified_probabilities(&mut rng, 3 * BLOCK + 3);
    assert_eq!(probs.len(), 3 * BLOCK + 3);
    for block in probs.chunks(BLOCK) {
        let mut strata: Vec<usize> = block.iter().map(|p| (p * BLOCK as f64) as usize).collect();
        strata.sort_unstable();
        strata.dedup();
        assert_eq!(strata.len(), block.len());
        assert!(strata.iter().all(|&j| j < BLOCK));
    }
}

#[test]
fn persona_prompts_share_the_system_prompt_and_one_of_the_personas() {
    let plan = plan_persona(5, 1.6, 20.0);
    assert_eq!(plan, plan_persona(5, 1.6, 20.0));
    assert_ne!(plan, plan_persona(6, 1.6, 20.0));
    let (system, personas) = persona_set(5);
    assert_eq!(persona_set(5), (system.clone(), personas.clone()));
    for r in &plan {
        assert_eq!(
            r.prompt.len(),
            PERSONA_SYSTEM + PERSONA_TOKENS + PERSONA_QUERY
        );
        assert_eq!(&r.prompt[..PERSONA_SYSTEM], &system[..]);
    }
    // Each complete block of requests uses every persona exactly once.
    let persona_of = |r: &Planned| {
        let p = &r.prompt[PERSONA_SYSTEM..PERSONA_SYSTEM + PERSONA_TOKENS];
        personas
            .iter()
            .position(|x| x == p)
            .expect("one of the personas")
    };
    for block in plan.chunks_exact(BLOCK) {
        let mut which: Vec<usize> = block.iter().map(persona_of).collect();
        which.sort_unstable();
        assert_eq!(which, (0..BLOCK).collect::<Vec<_>>());
    }
}

#[test]
fn longdoc_requests_cycle_through_the_contexts_deterministically() {
    for i in 0..6 {
        let r = longdoc_request(9, i);
        assert_eq!(r, longdoc_request(9, i));
        assert_eq!(r.prompt.len(), LONGDOC_PROMPTS[i % 3]);
    }
    assert_ne!(longdoc_request(9, 0).prompt, longdoc_request(10, 0).prompt);
}

#[test]
fn longdoc_checks_one_request_of_each_context() {
    let spec = WorkloadSpec::parse("longdoc").unwrap();
    let checked = sample(9, spec.check_every, spec.check_max);
    let mut lens: Vec<usize> = checked.iter().map(|&i| LONGDOC_PROMPTS[i % 3]).collect();
    lens.sort_unstable();
    assert_eq!(lens, LONGDOC_PROMPTS);
}

#[test]
fn the_closed_loop_ends_at_the_cycle_boundary_nearest_the_window() {
    // 20 s cycles in a 40 s window: a third cycle would end at 60 s, 20 s
    // past the window; stopping at 38 s misses it by only 2 s.
    assert!(another_cycle(19.0, 19.0, 40.0));
    assert!(!another_cycle(38.0, 19.0, 40.0));
    // A fast host (13 s cycles) runs a third cycle, ending near 39 s.
    assert!(another_cycle(26.0, 13.0, 40.0));
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>, layer: &'static str) -> Span {
    Span {
        name: "s",
        layer,
        start_ns,
        end_ns,
        parent,
        request: None,
    }
}

#[test]
fn self_time_is_the_parent_minus_what_its_children_cover() {
    let spans = vec![
        span(0, 100, None, "driver"),       // 0: root
        span(10, 40, Some(0), "serving"),   // 1: child of root
        span(50, 70, Some(0), "serving"),   // 2: child of root
        span(15, 25, Some(1), "attention"), // 3: grandchild
    ];
    // Root: 100 - (30 + 20); child 1: 30 - 10; grandchildren count only
    // against their own parent.
    assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["driver"], 50);
    assert_eq!(by_layer["serving"], 40);
    assert_eq!(by_layer["attention"], 10);
    // Self times add up to the root's wall time.
    assert_eq!(by_layer.values().sum::<u64>(), 100);
}

#[test]
fn overlapping_or_overhanging_children_are_counted_once_and_clipped() {
    let spans = vec![
        span(0, 100, None, "driver"),
        span(20, 60, Some(0), "serving"),
        span(40, 80, Some(0), "serving"), // overlaps the sibling by 20
        span(90, 130, Some(0), "serving"), // runs past the parent's end
    ];
    // Covered: [20, 80) + [90, 100) = 70.
    assert_eq!(self_times_ns(&spans)[0], 30);
}
