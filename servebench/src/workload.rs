//! The two traffic mixes, generated from `--seed` alone.
//!
//! Prompts and arrival times depend only on the seed (and, for the open
//! loop, the window length). The open loop draws every random quantity by
//! jittered stratified sampling in blocks of [`BLOCK`] consecutive requests:
//! within a block, the `j`-th of the [`BLOCK`] strata contributes the
//! probability `(j + u) / BLOCK` (`u` uniform), in a seeded order. The
//! inter-arrival gaps are the exponential distribution's quantiles at those
//! probabilities (Poisson-shaped arrivals), and each block of `persona`
//! requests uses every persona once. Any stretch of the traffic thus carries
//! nearly the same load and persona mix for every seed — where the bursts
//! fall varies, the load does not — which keeps run-to-run spread down
//! without fixing the schedule.

use crate::driver::RequestRecord;
use crate::rng::Rng;

/// Vocabulary of the bench model (token ids are drawn below it).
pub const VOCAB: u32 = 1024;

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, long unshared documents (4k / 8k / 16k), 512 outputs.
    Longdoc,
    /// Open-loop prompts sharing a system prompt and one of 8 personas.
    Persona,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// One user, sending the next request when the last finishes.
    Closed,
    /// Poisson-shaped arrivals at a fixed rate.
    Open {
        /// Mean arrivals per second.
        rate_per_s: f64,
    },
}

/// Fixed latency limits of a workload's SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Time to first token, from the request's due time.
    pub ttft_ms: f64,
    /// Mean gap between a request's consecutive tokens.
    pub tbt_ms: f64,
}

/// Everything fixed about a workload except its seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// The workload.
    pub workload: Workload,
    /// Its name on the command line.
    pub name: &'static str,
    /// Open or closed loop.
    pub arrivals: Arrivals,
    /// The SLO every request is judged against.
    pub slo: Slo,
    /// Every `check_every`-th sent request is replayed solo...
    pub check_every: usize,
    /// ...up to this many.
    pub check_max: usize,
}

/// Share of an open loop's requests that warm the server up, rounded to
/// whole [`BLOCK`]s: they are sent and checked like every other request, but
/// the latency and SLO statistics cover only the later blocks, so they
/// describe the steady state (prefix cache populated, pool at its working
/// set) rather than the cold start, over the same size mix for every seed.
pub const WARMUP_FRAC: f64 = 0.25;

/// `longdoc` prompt lengths, cycled in this order.
pub const LONGDOC_PROMPTS: [usize; 3] = [4096, 8192, 16_384];
/// `longdoc` output length.
pub const LONGDOC_OUTPUT: usize = 512;
/// `persona` shared system prompt length.
pub const PERSONA_SYSTEM: usize = 2048;
/// Number of personas.
pub const PERSONAS: usize = 8;
/// Tokens per persona.
pub const PERSONA_TOKENS: usize = 512;
/// Unique query tokens per `persona` request.
pub const PERSONA_QUERY: usize = 64;
/// `persona` output length.
pub const PERSONA_OUTPUT: usize = 64;

impl WorkloadSpec {
    /// The spec for a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        let spec = match name {
            "longdoc" => WorkloadSpec {
                workload: Workload::Longdoc,
                name: "longdoc",
                arrivals: Arrivals::Closed,
                slo: Slo {
                    ttft_ms: 30_000.0,
                    tbt_ms: 5.0,
                },
                // The first cycle: one request at each context length.
                check_every: 1,
                check_max: LONGDOC_PROMPTS.len(),
            },
            "persona" => WorkloadSpec {
                workload: Workload::Persona,
                name: "persona",
                arrivals: Arrivals::Open { rate_per_s: 1.0 },
                slo: Slo {
                    ttft_ms: 1_000.0,
                    tbt_ms: 25.0,
                },
                // Three requests spread over the run.
                check_every: 13,
                check_max: 3,
            },
            _ => return None,
        };
        Some(spec)
    }
}

impl WorkloadSpec {
    /// Requests at the head of a `sent`-long run that only warm the server
    /// up: none for a closed loop; for an open loop, [`WARMUP_FRAC`] of the
    /// blocks, rounded.
    pub fn warmup_requests(&self, sent: usize) -> usize {
        match self.arrivals {
            Arrivals::Closed => 0,
            Arrivals::Open { .. } => (WARMUP_FRAC * (sent / BLOCK) as f64).round() as usize * BLOCK,
        }
    }

    /// The requests latency statistics are taken over: all but the warm-up.
    pub fn measured<'a>(&self, records: &'a [RequestRecord]) -> Vec<&'a RequestRecord> {
        records
            .iter()
            .skip(self.warmup_requests(records.len()))
            .collect()
    }
}

/// One request as the driver offers it.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Request id (its index in the plan).
    pub id: u64,
    /// Due time, seconds after the window opens (open loops only; closed
    /// loops send on completion of the client's previous request).
    pub due_s: f64,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Output tokens to generate.
    pub max_new_tokens: usize,
}

/// The `i`-th `longdoc` request: unshared prompt, lengths cycling through
/// [`LONGDOC_PROMPTS`].
pub fn longdoc_request(seed: u64, i: usize) -> Planned {
    let mut rng = Rng::new(seed, 0x10D0C + i as u64);
    let len = LONGDOC_PROMPTS[i % LONGDOC_PROMPTS.len()];
    Planned {
        id: i as u64,
        due_s: 0.0,
        prompt: rng.tokens(len, VOCAB),
        max_new_tokens: LONGDOC_OUTPUT,
    }
}

/// Requests per stratification block.
pub const BLOCK: usize = 8;
// A block of `persona` requests covers every persona exactly once.
const _: () = assert!(BLOCK == PERSONAS);

/// `n` jittered stratified probabilities in `[0, 1)`: each consecutive
/// block of [`BLOCK`] holds one draw from each stratum
/// `[j / BLOCK, (j + 1) / BLOCK)`, shuffled (a trailing partial block is a
/// random subset of the strata).
pub fn stratified_probabilities(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n + BLOCK);
    while out.len() < n {
        let mut block: Vec<f64> = (0..BLOCK)
            .map(|j| (j as f64 + rng.below(1 << 24) as f64 / (1u64 << 24) as f64) / BLOCK as f64)
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// Due times of an open loop's arrivals inside a `seconds`-long window:
/// `rate × seconds` arrivals rounded to whole [`BLOCK`]s (at least one
/// block), the first due at 0, later ones at the running sum of stratified
/// exponential gaps scaled so that all `n` gaps add up to the window. Every
/// seed offers the same number of requests.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0xA441);
    let blocks = (rate_per_s * seconds / BLOCK as f64).round() as usize;
    let n = blocks.max(1) * BLOCK;
    let gaps: Vec<f64> = stratified_probabilities(&mut rng, n)
        .into_iter()
        .map(|p| -(1.0 - p).ln() / rate_per_s)
        .collect();
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut due = Vec::with_capacity(n);
    let mut t = 0.0;
    for gap in &gaps {
        due.push(t);
        t += gap * scale;
    }
    due
}

/// The shared prompt pieces of `persona`: a system prompt and the personas.
pub fn persona_set(seed: u64) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut rng = Rng::new(seed, 0x9E850);
    let system = rng.tokens(PERSONA_SYSTEM, VOCAB);
    let personas = (0..PERSONAS)
        .map(|_| rng.tokens(PERSONA_TOKENS, VOCAB))
        .collect();
    (system, personas)
}

/// The open-loop plan of `persona` for a `seconds`-long window.
pub fn plan_persona(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<Planned> {
    let due = arrival_schedule(seed, rate_per_s, seconds);
    let n = due.len();
    let (system, personas) = persona_set(seed);
    let mut rng = Rng::new(seed, 0x9E851);
    // Every block of BLOCK (= PERSONAS) requests uses each persona once, in a
    // seeded order.
    let which: Vec<usize> = stratified_probabilities(&mut rng, n)
        .into_iter()
        .map(|p| (p * PERSONAS as f64) as usize)
        .collect();
    (0..n)
        .map(|i| {
            let mut prompt = system.clone();
            prompt.extend_from_slice(&personas[which[i]]);
            prompt.extend(rng.tokens(PERSONA_QUERY, VOCAB));
            Planned {
                id: i as u64,
                due_s: due[i],
                prompt,
                max_new_tokens: PERSONA_OUTPUT,
            }
        })
        .collect()
}
