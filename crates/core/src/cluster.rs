//! Cluster front door: N scheduler replicas behind a prefix-affinity router.
//!
//! Long-context serving fleets shard traffic across engine replicas, and the
//! router is what decides whether the prefix cache ever gets a chance to hit:
//! send the follow-up turn of a conversation to a replica that never saw its
//! system prompt and the KV is recomputed from scratch. [`Cluster`] models
//! the Vortex-style front door over the single-engine [`Scheduler`]: each
//! replica owns its own page pool, prefix cache and sharding plan over one
//! `Arc`-shared [`ModelExecutor`], and [`Cluster::submit`] routes each
//! request to the replica that holds its prompt prefix — falling back to the
//! least-loaded replica (fewest queued + running, ties to the lowest index)
//! and recording the prefix so the next request in the family lands on the
//! same replica.
//!
//! Affinity keys on the first [`ClusterConfig::affinity_tokens`] prompt
//! tokens, hashed with [`DefaultHasher`] — SipHash with fixed keys, so
//! routing is deterministic across runs and platforms. Per-replica
//! [`ServingReport`]s roll up into one [`MetricsSnapshot`] whose `cluster`
//! section totals are exact sums of the replica sections (pinned by the
//! topology proptests).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use lserve_trace::Json;

use crate::dag::{BranchSpec, ForkError, ForkOutcome, JoinPolicy, JoinStatus};
use crate::executor::ModelExecutor;
use crate::metrics::MetricsSnapshot;
use crate::serving::{RequestHandle, RequestSpec, Scheduler, SchedulerConfig, ServingReport};

/// Replica names used for metrics sections (and therefore the maximum
/// replica count): [`MetricsSnapshot`] keys are `&'static str`.
const REPLICA_NAMES: &[&str] = &[
    "replica0", "replica1", "replica2", "replica3", "replica4", "replica5", "replica6", "replica7",
];

/// Front-door shape: how many replicas and how much of the prompt keys
/// affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Scheduler replicas behind the router (1..=8; each gets its own pool
    /// of the scheduler config's `pool_pages`).
    pub replicas: usize,
    /// Prompt tokens hashed into the affinity key. Requests sharing this
    /// prefix route to the same replica; 0 disables affinity (pure
    /// least-loaded).
    pub affinity_tokens: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            affinity_tokens: 32,
        }
    }
}

impl ClusterConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is 0 or exceeds the metrics naming budget (8).
    pub fn validate(&self) {
        assert!(self.replicas >= 1, "cluster needs at least one replica");
        assert!(
            self.replicas <= REPLICA_NAMES.len(),
            "at most {} replicas supported",
            REPLICA_NAMES.len()
        );
    }
}

/// Router decision counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Requests routed in total.
    pub routed: u64,
    /// Requests that followed a recorded prefix to its replica.
    pub affinity_hits: u64,
    /// Requests placed by least-loaded fallback (first of a prefix family,
    /// or affinity disabled).
    pub least_loaded: u64,
    /// Branches pinned to their parent's replica by [`Cluster::fork`]. A
    /// branch CoW-shares the parent's pages, so routing it anywhere else
    /// (e.g. by its prompt hash) would turn the zero-copy fork into a full
    /// re-prefill on a cold replica.
    pub fork_affinity: u64,
}

/// Per-replica reports plus the router ledger, with exact-sum rollups.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// One report per replica, in replica order (each sorted by request id).
    pub replicas: Vec<ServingReport>,
    /// Router decision counters for the run.
    pub router: RouterStats,
}

impl ClusterReport {
    /// Requests completed across all replicas.
    pub fn completed(&self) -> usize {
        self.replicas.iter().map(|r| r.completed.len()).sum()
    }

    /// Decode steps across all replicas.
    pub fn decode_steps(&self) -> u64 {
        self.replicas.iter().map(|r| r.decode_steps).sum()
    }

    /// Prefix-cache hit tokens across all replicas.
    pub fn prefix_hit_tokens(&self) -> u64 {
        self.replicas.iter().map(|r| r.prefix_hit_tokens).sum()
    }

    /// Interconnect gather tokens across all replicas.
    pub fn interconnect_tokens(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.parallel.interconnect_tokens)
            .sum()
    }

    /// All completions as `(request id, output tokens)`, merged across
    /// replicas and sorted by id.
    pub fn completions(&self) -> Vec<(u64, Vec<u32>)> {
        let mut all: Vec<(u64, Vec<u32>)> = self
            .replicas
            .iter()
            .flat_map(|r| r.completed.iter().cloned())
            .collect();
        all.sort_by_key(|(id, _)| *id);
        all
    }

    /// The cluster as one [`MetricsSnapshot`]: a `cluster` section whose
    /// totals are exact sums over the replica sections, then one full
    /// [`ServingReport::to_json`] section per replica.
    pub fn rollup(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.insert(
            "cluster",
            Json::obj([
                ("replicas", Json::from(self.replicas.len() as u64)),
                ("routed", Json::from(self.router.routed)),
                ("affinity_hits", Json::from(self.router.affinity_hits)),
                ("least_loaded", Json::from(self.router.least_loaded)),
                ("fork_affinity", Json::from(self.router.fork_affinity)),
                ("completed", Json::from(self.completed() as u64)),
                ("decode_steps", Json::from(self.decode_steps())),
                ("prefix_hit_tokens", Json::from(self.prefix_hit_tokens())),
                (
                    "interconnect_tokens",
                    Json::from(self.interconnect_tokens()),
                ),
            ]),
        );
        for (i, report) in self.replicas.iter().enumerate() {
            snap.add_report(REPLICA_NAMES[i], report);
        }
        snap
    }
}

/// A cluster-level fork result: which replica the DAG lives on, plus the
/// per-replica [`ForkOutcome`] (group ids are scoped to their replica's
/// scheduler — pass both back to [`Cluster::join_status`]).
#[derive(Debug)]
pub struct ClusterForkOutcome {
    /// The replica every branch was pinned to (the parent's home).
    pub replica: usize,
    /// The underlying scheduler's fork result (group id + branch handles).
    pub outcome: ForkOutcome,
}

/// N scheduler replicas behind a prefix-affinity router.
pub struct Cluster {
    replicas: Vec<Scheduler>,
    ccfg: ClusterConfig,
    /// Prefix hash → replica that first served it.
    affinity: HashMap<u64, usize>,
    /// Request id → the replica it was routed to. Fork affinity keys on
    /// this, not the branch prompt hash: a branch must land where its
    /// parent's pages live.
    homes: HashMap<u64, usize>,
    router: RouterStats,
}

impl Cluster {
    /// Builds `ccfg.replicas` schedulers, each with its own pool and caches
    /// over the shared executor and a clone of `scfg`.
    ///
    /// # Panics
    ///
    /// Panics if either config is inconsistent (see
    /// [`ClusterConfig::validate`] / `SchedulerConfig::validate`).
    pub fn new(exec: Arc<ModelExecutor>, scfg: SchedulerConfig, ccfg: ClusterConfig) -> Self {
        ccfg.validate();
        let replicas = (0..ccfg.replicas)
            .map(|_| Scheduler::new(Arc::clone(&exec), scfg.clone()))
            .collect();
        Self {
            replicas,
            ccfg,
            affinity: HashMap::new(),
            homes: HashMap::new(),
            router: RouterStats::default(),
        }
    }

    /// The front-door shape.
    pub fn config(&self) -> &ClusterConfig {
        &self.ccfg
    }

    /// Replica count.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Direct access to replica `i`'s scheduler.
    pub fn replica(&self, i: usize) -> &Scheduler {
        &self.replicas[i]
    }

    /// Router decision counters so far.
    pub fn router_stats(&self) -> RouterStats {
        self.router
    }

    /// Requests waiting for admission, summed across replicas.
    pub fn queued(&self) -> usize {
        self.replicas.iter().map(|r| r.queued()).sum()
    }

    /// Sequences currently prefilling or decoding, summed across replicas.
    pub fn running(&self) -> usize {
        self.replicas.iter().map(|r| r.running()).sum()
    }

    fn prefix_key(&self, prompt: &[u32]) -> u64 {
        let n = prompt.len().min(self.ccfg.affinity_tokens);
        let mut h = DefaultHasher::new();
        prompt[..n].hash(&mut h);
        h.finish()
    }

    /// The replica `spec` would route to right now, without submitting:
    /// `(replica, is_affinity_hit)`.
    pub fn route(&self, spec: &RequestSpec) -> (usize, bool) {
        if self.ccfg.affinity_tokens > 0 {
            let key = self.prefix_key(&spec.prompt);
            if let Some(&replica) = self.affinity.get(&key) {
                return (replica, true);
            }
        }
        let replica = (0..self.replicas.len())
            .min_by_key(|&i| (self.replicas[i].queued() + self.replicas[i].running(), i))
            .expect("at least one replica");
        (replica, false)
    }

    /// Routes and enqueues a request: to the replica holding its prefix when
    /// one is recorded, else to the least-loaded replica (which then becomes
    /// the prefix's home). Returns the request's lifecycle handle.
    pub fn submit(&mut self, spec: RequestSpec) -> RequestHandle {
        let (replica, hit) = self.route(&spec);
        self.router.routed += 1;
        if hit {
            self.router.affinity_hits += 1;
        } else {
            self.router.least_loaded += 1;
            if self.ccfg.affinity_tokens > 0 {
                let key = self.prefix_key(&spec.prompt);
                self.affinity.insert(key, replica);
            }
        }
        self.homes.insert(spec.id, replica);
        self.replicas[replica].submit(spec)
    }

    /// Forks `parent` into speculative branches on the replica the parent
    /// was routed to — fork affinity, never the branch prompt hash: the
    /// branches CoW-share the parent's pages, which exist only on its home
    /// replica. Every branch is pinned there (counted in
    /// [`RouterStats::fork_affinity`], not `routed`) and recorded as homed
    /// there, so nested forks follow too.
    ///
    /// # Errors
    ///
    /// [`ForkError::ParentNotRunning`] when the parent was never submitted
    /// here (no home replica); otherwise whatever the home replica's
    /// [`Scheduler::fork`] returns.
    pub fn fork(
        &mut self,
        parent: u64,
        policy: JoinPolicy,
        branches: &[BranchSpec],
    ) -> Result<ClusterForkOutcome, ForkError> {
        let Some(&replica) = self.homes.get(&parent) else {
            return Err(ForkError::ParentNotRunning(parent));
        };
        let outcome = self.replicas[replica].fork(parent, policy, branches)?;
        for b in branches {
            self.homes.insert(b.id, replica);
            self.router.fork_affinity += 1;
        }
        Ok(ClusterForkOutcome { replica, outcome })
    }

    /// Resolution state of fork group `outcome.group` on `replica` (group
    /// ids are per-replica — take both from [`ClusterForkOutcome`]).
    pub fn join_status(&self, replica: usize, group: u64) -> Option<JoinStatus> {
        self.replicas[replica].join_status(group)
    }

    /// One scheduler iteration on every replica, in replica order.
    pub fn step(&mut self) {
        for replica in &mut self.replicas {
            replica.step();
        }
    }

    /// Runs until every replica drains or `max_steps` cluster iterations
    /// pass. Returns per-replica reports plus the router ledger.
    pub fn run_to_completion(&mut self, max_steps: u64) -> ClusterReport {
        let mut steps = 0;
        while self.queued() + self.running() > 0 && steps < max_steps {
            self.step();
            steps += 1;
        }
        ClusterReport {
            replicas: self
                .replicas
                .iter_mut()
                .map(|r| r.run_to_completion(0))
                .collect(),
            router: self.router,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use lserve_model::{ModelConfig, ModelWeights};
    use lserve_trace::validate_json;

    fn tiny_cluster(replicas: usize, affinity_tokens: usize) -> Cluster {
        let weights = Arc::new(ModelWeights::random(&ModelConfig::tiny(), 0xC1A5));
        let exec = Arc::new(ModelExecutor::new(weights, EngineConfig::lserve_fp16()));
        let mut scfg = SchedulerConfig::new(2048);
        scfg.prefix_cache = true;
        // Chunked prefill on a fine tile grid so the families' 24-token
        // shared prefixes sit on cacheable anchors.
        scfg.chunk_tokens = 8;
        Cluster::new(
            exec,
            scfg,
            ClusterConfig {
                replicas,
                affinity_tokens,
            },
        )
    }

    /// `queries` prompts sharing a `len`-token prefix (tokens stay inside
    /// the tiny model's vocab), each with a distinct final token.
    fn family(prefix_seed: u32, queries: usize, len: usize) -> Vec<Vec<u32>> {
        (0..queries)
            .map(|q| {
                let mut p: Vec<u32> = (0..len as u32).map(|t| (prefix_seed + t) % 40).collect();
                p.push(40 + q as u32 % 40);
                p
            })
            .collect()
    }

    #[test]
    fn affinity_routes_a_prefix_family_to_one_replica() {
        let mut cluster = tiny_cluster(2, 16);
        let mut id = 0;
        for prompts in [family(0, 3, 24), family(500, 3, 24)] {
            for p in prompts {
                cluster.submit(RequestSpec::new(id, p).max_new_tokens(4));
                id += 1;
            }
        }
        let stats = cluster.router_stats();
        assert_eq!(stats.routed, 6);
        // First of each family is a least-loaded placement, the rest follow.
        assert_eq!(stats.least_loaded, 2);
        assert_eq!(stats.affinity_hits, 4);
        // The two families landed on different replicas (second family saw
        // replica 0 loaded).
        assert!(cluster.replica(0).queued() + cluster.replica(0).running() > 0);
        assert!(cluster.replica(1).queued() + cluster.replica(1).running() > 0);
    }

    #[test]
    fn zero_affinity_tokens_is_pure_least_loaded() {
        let mut cluster = tiny_cluster(2, 0);
        for (id, p) in family(0, 4, 24).into_iter().enumerate() {
            cluster.submit(RequestSpec::new(id as u64, p).max_new_tokens(4));
        }
        let stats = cluster.router_stats();
        assert_eq!(stats.affinity_hits, 0);
        assert_eq!(stats.least_loaded, 4);
    }

    #[test]
    fn cluster_drains_and_rollup_sums_replica_reports() {
        let mut cluster = tiny_cluster(2, 16);
        let fams = [family(0, 3, 24), family(7, 3, 24)];
        let mut id = 0u64;
        // First query of each family seeds its replica's prefix cache...
        for f in &fams {
            cluster.submit(RequestSpec::new(id, f[0].clone()).max_new_tokens(4));
            id += 1;
        }
        cluster.run_to_completion(10_000);
        // ...and the follow-ups, routed by affinity to the same replica, hit it.
        for f in &fams {
            for p in &f[1..] {
                cluster.submit(RequestSpec::new(id, p.clone()).max_new_tokens(4));
                id += 1;
            }
        }
        let report = cluster.run_to_completion(10_000);
        assert_eq!(report.completed(), 6);
        assert!(cluster.router_stats().affinity_hits >= 4);
        assert_eq!(
            report.completed(),
            report
                .replicas
                .iter()
                .map(|r| r.completed.len())
                .sum::<usize>()
        );
        // Affinity keeps the family together, so later requests hit the
        // replica's prefix cache.
        assert!(report.prefix_hit_tokens() > 0);
        let rendered = report.rollup().render();
        validate_json(&rendered).unwrap();
        assert!(rendered.contains("\"cluster\""));
        assert!(rendered.contains("\"replica0\""));
        assert!(rendered.contains("\"replica1\""));
    }

    #[test]
    fn fork_pins_branches_to_the_parents_replica() {
        use crate::dag::{BranchSpec, ForkError, JoinPolicy};

        let mut cluster = tiny_cluster(2, 16);
        // Unknown parents have no home replica to fork on.
        assert_eq!(
            cluster
                .fork(99, JoinPolicy::All, &[BranchSpec::new(100, vec![1])])
                .unwrap_err(),
            ForkError::ParentNotRunning(99)
        );
        // Parent lands on replica 0 (least-loaded, ties to lowest index)...
        cluster.submit(RequestSpec::new(1, family(0, 1, 24).remove(0)).max_new_tokens(20));
        // ...and a second family on replica 1.
        cluster.submit(RequestSpec::new(2, family(500, 1, 24).remove(0)).max_new_tokens(4));
        for _ in 0..8 {
            cluster.step();
        }
        assert!(cluster.replica(0).running() > 0, "parent is mid-flight");

        // Replica 1 is now idle (request 2 is short); a prompt-hash or
        // least-loaded router would send new work there. Fork affinity must
        // pin the branches to replica 0, where the parent's pages live.
        let before = (cluster.replica(0).queued() + cluster.replica(0).running()) as i64;
        let out = cluster
            .fork(
                1,
                JoinPolicy::FirstFinished,
                &[
                    BranchSpec::new(10, vec![60]).max_new_tokens(2),
                    BranchSpec::new(11, vec![61]).max_new_tokens(2),
                ],
            )
            .unwrap();
        assert_eq!(out.replica, 0);
        assert_eq!(out.outcome.handles.len(), 2);
        assert_eq!(
            (cluster.replica(0).queued() + cluster.replica(0).running()) as i64,
            before + 2,
            "both branches enqueued on the parent's replica"
        );
        let stats = cluster.router_stats();
        assert_eq!(stats.fork_affinity, 2);
        assert_eq!(stats.routed, 2, "fork placements are not routing decisions");

        let report = cluster.run_to_completion(10_000);
        assert!(
            cluster
                .join_status(out.replica, out.outcome.group)
                .unwrap()
                .resolved
        );
        let rendered = report.rollup().render();
        validate_json(&rendered).unwrap();
        assert!(rendered.contains("\"fork_affinity\""));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_is_rejected() {
        ClusterConfig {
            replicas: 0,
            affinity_tokens: 8,
        }
        .validate();
    }
}
