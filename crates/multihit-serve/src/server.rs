//! The sharded, batched classification server.
//!
//! Request flow:
//!
//! ```text
//! admit ─── registry.load() (epoch-cached) ── signature pack ── shard hash
//!     │                                                          │
//!     ▼                                                          ▼ try_push
//! worker (one per shard): pop_batch(B) → per-(version, panel)
//!     grouping → LRU cache probe → misses packed as columns of one
//!     BitMatrix → ComboClassifier::classify_batch (the multihit-core
//!     AND+popcount kernel path) → responses + cache fill
//! ```
//!
//! Sharding is by signature hash, so repeats of the same sample land on the
//! same shard and its private LRU cache — shard caches need no cross-thread
//! locking and stay coherent by construction. Cache keys carry the registry
//! generation, so a hot swap can never serve a stale verdict: entries from
//! a retired generation simply stop being probed and age out.
//!
//! Every admitted request is answered exactly once: with an ok verdict, a
//! shed rejection, or an error. Workers hold the only reply handles, and
//! every control path through the batch loop responds before dropping the
//! job. Replies are polymorphic ([`ResponseSink`]): a blocking channel for
//! the simple client, a shared window for the pipelined client, or a
//! connection write buffer for the TCP event loop.

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::LruCache;
use crate::latency::LatencyHistogram;
use crate::protocol::{Request, Response};
use crate::queue::{BoundedQueue, QueueFull};
use crate::registry::{ModelRegistry, Panel, RegistryReader, SharedRegistry, VersionedRegistry};
use multihit_core::bitmat::BitMatrix;
use multihit_core::obs::{Obs, ServeReport, TenantReport, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker shards (each owns one queue, one thread, one cache).
    pub shards: usize,
    /// Most requests coalesced into one scoring batch.
    pub batch_max: usize,
    /// Per-shard queue capacity; overflow is shed, never buffered.
    pub queue_cap: usize,
    /// Per-shard LRU cache entries (0 disables caching).
    pub cache_cap: usize,
    /// Artificial per-batch scoring delay, nanoseconds — a test/bench aid
    /// that emulates heavier models so backpressure paths can be exercised
    /// deterministically. 0 (the default) for real serving.
    pub score_delay_ns: u64,
    /// Per-tenant fair-share admission control (see [`crate::Admission`]).
    /// `total_rps == 0` (the default) disables it: no lock, no accounting
    /// on the single-tenant hot path.
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            batch_max: 64,
            queue_cap: 1024,
            cache_cap: 4096,
            score_delay_ns: 0,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Where a finished [`Response`] goes. Implementations must be non-blocking
/// and infallible from the worker's point of view (a dead peer swallows
/// the response; it must never stall the batch loop).
pub trait ResponseSink: Send + Sync {
    /// Deliver one response.
    fn send(&self, resp: Response);
}

/// A reply handle: the cheap channel for one-shot clients, or a shared
/// sink for pipelined windows and TCP connections.
pub enum Reply {
    /// One-shot blocking receiver.
    Chan(mpsc::Sender<Response>),
    /// Shared sink (window or connection write buffer).
    Sink(Arc<dyn ResponseSink>),
}

impl Reply {
    pub(crate) fn send(&self, resp: Response) {
        match self {
            Reply::Chan(tx) => {
                let _ = tx.send(resp);
            }
            Reply::Sink(sink) => sink.send(resp),
        }
    }
}

pub(crate) struct Job {
    pub(crate) id: u64,
    pub(crate) panel: Arc<Panel>,
    pub(crate) version: u64,
    pub(crate) tenant: u32,
    pub(crate) signature: Vec<u64>,
    pub(crate) enqueued: Instant,
    pub(crate) reply: Reply,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    admission_shed: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    stale_evictions: AtomicU64,
    batches: AtomicU64,
    batched_samples: AtomicU64,
    max_queue_depth: AtomicU64,
    score_ns: AtomicU64,
    conn_accepted: AtomicU64,
    conn_closed: AtomicU64,
    frames_decoded: AtomicU64,
    swaps: AtomicU64,
    publishes: AtomicU64,
    reactor_loops: AtomicU64,
    reactor_busy_ns: AtomicU64,
}

impl Stats {
    fn observe_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }
}

/// The server: hot-swappable registry + sharded worker pool.
pub struct Server {
    shared: Arc<SharedRegistry>,
    cfg: ServeConfig,
    queues: Vec<Arc<BoundedQueue<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<LatencyHistogram>>>,
    stats: Arc<Stats>,
    admission: Option<Admission>,
    /// Latencies of the workers joined so far.
    latency: Mutex<LatencyHistogram>,
    obs: Obs,
    started: Instant,
}

impl Server {
    /// Start the worker pool over `registry` (published as generation 1).
    #[must_use]
    pub fn start(registry: ModelRegistry, cfg: ServeConfig, obs: &Obs) -> Arc<Server> {
        let cfg = ServeConfig {
            shards: cfg.shards.max(1),
            batch_max: cfg.batch_max.max(1),
            queue_cap: cfg.queue_cap.max(1),
            ..cfg
        };
        let queues: Vec<_> = (0..cfg.shards)
            .map(|_| Arc::new(BoundedQueue::new(cfg.queue_cap)))
            .collect();
        let server = Arc::new(Server {
            shared: SharedRegistry::new(registry),
            cfg: cfg.clone(),
            queues: queues.clone(),
            workers: Mutex::new(Vec::new()),
            stats: Arc::new(Stats::default()),
            admission: (cfg.admission.total_rps > 0).then(|| Admission::new(cfg.admission)),
            latency: Mutex::new(LatencyHistogram::default()),
            obs: obs.clone(),
            started: Instant::now(),
        });
        let mut workers = server.workers.lock().expect("workers poisoned");
        for (shard, queue) in queues.into_iter().enumerate() {
            let stats = Arc::clone(&server.stats);
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-shard-{shard}"))
                    .spawn(move || worker_loop(&queue, &cfg, &stats))
                    .expect("spawn serve worker"),
            );
        }
        drop(workers);
        server
    }

    /// The current registry generation (cold-path snapshot).
    #[must_use]
    pub fn registry(&self) -> Arc<VersionedRegistry> {
        self.shared.load()
    }

    /// The shared registry cell — for [`RegistryReader`]s and swaps.
    #[must_use]
    pub fn shared_registry(&self) -> &Arc<SharedRegistry> {
        &self.shared
    }

    /// Publish a new registry generation without dropping in-flight
    /// traffic; returns the new generation number.
    pub fn swap_registry(&self, registry: ModelRegistry) -> u64 {
        let version = self.shared.swap(registry);
        self.stats.swaps.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// Compile a published snapshot (results-TSV texts, the payload of a
    /// publish control frame) and swap it in as the next generation.
    /// All-or-nothing: a rejected snapshot leaves the live generation
    /// untouched.
    ///
    /// # Errors
    /// Returns the compile failure, naming the offending panel.
    pub fn publish_results(&self, panels: &[String]) -> Result<u64, String> {
        let registry = ModelRegistry::from_tsv_texts(panels)?;
        self.stats.publishes.fetch_add(1, Ordering::Relaxed);
        Ok(self.swap_registry(registry))
    }

    /// Total queue-full rejections across shards (for asserting that every
    /// queue shed corresponds to an actually-full queue). Shutdown-race
    /// rejections are counted separately, so they can never satisfy the
    /// overload-shedding proof.
    #[must_use]
    pub fn queue_rejected_full(&self) -> u64 {
        self.queues.iter().map(|q| q.rejected_full()).sum()
    }

    /// Requests shed by per-tenant admission control (before any queue).
    #[must_use]
    pub fn admission_shed(&self) -> u64 {
        self.stats.admission_shed.load(Ordering::Relaxed)
    }

    /// Per-tenant admission totals, in tenant order; empty when admission
    /// control is disabled.
    #[must_use]
    fn tenant_counters(&self) -> Vec<(u32, crate::admission::TenantCounters)> {
        self.admission
            .as_ref()
            .map(Admission::snapshot)
            .unwrap_or_default()
    }

    /// Record one accepted front-end connection.
    pub fn note_conn_accepted(&self) {
        self.stats.conn_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one closed front-end connection.
    pub fn note_conn_closed(&self) {
        self.stats.conn_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` binary frames decoded by a front end.
    pub fn note_frames_decoded(&self, n: u64) {
        if n > 0 {
            self.stats.frames_decoded.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one stopped reactor's totals: its event-loop iterations and
    /// the nanoseconds it spent processing ready events.
    pub fn note_reactor(&self, loops: u64, busy_ns: u64) {
        self.stats.reactor_loops.fetch_add(loops, Ordering::Relaxed);
        self.stats
            .reactor_busy_ns
            .fetch_add(busy_ns, Ordering::Relaxed);
    }

    /// Admit one named-gene request against `generation`, replying into
    /// `reply`.
    pub(crate) fn admit_named(&self, req: &Request, generation: &VersionedRegistry, reply: Reply) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let Some(panel) = generation.registry.get(&req.model) else {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            reply.send(
                Response::error(req.id, format!("unknown model {:?}", req.model))
                    .with_tenant(req.tenant),
            );
            return;
        };
        let signature = panel.signature(&req.genes);
        self.enqueue(Job {
            id: req.id,
            panel,
            version: generation.version,
            tenant: req.tenant,
            signature,
            enqueued: Instant::now(),
            reply,
        });
    }

    /// Admit one pre-resolved request: the panel and packed signature are
    /// already in batch-slot form (the binary-protocol and pipelined hot
    /// path — no name lookup, no repacking).
    #[allow(clippy::too_many_arguments)]
    pub fn submit_resolved(
        &self,
        id: u64,
        panel: &Arc<Panel>,
        version: u64,
        tenant: u32,
        signature: Vec<u64>,
        reply: Reply,
    ) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.enqueue(Job {
            id,
            panel: Arc::clone(panel),
            version,
            tenant,
            signature,
            enqueued: Instant::now(),
            reply,
        });
    }

    /// Admit one request that already failed resolution (unknown model id
    /// or a stale registry generation): counted and answered as an error.
    pub fn submit_unresolvable(&self, id: u64, tenant: u32, message: String, reply: &Reply) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        reply.send(Response::error(id, message).with_tenant(tenant));
    }

    fn enqueue(&self, job: Job) {
        // Per-tenant fair-share gate first: an over-budget tenant is shed
        // here, before it can occupy queue slots other tenants paid for.
        if let Some(adm) = &self.admission {
            if !adm.try_admit(job.tenant) {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                self.stats.admission_shed.fetch_add(1, Ordering::Relaxed);
                job.reply
                    .send(Response::shed(job.id).with_tenant(job.tenant));
                return;
            }
        }
        let shard = (sig_hash(job.panel.id, &job.signature) % self.queues.len() as u64) as usize;
        if let Err(QueueFull(job)) = self.queues[shard].try_push(job) {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            job.reply
                .send(Response::shed(job.id).with_tenant(job.tenant));
        }
    }

    /// Stop accepting work, drain the queues, join the workers, and emit
    /// the `serve_summary` observability point. Idempotent; returns the
    /// aggregate report.
    pub fn shutdown(&self) -> ServeReport {
        for q in &self.queues {
            q.close();
        }
        // Latency lock first: a concurrent shutdown waits for the merge
        // instead of reporting before it.
        let mut latency = self.latency.lock().expect("latency poisoned");
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for w in workers {
            if let Ok(h) = w.join() {
                latency.merge(&h);
            }
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let ok = self.stats.ok.load(Ordering::Relaxed);
        let tenants: Vec<TenantReport> = self
            .tenant_counters()
            .into_iter()
            .map(|(tenant, c)| TenantReport {
                tenant: u64::from(tenant),
                admitted: c.admitted,
                shed: c.shed,
            })
            .collect();
        let report = ServeReport {
            requests: self.stats.requests.load(Ordering::Relaxed),
            ok,
            shed: self.stats.shed.load(Ordering::Relaxed),
            admission_shed: self.stats.admission_shed.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            stale_evictions: self.stats.stale_evictions.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            batched_samples: self.stats.batched_samples.load(Ordering::Relaxed),
            batch_max: self.cfg.batch_max as u64,
            max_queue_depth: self.stats.max_queue_depth.load(Ordering::Relaxed),
            score_ns: self.stats.score_ns.load(Ordering::Relaxed),
            conn_accepted: self.stats.conn_accepted.load(Ordering::Relaxed),
            conn_closed: self.stats.conn_closed.load(Ordering::Relaxed),
            frames_decoded: self.stats.frames_decoded.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            publishes: self.stats.publishes.load(Ordering::Relaxed),
            reactor_loops: self.stats.reactor_loops.load(Ordering::Relaxed),
            reactor_busy_ns: self.stats.reactor_busy_ns.load(Ordering::Relaxed),
            p50_latency_ns: latency.quantile(0.50),
            p95_latency_ns: latency.quantile(0.95),
            p99_latency_ns: latency.quantile(0.99),
            throughput_rps: if elapsed > 0.0 {
                ok as f64 / elapsed
            } else {
                0.0
            },
            tenants,
        };
        self.obs.point(
            "serve_summary",
            &[
                ("requests", Value::U64(report.requests)),
                ("ok", Value::U64(report.ok)),
                ("shed", Value::U64(report.shed)),
                ("admission_shed", Value::U64(report.admission_shed)),
                ("errors", Value::U64(report.errors)),
                ("cache_hits", Value::U64(report.cache_hits)),
                ("stale_evictions", Value::U64(report.stale_evictions)),
                ("batches", Value::U64(report.batches)),
                ("batched_samples", Value::U64(report.batched_samples)),
                ("batch_max", Value::U64(report.batch_max)),
                ("max_queue_depth", Value::U64(report.max_queue_depth)),
                ("score_ns", Value::U64(report.score_ns)),
                ("conn_accepted", Value::U64(report.conn_accepted)),
                ("conn_closed", Value::U64(report.conn_closed)),
                ("frames_decoded", Value::U64(report.frames_decoded)),
                ("swaps", Value::U64(report.swaps)),
                ("publishes", Value::U64(report.publishes)),
                ("reactor_loops", Value::U64(report.reactor_loops)),
                ("reactor_busy_ns", Value::U64(report.reactor_busy_ns)),
                ("p50_latency_ns", Value::U64(report.p50_latency_ns)),
                ("p95_latency_ns", Value::U64(report.p95_latency_ns)),
                ("p99_latency_ns", Value::U64(report.p99_latency_ns)),
                ("throughput_rps", Value::F64(report.throughput_rps)),
            ],
        );
        for t in &report.tenants {
            self.obs.point(
                "serve_tenant",
                &[
                    ("tenant", Value::U64(t.tenant)),
                    ("admitted", Value::U64(t.admitted)),
                    ("shed", Value::U64(t.shed)),
                ],
            );
        }
        report
    }
}

/// FNV-1a over the panel id and signature words — stable shard routing
/// with no string traffic on the hot path.
fn sig_hash(panel_id: u32, sig: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in panel_id.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    for &w in sig {
        for shift in (0..64).step_by(8) {
            h = (h ^ ((w >> shift) & 0xff)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Cache key: registry generation, panel id, packed signature. The
/// generation component is what makes hot swaps safe: verdicts from a
/// retired registry can never answer a request packed against a newer one.
type CacheKey = (u64, u32, Vec<u64>);

/// Serve `queue` until it closes; returns the latencies of every answer.
fn worker_loop(queue: &BoundedQueue<Job>, cfg: &ServeConfig, stats: &Stats) -> LatencyHistogram {
    let mut cache: LruCache<CacheKey, bool> = LruCache::new(cfg.cache_cap);
    let mut latency = LatencyHistogram::default();
    // Newest registry generation this shard has served. When it advances
    // (a hot swap), entries two or more generations old are purged: the
    // resolver only ever admits the current generation or the one it
    // displaced, so anything older is dead weight squatting in the LRU.
    let mut latest_gen = 0u64;
    while let Some(batch) = queue.pop_batch(cfg.batch_max) {
        let queue_depth = batch.len() as u64 + queue.len() as u64;
        stats.observe_depth(queue_depth);
        let batch_size = batch.len() as u64;

        // Group the batch per (generation, panel); each group scores as
        // one BitMatrix under that generation's classifier.
        let mut groups: BTreeMap<(u64, u32), Vec<Job>> = BTreeMap::new();
        let mut batch_gen = 0u64;
        for job in batch {
            batch_gen = batch_gen.max(job.version);
            groups
                .entry((job.version, job.panel.id))
                .or_default()
                .push(job);
        }
        // Purge only when this shard first observes a newer generation —
        // the scan is O(cache) but swaps are rare, so the hot path stays
        // scan-free.
        if batch_gen > latest_gen {
            latest_gen = batch_gen;
            let stale = cache.retain(|k| k.0 + 1 >= latest_gen);
            if stale > 0 {
                stats.stale_evictions.fetch_add(stale, Ordering::Relaxed);
            }
        }
        let score_start = Instant::now();
        for ((version, panel_id), jobs) in groups {
            let panel = Arc::clone(&jobs[0].panel);
            // (key, job) pairs for the cache misses; the key owns the
            // packed signature, which doubles as the batch-slot source.
            let mut misses: Vec<(CacheKey, Job)> = Vec::new();
            for mut job in jobs {
                let key = (version, panel_id, std::mem::take(&mut job.signature));
                if let Some(tumor) = cache.get(&key) {
                    stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    respond_ok(&job, tumor, true, stats, &mut latency);
                } else {
                    misses.push((key, job));
                }
            }
            if misses.is_empty() {
                continue;
            }
            // Pack the misses as sample columns of one panel-universe
            // matrix and score them in a single kernel pass.
            let mut m = BitMatrix::zeros(panel.n_genes(), misses.len());
            for (col, (key, _)) in misses.iter().enumerate() {
                let sig = &key.2;
                for g in 0..panel.n_genes() {
                    if (sig[g / 64] >> (g % 64)) & 1 == 1 {
                        m.set(g, col, true);
                    }
                }
            }
            let verdicts = panel.classifier.classify_batch(&m);
            for ((key, job), tumor) in misses.into_iter().zip(verdicts) {
                cache.insert(key, tumor);
                respond_ok(&job, tumor, false, stats, &mut latency);
            }
        }
        if cfg.score_delay_ns > 0 {
            std::thread::sleep(Duration::from_nanos(cfg.score_delay_ns));
        }
        let score_ns = u64::try_from(score_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats
            .batched_samples
            .fetch_add(batch_size, Ordering::Relaxed);
        stats.score_ns.fetch_add(score_ns, Ordering::Relaxed);
    }
    latency
}

fn respond_ok(
    job: &Job,
    tumor: bool,
    cache_hit: bool,
    stats: &Stats,
    latency: &mut LatencyHistogram,
) {
    stats.ok.fetch_add(1, Ordering::Relaxed);
    latency.record(u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX));
    job.reply
        .send(Response::ok(job.id, tumor, cache_hit, job.version).with_tenant(job.tenant));
}

/// A pipelined reply window: collects `expected` responses, then releases
/// the waiting client. Cheap enough to allocate per window (one `Arc`, one
/// `Vec`), shared by all of the window's jobs.
pub struct ReplyWindow {
    expected: usize,
    state: Mutex<Vec<Response>>,
    done: Condvar,
}

impl ReplyWindow {
    /// A window expecting `expected` responses.
    #[must_use]
    pub fn new(expected: usize) -> Arc<ReplyWindow> {
        Arc::new(ReplyWindow {
            expected,
            state: Mutex::new(Vec::with_capacity(expected)),
            done: Condvar::new(),
        })
    }

    /// Block until all expected responses have arrived; returns them in
    /// arrival order (correlate by [`Response::id`]).
    #[must_use]
    pub fn wait(&self) -> Vec<Response> {
        let mut got = self.state.lock().expect("window poisoned");
        while got.len() < self.expected {
            got = self.done.wait(got).expect("window poisoned");
        }
        std::mem::take(&mut *got)
    }
}

impl ResponseSink for ReplyWindow {
    fn send(&self, resp: Response) {
        let mut got = self.state.lock().expect("window poisoned");
        got.push(resp);
        if got.len() >= self.expected {
            self.done.notify_one();
        }
    }
}

/// Blocking in-process client — the test and loadgen entry point; the TCP
/// front end is the same admission path behind a socket.
pub struct InProcClient {
    server: Arc<Server>,
    reader: Mutex<RegistryReader>,
    next_id: AtomicU64,
}

impl InProcClient {
    /// A client bound to `server`.
    #[must_use]
    pub fn new(server: Arc<Server>) -> InProcClient {
        let reader = server.shared_registry().reader();
        InProcClient {
            server,
            reader: Mutex::new(reader),
            next_id: AtomicU64::new(1),
        }
    }

    /// Classify one sample, blocking for the response. `None` means the
    /// response channel died without an answer — a lost request, which the
    /// loadgen counts and the CI gate fails on.
    #[must_use]
    pub fn classify(&self, model: &str, genes: &[String]) -> Option<Response> {
        let req = Request {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            model: model.to_string(),
            genes: genes.to_vec(),
            tenant: 0,
        };
        let (tx, rx) = mpsc::channel();
        {
            let mut reader = self.reader.lock().expect("reader poisoned");
            let generation = Arc::clone(reader.current());
            self.server.admit_named(&req, &generation, Reply::Chan(tx));
        }
        rx.recv().ok()
    }

    /// The registry generation the next pipelined window will resolve
    /// against (refreshes the cached epoch).
    #[must_use]
    pub fn window_version(&self) -> u64 {
        self.reader
            .lock()
            .expect("reader poisoned")
            .current()
            .version
    }

    /// Classify a pipelined window of signatures pre-packed against
    /// registry generation `version`'s panel `model_id` — the in-process
    /// hot path, and the same resolution rule as the binary wire protocol
    /// (current generation, or the one it displaced). Responses come back
    /// indexed by window position, `None` marking a lost response; a
    /// generation two or more swaps behind yields error responses, never
    /// reinterpretation against the wrong universe.
    #[must_use]
    pub fn classify_packed_window(
        &self,
        version: u64,
        model_id: u32,
        sigs: &[&[u64]],
    ) -> Vec<Option<Response>> {
        let window = ReplyWindow::new(sigs.len());
        let base = {
            let mut reader = self.reader.lock().expect("reader poisoned");
            let base = self.next_id.fetch_add(sigs.len() as u64, Ordering::Relaxed);
            let panel = reader
                .resolve_version(version)
                .and_then(|generation| generation.registry.get_by_id(model_id))
                .map(Arc::clone);
            match panel {
                Some(panel) => {
                    for (i, sig) in sigs.iter().enumerate() {
                        self.server.submit_resolved(
                            base + i as u64,
                            &panel,
                            version,
                            0,
                            sig.to_vec(),
                            Reply::Sink(
                                Arc::<ReplyWindow>::clone(&window) as Arc<dyn ResponseSink>
                            ),
                        );
                    }
                }
                None => {
                    for i in 0..sigs.len() {
                        self.server.submit_unresolvable(
                            base + i as u64,
                            0,
                            format!("unresolvable model id {model_id} at generation {version}"),
                            &Reply::Sink(
                                Arc::<ReplyWindow>::clone(&window) as Arc<dyn ResponseSink>
                            ),
                        );
                    }
                }
            }
            base
        };
        let mut out: Vec<Option<Response>> = vec![None; sigs.len()];
        for resp in window.wait() {
            let idx = (resp.id - base) as usize;
            out[idx] = Some(resp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::synth_results;

    fn small_server(cfg: ServeConfig) -> (Arc<Server>, Obs) {
        let obs = Obs::enabled();
        let mut reg = ModelRegistry::new();
        reg.insert_results(&synth_results("P", 12, 6, 3, 7))
            .unwrap();
        (Server::start(reg, cfg, &obs), obs)
    }

    #[test]
    fn serves_and_matches_scalar() {
        let (server, _obs) = small_server(ServeConfig::default());
        let panel = server.registry().registry.get("P").unwrap();
        let client = InProcClient::new(Arc::clone(&server));
        for i in 0..200u64 {
            let genes: Vec<String> = (0..12)
                .filter(|g| (i >> (g % 8)) & 1 == 1)
                .map(|g| format!("G{g}"))
                .collect();
            let resp = client.classify("P", &genes).expect("lost response");
            assert_eq!(resp.status, crate::protocol::Status::Ok);
            assert_eq!(resp.version, 1, "generation stamp");
            let expected = panel.classify_signature(&panel.signature(&genes));
            assert_eq!(resp.tumor, expected, "request {i}");
        }
        let report = server.shutdown();
        assert_eq!(report.ok, 200);
        assert_eq!(report.shed, 0);
        assert!(report.cache_hits > 0, "repeat signatures should hit cache");
    }

    #[test]
    fn event_stream_does_not_grow_with_traffic() {
        // Nothing between admission and reply records an event: a run a
        // hundred times longer leaves exactly as many behind.
        let events_after = |requests: usize| {
            let (server, obs) = small_server(ServeConfig::default());
            let panel = server.registry().registry.get("P").unwrap();
            let client = InProcClient::new(Arc::clone(&server));
            let sigs: Vec<Vec<u64>> = (0..8u64)
                .map(|i| panel.signature(&[format!("G{i}")]))
                .collect();
            let refs: Vec<&[u64]> = sigs.iter().map(Vec::as_slice).collect();
            for _ in 0..requests / refs.len() {
                let out = client.classify_packed_window(1, panel.id, &refs);
                assert!(out.iter().all(Option::is_some), "lost response");
            }
            let report = server.shutdown();
            // Occupancy counts drained requests, cache hits included.
            assert!(report.cache_hits > 0);
            assert_eq!(report.ok, requests as u64);
            assert_eq!(report.batched_samples, requests as u64);
            obs.events().len()
        };
        assert_eq!(events_after(200), events_after(20_000));
    }

    #[test]
    fn packed_window_matches_scalar() {
        let (server, _obs) = small_server(ServeConfig::default());
        let panel = server.registry().registry.get("P").unwrap();
        let client = InProcClient::new(Arc::clone(&server));
        let sigs: Vec<Vec<u64>> = (0..40u64)
            .map(|i| {
                let genes: Vec<String> = (0..12)
                    .filter(|g| (i >> (g % 7)) & 1 == 1)
                    .map(|g| format!("G{g}"))
                    .collect();
                panel.signature(&genes)
            })
            .collect();
        let refs: Vec<&[u64]> = sigs.iter().map(Vec::as_slice).collect();
        let out = client.classify_packed_window(client.window_version(), panel.id, &refs);
        for (i, resp) in out.iter().enumerate() {
            let resp = resp.as_ref().expect("lost response");
            assert_eq!(resp.status, crate::protocol::Status::Ok);
            assert_eq!(resp.version, 1);
            assert_eq!(resp.tumor, panel.classify_signature(&sigs[i]), "slot {i}");
        }
        let report = server.shutdown();
        assert_eq!(report.ok, 40);
    }

    #[test]
    fn unknown_model_errors_immediately() {
        let (server, _obs) = small_server(ServeConfig::default());
        let client = InProcClient::new(Arc::clone(&server));
        let resp = client.classify("nope", &[]).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Error);
        assert!(resp.error.contains("unknown model"));
        let out = client.classify_packed_window(1, 99, &[&[0u64]]);
        assert_eq!(
            out[0].as_ref().unwrap().status,
            crate::protocol::Status::Error
        );
        let report = server.shutdown();
        assert_eq!(report.errors, 2);
        assert_eq!(report.ok, 0);
    }

    #[test]
    fn full_queue_sheds_deterministically() {
        // One shard, queue of 1, slow scoring: the worker takes the first
        // job, the second fills the queue, every later one is shed.
        let (server, _obs) = small_server(ServeConfig {
            shards: 1,
            batch_max: 1,
            queue_cap: 1,
            cache_cap: 0,
            score_delay_ns: 40_000_000,
            ..ServeConfig::default()
        });
        let genes: Vec<String> = vec!["G0".to_string()];
        let generation = server.registry();
        let mut rxs = Vec::new();
        for id in 0..6u64 {
            let req = Request {
                id,
                model: "P".to_string(),
                genes: genes.clone(),
                tenant: 0,
            };
            let (tx, rx) = mpsc::channel();
            server.admit_named(&req, &generation, Reply::Chan(tx));
            rxs.push(rx);
        }
        let mut ok = 0u64;
        let mut shed = 0u64;
        for rx in rxs {
            match rx.recv().expect("lost response").status {
                crate::protocol::Status::Ok => ok += 1,
                crate::protocol::Status::Shed => shed += 1,
                crate::protocol::Status::Error => panic!("unexpected error"),
            }
        }
        let report = server.shutdown();
        assert_eq!(ok + shed, 6, "every request answered");
        assert!(shed >= 1, "tiny queue under burst must shed");
        assert_eq!(report.shed, shed);
        // Every shed corresponds to a queue-full rejection — the
        // closed-queue counter must stay untouched by overload shedding.
        assert_eq!(server.queue_rejected_full(), shed);
        let rejections: u64 = server.queues.iter().map(|q| q.rejections()).sum();
        assert_eq!(rejections, shed, "no push was rejected as closed");
    }

    #[test]
    fn admission_sheds_overloaded_tenant_with_attribution() {
        // 100 rps budget, tiny burst: a burst of 50 same-instant requests
        // from one tenant blows through its bucket and sheds with the
        // tenant echoed; the shed count lands in admission_shed, not the
        // queue counters.
        let (server, _obs) = small_server(ServeConfig {
            admission: crate::admission::AdmissionConfig {
                total_rps: 100,
                burst_secs: 0.02, // 2-token burst
            },
            ..ServeConfig::default()
        });
        let generation = server.registry();
        let mut rxs = Vec::new();
        for id in 0..50u64 {
            let req = Request {
                id,
                model: "P".to_string(),
                genes: vec!["G0".to_string()],
                tenant: 7,
            };
            let (tx, rx) = mpsc::channel();
            server.admit_named(&req, &generation, Reply::Chan(tx));
            rxs.push(rx);
        }
        let mut shed = 0u64;
        for rx in rxs {
            let resp = rx.recv().expect("lost response");
            assert_eq!(resp.tenant, 7, "every response carries its tenant");
            if resp.status == crate::protocol::Status::Shed {
                shed += 1;
            }
        }
        let report = server.shutdown();
        assert!(shed > 0, "burst over budget must shed");
        assert_eq!(report.admission_shed, shed);
        assert_eq!(server.queue_rejected_full(), 0, "queues never filled");
        assert_eq!(report.tenants.len(), 1);
        assert_eq!(report.tenants[0].tenant, 7);
        assert_eq!(report.tenants[0].shed, shed);
        assert_eq!(report.tenants[0].admitted + shed, 50);
    }

    #[test]
    fn publish_swaps_in_a_compiled_snapshot() {
        let (server, _obs) = small_server(ServeConfig::default());
        let client = InProcClient::new(Arc::clone(&server));
        let genes = vec!["G0".to_string(), "G1".to_string()];
        assert_eq!(client.classify("P", &genes).unwrap().version, 1);

        // A bad snapshot is rejected atomically: generation unchanged.
        assert!(server.publish_results(&[]).is_err());
        assert!(server
            .publish_results(&["not a results file".to_string()])
            .is_err());
        assert_eq!(server.registry().version, 1);

        // A good snapshot (the exact artifact discover writes) swaps in.
        let snap = synth_results("P", 12, 6, 3, 99).to_tsv();
        let v2 = server.publish_results(&[snap]).unwrap();
        assert_eq!(v2, 2);
        let resp = client.classify("P", &genes).unwrap();
        assert_eq!(resp.version, 2, "responses stamp the published epoch");
        let report = server.shutdown();
        assert_eq!(report.publishes, 1);
        assert_eq!(report.swaps, 1);
    }

    #[test]
    fn hot_swap_purges_dead_generation_cache_entries() {
        // One shard so the purge is observable deterministically. Generation
        // grace is one: entries of gen N-1 survive a swap to N, entries of
        // gen N-2 are purged the first time the shard sees gen N.
        let (server, _obs) = small_server(ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        });
        let client = InProcClient::new(Arc::clone(&server));
        let genes = vec!["G0".to_string(), "G3".to_string()];
        assert_eq!(client.classify("P", &genes).unwrap().version, 1);

        let mut v2 = ModelRegistry::new();
        v2.insert_results(&synth_results("P", 12, 6, 3, 50))
            .unwrap();
        assert_eq!(server.swap_registry(v2), 2);
        // Gen-1 entry still within grace after the first swap.
        assert_eq!(client.classify("P", &genes).unwrap().version, 2);

        let mut v3 = ModelRegistry::new();
        v3.insert_results(&synth_results("P", 12, 6, 3, 51))
            .unwrap();
        assert_eq!(server.swap_registry(v3), 3);
        // First gen-3 traffic on the shard evicts the gen-1 entry.
        assert_eq!(client.classify("P", &genes).unwrap().version, 3);

        let report = server.shutdown();
        assert!(
            report.stale_evictions >= 1,
            "dead-generation entries must be purged, got {}",
            report.stale_evictions
        );
    }

    #[test]
    fn swap_stamps_new_generation_and_preserves_verdicts() {
        let (server, _obs) = small_server(ServeConfig::default());
        let client = InProcClient::new(Arc::clone(&server));
        let genes = vec!["G0".to_string(), "G1".to_string(), "G2".to_string()];
        let r1 = client.classify("P", &genes).unwrap();
        assert_eq!(r1.version, 1);

        // New generation: same cohort name, different combination set.
        let mut v2 = ModelRegistry::new();
        v2.insert_results(&synth_results("P", 12, 6, 3, 99))
            .unwrap();
        assert_eq!(server.swap_registry(v2), 2);

        let panel2 = server.registry().registry.get("P").unwrap();
        let r2 = client.classify("P", &genes).unwrap();
        assert_eq!(r2.version, 2, "post-swap responses carry the new epoch");
        assert_eq!(
            r2.tumor,
            panel2.classify_signature(&panel2.signature(&genes))
        );
        let report = server.shutdown();
        assert_eq!(report.swaps, 1);
        assert_eq!(report.ok, 2);
    }

    #[test]
    fn shutdown_is_idempotent_and_sheds_late_submits() {
        let (server, obs) = small_server(ServeConfig::default());
        let client = InProcClient::new(Arc::clone(&server));
        for i in 0..20 {
            assert!(client.classify("P", &[format!("G{i}")]).is_some());
        }
        let r1 = server.shutdown();
        let r2 = server.shutdown();
        assert_eq!(r1.ok, 20);
        assert_eq!(r1.ok, r2.ok);
        // The joined workers' histograms are kept, not consumed.
        let quantiles = |r: &ServeReport| (r.p50_latency_ns, r.p95_latency_ns, r.p99_latency_ns);
        assert_eq!(quantiles(&r1), quantiles(&r2));
        assert!(r1.p50_latency_ns > 0, "latencies reach the report");
        let resp = client.classify("P", &[]).unwrap();
        assert_eq!(resp.status, crate::protocol::Status::Shed);
        assert!(obs.to_json_lines().contains("serve_summary"));
    }
}
