//! Load generator for the serving stack: in-process, TCP JSON-lines, and
//! TCP binary frames, with registry hot swaps driven mid-load.
//!
//! Three phases (selected by [`Proto`]), each against a fresh server so
//! per-phase numbers stay clean:
//!
//! * **in-process** — pipelined windows of pre-packed signatures through
//!   [`InProcClient::classify_packed_window`]: the serving hot path with
//!   no socket.
//! * **TCP JSON** / **TCP binary** — a single-threaded non-blocking
//!   client engine (the same [`crate::poll`] reactor the server uses)
//!   drives a ring of `connections` sockets, rotating request issue
//!   across the ring under a global `inflight` budget. The budget is what
//!   bounds client-observed latency at high connection counts (Little's
//!   law: latency ≈ outstanding / throughput), so p99 stays meaningful at
//!   1k+ connections.
//!
//! Every response is checked against the scalar reference classification
//! *of the registry generation that answered it* — hot swaps mid-load are
//! part of the workload, and the invariants gate CI: **zero lost**,
//! **zero divergent**, **every shed matched by a queue-full rejection or
//! an admission charge**, across every swap. A sampled binary-vs-JSON
//! cross-check additionally pins the two wire protocols to byte-identical
//! decoded responses.
//!
//! Two optional extensions exercise the multi-tenant control plane:
//!
//! * **fairness phase** (`tenants >= 2`) — per-tenant paced binary
//!   clients against an admission-enabled server: tenant 0 drives 4× its
//!   fair share while the others stay inside theirs, and the gates
//!   require the well-behaved tenants to keep ≥90% of their issued
//!   goodput with zero misattributed responses.
//! * **publish swaps** (`publish = true`) — the TCP phases drive their
//!   hot swaps through the wire control frame ([`crate::publish`])
//!   instead of the in-process `swap_registry`, proving the full
//!   discover→serve path under load with the same zero-lost gates.

use crate::admission::AdmissionConfig;
use crate::frame::{self, FrameDecoder, Msg};
use crate::latency::LatencyHistogram;
use crate::poll::{Interest, Poller};
use crate::protocol::{Request, Response, Status};
use crate::publish;
use crate::registry::{ModelRegistry, Panel};
use crate::server::{InProcClient, ServeConfig, Server};
use crate::tcp;
use multihit_core::obs::{Obs, ServeReport, Value};
use multihit_data::results::{ResultRow, ResultsFile};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic splitmix64 — the loadgen's only randomness source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A deterministic synthetic panel: `combos` distinct `hits`-gene
/// combinations over a `genes`-symbol universe (`G0 … G{genes-1}`).
#[must_use]
pub fn synth_results(
    name: &str,
    genes: usize,
    combos: usize,
    hits: usize,
    seed: u64,
) -> ResultsFile {
    assert!(hits >= 1 && genes >= hits, "need at least `hits` genes");
    let mut rng = Rng(seed ^ 0x5eed);
    let mut rows = Vec::with_capacity(combos);
    for iteration in 0..combos {
        let mut picked = Vec::with_capacity(hits);
        while picked.len() < hits {
            let g = rng.below(genes as u64) as usize;
            if !picked.contains(&g) {
                picked.push(g);
            }
        }
        rows.push(ResultRow {
            iteration,
            genes: picked.iter().map(|g| format!("G{g}")).collect(),
            f: 0.5,
            tp: 1,
            tn: 1,
        });
    }
    ResultsFile {
        cohort: name.to_string(),
        hits,
        rows,
    }
}

/// Which serving paths to load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// In-process pipelined windows only.
    InProc,
    /// TCP JSON-lines only.
    Json,
    /// TCP binary frames only.
    Binary,
    /// All three phases plus the binary-vs-JSON cross-check.
    All,
}

impl Proto {
    /// Parse a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Proto> {
        match s {
            "inproc" => Some(Proto::InProc),
            "json" => Some(Proto::Json),
            "binary" => Some(Proto::Binary),
            "all" => Some(Proto::All),
            _ => None,
        }
    }
}

/// Loadgen knobs.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent in-process client threads.
    pub clients: usize,
    /// Requests per phase.
    pub requests: u64,
    /// Distinct mutation profiles in the request pool — smaller pools mean
    /// more repeats and a hotter cache.
    pub profile_pool: usize,
    /// Seed for panel, profiles, and request draws.
    pub seed: u64,
    /// Server configuration under test.
    pub serve: ServeConfig,
    /// Which phases to run.
    pub proto: Proto,
    /// TCP connections in the client ring.
    pub connections: usize,
    /// Outstanding-request budget across the whole TCP ring.
    pub inflight: usize,
    /// In-process pipelined window size.
    pub window: usize,
    /// Registry hot swaps driven during *each* phase.
    pub swaps: u64,
    /// Milliseconds between swaps (spaced so the one-generation grace
    /// period always covers in-flight requests).
    pub swap_gap_ms: u64,
    /// Drive the TCP phases' hot swaps through the wire publish frame
    /// instead of the in-process `swap_registry` call.
    pub publish: bool,
    /// Tenants in the fairness phase; `< 2` skips the phase.
    pub tenants: usize,
    /// Server admission budget (requests/sec) for the fairness phase.
    pub admit_rps: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 2,
            requests: 10_000,
            profile_pool: 512,
            seed: 7,
            serve: ServeConfig::default(),
            proto: Proto::InProc,
            connections: 64,
            inflight: 64,
            window: 256,
            swaps: 1,
            swap_gap_ms: 20,
            publish: false,
            tenants: 0,
            admit_rps: 2_000,
        }
    }
}

/// One reference registry generation: the panel the server will publish as
/// `version`, with per-profile signatures and scalar verdicts precomputed.
struct GenRef {
    panel: Arc<Panel>,
    sigs: Vec<Vec<u64>>,
    expected: Vec<bool>,
}

fn build_generations(
    cfg: &LoadgenConfig,
    profiles: &[Vec<String>],
) -> (Vec<ResultsFile>, Vec<GenRef>) {
    let n = cfg.swaps + 1;
    let mut files = Vec::with_capacity(n as usize);
    let mut gens = Vec::with_capacity(n as usize);
    for g in 0..n {
        // Each generation is a genuinely different combination set over
        // the same universe — a swap that changed nothing would not prove
        // anything. The 288-gene universe packs to multi-word signatures,
        // so the binary protocol's fixed-size frames are exercised beyond
        // the one-word case.
        let results = synth_results("loadgen", 288, 24, 3, cfg.seed.wrapping_add(g << 12));
        let mut reg = ModelRegistry::new();
        reg.insert_results(&results)
            .expect("synthetic panel is valid");
        let panel = reg.get("loadgen").expect("panel registered");
        let sigs: Vec<Vec<u64>> = profiles.iter().map(|p| panel.signature(p)).collect();
        let expected: Vec<bool> = sigs.iter().map(|s| panel.classify_signature(s)).collect();
        files.push(results);
        gens.push(GenRef {
            panel,
            sigs,
            expected,
        });
    }
    (files, gens)
}

fn registry_for(file: &ResultsFile) -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.insert_results(file).expect("synthetic panel is valid");
    reg
}

/// Drive `files` as successive hot swaps, `gap` apart, publishing the
/// just-swapped generation number into `announce` so clients pack new
/// requests against it. With `publish_addr` set, each swap travels the
/// wire control frame (compile-and-swap on the server's reactor) instead
/// of calling `swap_registry` in-process — the same registry transition,
/// reached through the discover→serve control plane.
fn spawn_swap_driver(
    server: &Arc<Server>,
    files: &[ResultsFile],
    gap: Duration,
    announce: &Arc<AtomicU64>,
    publish_addr: Option<String>,
) -> std::thread::JoinHandle<u64> {
    let server = Arc::clone(server);
    let files: Vec<ResultsFile> = files.to_vec();
    let announce = Arc::clone(announce);
    std::thread::Builder::new()
        .name("loadgen-swap".to_string())
        .spawn(move || {
            let mut count = 0u64;
            for f in &files {
                std::thread::sleep(gap);
                let version = match &publish_addr {
                    Some(addr) => publish::publish_to(addr, std::slice::from_ref(f))
                        .expect("publish accepted"),
                    None => server.swap_registry(registry_for(f)),
                };
                announce.store(version, Ordering::Release);
                count += 1;
            }
            count
        })
        .expect("spawn swap driver")
}

/// What one phase measured.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// The phase server's aggregate report (via the obs wire round trip).
    pub report: ServeReport,
    /// Client-observed completions per second.
    pub throughput_rps: f64,
    /// Requests that never got a response. Must be 0.
    pub lost: u64,
    /// Responses disagreeing with the scalar reference of their
    /// generation (or error responses). Must be 0.
    pub divergent: u64,
    /// Shed responses observed by clients.
    pub shed: u64,
    /// Queue-full rejections the shards recorded (closed-queue rejections
    /// are shutdown artifacts and tracked separately).
    pub queue_rejected_full: u64,
    /// Requests shed at admission (over tenant budget).
    pub admission_shed: u64,
    /// p99 latency, nanoseconds: client-observed in the TCP phases, the
    /// server's own in-process (0 when nothing was answered).
    pub client_p99_ns: u64,
    /// Hot swaps published during the phase.
    pub swaps: u64,
}

/// What the multi-tenant fairness phase measured. Indices into the
/// per-tenant vectors are tenant ids; tenant 0 is the overloader.
#[derive(Clone, Debug, Default)]
pub struct FairnessStats {
    /// The phase server's aggregate report.
    pub report: ServeReport,
    /// Requests issued per tenant.
    pub issued: Vec<u64>,
    /// Ok responses per tenant.
    pub ok: Vec<u64>,
    /// Shed responses per tenant (client-observed, attributed by the
    /// response's tenant echo).
    pub shed: Vec<u64>,
    /// Requests that never got a response. Must be 0.
    pub lost: u64,
    /// Wrong verdicts or error responses. Must be 0.
    pub divergent: u64,
    /// Responses whose tenant echo disagreed with the connection that
    /// issued them. Must be 0.
    pub attribution_mismatches: u64,
    /// Minimum ok/issued ratio across the well-behaved tenants (1..n).
    /// The fairness gate requires ≥ 0.9.
    pub min_well_behaved_goodput: f64,
}

/// What one loadgen run measured across its phases.
#[derive(Clone, Debug, Default)]
pub struct LoadgenOutcome {
    /// In-process phase (None when skipped).
    pub inproc: Option<PhaseStats>,
    /// TCP JSON phase (None when skipped).
    pub json: Option<PhaseStats>,
    /// TCP binary phase (None when skipped).
    pub binary: Option<PhaseStats>,
    /// Multi-tenant fairness phase (None unless `tenants >= 2`).
    pub fairness: Option<FairnessStats>,
    /// Requests cross-checked byte-for-byte between the two wire
    /// protocols (0 when the binary phase was skipped).
    pub crosscheck_samples: u64,
    /// Cross-check disagreements. Must be 0.
    pub crosscheck_mismatches: u64,
}

impl LoadgenOutcome {
    fn phases(&self) -> impl Iterator<Item = &PhaseStats> {
        self.inproc
            .iter()
            .chain(self.json.iter())
            .chain(self.binary.iter())
    }

    /// Total lost responses across phases. Must be 0.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.phases().map(|p| p.lost).sum()
    }

    /// Total divergent responses across phases. Must be 0.
    #[must_use]
    pub fn divergent(&self) -> u64 {
        self.phases().map(|p| p.divergent).sum()
    }

    /// Total shed responses observed by clients.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.phases().map(|p| p.shed).sum()
    }

    /// Total queue-full rejections recorded by shards.
    #[must_use]
    pub fn queue_rejected_full(&self) -> u64 {
        self.phases().map(|p| p.queue_rejected_full).sum()
    }

    /// Total admission-shed requests recorded by the servers. Every
    /// client-observed shed must be either a queue-full rejection or an
    /// admission charge: `shed == queue_rejected_full + admission_shed`.
    #[must_use]
    pub fn admission_shed(&self) -> u64 {
        self.phases().map(|p| p.admission_shed).sum()
    }

    /// Total hot swaps published across phases.
    #[must_use]
    pub fn swap_count(&self) -> u64 {
        self.phases().map(|p| p.swaps).sum()
    }
}

/// Validate one response against the reference tables. Returns
/// `(divergent, shed)` increments.
fn judge(resp: &Response, profile: usize, pinned: Option<u64>, gens: &[GenRef]) -> (u64, u64) {
    match resp.status {
        Status::Ok => {
            let v = resp.version;
            let in_range = v >= 1 && (v as usize) <= gens.len();
            let pin_ok = pinned.is_none_or(|p| p == v);
            if in_range && pin_ok && gens[(v - 1) as usize].expected[profile] == resp.tumor {
                (0, 0)
            } else {
                (1, 0)
            }
        }
        Status::Shed => (0, 1),
        Status::Error => (1, 0),
    }
}

/// Run the load test (all configured phases) and emit one
/// `loadgen_summary` point into `obs`.
///
/// # Panics
/// Panics on internal failures (a worker or client thread dying, a bind
/// failing), not on bad measurements — gating on the measurements is the
/// caller's job.
#[must_use]
pub fn run(cfg: &LoadgenConfig, obs: &Obs) -> LoadgenOutcome {
    // The profile pool: mutation profiles of realistic width (tens of
    // mutated gene symbols), a few naming genes outside the panel universe
    // (must be ignored, not error). Wide profiles are what separates the
    // wire protocols: JSON ships and re-parses every symbol, the binary
    // frame ships one packed 8-byte signature word.
    let mut rng = Rng(cfg.seed);
    let profiles: Vec<Vec<String>> = (0..cfg.profile_pool.max(1))
        .map(|_| {
            let len = rng.below(161) as usize;
            (0..len).map(|_| format!("G{}", rng.below(320))).collect()
        })
        .collect();
    let (files, gens) = build_generations(cfg, &profiles);

    let mut out = LoadgenOutcome::default();
    if matches!(cfg.proto, Proto::InProc | Proto::All) {
        out.inproc = Some(run_inproc_phase(cfg, &files, &gens));
    }
    if matches!(cfg.proto, Proto::Json | Proto::All) {
        out.json = Some(run_tcp_phase(cfg, false, &profiles, &files, &gens));
    }
    if matches!(cfg.proto, Proto::Binary | Proto::All) {
        out.binary = Some(run_tcp_phase(cfg, true, &profiles, &files, &gens));
        let (samples, mismatches) = run_crosscheck(cfg, &profiles, &files, &gens);
        out.crosscheck_samples = samples;
        out.crosscheck_mismatches = mismatches;
    }
    if cfg.tenants >= 2 {
        out.fairness = Some(run_fairness_phase(cfg, &files, &gens));
    }

    let zero = PhaseStats::default();
    let inp = out.inproc.as_ref().unwrap_or(&zero);
    let bin = out.binary.as_ref().unwrap_or(&zero);
    let fair_zero = FairnessStats::default();
    let fair = out.fairness.as_ref().unwrap_or(&fair_zero);
    obs.point(
        "loadgen_summary",
        &[
            ("lost", Value::U64(out.lost() + fair.lost)),
            ("divergent", Value::U64(out.divergent() + fair.divergent)),
            ("shed", Value::U64(out.shed())),
            ("queue_rejected_full", Value::U64(out.queue_rejected_full())),
            ("admission_shed", Value::U64(out.admission_shed())),
            ("swap_count", Value::U64(out.swap_count())),
            (
                "crosscheck_mismatches",
                Value::U64(out.crosscheck_mismatches),
            ),
            (
                "attribution_mismatches",
                Value::U64(fair.attribution_mismatches),
            ),
            (
                "fair_goodput_ratio",
                Value::F64(fair.min_well_behaved_goodput),
            ),
            ("throughput_rps", Value::F64(inp.throughput_rps)),
            ("throughput_rps_binary", Value::F64(bin.throughput_rps)),
        ],
    );
    out
}

fn run_inproc_phase(cfg: &LoadgenConfig, files: &[ResultsFile], gens: &[GenRef]) -> PhaseStats {
    let server = Server::start(registry_for(&files[0]), cfg.serve.clone(), &Obs::disabled());
    let announce = Arc::new(AtomicU64::new(1));
    let swap_driver = spawn_swap_driver(
        &server,
        &files[1..],
        Duration::from_millis(cfg.swap_gap_ms),
        &announce,
        None, // no wire to publish over in-process
    );

    let window = cfg.window.max(1);
    let issued = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    let divergent = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for client_idx in 0..cfg.clients.max(1) {
            let client = InProcClient::new(Arc::clone(&server));
            let issued = &issued;
            let lost = &lost;
            let divergent = &divergent;
            let shed = &shed;
            let mut rng = Rng(cfg.seed ^ (client_idx as u64).wrapping_mul(0x9e37_79b9));
            s.spawn(move || loop {
                let claim = issued.fetch_add(window as u64, Ordering::Relaxed);
                if claim >= cfg.requests {
                    break;
                }
                let w = window.min((cfg.requests - claim) as usize);
                let version = client.window_version();
                let g = &gens[((version - 1) as usize).min(gens.len() - 1)];
                let picks: Vec<usize> = (0..w)
                    .map(|_| rng.below(g.sigs.len() as u64) as usize)
                    .collect();
                let refs: Vec<&[u64]> = picks.iter().map(|&p| g.sigs[p].as_slice()).collect();
                let responses = client.classify_packed_window(version, g.panel.id, &refs);
                for (k, resp) in responses.iter().enumerate() {
                    match resp {
                        None => {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(r) => {
                            let (d, sh) = judge(r, picks[k], Some(version), gens);
                            divergent.fetch_add(d, Ordering::Relaxed);
                            shed.fetch_add(sh, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed_secs = started.elapsed().as_secs_f64();
    let swaps = swap_driver.join().expect("swap driver");
    let queue_rejected_full = server.queue_rejected_full();
    let admission_shed = server.admission_shed();
    let report = server.shutdown();
    PhaseStats {
        throughput_rps: report.requests as f64 / elapsed_secs.max(1e-9),
        lost: lost.load(Ordering::Relaxed),
        divergent: divergent.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        queue_rejected_full,
        admission_shed,
        client_p99_ns: report.p99_latency_ns,
        swaps,
        report,
    }
}

/// Per-connection state of the non-blocking TCP client engine.
struct ClientConn {
    stream: TcpStream,
    out: Vec<u8>,
    pos: usize,
    want_write: bool,
    dec: FrameDecoder,
    line: Vec<u8>,
    preamble_seen: usize,
    dead: bool,
}

impl ClientConn {
    fn flush(&mut self, poller: &Poller, token: u64) {
        loop {
            if self.dead || self.pos >= self.out.len() {
                self.out.clear();
                self.pos = 0;
                if self.want_write && !self.dead {
                    self.want_write = false;
                    let _ = poller.modify(self.stream.as_raw_fd(), token, Interest::READ);
                }
                return;
            }
            let r = {
                let mut s = &self.stream;
                s.write(&self.out[self.pos..])
            };
            match r {
                Ok(0) => self.dead = true,
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.pos >= 64 * 1024 {
                        self.out.drain(..self.pos);
                        self.pos = 0;
                    }
                    if !self.want_write {
                        self.want_write = true;
                        let _ = poller.modify(self.stream.as_raw_fd(), token, Interest::READ_WRITE);
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_tcp_phase(
    cfg: &LoadgenConfig,
    binary: bool,
    profiles: &[Vec<String>],
    files: &[ResultsFile],
    gens: &[GenRef],
) -> PhaseStats {
    let server = Server::start(registry_for(&files[0]), cfg.serve.clone(), &Obs::disabled());
    let handle = tcp::spawn(Arc::clone(&server), "127.0.0.1:0").expect("bind loadgen server");
    let addr = handle.addr();
    let announce = Arc::new(AtomicU64::new(1));
    let swap_driver = spawn_swap_driver(
        &server,
        &files[1..],
        Duration::from_millis(cfg.swap_gap_ms),
        &announce,
        cfg.publish.then(|| addr.to_string()),
    );

    let poller = Poller::new().expect("client poller");
    let n_conns = cfg.connections.max(1);
    let mut conns: Vec<ClientConn> = (0..n_conns)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("connect loadgen server");
            stream.set_nonblocking(true).expect("nonblocking client");
            let _ = stream.set_nodelay(true);
            poller
                .register(stream.as_raw_fd(), i as u64, Interest::READ)
                .expect("register client conn");
            let mut c = ClientConn {
                stream,
                out: Vec::new(),
                pos: 0,
                want_write: false,
                dec: FrameDecoder::new(),
                line: Vec::new(),
                preamble_seen: if binary { 0 } else { 2 },
                dead: false,
            };
            if binary {
                frame::encode_preamble(&mut c.out);
                c.flush(&poller, i as u64);
            }
            c
        })
        .collect();

    let budget = cfg.inflight.max(1);
    let n_req = cfg.requests;
    // Issue-time record per request id: profile index, pinned generation
    // (binary only), issue instant.
    let mut pending: Vec<Option<(u32, u64, Instant)>> = vec![None; n_req as usize];
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut inflight = 0usize;
    let mut lost = 0u64;
    let mut divergent = 0u64;
    let mut shed = 0u64;
    let mut latency = LatencyHistogram::default();
    let mut rng = Rng(cfg.seed ^ 0x7cb);
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(120);
    let started = Instant::now();

    let mut dirty: Vec<bool> = vec![false; n_conns];
    'outer: while completed < n_req {
        // Issue a burst up to the inflight budget, then flush each touched
        // connection once — requests sharing a connection coalesce into
        // one write.
        while issued < n_req && inflight < budget {
            let token = issued % n_conns as u64;
            let p = rng.below(profiles.len() as u64) as usize;
            let v = announce.load(Ordering::Acquire);
            let g = &gens[((v - 1) as usize).min(gens.len() - 1)];
            let conn = &mut conns[token as usize];
            if binary {
                frame::encode_request(&mut conn.out, issued, v, g.panel.id, 0, &g.sigs[p]);
            } else {
                let req = Request {
                    id: issued,
                    model: "loadgen".to_string(),
                    genes: profiles[p].clone(),
                    tenant: 0,
                };
                let line = req.to_json();
                conn.out.reserve(line.len() + 1);
                conn.out.extend_from_slice(line.as_bytes());
                conn.out.push(b'\n');
            }
            pending[issued as usize] = Some((
                u32::try_from(p).expect("pool fits u32"),
                if binary { v } else { 0 },
                Instant::now(),
            ));
            dirty[token as usize] = true;
            issued += 1;
            inflight += 1;
        }
        for (i, d) in dirty.iter_mut().enumerate() {
            if *d {
                *d = false;
                conns[i].flush(&poller, i as u64);
            }
        }
        if Instant::now() > deadline {
            break 'outer;
        }
        if poller.wait(&mut events, 50).is_err() {
            break 'outer;
        }
        for &ev in &events {
            let Ok(token) = usize::try_from(ev.token) else {
                continue;
            };
            if token >= conns.len() {
                continue;
            }
            if ev.writable {
                conns[token].flush(&poller, ev.token);
            }
            if !(ev.readable || ev.hangup) {
                continue;
            }
            loop {
                let r = conns[token].stream.read(&mut scratch);
                match r {
                    Ok(0) => {
                        conns[token].dead = true;
                        break;
                    }
                    Ok(n) => {
                        let mut bytes = &scratch[..n];
                        let conn = &mut conns[token];
                        while conn.preamble_seen < 2 && !bytes.is_empty() {
                            let expect = if conn.preamble_seen == 0 {
                                frame::MAGIC
                            } else {
                                frame::VERSION
                            };
                            assert_eq!(bytes[0], expect, "bad preamble echo");
                            conn.preamble_seen += 1;
                            bytes = &bytes[1..];
                        }
                        let mut responses: Vec<Response> = Vec::new();
                        if binary {
                            conn.dec.push(bytes);
                            while let Some(msg) = conn.dec.next().expect("well-formed frames") {
                                match msg {
                                    Msg::Response(r) => responses.push(r),
                                    other => panic!("server sent {other:?}"),
                                }
                            }
                        } else {
                            conn.line.extend_from_slice(bytes);
                            let mut start = 0usize;
                            while let Some(nl) = conn.line[start..].iter().position(|&b| b == b'\n')
                            {
                                let end = start + nl;
                                let text = String::from_utf8_lossy(&conn.line[start..end]);
                                responses.push(
                                    Response::from_json(text.trim())
                                        .expect("well-formed response line"),
                                );
                                start = end + 1;
                            }
                            if start > 0 {
                                conn.line.drain(..start);
                            }
                        }
                        for resp in responses {
                            let slot = pending.get_mut(resp.id as usize).and_then(Option::take);
                            let Some((p, v, t0)) = slot else {
                                divergent += 1;
                                continue;
                            };
                            latency
                                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                            inflight -= 1;
                            completed += 1;
                            let pinned = if binary { Some(v) } else { None };
                            let (d, sh) = judge(&resp, p as usize, pinned, gens);
                            divergent += d;
                            shed += sh;
                        }
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conns[token].dead = true;
                        break;
                    }
                }
            }
            if conns[token].dead {
                // A dead connection strands its in-flight requests; they
                // surface as lost below.
                let _ = poller.deregister(conns[token].stream.as_raw_fd());
            }
        }
        if conns.iter().all(|c| c.dead) {
            break 'outer;
        }
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    lost += pending.iter().filter(|s| s.is_some()).count() as u64;

    let swaps = swap_driver.join().expect("swap driver");
    let queue_rejected_full = server.queue_rejected_full();
    let admission_shed = server.admission_shed();
    handle.stop();
    let report = server.shutdown();
    PhaseStats {
        throughput_rps: completed as f64 / elapsed_secs.max(1e-9),
        lost,
        divergent,
        shed,
        queue_rejected_full,
        admission_shed,
        client_p99_ns: latency.quantile(0.99),
        swaps,
        report,
    }
}

/// Send a sampled subset of profiles through both wire protocols against
/// one server and require byte-identical decoded responses (cache-hit
/// flag normalized — the second protocol to ask is expected to hit the
/// cache). Returns `(samples, mismatches)`.
fn run_crosscheck(
    cfg: &LoadgenConfig,
    profiles: &[Vec<String>],
    files: &[ResultsFile],
    gens: &[GenRef],
) -> (u64, u64) {
    let server = Server::start(registry_for(&files[0]), cfg.serve.clone(), &Obs::disabled());
    let handle = tcp::spawn(Arc::clone(&server), "127.0.0.1:0").expect("bind crosscheck server");
    let addr = handle.addr();

    let json_stream = TcpStream::connect(addr).expect("connect json");
    json_stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut json_writer = json_stream.try_clone().expect("clone json stream");
    let mut json_reader = BufReader::new(json_stream);

    let mut bin_stream = TcpStream::connect(addr).expect("connect binary");
    bin_stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut preamble = Vec::new();
    frame::encode_preamble(&mut preamble);
    bin_stream.write_all(&preamble).expect("send preamble");
    let mut echo = [0u8; 2];
    bin_stream.read_exact(&mut echo).expect("preamble echo");
    assert_eq!(echo, [frame::MAGIC, frame::VERSION], "preamble echo");

    let g = &gens[0];
    let samples = 64u64.min(profiles.len() as u64);
    let mut mismatches = 0u64;
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut line = String::new();
    for k in 0..samples {
        let p = k as usize % profiles.len();
        // JSON side.
        let req = Request {
            id: k,
            model: "loadgen".to_string(),
            genes: profiles[p].clone(),
            tenant: 0,
        };
        json_writer
            .write_all(format!("{}\n", req.to_json()).as_bytes())
            .expect("send json request");
        line.clear();
        json_reader.read_line(&mut line).expect("json response");
        let mut rj = Response::from_json(line.trim()).expect("parse json response");
        // Binary side: the same sample as a packed generation-1 signature.
        let mut wire = Vec::new();
        frame::encode_request(&mut wire, k, 1, g.panel.id, 0, &g.sigs[p]);
        bin_stream.write_all(&wire).expect("send binary request");
        let rb = loop {
            if let Some(msg) = dec.next().expect("well-formed frame") {
                match msg {
                    Msg::Response(r) => break r,
                    other => panic!("server sent {other:?}"),
                }
            }
            let n = bin_stream.read(&mut buf).expect("binary response");
            assert!(n > 0, "server closed during crosscheck");
            dec.push(&buf[..n]);
        };
        let mut rb = rb;
        // The only field allowed to differ: whichever protocol asked
        // second hits the signature cache.
        rj.cache_hit = false;
        rb.cache_hit = false;
        if rj.to_json().as_bytes() != rb.to_json().as_bytes() {
            mismatches += 1;
        }
    }
    drop(json_writer);
    drop(json_reader);
    drop(bin_stream);
    handle.stop();
    server.shutdown();
    (samples, mismatches)
}

/// What one tenant's paced client observed during the fairness phase.
#[derive(Clone, Copy, Debug, Default)]
struct TenantObserved {
    issued: u64,
    ok: u64,
    shed: u64,
    divergent: u64,
    attribution_mismatches: u64,
    completed: u64,
}

/// One tenant's connection state during the fairness phase: the socket,
/// the frame reassembly buffers, and the in-flight `pending[id] →
/// profile index` table responses are judged against.
struct TenantConn {
    stream: TcpStream,
    dec: FrameDecoder,
    buf: Vec<u8>,
    preamble_seen: usize,
    pending: Vec<Option<usize>>,
    tenant: u32,
}

impl TenantConn {
    /// Read once (bounded by the stream's read timeout) and account every
    /// response frame that completes.
    fn drain(&mut self, g: &GenRef, obs_out: &mut TenantObserved) {
        let n = match self.stream.read(&mut self.buf) {
            Ok(0) => panic!("fairness server closed early"),
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                return;
            }
            Err(e) => panic!("fairness read: {e}"),
        };
        let mut bytes = &self.buf[..n];
        while self.preamble_seen < 2 && !bytes.is_empty() {
            let expect = if self.preamble_seen == 0 {
                frame::MAGIC
            } else {
                frame::VERSION
            };
            assert_eq!(bytes[0], expect, "bad preamble echo");
            self.preamble_seen += 1;
            bytes = &bytes[1..];
        }
        self.dec.push(bytes);
        while let Some(msg) = self.dec.next().expect("well-formed frames") {
            let Msg::Response(resp) = msg else {
                panic!("server sent {msg:?}");
            };
            let Some(p) = self
                .pending
                .get_mut(resp.id as usize)
                .and_then(Option::take)
            else {
                obs_out.divergent += 1;
                continue;
            };
            obs_out.completed += 1;
            if resp.tenant != self.tenant {
                obs_out.attribution_mismatches += 1;
            }
            match resp.status {
                Status::Ok if resp.version == 1 && resp.tumor == g.expected[p] => obs_out.ok += 1,
                Status::Ok | Status::Error => obs_out.divergent += 1,
                Status::Shed => obs_out.shed += 1,
            }
        }
    }
}

/// One tenant's paced binary client: issue at `rate` for `duration`,
/// draining responses between sends, then collect stragglers.
fn tenant_worker(
    addr: std::net::SocketAddr,
    tenant: u32,
    rate: f64,
    duration: Duration,
    g: &GenRef,
    seed: u64,
) -> TenantObserved {
    let stream = TcpStream::connect(addr).expect("connect fairness server");
    let _ = stream.set_nodelay(true);
    let mut wire = Vec::new();
    frame::encode_preamble(&mut wire);

    let n_req = (rate * duration.as_secs_f64()).floor().max(1.0) as u64;
    let mut conn = TenantConn {
        stream,
        dec: FrameDecoder::new(),
        buf: vec![0u8; 16 * 1024],
        preamble_seen: 0,
        pending: vec![None; n_req as usize],
        tenant,
    };
    conn.stream.write_all(&wire).expect("send preamble");
    let mut out = TenantObserved::default();
    let mut rng = Rng(seed ^ (u64::from(tenant) << 17) ^ 0xfa17);
    let start = Instant::now();
    for i in 0..n_req {
        // Pace: sleep-by-read until this request's scheduled instant, so
        // response draining and pacing share the same wait.
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = (due - now).min(Duration::from_millis(1));
            conn.stream
                .set_read_timeout(Some(wait.max(Duration::from_micros(50))))
                .expect("set timeout");
            conn.drain(g, &mut out);
        }
        let p = rng.below(g.sigs.len() as u64) as usize;
        wire.clear();
        frame::encode_request(&mut wire, i, 1, g.panel.id, tenant, &g.sigs[p]);
        conn.stream.write_all(&wire).expect("send request");
        conn.pending[i as usize] = Some(p);
        out.issued += 1;
    }
    // Collect the stragglers.
    conn.stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("set timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    while out.completed < out.issued && Instant::now() < deadline {
        conn.drain(g, &mut out);
    }
    out
}

/// The multi-tenant fairness phase: an admission-enabled server under one
/// overloading tenant (4× its fair share) and `tenants - 1` well-behaved
/// tenants (80% of theirs). The phase proves isolation: the well-behaved
/// tenants' goodput must be untouched by the overload next door, and
/// every shed must be billed to the tenant that caused it.
fn run_fairness_phase(
    cfg: &LoadgenConfig,
    files: &[ResultsFile],
    gens: &[GenRef],
) -> FairnessStats {
    let mut serve = cfg.serve.clone();
    serve.admission = AdmissionConfig {
        total_rps: cfg.admit_rps.max(1),
        // Tight burst window: deep buckets would let the overloader coast
        // on its opening burst for a large fraction of a short phase.
        burst_secs: 0.1,
    };
    let server = Server::start(registry_for(&files[0]), serve, &Obs::disabled());
    let handle = tcp::spawn(Arc::clone(&server), "127.0.0.1:0").expect("bind fairness server");
    let addr = handle.addr();

    let n = cfg.tenants.max(2);
    let fair = cfg.admit_rps.max(1) as f64 / n as f64;
    let total_rate = fair * (4.0 + 0.8 * (n - 1) as f64);
    let duration = Duration::from_secs_f64((cfg.requests as f64 / total_rate).clamp(0.25, 10.0));
    let g = &gens[0];
    let observed: Vec<TenantObserved> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n)
            .map(|t| {
                let rate = if t == 0 { 4.0 * fair } else { 0.8 * fair };
                let seed = cfg.seed;
                s.spawn(move || tenant_worker(addr, t as u32, rate, duration, g, seed))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("tenant worker"))
            .collect()
    });
    handle.stop();
    let report = server.shutdown();

    let mut min_ratio = f64::INFINITY;
    for o in &observed[1..] {
        min_ratio = min_ratio.min(o.ok as f64 / o.issued.max(1) as f64);
    }
    FairnessStats {
        report,
        issued: observed.iter().map(|o| o.issued).collect(),
        ok: observed.iter().map(|o| o.ok).collect(),
        shed: observed.iter().map(|o| o.shed).collect(),
        lost: observed.iter().map(|o| o.issued - o.completed).sum(),
        divergent: observed.iter().map(|o| o.divergent).sum(),
        attribution_mismatches: observed.iter().map(|o| o.attribution_mismatches).sum(),
        min_well_behaved_goodput: min_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_smoke_is_clean() {
        let obs = Obs::enabled();
        let cfg = LoadgenConfig {
            clients: 2,
            requests: 2_000,
            profile_pool: 64,
            seed: 11,
            window: 64,
            swaps: 0,
            ..LoadgenConfig::default()
        };
        let out = run(&cfg, &obs);
        let inp = out.inproc.as_ref().expect("inproc phase ran");
        assert_eq!(out.lost(), 0, "lost responses");
        assert_eq!(out.divergent(), 0, "batched vs scalar divergence");
        assert_eq!(inp.report.requests, 2_000);
        assert_eq!(inp.report.ok + inp.report.shed, 2_000);
        // Generous queue: nothing sheds.
        assert_eq!(inp.report.shed, 0, "shed without queue pressure");
        assert_eq!(out.queue_rejected_full(), 0);
        assert_eq!(out.admission_shed(), 0, "admission disabled by default");
        // 64 profiles over 2000 requests: the cache must be doing work.
        assert!(
            inp.report.cache_hit_rate() > 0.5,
            "cache hit rate {}",
            inp.report.cache_hit_rate()
        );
        assert!(inp.throughput_rps > 0.0, "no completions per second");
        assert!(inp.report.p99_latency_ns >= inp.report.p50_latency_ns);
        assert!(obs.to_json_lines().contains("loadgen_summary"));
    }

    #[test]
    fn loadgen_under_pressure_sheds_only_on_full_queues() {
        let obs = Obs::enabled();
        let cfg = LoadgenConfig {
            clients: 4,
            requests: 300,
            profile_pool: 256,
            seed: 13,
            window: 8,
            swaps: 0,
            serve: ServeConfig {
                shards: 1,
                batch_max: 4,
                queue_cap: 2,
                cache_cap: 0,
                score_delay_ns: 2_000_000,
                ..ServeConfig::default()
            },
            ..LoadgenConfig::default()
        };
        let out = run(&cfg, &obs);
        let inp = out.inproc.as_ref().expect("inproc phase ran");
        assert_eq!(out.lost(), 0);
        assert_eq!(out.divergent(), 0);
        assert_eq!(inp.report.ok + inp.report.shed, 300);
        // The invariant the CI gate checks: every shed is a queue-full
        // rejection or an admission charge, one for one.
        assert_eq!(out.shed(), out.queue_rejected_full() + out.admission_shed());
    }

    #[test]
    fn hot_swap_under_load_loses_nothing() {
        let obs = Obs::enabled();
        let cfg = LoadgenConfig {
            clients: 2,
            requests: 4_000,
            profile_pool: 64,
            seed: 17,
            window: 32,
            swaps: 3,
            swap_gap_ms: 5,
            ..LoadgenConfig::default()
        };
        let out = run(&cfg, &obs);
        let inp = out.inproc.as_ref().expect("inproc phase ran");
        assert_eq!(out.swap_count(), 3, "all swaps published");
        assert_eq!(out.lost(), 0, "no gaps across swaps");
        // Zero divergent means every ok response matched the scalar
        // reference of the generation stamped on it — old or new.
        assert_eq!(out.divergent(), 0, "response disagreed with its generation");
        assert_eq!(inp.report.ok + inp.report.shed, 4_000);
        assert_eq!(inp.report.swaps, 3);
    }

    #[test]
    fn tcp_phases_and_crosscheck_are_clean() {
        let obs = Obs::enabled();
        let cfg = LoadgenConfig {
            clients: 1,
            requests: 600,
            profile_pool: 64,
            seed: 19,
            window: 32,
            proto: Proto::All,
            connections: 8,
            inflight: 16,
            swaps: 1,
            swap_gap_ms: 5,
            ..LoadgenConfig::default()
        };
        let out = run(&cfg, &obs);
        assert!(out.inproc.is_some() && out.json.is_some() && out.binary.is_some());
        assert_eq!(out.lost(), 0, "lost");
        assert_eq!(out.divergent(), 0, "divergent");
        assert_eq!(
            out.shed(),
            out.queue_rejected_full() + out.admission_shed(),
            "shed accounting"
        );
        assert_eq!(out.swap_count(), 3, "one swap per phase");
        assert_eq!(out.crosscheck_mismatches, 0, "binary/json disagree");
        assert!(out.crosscheck_samples > 0);
        let bin = out.binary.as_ref().unwrap();
        assert_eq!(bin.report.ok + bin.report.shed + bin.report.errors, 600);
        assert!(bin.report.frames_decoded >= 600);
        assert!(bin.report.conn_accepted >= 8);
        assert!(
            bin.report.reactor_loops > 0,
            "reactor totals reach shutdown"
        );
        let json = out.json.as_ref().unwrap();
        assert_eq!(json.report.ok + json.report.shed + json.report.errors, 600);
    }

    #[test]
    fn fairness_phase_isolates_well_behaved_tenants() {
        let obs = Obs::enabled();
        let cfg = LoadgenConfig {
            requests: 1_000,
            seed: 23,
            proto: Proto::InProc, // fairness phase is what's under test
            tenants: 4,
            admit_rps: 800,
            ..LoadgenConfig::default()
        };
        let out = run(&cfg, &obs);
        let fair = out.fairness.as_ref().expect("fairness phase ran");
        assert_eq!(fair.issued.len(), 4);
        assert_eq!(fair.lost, 0, "lost responses");
        assert_eq!(fair.divergent, 0, "divergent responses");
        assert_eq!(fair.attribution_mismatches, 0, "misattributed tenant");
        // The overloader (4× its share) must be shed hard...
        assert!(
            fair.shed[0] > fair.issued[0] / 4,
            "overloader shed only {}/{}",
            fair.shed[0],
            fair.issued[0]
        );
        // ...while every well-behaved tenant keeps ≥90% goodput.
        assert!(
            fair.min_well_behaved_goodput >= 0.9,
            "fair-share goodput {}",
            fair.min_well_behaved_goodput
        );
        // Admission accounting reached the report.
        assert!(fair.report.admission_shed >= fair.shed.iter().sum::<u64>());
        assert!(!fair.report.tenants.is_empty(), "per-tenant report rows");
    }

    #[test]
    fn publish_driven_swaps_lose_nothing_under_load() {
        let obs = Obs::enabled();
        let cfg = LoadgenConfig {
            clients: 1,
            requests: 800,
            profile_pool: 64,
            seed: 29,
            proto: Proto::Binary,
            connections: 8,
            inflight: 16,
            swaps: 2,
            swap_gap_ms: 5,
            publish: true,
            ..LoadgenConfig::default()
        };
        let out = run(&cfg, &obs);
        let bin = out.binary.as_ref().expect("binary phase ran");
        assert_eq!(out.swap_count(), 2, "both publishes landed");
        assert_eq!(out.lost(), 0, "lost across publish swaps");
        assert_eq!(out.divergent(), 0, "divergent across publish swaps");
        // The swaps travelled the wire control frame, not swap_registry.
        assert_eq!(bin.report.publishes, 2);
        assert_eq!(bin.report.swaps, 2);
    }

    #[test]
    fn synth_results_is_deterministic() {
        let a = synth_results("x", 20, 5, 3, 42);
        let b = synth_results("x", 20, 5, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.rows.len(), 5);
        for row in &a.rows {
            assert_eq!(row.genes.len(), 3);
        }
    }
}
