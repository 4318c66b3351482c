//! `serve_hit` and `serve_miss`: one closed-loop in-process client in front
//! of one shard, metrics on (as `multihit loadgen` runs the server). The
//! set-up body is everything a user pays before the first useful answer —
//! discover the panel, write and compile it, start the server, pack the
//! request pool, warm up; the timed body answers a fixed number of seeded
//! draws from the pool in windows of 4096.

use super::{Opts, Verdict, Workload};
use crate::inputs::{self, Rng};
use crate::measure::ns_per_call;
use crate::metrics::Layers;
use crate::trace::{total_s, Span, Tracer};
use multihit_core::bitmat::BitMatrix;
use multihit_core::greedy::{self, GreedyConfig};
use multihit_core::obs::{Obs, ServeReport};
use multihit_data::results::ResultsFile;
use multihit_data::synth::{self, Cohort};
use multihit_data::CancerType;
use multihit_serve::cache::LruCache;
use multihit_serve::frame::{self, FrameDecoder};
use multihit_serve::protocol::{Request, Status};
use multihit_serve::queue::BoundedQueue;
use multihit_serve::registry::{ModelRegistry, Panel};
use multihit_serve::server::{InProcClient, ServeConfig, Server};
use std::hint::black_box;
use std::sync::Arc;

const MODEL: &str = "serve";
const WINDOW: usize = 4096;
const CACHE_CAP: usize = 4096;
/// Words of raw profile bits generated per synthetic request: room for a
/// panel universe of up to 256 genes.
const MAX_SIG_WORDS: usize = 4;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        shards: 1,
        batch_max: 64,
        queue_cap: 2 * WINDOW,
        cache_cap: CACHE_CAP,
        ..ServeConfig::default()
    }
}

/// The request pool as generated, before the panel it is packed against
/// exists.
enum Pool {
    /// The cohort's own samples, each a list of mutated gene symbols.
    Samples(Vec<Vec<String>>),
    /// Synthetic profiles: [`MAX_SIG_WORDS`] words each, every bit set with
    /// probability 0.25, to be cut to the panel's signature width.
    Profiles(Vec<u64>),
}

pub struct Serve {
    name: &'static str,
    opts: Opts,
    cohort: Cohort,
    names: Vec<String>,
    pool: Pool,
    warmup: Vec<u32>,
    draws: Vec<u32>,
}

pub struct Ready {
    /// The server and its client, until `finish` shuts them down.
    live: Option<(Arc<Server>, InProcClient)>,
    panel: Arc<Panel>,
    version: u64,
    /// Packed signatures, `sig_words` words each.
    sigs: Vec<u64>,
    sig_words: usize,
}

#[derive(Default)]
pub struct Output {
    /// Per request: the verdict (0/1), or why there is none.
    answers: Vec<u8>,
    requests: u64,
    /// Answers that differ from `Panel::classify_signature`, or are missing.
    failed: u64,
    report: ServeReport,
}

const LOST: u8 = 2;
const SHED: u8 = 3;
const ERROR: u8 = 4;

fn sample_genes<'a>(
    m: &'a BitMatrix,
    names: &'a [String],
) -> impl Iterator<Item = Vec<String>> + 'a {
    (0..m.n_samples()).map(|s| {
        (0..m.n_genes())
            .filter(|&g| m.get(g, s))
            .map(|g| names[g].clone())
            .collect()
    })
}

fn draw(rng: &mut Rng, n: usize, pool: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(pool) as u32).collect()
}

impl Serve {
    fn new(
        name: &'static str,
        opts: Opts,
        pool_of: impl FnOnce(&Cohort, &[String], &mut Rng) -> Pool,
        (warmup, requests): (usize, usize),
    ) -> Self {
        let genes = if opts.quick { 300 } else { 2000 };
        let cohort = inputs::cohort(CancerType::Brca.spec(inputs::COHORT_SEED), genes);
        let names = synth::gene_symbols(&cohort);
        let mut rng = Rng::new(opts.seed);
        let pool = pool_of(&cohort, &names, &mut rng);
        let size = match &pool {
            Pool::Samples(s) => s.len(),
            Pool::Profiles(words) => words.len() / MAX_SIG_WORDS,
        };
        let scale = if opts.quick { 50 } else { 1 };
        Serve {
            name,
            opts,
            warmup: draw(&mut rng, warmup / scale, size),
            draws: draw(&mut rng, requests / scale, size),
            cohort,
            names,
            pool,
        }
    }

    /// 1,240 distinct requests at most against a cache of 4096: after the
    /// warm-up every answer is a cache read.
    pub fn hit(opts: Opts) -> Self {
        let pool = |c: &Cohort, names: &[String], _: &mut Rng| {
            Pool::Samples(
                sample_genes(&c.tumor, names)
                    .chain(sample_genes(&c.normal, names))
                    .collect(),
            )
        };
        Serve::new("serve_hit", opts, pool, (100_000, 1_000_000))
    }

    /// 200,000 distinct requests against a cache of 4096: nearly every
    /// answer is scored, inserted, and evicts an older one.
    pub fn miss(opts: Opts) -> Self {
        let profiles = if opts.quick { 20_000 } else { 200_000 };
        let pool = move |_: &Cohort, _: &[String], rng: &mut Rng| {
            Pool::Profiles(
                (0..profiles * MAX_SIG_WORDS)
                    .map(|_| rng.next_u64() & rng.next_u64())
                    .collect(),
            )
        };
        Serve::new("serve_miss", opts, pool, (100_000, 150_000))
    }

    /// Send `draws` through the client in windows; record each answer.
    fn answer(&self, tr: &mut Tracer, ready: &Ready, draws: &[u32], answers: &mut Vec<u8>) {
        let w = ready.sig_words;
        let (_, client) = ready.live.as_ref().expect("the server runs until finish");
        for window in draws.chunks(WINDOW) {
            let sigs: Vec<&[u64]> = window
                .iter()
                .map(|&i| &ready.sigs[i as usize * w..(i as usize + 1) * w])
                .collect();
            let replies = tr.span("server.classify_packed_window", |_| {
                client.classify_packed_window(ready.version, ready.panel.id, &sigs)
            });
            answers.extend(replies.iter().map(|r| match r {
                None => LOST,
                Some(r) if r.status == Status::Shed => SHED,
                Some(r) if r.status == Status::Error => ERROR,
                Some(r) => u8::from(r.tumor),
            }));
        }
    }
}

impl Workload for Serve {
    type Ready = Ready;
    type Output = Output;

    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&self, tr: &mut Tracer) -> Ready {
        let cfg = GreedyConfig {
            kernelize: true,
            parallel: false,
            ..GreedyConfig::default()
        };
        let run = tr.span("greedy.discover", |_| {
            greedy::discover::<3>(&self.cohort.tumor, &self.cohort.normal, &cfg)
        });
        let tsv = tr.span("results.to_tsv", |_| {
            ResultsFile::from_run(MODEL, &run, &self.names).to_tsv()
        });
        let registry = tr.span("registry.from_tsv_texts", |_| {
            ModelRegistry::from_tsv_texts(&[tsv]).expect("a discovered panel compiles")
        });
        let panel = registry.get(MODEL).expect("the panel just compiled");
        let server = tr.span("server.start", |_| {
            Server::start(registry, serve_cfg(), &Obs::enabled())
        });
        let sig_words = panel.signature_words();
        let sigs = tr.span("registry.signature", |_| match &self.pool {
            Pool::Samples(samples) => samples
                .iter()
                .flat_map(|genes| panel.signature(genes))
                .collect(),
            Pool::Profiles(raw) => {
                assert!(
                    sig_words <= MAX_SIG_WORDS,
                    "panel universe of {} genes",
                    panel.n_genes()
                );
                let tail = u64::MAX >> ((64 - panel.n_genes() % 64) % 64);
                let mut sigs = Vec::with_capacity(raw.len() / MAX_SIG_WORDS * sig_words);
                for profile in raw.chunks(MAX_SIG_WORDS) {
                    sigs.extend_from_slice(&profile[..sig_words - 1]);
                    sigs.push(profile[sig_words - 1] & tail);
                }
                sigs
            }
        });
        let client = InProcClient::new(Arc::clone(&server));
        let ready = Ready {
            version: client.window_version(),
            live: Some((server, client)),
            panel,
            sigs,
            sig_words,
        };
        let mut warm = Vec::with_capacity(self.warmup.len());
        tr.span("warmup", |tr| {
            self.answer(tr, &ready, &self.warmup, &mut warm)
        });
        ready
    }

    fn timed(&self, tr: &mut Tracer, ready: &mut Ready) -> Output {
        let mut answers = Vec::with_capacity(self.draws.len());
        self.answer(tr, ready, &self.draws, &mut answers);
        Output {
            answers,
            ..Output::default()
        }
    }

    fn finish(&self, ready: &mut Ready, out: &mut Output) {
        // Shut down and dropped here, so that the first repetition's server
        // is not kept while the others run.
        let (server, client) = ready.live.take().expect("finish runs once");
        drop(client);
        out.report = server.shutdown();
        drop(server);
        let w = ready.sig_words;
        let expected: Vec<u8> = ready
            .sigs
            .chunks(w)
            .map(|sig| u8::from(ready.panel.classify_signature(sig)))
            .collect();
        out.requests = out.answers.len() as u64;
        out.failed = self
            .draws
            .iter()
            .zip(&out.answers)
            .filter(|(&i, &a)| expected[i as usize] != a)
            .count() as u64;
        let count = |what: u8| out.answers.iter().filter(|&&a| a == what).count();
        if out.failed > 0 {
            eprintln!(
                "{}: {} wrong of {}: {} lost, {} shed, {} errors",
                self.name,
                out.failed,
                out.requests,
                count(LOST),
                count(SHED),
                count(ERROR)
            );
        }
        out.answers = Vec::new();
        // One signature is all the layer probes need.
        ready.sigs.truncate(w);
        ready.sigs.shrink_to_fit();
    }

    fn check(&self, outputs: &[Output], _: &Ready, v: &mut Verdict) {
        for o in outputs {
            v.attempted += o.requests;
            v.failed += o.failed;
            v.require(o.requests == self.draws.len() as u64, || {
                format!(
                    "{}: {} answers to {} requests",
                    self.name,
                    o.requests,
                    self.draws.len()
                )
            });
            v.require(o.report.shed == 0 && o.report.errors == 0, || {
                format!(
                    "{}: the server shed {} and failed {}",
                    self.name, o.report.shed, o.report.errors
                )
            });
            if !self.opts.quick {
                let hit = o.report.cache_hit_rate();
                let ok = if matches!(self.pool, Pool::Samples(_)) {
                    hit >= 0.99
                } else {
                    hit <= 0.10
                };
                v.require(ok, || format!("{}: cache hit rate {hit:.4}", self.name));
            }
        }
    }

    fn layers(
        &self,
        (traced, ready): (&Output, &Ready),
        spans: &[Span],
        l: &mut Layers,
        _: &mut Verdict,
    ) {
        let panel = &ready.panel;
        let sig = &ready.sigs;
        l.set(
            "registry.compile_s",
            total_s(spans, "registry.from_tsv_texts"),
        );
        l.set("registry.sig_words", panel.signature_words() as f64);
        l.set(
            "registry.panel_combos",
            panel.classifier.combinations.len() as f64,
        );
        let genes: Vec<String> = sample_genes(&self.cohort.tumor, &self.names)
            .next()
            .expect("a tumour sample");
        l.set(
            "registry.signature_ns",
            ns_per_call(5, 20_000, |_| panel.signature(&genes)),
        );
        l.set(
            "registry.classify_ns",
            ns_per_call(5, 200_000, |_| panel.classify_signature(black_box(sig))),
        );

        // The cache driven directly at the server's capacity and key shape
        // (generation, panel, signature): reads of resident keys, then
        // inserts that each evict the oldest entry.
        let key = |i: usize| (1u64, 0u32, vec![i as u64; sig.len()]);
        let mut cache: LruCache<(u64, u32, Vec<u64>), bool> = LruCache::new(CACHE_CAP);
        (0..CACHE_CAP).for_each(|i| cache.insert(key(i), i % 2 == 0));
        let keys: Vec<_> = (0..CACHE_CAP).map(key).collect();
        l.set(
            "cache.hit_ns",
            ns_per_call(5, 200_000, |i| cache.get(&keys[i * 7 % CACHE_CAP])),
        );
        let mut next = CACHE_CAP;
        let insert_ns = ns_per_call(5, 100_000, |_| {
            next += 1;
            cache.insert(key(next), true);
        });
        l.set("cache.insert_evict_ns", insert_ns);

        // The shard queue: a batch of 64 pushed, then popped as one batch.
        let queue: BoundedQueue<u64> = BoundedQueue::new(2 * WINDOW);
        let batch_ns = ns_per_call(5, 5_000, |i| {
            for j in 0..64 {
                queue.try_push((i + j) as u64).expect("queue has room");
            }
            queue.pop_batch(64)
        });
        l.set("queue.push_pop_ns", batch_ns / 64.0);

        let timed_s = spans
            .iter()
            .find(|s| s.name == "timed")
            .expect("a timed span")
            .dur_ns() as f64
            / 1e9;
        let requests = traced.requests as f64;
        let ns_per_req = timed_s * 1e9 / requests;
        l.set("server.req_per_s", requests / timed_s);
        l.set("server.ns_per_req", ns_per_req);
        l.set(
            "server.overhead_x",
            ns_per_req / (l.get("registry.classify_ns") + l.get("cache.hit_ns")),
        );
        let r = &traced.report;
        l.set("server.hit_frac", r.cache_hit_rate());
        l.set("server.mean_batch_fill", r.mean_batch_fill());
        l.set("server.batches", r.batches as f64);
        l.set("server.max_queue_depth", r.max_queue_depth as f64);
        l.set("server.p50_us", r.p50_latency_ns as f64 / 1e3);
        l.set("server.p99_us", r.p99_latency_ns as f64 / 1e3);

        // The wire codecs. No end-to-end metric here goes over TCP; these
        // are recorded so the in-process/TCP gap can be attributed later.
        let mut buf = Vec::with_capacity(256);
        let encode_ns = ns_per_call(5, 200_000, |i| {
            buf.clear();
            frame::encode_request(&mut buf, i as u64, 1, 0, 0, sig);
            buf.len()
        });
        l.set("frame.encode_ns", encode_ns);
        l.set("frame.bytes_per_req", buf.len() as f64);
        let mut decoder = FrameDecoder::new();
        let decode_ns = ns_per_call(5, 200_000, |_| {
            decoder.push(&buf);
            decoder.next().expect("a well-formed frame")
        });
        l.set("frame.decode_ns", decode_ns);
        let request = Request {
            id: 1,
            model: MODEL.to_string(),
            genes,
            tenant: 0,
        };
        let json = request.to_json();
        l.set(
            "protocol.json_encode_ns",
            ns_per_call(5, 20_000, |_| request.to_json()),
        );
        l.set(
            "protocol.json_decode_ns",
            ns_per_call(5, 20_000, |_| Request::from_json(black_box(&json))),
        );
    }
}
