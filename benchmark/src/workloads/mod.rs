//! The six workloads and the run rule they share.
//!
//! One process per workload. The process runs repetitions until its
//! measuring time is used up; each is *set-up body, then timed body* on
//! inputs generated beforehand. Each body's time is converted to the
//! reference host speed with the speed the samplers of [`crate::speed`] read
//! while it ran; the kernel's peak-RSS mark is reset when a repetition starts
//! and read when its timed body ends. `setup_s`, `wall_s` and `cpu_s` are
//! each the first quartile over the repetitions: what the samplers do not
//! see of the host's interference only adds time, so a low quantile repeats
//! better than the median, and the conversion's own error, which has both
//! signs, makes the minimum repeat worse. `peak_rss_mb` is the highest mark of
//! any repetition after the first: what `VmHWM` would read at exit, without
//! the harness's input generation and the heap it leaves the first
//! repetition. Where two rank threads or client and shard race, a
//! repetition's mark depends on how they interleaved (on `cluster_acc_h4`
//! between 74 and 83 MiB, by whether one rank's results are freed before the
//! other's are complete); the highest of several is what the workload needs
//! when they overlap, and repeats where a mean or a median does not.

pub mod cluster;
pub mod discover;
pub mod scan;
pub mod serve;

use crate::metrics::{self, Layers};
use crate::oracle::Pick;
use crate::speed::{Samplers, Watched};
use crate::trace::{self, Span, Tracer};
use crate::{affinity, golden, measure, procstat, stats};
use multihit_core::weight::Scored;
use std::path::Path;
use std::time::Instant;

/// Genes in the sub-cohort each engine is checked on against brute force:
/// every planted driver gene plus the lowest-numbered others.
pub const ORACLE_GENES: usize = 160;

/// Command-line options a workload's inputs and sizes depend on.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Record order of the MAF texts, silent records, request draws.
    pub seed: u64,
    /// Measuring time: repetitions start until this much has passed.
    pub seconds: u64,
    /// Tiny sizes, one repetition, every check: the smoke run.
    pub quick: bool,
}

/// What the output checks found. An operation is one greedy iteration, one
/// scan, or one request.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that are not a single operation's (oracle, digest, …).
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

pub trait Workload {
    /// What the set-up body hands to the timed body.
    type Ready;
    /// What the timed body produces; checked outside the timers.
    type Output;

    fn name(&self) -> &'static str;
    /// CPUs the two bodies get: the last this many the process may use.
    fn cpus(&self) -> usize {
        1
    }
    fn setup(&self, tr: &mut Tracer) -> Self::Ready;
    fn timed(&self, tr: &mut Tracer, ready: &mut Self::Ready) -> Self::Output;
    /// Untimed tear-down, for what the checks need and `timed` left undone.
    fn finish(&self, _ready: &mut Self::Ready, _out: &mut Self::Output) {}
    /// `first` is what the first repetition's set-up body built.
    fn check(&self, outputs: &[Self::Output], first: &Self::Ready, verdict: &mut Verdict);
    /// Per-layer numbers: from the traced repetition's spans, and from timing
    /// further calls into the layers this workload runs through.
    fn layers(
        &self,
        traced: (&Self::Output, &Self::Ready),
        spans: &[Span],
        l: &mut Layers,
        v: &mut Verdict,
    );
}

/// One body of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Body {
    /// Seconds as the clocks read them; the samplers' CPU time is taken off.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub host: Watched,
}

impl Body {
    /// Wall and CPU seconds converted to the reference speed.
    pub fn at_reference_speed(&self) -> (f64, f64) {
        (self.wall_s * self.host.speed, self.cpu_s * self.host.speed)
    }
}

/// One repetition: set-up body, then timed body.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub setup: Body,
    pub timed: Body,
    /// High-water mark of the resident set over both bodies, MiB.
    pub peak_rss_mb: f64,
}

/// Restrict the calling thread to the last `n` CPUs the process may use and
/// start a host-speed sampler on each of them.
fn take_cpus(n: usize) -> Samplers {
    let allowed = affinity::allowed();
    let cpus = &allowed[allowed.len().saturating_sub(n)..];
    if affinity::pin(cpus) {
        Samplers::start(cpus)
    } else {
        eprintln!("the kernel refused the CPU placement: times are as clocked");
        Samplers::start(&[])
    }
}

/// Run one body: its clocked times and the host speed meanwhile.
fn body<T>(samplers: &Samplers, f: impl FnOnce() -> T) -> (Body, T) {
    let ((wall_s, cpu_s, out), host) = samplers.watch(|| measure::timed(f));
    let body = Body {
        wall_s,
        cpu_s: cpu_s - host.sampler_cpu_s,
        host,
    };
    (body, out)
}

/// One repetition: its measurements, what the timed body produced and what
/// the set-up body built.
fn repetition<W: Workload>(
    w: &W,
    samplers: &Samplers,
    tr: &mut Tracer,
) -> (Rep, W::Output, W::Ready) {
    tr.span("rep", |tr| {
        if !procstat::reset_peak_rss() {
            eprintln!("/proc/self/clear_refs refused: peak_rss_mb is the process-wide mark");
        }
        let (setup, mut ready) = body(samplers, || tr.span("setup", |tr| w.setup(tr)));
        let (timed, mut out) = body(samplers, || tr.span("timed", |tr| w.timed(tr, &mut ready)));
        let peak_rss_mb = procstat::peak_rss_mib();
        w.finish(&mut ready, &mut out);
        let rep = Rep {
            setup,
            timed,
            peak_rss_mb,
        };
        (rep, out, ready)
    })
}

/// Every repetition on standard error, as clocked, with the host speeds the
/// samplers read during each body.
fn describe(name: &str, reps: &[Rep]) {
    for (i, r) in reps.iter().enumerate() {
        let body = |b: &Body| {
            format!(
                "wall {:.5} cpu {:.5} host_speed {:.4} samples {}",
                b.wall_s, b.cpu_s, b.host.speed, b.host.samples
            )
        };
        eprintln!(
            "{name}: rep {i}: setup [{}] timed [{}] peak_rss_mb {:.2}",
            body(&r.setup),
            body(&r.timed),
            r.peak_rss_mb
        );
    }
}

/// Repetitions until `more` says stop; the outputs of all, and what the
/// first one's set-up body built (the others' is dropped, so that memory does
/// not creep).
fn repetitions<W: Workload>(
    w: &W,
    samplers: &Samplers,
    tr: &mut Tracer,
    more: impl Fn(usize) -> bool,
) -> (Vec<Rep>, Vec<W::Output>, W::Ready) {
    let (mut reps, mut outputs, mut first) = (Vec::new(), Vec::new(), None);
    while reps.is_empty() || more(reps.len()) {
        let (rep, out, ready) = repetition(w, samplers, tr);
        reps.push(rep);
        outputs.push(out);
        first.get_or_insert(ready);
    }
    (reps, outputs, first.expect("one repetition at least"))
}

/// Fewest repetitions of a full-size run, so that a quartile means something.
const MIN_REPS: usize = 3;

fn column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The untraced run: the end-to-end metrics.
pub fn run_end_to_end<W: Workload>(w: &W, opts: &Opts) -> (Verdict, Vec<String>) {
    let samplers = take_cpus(w.cpus());
    let mut tr = Tracer::new(false);
    // Work is fixed per repetition; the run takes as many as fit in the
    // measuring time it was given.
    let clock = Instant::now();
    let more = |done| !opts.quick && (done < MIN_REPS || clock.elapsed().as_secs() < opts.seconds);
    let (reps, outputs, first) = repetitions(w, &samplers, &mut tr, more);
    drop(samplers);
    describe(w.name(), &reps);
    let mut verdict = Verdict::default();
    w.check(&outputs, &first, &mut verdict);
    // The first repetition's heap is the one input generation left.
    let settled = &reps[usize::from(reps.len() > 1)..];
    let values = [
        stats::first_quartile(&column(&reps, |r| r.setup.at_reference_speed().0)),
        stats::first_quartile(&column(&reps, |r| r.timed.at_reference_speed().0)),
        stats::first_quartile(&column(&reps, |r| r.timed.at_reference_speed().1)),
        stats::max(&column(settled, |r| r.peak_rss_mb)),
    ];
    (verdict, metrics::end_to_end_json(values))
}

/// Untraced repetitions the traced one is compared with.
const REFERENCE_REPS: usize = 3;

/// Time under `setup` and `timed` that no layer span covers, against the
/// whole of both: what the harness's own glue cost.
fn ledger(spans: &[Span], l: &mut Layers) {
    let own = trace::self_times_ns(spans);
    let (mut whole, mut glue) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(own) {
        if matches!(s.name, "setup" | "timed") {
            whole += s.dur_ns();
            glue += own_ns;
        }
    }
    l.set("ledger.whole_s", whole as f64 / 1e9);
    l.set("ledger.parts_sum_s", (whole - glue) as f64 / 1e9);
    l.set("ledger.unattributed_frac", glue as f64 / whole as f64);
}

/// The traced run: a few untraced repetitions for reference, one repetition
/// with spans around every layer call, then the workload's layer probes.
pub fn run_traced<W: Workload>(w: &W, opts: &Opts, out_dir: &Path) -> (Verdict, Vec<String>) {
    let allowed = affinity::allowed();
    let samplers = take_cpus(w.cpus());
    let mut off = Tracer::new(false);
    let n_ref = if opts.quick { 1 } else { REFERENCE_REPS };
    let (reps, mut outputs, first) = repetitions(w, &samplers, &mut off, |done| done < n_ref);
    describe(w.name(), &reps);
    let mut tr = Tracer::new(true);
    let (traced_rep, traced_out, traced_ready) = repetition(w, &samplers, &mut tr);
    outputs.push(traced_out);
    // The layer probes below place their own threads.
    drop(samplers);
    affinity::pin(&allowed);

    let mut verdict = Verdict::default();
    w.check(&outputs, &first, &mut verdict);
    drop(first);

    let mut l = Layers::default();
    let walls = column(&reps, |r| r.timed.at_reference_speed().0);
    l.set("noise.rep_spread", stats::rep_spread(&walls));
    l.set(
        "noise.host_speed",
        stats::median(&column(&reps, |r| r.timed.host.speed)),
    );
    l.set(
        "trace.overhead_frac",
        traced_rep.timed.at_reference_speed().0 / stats::median(&walls) - 1.0,
    );
    l.set("trace.spans", tr.spans().len() as f64);
    ledger(tr.spans(), &mut l);
    crate::probes::host(&mut l);
    let traced_out = outputs.last().expect("the traced repetition's output");
    w.layers(
        (traced_out, &traced_ready),
        tr.spans(),
        &mut l,
        &mut verdict,
    );

    let path = out_dir.join(format!("trace_{}.jsonl", w.name()));
    let text = trace::to_json_lines(tr.spans(), w.name());
    let written = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text));
    verdict.require(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
    (verdict, metrics::per_layer_json(&l))
}

/// An engine result as the harness's own [`Pick`] rows.
pub fn picks<const H: usize>(best: impl Iterator<Item = Scored<H>>) -> Vec<Pick> {
    best.map(|b| Pick {
        genes: b.genes.to_vec(),
        tp: b.tp,
        tn: b.tn,
    })
    .collect()
}

/// Count repetitions' picks as attempted operations and the ones that differ
/// from the first repetition's as failed.
pub fn check_reps_agree(panels: &[Vec<Pick>], verdict: &mut Verdict) {
    let first = &panels[0];
    for panel in panels {
        verdict.attempted += panel.len() as u64;
        let same = panel.iter().zip(first).filter(|(a, b)| a == b).count();
        verdict.failed += (panel.len().max(first.len()) - same) as u64;
    }
}

/// At full size the panel must equal the committed digest. A failure prints
/// the panel in the digest's format, which is how a digest is refreshed after
/// an intended change.
pub fn check_golden(name: &str, panel: &[Pick], opts: &Opts, verdict: &mut Verdict) {
    if opts.quick {
        return;
    }
    let text = golden::to_text(panel);
    verdict.require(golden::committed(name) == Some(text.as_str()), || {
        format!("{name}: panel differs from benchmark/golden/{name}.tsv:\n{text}")
    });
}
