//! `brca_h3` and `luad_h4`: paper-shaped time to solution. The set-up body is
//! the load path (`parse_maf` + `summarize` of both MAF texts), the timed
//! body one kernelized, single-threaded `discover::<H>` to full cover.

use super::{check_golden, check_reps_agree, picks, Opts, Verdict, Workload, ORACLE_GENES};
use crate::inputs::{self, MafInput};
use crate::measure::wall_s;
use crate::metrics::Layers;
use crate::oracle::{self, Pick};
use crate::probes;
use crate::trace::{total_s, Span, Tracer};
use multihit_core::bitmat::{BitMatrix, SkipIndex};
use multihit_core::greedy::{self, GreedyConfig, GreedyResult, SparseMode};
use multihit_core::kernelize;
use multihit_data::synth::CohortSpec;
use multihit_data::CancerType;

/// The engine configuration of both workloads.
fn engine_cfg() -> GreedyConfig {
    GreedyConfig {
        kernelize: true,
        parallel: false,
        ..GreedyConfig::default()
    }
}

pub struct Discover<const H: usize> {
    name: &'static str,
    opts: Opts,
    input: MafInput,
    /// Sub-cohort for the brute-force comparison.
    oracle: (BitMatrix, BitMatrix),
    /// Greedy iterations compared with brute force (0 = all of them).
    oracle_picks: usize,
    /// The paper-scale single run of the traced run: metric and cohort.
    ladder: (&'static str, CohortSpec),
}

impl Discover<3> {
    /// BRCA shape: 911 tumours / 329 normals, 15 + 6 words a row.
    pub fn brca_h3(opts: Opts) -> Self {
        let spec = CancerType::Brca.spec(inputs::COHORT_SEED);
        let genes = if opts.quick { 400 } else { 8000 };
        Discover::new(
            "brca_h3",
            opts,
            spec,
            genes,
            0,
            "ladder.brca_h3_g19411_wall_s",
        )
    }
}

impl Discover<4> {
    /// LUAD shape: 561 tumours / 329 normals, 9 + 6 words a row.
    pub fn luad_h4(opts: Opts) -> Self {
        let spec = CancerType::Luad.spec(inputs::COHORT_SEED);
        let genes = if opts.quick { 200 } else { 12000 };
        // Brute force over C(160,4) costs ~0.4 s a pick: compare three.
        Discover::new(
            "luad_h4",
            opts,
            spec,
            genes,
            3,
            "ladder.luad_h4_g18012_wall_s",
        )
    }
}

impl<const H: usize> Discover<H> {
    fn new(
        name: &'static str,
        opts: Opts,
        spec: CohortSpec,
        genes: usize,
        oracle_picks: usize,
        ladder_metric: &'static str,
    ) -> Self {
        let cohort = inputs::cohort(spec, genes);
        let all: Vec<u32> = (0..genes as u32).collect();
        let focus = inputs::focus_genes(&cohort, ORACLE_GENES);
        Discover {
            name,
            opts,
            input: inputs::maf_input(&cohort, &all, 1, opts.seed),
            oracle: (
                cohort.tumor.select_rows(&focus),
                cohort.normal.select_rows(&focus),
            ),
            oracle_picks,
            ladder: (ladder_metric, spec),
        }
    }

    fn panel(result: &GreedyResult<H>) -> Vec<Pick> {
        picks(result.iterations.iter().map(|it| it.best))
    }
}

impl<const H: usize> Workload for Discover<H> {
    type Ready = (BitMatrix, BitMatrix);
    type Output = GreedyResult<H>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn setup(&self, tr: &mut Tracer) -> Self::Ready {
        inputs::load(tr, &self.input)
    }

    fn timed(&self, tr: &mut Tracer, (tumor, normal): &mut Self::Ready) -> GreedyResult<H> {
        if tr.enabled() {
            // `discover` with `kernelize: true` is these three public calls;
            // made one by one so that each gets its span.
            let (red_t, red_n, cert) = tr.span("kernelize.kernelize", |_| {
                kernelize::kernelize(tumor, normal, H)
            });
            let inner = GreedyConfig {
                kernelize: false,
                ..engine_cfg()
            };
            let reduced = tr.span("greedy.discover", |tr| {
                let r = greedy::discover::<H>(&red_t, &red_n, &inner);
                tr.count("iterations", r.iterations.len() as u64);
                r
            });
            tr.span("kernelize.unmap_result", |_| {
                cert.unmap_result(reduced, inner.alpha)
            })
        } else {
            greedy::discover::<H>(tumor, normal, &engine_cfg())
        }
    }

    fn check(&self, outputs: &[GreedyResult<H>], (tumor, normal): &Self::Ready, v: &mut Verdict) {
        let panels: Vec<Vec<Pick>> = outputs.iter().map(Self::panel).collect();
        check_reps_agree(&panels, v);
        let (wrong, uncovered) = oracle::replay(tumor, normal, &panels[0]);
        v.failed += wrong as u64;
        v.require(uncovered == outputs[0].uncovered, || {
            format!(
                "{}: replay leaves {uncovered} tumours uncovered, the engine reports {}",
                self.name, outputs[0].uncovered
            )
        });
        check_golden(self.name, &panels[0], &self.opts, v);

        let (sub_t, sub_n) = &self.oracle;
        let capped = GreedyConfig {
            max_combinations: self.oracle_picks,
            ..engine_cfg()
        };
        let engine = Self::panel(&greedy::discover::<H>(sub_t, sub_n, &capped));
        let brute = oracle::brute_greedy(sub_t, sub_n, H, self.oracle_picks);
        v.require(engine == brute, || {
            format!(
                "{}: on the sub-cohort the engine picks {engine:?}, brute force {brute:?}",
                self.name
            )
        });
    }

    fn layers(
        &self,
        (traced, (tumor, normal)): (&GreedyResult<H>, &Self::Ready),
        spans: &[Span],
        l: &mut Layers,
        v: &mut Verdict,
    ) {
        probes::kernel(l);
        inputs::load_layers(l, spans, &self.input);
        l.set("kernelize.reduce_s", total_s(spans, "kernelize.kernelize"));
        l.set(
            "kernelize.unmap_s",
            total_s(spans, "kernelize.unmap_result"),
        );
        l.set("greedy.loop_s", total_s(spans, "greedy.discover"));
        l.set("greedy.iterations", traced.iterations.len() as f64);
        if !self.opts.quick {
            let unattributed = l.get("ledger.unattributed_frac");
            v.require(unattributed <= 0.05, || {
                format!(
                    "{}: {unattributed:.3} of the repetition is outside every layer span",
                    self.name
                )
            });
        }

        // The first iteration of the greedy loop, taken apart.
        let (red_t, red_n, cert) = kernelize::kernelize(tumor, normal, H);
        l.set("kernelize.genes_in", tumor.n_genes() as f64);
        l.set("kernelize.genes_kept", cert.kept_genes() as f64);
        l.set("kernelize.cert_bytes", cert.to_bytes().len() as f64);
        l.set(
            "bitmat.packed_mb",
            probes::mib(red_t.packed_bytes() + red_n.packed_bytes()),
        );
        let (skip_s, (ts, ns)) = wall_s(|| (SkipIndex::build(&red_t), SkipIndex::build(&red_n)));
        l.set("bitmat.skip_build_s", skip_s);
        l.set(
            "bitmat.zero_word_frac",
            (ts.zero_word_fraction() + ns.zero_word_fraction()) / 2.0,
        );

        let serial = GreedyConfig {
            kernelize: false,
            ..engine_cfg()
        };
        let first_scan = |cfg: &GreedyConfig| {
            wall_s(|| greedy::best_combination_frontier::<H>(&red_t, &red_n, None, cfg, 0))
        };
        let (scan_s, (best, stats, frontier)) = first_scan(&serial);
        l.set("greedy.first_scan_s", scan_s);
        l.set("greedy.first_scan_scored", stats.scored as f64);
        l.set("greedy.first_scan_pruned_frac", stats.pruned_fraction());
        l.set(
            "greedy.first_scan_words_skipped",
            stats.words_skipped as f64,
        );
        l.set("greedy.first_scan_block_sweeps", stats.block_sweeps as f64);
        let (argmax_s, (argmax, _)) =
            wall_s(|| greedy::best_combination_stats::<H>(&red_t, &red_n, None, &serial));
        l.set("greedy.argmax_scan_s", argmax_s);
        v.require(argmax == best, || {
            format!("{}: argmax scan and frontier scan disagree", self.name)
        });
        let with = |sparse| first_scan(&GreedyConfig { sparse, ..serial }).0;
        l.set(
            "greedy.sparse_on_vs_off_x",
            with(SparseMode::On) / with(SparseMode::Off),
        );
        let (par_s, _) = first_scan(&GreedyConfig {
            parallel: true,
            ..serial
        });
        l.set("greedy.par2_speedup", scan_s / par_s);

        // Splice the first winner out, as the loop does, and rescore the
        // frontier the first scan built.
        let cover = red_t.cover_mask(&best.genes);
        let keep: Vec<u64> = red_t
            .full_mask()
            .iter()
            .zip(&cover)
            .map(|(k, c)| k & !c)
            .collect();
        let (splice_s, spliced) = wall_s(|| red_t.splice_columns(&keep));
        l.set("bitmat.splice_s", splice_s);
        let (rescore_s, rescored) =
            wall_s(|| frontier.rescore(&spliced, &red_n, None, serial.alpha));
        l.set("frontier.rescore_s", rescore_s);
        l.set(
            "frontier.first_hit",
            f64::from(u8::from(frontier.is_hit(&rescored.best))),
        );

        if !self.opts.quick {
            // One run at the paper's full dimensions: too long to repeat and
            // too exposed to interference to gate, so a per-layer number only.
            let (metric, spec) = self.ladder;
            let full = inputs::cohort(spec, spec.n_genes);
            let (ladder_s, result) =
                wall_s(|| greedy::discover::<H>(&full.tumor, &full.normal, &engine_cfg()));
            l.set(metric, ladder_s);
            eprintln!(
                "{metric}: {} iterations, {} uncovered",
                result.iterations.len(),
                result.uncovered
            );
        }
    }
}
