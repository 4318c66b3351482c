//! `scan_exhaustive_h3`: one unpruned, unkernelized, frontier-less argmax
//! scan over the first genes of the `brca_h3` cohort. The set-up body loads
//! the whole MAF and keeps the gene prefix; the timed body is the scan.

use super::{check_golden, check_reps_agree, picks, Opts, Verdict, Workload, ORACLE_GENES};
use crate::inputs::{self, MafInput};
use crate::measure::wall_s;
use crate::metrics::Layers;
use crate::oracle;
use crate::probes;
use crate::trace::{total_s, Span, Tracer};
use multihit_core::bitmat::BitMatrix;
use multihit_core::combin::binomial;
use multihit_core::greedy::{self, GreedyConfig};
use multihit_core::weight::Scored;
use multihit_data::CancerType;

/// Exhaustive: no pruning, no frontier, no kernelization, one thread.
fn engine_cfg() -> GreedyConfig {
    GreedyConfig {
        prune: false,
        frontier_k: 0,
        kernelize: false,
        parallel: false,
        ..GreedyConfig::default()
    }
}

pub struct ScanExhaustive {
    opts: Opts,
    input: MafInput,
    /// Genes scanned: the first this many rows of the loaded matrices.
    genes: usize,
    oracle: (BitMatrix, BitMatrix),
}

impl ScanExhaustive {
    pub fn new(opts: Opts) -> Self {
        let (loaded, genes) = if opts.quick { (400, 100) } else { (8000, 640) };
        let cohort = inputs::cohort(CancerType::Brca.spec(inputs::COHORT_SEED), loaded);
        let all: Vec<u32> = (0..loaded as u32).collect();
        let focus = inputs::focus_genes(&cohort, ORACLE_GENES);
        ScanExhaustive {
            opts,
            input: inputs::maf_input(&cohort, &all, 1, opts.seed),
            genes,
            oracle: (
                cohort.tumor.select_rows(&focus),
                cohort.normal.select_rows(&focus),
            ),
        }
    }

    fn combos(&self) -> u64 {
        binomial(self.genes as u64, 3)
    }
}

impl Workload for ScanExhaustive {
    type Ready = (BitMatrix, BitMatrix);
    type Output = Scored<3>;

    fn name(&self) -> &'static str {
        "scan_exhaustive_h3"
    }

    fn setup(&self, tr: &mut Tracer) -> Self::Ready {
        let (tumor, normal) = inputs::load(tr, &self.input);
        let prefix: Vec<u32> = (0..self.genes as u32).collect();
        tr.span("bitmat.select_rows", |_| {
            (tumor.select_rows(&prefix), normal.select_rows(&prefix))
        })
    }

    fn timed(&self, tr: &mut Tracer, (tumor, normal): &mut Self::Ready) -> Scored<3> {
        tr.span("greedy.best_combination_stats", |tr| {
            tr.count("combos", self.combos());
            greedy::best_combination_stats::<3>(tumor, normal, None, &engine_cfg()).0
        })
    }

    fn check(&self, outputs: &[Scored<3>], (tumor, normal): &Self::Ready, v: &mut Verdict) {
        let panels: Vec<_> = outputs
            .iter()
            .map(|&best| picks(std::iter::once(best)))
            .collect();
        check_reps_agree(&panels, v);
        v.failed += oracle::replay(tumor, normal, &panels[0]).0 as u64;
        check_golden(self.name(), &panels[0], &self.opts, v);

        let (sub_t, sub_n) = &self.oracle;
        let engine = picks(std::iter::once(
            greedy::best_combination_stats::<3>(sub_t, sub_n, None, &engine_cfg()).0,
        ));
        let brute = oracle::brute_greedy(sub_t, sub_n, 3, 1);
        v.require(engine == brute, || {
            format!("scan_exhaustive_h3: on the sub-cohort the engine picks {engine:?}, brute force {brute:?}")
        });
    }

    fn layers(
        &self,
        (traced, (tumor, normal)): (&Scored<3>, &Self::Ready),
        spans: &[Span],
        l: &mut Layers,
        v: &mut Verdict,
    ) {
        probes::kernel(l);
        inputs::load_layers(l, spans, &self.input);
        l.set(
            "bitmat.packed_mb",
            probes::mib(tumor.packed_bytes() + normal.packed_bytes()),
        );

        let combos = self.combos() as f64;
        let ns_per_combo = total_s(spans, "greedy.best_combination_stats") * 1e9 / combos;
        l.set("greedy.exh_ns_per_combo", ns_per_combo);
        // Computed, not counted: the innermost level reads one tumour row
        // and one normal row per combination; cache misses are not in it.
        let words = (tumor.words_per_row() + normal.words_per_row()) as f64;
        l.set("greedy.exh_words_per_ns", words / ns_per_combo);
        l.set(
            "greedy.exh_ceiling_frac",
            words / ns_per_combo / l.get("host.and_popcount_words_per_ns"),
        );
        let stepping = GreedyConfig {
            block_sweep: false,
            ..engine_cfg()
        };
        let (noblock_s, (best, _)) =
            wall_s(|| greedy::best_combination_stats::<3>(tumor, normal, None, &stepping));
        l.set("greedy.exh_noblock_ns_per_combo", noblock_s * 1e9 / combos);
        v.require(best == *traced, || {
            "scan_exhaustive_h3: stepping and sweeping disagree".to_string()
        });
    }
}
