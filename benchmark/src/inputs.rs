//! Inputs, all generated before any timer starts.
//!
//! The synthetic cohort of each workload is fixed ([`COHORT_SEED`]): which
//! genes are planted, who carries them, the passenger background. A pruned
//! search costs what its data make it cost — ten BRCA-shaped cohorts drawn
//! from ten seeds take 1.4–2.5 s on the same code — so the cohort is part of
//! the workload's definition, the way the paper has one BRCA cohort and not a
//! distribution of them. **`--seed`** draws what is arbitrary about a given
//! cohort on disk: the order of the MAF records (and with it the column each
//! sample lands in, since columns are assigned in first-seen order), which
//! silent records are mixed in, and the request stream. The search problem
//! stays isomorphic, so the work is the same and the selected panel must be
//! too.

use crate::metrics::Layers;
use crate::trace::{total_s, Span, Tracer};
use multihit_core::bitmat::BitMatrix;
use multihit_data::maf::{self, MafRecord};
use multihit_data::synth::{self, Cohort, CohortSpec};
use std::collections::HashMap;

/// Seed of every workload's synthetic cohort; the golden digests record the
/// panels of these cohorts.
pub const COHORT_SEED: u64 = 2021;

/// SplitMix64: small, seedable, and not the generator `synth` uses.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2⁻³² for the sizes here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Generate the cohort of `spec` with `n_genes` overridden.
pub fn cohort(spec: CohortSpec, n_genes: usize) -> Cohort {
    synth::generate(&CohortSpec { n_genes, ..spec })
}

/// `n` gene ids that keep the cohort's structure: every planted driver gene,
/// then the lowest-numbered other genes, sorted.
pub fn focus_genes(cohort: &Cohort, n: usize) -> Vec<u32> {
    let drivers = cohort.driver_genes();
    assert!(
        drivers.len() <= n,
        "{} driver genes do not fit in {n}",
        drivers.len()
    );
    let others = (0..cohort.spec.n_genes as u32).filter(|g| !drivers.contains(g));
    let mut genes: Vec<u32> = drivers.iter().copied().chain(others).take(n).collect();
    genes.sort_unstable();
    genes
}

/// A cohort as the load path receives it: two MAF texts and the reference
/// gene list rows are summarized against.
pub struct MafInput {
    pub tumor_text: String,
    pub normal_text: String,
    /// Symbol → row. Records of any other gene are skipped by `summarize`.
    pub gene_index: HashMap<String, usize>,
}

impl MafInput {
    pub fn bytes(&self) -> usize {
        self.tumor_text.len() + self.normal_text.len()
    }
}

/// `silent` silent records for every protein-altering one, drawn from the
/// same genes and samples: an unfiltered MAF carries at least as many records
/// `summarize` must skip as records it keeps.
fn maf_text(
    matrix: &BitMatrix,
    names: &[String],
    prefix: &str,
    silent: usize,
    rng: &mut Rng,
) -> String {
    let mut records = maf::matrix_to_records(matrix, names, prefix);
    for _ in 0..records.len() * silent {
        let like = &records[rng.below(records.len())];
        let silent = MafRecord {
            variant_classification: "Silent".to_string(),
            ..like.clone()
        };
        records.push(silent);
    }
    rng.shuffle(&mut records);
    maf::write_maf(&records)
}

/// MAF texts of `cohort` in the record order `seed` draws, `silent` silent
/// records for every real one, against the universe `universe` (gene ids of
/// the cohort; rows follow its order).
pub fn maf_input(cohort: &Cohort, universe: &[u32], silent: usize, seed: u64) -> MafInput {
    let all_names = synth::gene_symbols(cohort);
    let mut rng = Rng::new(seed);
    MafInput {
        tumor_text: maf_text(&cohort.tumor, &all_names, "TUMOR", silent, &mut rng),
        normal_text: maf_text(&cohort.normal, &all_names, "NORMAL", silent, &mut rng),
        gene_index: universe
            .iter()
            .map(|&g| all_names[g as usize].clone())
            .zip(0..)
            .collect(),
    }
}

/// The load path of `multihit discover`: parse both MAF texts and summarize
/// them into bit matrices over the reference gene list.
pub fn load(tr: &mut Tracer, input: &MafInput) -> (BitMatrix, BitMatrix) {
    let mut one = |text: &str| {
        let records = tr.span("data.parse_maf", |tr| {
            let r = maf::parse_maf(text).expect("generated MAF parses");
            tr.count("records", r.len() as u64);
            r
        });
        tr.span("data.summarize", |_| {
            maf::summarize(&records, &input.gene_index).matrix
        })
    };
    (one(&input.tumor_text), one(&input.normal_text))
}

/// `data.*` of a traced repetition that went through [`load`].
pub fn load_layers(l: &mut Layers, spans: &[Span], input: &MafInput) {
    l.set("data.parse_maf_s", total_s(spans, "data.parse_maf"));
    l.set("data.summarize_s", total_s(spans, "data.summarize"));
    l.set("data.maf_mb", input.bytes() as f64 / (1024.0 * 1024.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_data::CancerType;

    fn small() -> Cohort {
        cohort(CancerType::Acc.spec(7), 60)
    }

    #[test]
    fn same_seed_same_text_other_seed_other_order() {
        let c = small();
        let all: Vec<u32> = (0..60).collect();
        let a = maf_input(&c, &all, 1, 1);
        let b = maf_input(&c, &all, 1, 1);
        let other = maf_input(&c, &all, 1, 2);
        assert_eq!(a.tumor_text, b.tumor_text);
        assert_eq!(a.normal_text, b.normal_text);
        assert_ne!(a.tumor_text, other.tumor_text);
        assert_eq!(
            a.tumor_text.lines().count(),
            other.tumor_text.lines().count()
        );
    }

    #[test]
    fn load_recovers_the_cohort_up_to_sample_order() {
        let c = small();
        let all: Vec<u32> = (0..60).collect();
        let (tumor, normal) = load(&mut Tracer::new(false), &maf_input(&c, &all, 1, 3));
        assert_eq!((tumor.n_genes(), normal.n_genes()), (60, 60));
        assert_eq!(tumor.n_samples(), c.tumor.n_samples());
        for g in 0..60 {
            assert_eq!(tumor.row_popcount(g), c.tumor.row_popcount(g), "gene {g}");
            assert_eq!(normal.row_popcount(g), c.normal.row_popcount(g), "gene {g}");
        }
    }

    #[test]
    fn a_restricted_universe_skips_the_other_genes() {
        let c = small();
        let focus = focus_genes(&c, 20);
        assert_eq!(focus.len(), 20);
        assert!(c.driver_genes().iter().all(|g| focus.contains(g)));
        let (tumor, _) = load(&mut Tracer::new(false), &maf_input(&c, &focus, 2, 3));
        assert_eq!(tumor.n_genes(), 20);
        for (row, &g) in focus.iter().enumerate() {
            assert_eq!(tumor.row_popcount(row), c.tumor.row_popcount(g as usize));
        }
    }
}
