//! Property-based tests for the data substrate: MAF round-tripping with
//! arbitrary records, split partitioning, classifier/CI bounds, and
//! generator invariants.

use multihit_core::bitmat::BitMatrix;
use multihit_data::classify::{ComboClassifier, Proportion};
use multihit_data::maf::{parse_maf, summarize, write_maf, MafRecord};
use multihit_data::split::{split_indices, take_columns};
use multihit_data::synth::{generate, CohortSpec};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_symbol() -> impl Strategy<Value = String> {
    "[A-Z][A-Z0-9]{1,6}"
}

fn arb_record() -> impl Strategy<Value = MafRecord<'static>> {
    (
        arb_symbol(),
        "[A-Z]{2}-[0-9]{2}",
        prop::sample::select(vec![
            "Missense_Mutation",
            "Nonsense_Mutation",
            "Silent",
            "Frame_Shift_Del",
            "Intron",
        ]),
        prop::option::of(1u32..3000),
    )
        .prop_map(
            |(hugo_symbol, sample_barcode, class, protein_position)| MafRecord {
                hugo_symbol: hugo_symbol.into(),
                sample_barcode: sample_barcode.into(),
                variant_classification: class.to_string(),
                protein_position,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maf_roundtrips_arbitrary_records(records in prop::collection::vec(arb_record(), 0..60)) {
        let text = write_maf(&records);
        let back = parse_maf(&text).unwrap();
        prop_assert_eq!(back, records);
    }

    #[test]
    fn summarize_counts_protein_altering_only(records in prop::collection::vec(arb_record(), 0..60)) {
        let mut genes: Vec<String> = records.iter().map(|r| r.hugo_symbol.to_string()).collect();
        genes.sort();
        genes.dedup();
        let index: HashMap<String, usize> =
            genes.iter().enumerate().map(|(i, g)| (g.clone(), i)).collect();
        let s = summarize(&records, &index);
        let altering = records
            .iter()
            .filter(|r| multihit_data::maf::is_protein_altering(&r.variant_classification))
            .count();
        prop_assert_eq!(s.silent_skipped, records.len() - altering);
        prop_assert_eq!(s.unknown_genes, 0);
        // Every set bit is justified by at least one altering record.
        let total_bits: u32 = (0..s.matrix.n_genes()).map(|g| s.matrix.row_popcount(g)).sum();
        prop_assert!(total_bits as usize <= altering);
    }

    #[test]
    fn split_partitions_exactly(n in 1usize..500, frac in 0.05f64..0.95, seed in 0u64..1000) {
        let s = split_indices(n, frac, seed);
        let mut all = s.train.clone();
        all.extend(&s.test);
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(s.train.len(), ((n as f64) * frac).ceil() as usize);
    }

    #[test]
    fn take_columns_then_reassemble(n_cols in 1usize..150, seed in 0u64..500) {
        let mut m = BitMatrix::zeros(3, n_cols);
        let mut state = seed | 1;
        for g in 0..3 {
            for s in 0..n_cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (state >> 33) % 2 == 0 {
                    m.set(g, s, true);
                }
            }
        }
        let split = split_indices(n_cols, 0.6, seed);
        let a = take_columns(&m, &split.train);
        let b = take_columns(&m, &split.test);
        prop_assert_eq!(a.n_samples() + b.n_samples(), n_cols);
        let bits = |x: &BitMatrix| -> u32 { (0..3).map(|g| x.row_popcount(g)).sum() };
        prop_assert_eq!(bits(&a) + bits(&b), bits(&m));
    }

    #[test]
    fn wilson_ci_always_brackets(hits in 0usize..200, extra in 0usize..200, z in 0.5f64..4.0) {
        let total = hits + extra;
        prop_assume!(total > 0);
        let p = Proportion::new(hits, total);
        let (lo, hi) = p.wilson_ci(z);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= p.value() + 1e-12 && p.value() <= hi + 1e-12);
    }

    #[test]
    fn classifier_monotone_in_combinations(seed in 0u64..300) {
        // Adding a combination can only increase positive calls.
        let cohort = generate(&CohortSpec { seed, ..CohortSpec::default() });
        let mut clf = ComboClassifier::default();
        let mut last = 0usize;
        for combo in cohort.planted.iter().take(3) {
            clf.combinations.push(combo.clone());
            let now = clf.count_positive(&cohort.tumor);
            prop_assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn generator_driver_genes_within_universe(
        g in 12usize..60,
        combos in 1usize..4,
        h in 2usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(combos * h <= g);
        let c = generate(&CohortSpec {
            n_genes: g,
            n_driver_combos: combos,
            hits_per_combo: h,
            seed,
            ..CohortSpec::default()
        });
        for gene in c.driver_genes() {
            prop_assert!((gene as usize) < g);
        }
        prop_assert_eq!(c.planted.len(), combos);
        prop_assert_eq!(c.assignment.len(), c.tumor.n_samples());
        prop_assert!(c.tumor.tail_is_clean() && c.normal.tail_is_clean());
    }
}
