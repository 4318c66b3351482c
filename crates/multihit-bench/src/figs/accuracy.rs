//! Fig 9 (classification performance of the discovered 4-hit combinations,
//! 11 cancer types) and Fig 10 (driver-vs-passenger mutation position
//! distributions) — both executed end to end on synthetic cohorts.

use crate::report::{pct, Table};
use multihit_core::greedy::{discover, GreedyConfig};
use multihit_data::classify::{average, ComboClassifier, Performance};
use multihit_data::positions::lgg_fig10_profiles;
use multihit_data::presets::CancerType;
use multihit_data::split::split_cohort;
use multihit_data::synth::generate;

/// Run the full paper pipeline for one cancer type: generate a synthetic
/// cohort, split 75/25, discover 4-hit combinations on the training split,
/// classify the test split.
#[must_use]
fn evaluate_cancer(cancer: CancerType, g: usize, seed: u64) -> (Performance, usize, f64) {
    let cohort = generate(&cancer.mini_spec(g, seed));
    let split = split_cohort(&cohort.tumor, &cohort.normal, 0.75, seed ^ 0xABCD);
    let result = discover::<4>(
        &split.train_tumor,
        &split.train_normal,
        &GreedyConfig::default(),
    );
    let classifier = ComboClassifier::from_fixed(&result.combinations);
    let perf = classifier.evaluate(&split.test_tumor, &split.test_normal);
    // Recovery: fraction of planted driver combinations whose genes all
    // appear inside some discovered combination.
    let recovered = cohort
        .planted
        .iter()
        .filter(|p| {
            result
                .combinations
                .iter()
                .any(|c| p.iter().all(|g| c.contains(g)))
        })
        .count() as f64
        / cohort.planted.len() as f64;
    (perf, result.combinations.len(), recovered)
}

/// Fig 9: sensitivity/specificity with 95% Wilson CIs per cancer type, plus
/// the cross-type averages (paper: 83% sensitivity, 90% specificity).
#[must_use]
pub fn fig9(g: usize, seed: u64) -> Vec<Table> {
    let mut t = Table::new(
        "Fig 9 — classification of 4-hit combinations, 11 cancer types (executed, synthetic)",
        &[
            "cancer",
            "combos",
            "planted_recovered",
            "sensitivity",
            "sens_ci95",
            "specificity",
            "spec_ci95",
        ],
    );
    let mut perfs = Vec::new();
    for (i, cancer) in CancerType::FOUR_HIT_STUDY.iter().enumerate() {
        let (perf, n_combos, recovered) = evaluate_cancer(*cancer, g, seed + i as u64);
        let (slo, shi) = perf.sensitivity.ci95();
        let (plo, phi) = perf.specificity.ci95();
        t.row(&[
            cancer.code().to_string(),
            n_combos.to_string(),
            pct(recovered),
            pct(perf.sensitivity.value()),
            format!("[{}, {}]", pct(slo), pct(shi)),
            pct(perf.specificity.value()),
            format!("[{}, {}]", pct(plo), pct(phi)),
        ]);
        perfs.push(perf);
    }
    let (sens, spec) = average(&perfs);
    // Cross-type bootstrap CI on the averages, matching the paper's Fig 9
    // qualification of its 83%/90% numbers.
    let sens_vals: Vec<f64> = perfs.iter().map(|p| p.sensitivity.value()).collect();
    let spec_vals: Vec<f64> = perfs.iter().map(|p| p.specificity.value()).collect();
    let (slo, shi) = multihit_data::classify::bootstrap_mean_ci95(&sens_vals, 4000, seed);
    let (plo, phi) = multihit_data::classify::bootstrap_mean_ci95(&spec_vals, 4000, seed + 1);
    let mut s = Table::new(
        "Fig 9 — summary",
        &["metric", "measured", "ci95_across_types", "paper"],
    );
    s.row(&[
        "avg sensitivity".into(),
        pct(sens),
        format!("[{}, {}]", pct(slo), pct(shi)),
        "83% (CI 72-90%)".into(),
    ]);
    s.row(&[
        "avg specificity".into(),
        pct(spec),
        format!("[{}, {}]", pct(plo), pct(phi)),
        "90% (CI 81-96%)".into(),
    ]);
    vec![t, s]
}

/// Fig 10: mutation-position histograms for the LGG case study — IDH1 (a
/// known R132 driver hotspot) versus MUC6 (scattered passenger mutations).
#[must_use]
pub fn fig10(seed: u64) -> Vec<Table> {
    let (idh1, muc6) = lgg_fig10_profiles(seed);
    let bins = 20;
    let mut out = Vec::new();
    for (p, cohort_tumor, cohort_normal) in [(&idh1, 532usize, 329usize), (&muc6, 532, 329)] {
        let th = p.histogram(&p.tumor_positions, bins, cohort_tumor);
        let nh = p.histogram(&p.normal_positions, bins, cohort_normal);
        let mut t = Table::new(
            &format!(
                "Fig 10 — {} mutation positions (len {}aa), % of samples per bin",
                p.gene, p.length
            ),
            &["bin_start_aa", "tumor_pct", "normal_pct"],
        );
        for b in 0..bins {
            t.row(&[
                (b * p.length as usize / bins + 1).to_string(),
                format!("{:.2}", th[b]),
                format!("{:.2}", nh[b]),
            ]);
        }
        out.push(t);
    }
    let mut s = Table::new(
        "Fig 10 — driver-vs-passenger calls",
        &[
            "gene",
            "hotspot_pos",
            "hotspot_fraction",
            "looks_like_driver",
        ],
    );
    for p in [&idh1, &muc6] {
        s.row(&[
            p.gene.clone(),
            p.tumor_hotspot_position()
                .map_or("-".into(), |x| x.to_string()),
            format!("{:.3}", p.tumor_hotspot_fraction()),
            p.looks_like_driver(0.5).to_string(),
        ]);
    }
    out.push(s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cancer_pipeline_recovers_planted_combos() {
        let (perf, n_combos, recovered) = evaluate_cancer(CancerType::Acc, 30, 7);
        assert!(n_combos >= 1);
        assert!(recovered >= 0.5, "recovered only {recovered}");
        assert!(perf.sensitivity.value() > 0.6);
        assert!(perf.specificity.value() > 0.6);
    }

    #[test]
    fn fig10_contrast() {
        let t = fig10(42);
        assert_eq!(t.len(), 3);
        let calls = &t[2].rows;
        assert_eq!(calls[0][3], "true"); // IDH1
        assert_eq!(calls[1][3], "false"); // MUC6
        assert_eq!(calls[0][1], "132");
    }
}
