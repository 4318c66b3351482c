//! Mutation-level (rather than gene-level) analysis — the paper's §V
//! conclusion: "To identify combinations of true oncogenic mutations will
//! require searching for specific combinations of mutations within genes
//! instead of combinations of genes with mutations."
//!
//! This module builds the substrate for that future-work direction:
//!
//! * expand a gene×sample cohort into a **mutation-site×sample** matrix by
//!   assigning every mutation event a protein position — hotspot-
//!   concentrated for planted driver genes (the IDH1-R132 regime), uniform
//!   for passengers (the MUC6 regime);
//! * the paper's mitigation (3): **filter to the most probable oncogenic
//!   sites** by recurrence, shrinking the row count back toward
//!   tractability;
//! * run the unchanged core algorithm over the site matrix — it only sees a
//!   bigger binary matrix — so a discovery at site level distinguishes
//!   `IDH1:132` from "IDH1 anywhere".

use crate::positions::PositionModel;
use crate::synth::Cohort;
use multihit_core::bitmat::BitMatrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A specific protein-altering mutation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MutationSite {
    /// Gene id in the originating cohort.
    pub gene: u32,
    /// 1-based protein position.
    pub position: u32,
}

/// A mutation-level view of a cohort.
#[derive(Clone, Debug)]
pub struct MutationCohort {
    /// Site×sample tumor matrix (rows index into `sites`).
    pub tumor: BitMatrix,
    /// Site×sample normal matrix.
    pub normal: BitMatrix,
    /// Row → site mapping, sorted.
    pub sites: Vec<MutationSite>,
    /// The hotspot site of every planted driver gene (the ground truth a
    /// site-level discovery should pinpoint).
    pub driver_sites: Vec<MutationSite>,
}

impl MutationCohort {
    /// Expansion factor over the gene universe (paper: mutation matrices
    /// are ~20× larger than gene matrices).
    #[must_use]
    pub fn expansion_factor(&self, n_genes: usize) -> f64 {
        self.sites.len() as f64 / n_genes as f64
    }
}

/// Parameters of the gene → site expansion.
#[derive(Clone, Copy, Debug)]
pub struct ExpansionSpec {
    /// Protein length assigned to every gene (uniform for simplicity; the
    /// paper's size effect is carried by the passenger gene weights).
    pub gene_length: u32,
    /// Fraction of a driver gene's tumor mutations landing on its hotspot.
    pub hotspot_concentration: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExpansionSpec {
    fn default() -> Self {
        ExpansionSpec {
            gene_length: 400,
            hotspot_concentration: 0.9,
            seed: 0xB10,
        }
    }
}

/// Expand a gene-level cohort into mutation sites.
///
/// Every set bit `(gene, sample)` becomes one site event `(gene, pos,
/// sample)`: driver genes draw `pos` from their hotspot model, passengers
/// uniformly. Site rows are deduplicated and sorted.
#[must_use]
pub fn expand(cohort: &Cohort, spec: &ExpansionSpec) -> MutationCohort {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let drivers: Vec<u32> = cohort.driver_genes();
    // Assign each driver gene a hotspot position.
    let hotspots: HashMap<u32, u32> = drivers
        .iter()
        .map(|&g| (g, rng.random_range(1..=spec.gene_length)))
        .collect();
    let model_for = |g: u32| -> PositionModel {
        match hotspots.get(&g) {
            Some(&h) => PositionModel::Hotspot {
                hotspot: h,
                concentration: spec.hotspot_concentration,
            },
            None => PositionModel::Uniform,
        }
    };

    // First pass: draw a position for every event; collect site set.
    let draw = |g: u32, is_tumor: bool, rng: &mut SmallRng| -> u32 {
        match (model_for(g), is_tumor) {
            (
                PositionModel::Hotspot {
                    hotspot,
                    concentration,
                },
                true,
            ) => {
                if rng.random::<f64>() < concentration {
                    hotspot
                } else {
                    rng.random_range(1..=spec.gene_length)
                }
            }
            _ => rng.random_range(1..=spec.gene_length),
        }
    };
    let mut tumor_events: Vec<(MutationSite, usize)> = Vec::new();
    let mut normal_events: Vec<(MutationSite, usize)> = Vec::new();
    for g in 0..cohort.spec.n_genes {
        for s in 0..cohort.tumor.n_samples() {
            if cohort.tumor.get(g, s) {
                let pos = draw(g as u32, true, &mut rng);
                tumor_events.push((
                    MutationSite {
                        gene: g as u32,
                        position: pos,
                    },
                    s,
                ));
            }
        }
        for s in 0..cohort.normal.n_samples() {
            if cohort.normal.get(g, s) {
                let pos = draw(g as u32, false, &mut rng);
                normal_events.push((
                    MutationSite {
                        gene: g as u32,
                        position: pos,
                    },
                    s,
                ));
            }
        }
    }
    let mut sites: Vec<MutationSite> = tumor_events
        .iter()
        .chain(normal_events.iter())
        .map(|&(site, _)| site)
        .collect();
    sites.sort_unstable();
    sites.dedup();

    let index: HashMap<MutationSite, usize> =
        sites.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut tumor = BitMatrix::zeros(sites.len(), cohort.tumor.n_samples());
    for &(site, s) in &tumor_events {
        tumor.set(index[&site], s, true);
    }
    let mut normal = BitMatrix::zeros(sites.len(), cohort.normal.n_samples());
    for &(site, s) in &normal_events {
        normal.set(index[&site], s, true);
    }

    let driver_sites = drivers
        .iter()
        .map(|&g| MutationSite {
            gene: g,
            position: hotspots[&g],
        })
        .collect();
    MutationCohort {
        tumor,
        normal,
        sites,
        driver_sites,
    }
}

/// §V mitigation (3): keep only sites mutated in at least `min_tumors`
/// tumor samples ("the most probable oncogenic mutations"). Returns the
/// filtered cohort and the kept-row fraction.
#[must_use]
pub fn filter_recurrent(mc: &MutationCohort, min_tumors: u32) -> (MutationCohort, f64) {
    let keep: Vec<usize> = (0..mc.sites.len())
        .filter(|&r| mc.tumor.row_popcount(r) >= min_tumors)
        .collect();
    let mut tumor = BitMatrix::zeros(keep.len(), mc.tumor.n_samples());
    let mut normal = BitMatrix::zeros(keep.len(), mc.normal.n_samples());
    for (new_r, &old_r) in keep.iter().enumerate() {
        for s in 0..mc.tumor.n_samples() {
            if mc.tumor.get(old_r, s) {
                tumor.set(new_r, s, true);
            }
        }
        for s in 0..mc.normal.n_samples() {
            if mc.normal.get(old_r, s) {
                normal.set(new_r, s, true);
            }
        }
    }
    let sites: Vec<MutationSite> = keep.iter().map(|&r| mc.sites[r]).collect();
    let driver_sites = mc
        .driver_sites
        .iter()
        .copied()
        .filter(|d| sites.binary_search(d).is_ok())
        .collect();
    let frac = keep.len() as f64 / mc.sites.len().max(1) as f64;
    (
        MutationCohort {
            tumor,
            normal,
            sites,
            driver_sites,
        },
        frac,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, CohortSpec};
    use multihit_core::greedy::{discover, GreedyConfig};

    fn base_cohort() -> Cohort {
        generate(&CohortSpec {
            n_genes: 30,
            n_tumor: 120,
            n_normal: 80,
            n_driver_combos: 2,
            hits_per_combo: 2,
            driver_penetrance: 1.0,
            passenger_rate_tumor: 0.04,
            passenger_rate_normal: 0.02,
            seed: 77,
        })
    }

    #[test]
    fn expansion_is_larger_than_gene_universe() {
        let c = base_cohort();
        let mc = expand(&c, &ExpansionSpec::default());
        assert!(mc.sites.len() > 30, "only {} sites", mc.sites.len());
        assert!(mc.expansion_factor(30) > 1.0);
        assert_eq!(mc.tumor.n_samples(), 120);
        assert_eq!(mc.normal.n_samples(), 80);
        // Sorted, deduplicated site registry.
        assert!(mc.sites.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn event_counts_are_preserved() {
        // Total set bits at site level equal gene-level events (each gene
        // event maps to exactly one site; duplicates within a (site,sample)
        // can only merge, never split).
        let c = base_cohort();
        let mc = expand(&c, &ExpansionSpec::default());
        let gene_events: u32 = (0..30).map(|g| c.tumor.row_popcount(g)).sum();
        let site_events: u32 = (0..mc.sites.len()).map(|r| mc.tumor.row_popcount(r)).sum();
        assert!(site_events <= gene_events);
        assert!(site_events >= gene_events * 9 / 10);
    }

    #[test]
    fn driver_hotspot_sites_are_recurrent() {
        let c = base_cohort();
        let mc = expand(&c, &ExpansionSpec::default());
        for d in &mc.driver_sites {
            let row = mc.sites.binary_search(d).expect("driver site present");
            // Fully penetrant drivers with 0.9 hotspot concentration: the
            // hotspot row covers most of its combo's tumor share.
            assert!(
                mc.tumor.row_popcount(row) > 30,
                "driver site {d:?} barely recurrent"
            );
        }
    }

    #[test]
    fn recurrence_filter_keeps_drivers_drops_passengers() {
        let c = base_cohort();
        let mc = expand(&c, &ExpansionSpec::default());
        let (filtered, frac) = filter_recurrent(&mc, 5);
        assert!(frac < 0.5, "kept {frac}");
        assert_eq!(filtered.driver_sites.len(), mc.driver_sites.len());
        for d in &filtered.driver_sites {
            assert!(filtered.sites.binary_search(d).is_ok());
        }
    }

    #[test]
    fn site_level_discovery_pinpoints_hotspots() {
        // The headline §V behavior: discovery over the filtered site matrix
        // returns the *specific hotspot sites* of the planted drivers.
        let c = base_cohort();
        let mc = expand(&c, &ExpansionSpec::default());
        let (filtered, _) = filter_recurrent(&mc, 5);
        let result = discover::<2>(
            &filtered.tumor,
            &filtered.normal,
            &GreedyConfig {
                max_combinations: 4,
                ..GreedyConfig::default()
            },
        );
        let discovered_sites: Vec<MutationSite> = result
            .combinations
            .iter()
            .flatten()
            .map(|&r| filtered.sites[r as usize])
            .collect();
        let hits = filtered
            .driver_sites
            .iter()
            .filter(|d| discovered_sites.contains(d))
            .count();
        assert!(
            hits >= filtered.driver_sites.len() - 1,
            "only {hits}/{} hotspot sites discovered: {discovered_sites:?}",
            filtered.driver_sites.len()
        );
    }

    #[test]
    fn filter_is_monotone_in_threshold() {
        let c = base_cohort();
        let mc = expand(&c, &ExpansionSpec::default());
        let (_, f1) = filter_recurrent(&mc, 2);
        let (_, f2) = filter_recurrent(&mc, 10);
        assert!(f2 <= f1);
    }

    #[test]
    fn expansion_is_deterministic() {
        let c = base_cohort();
        let a = expand(&c, &ExpansionSpec::default());
        let b = expand(&c, &ExpansionSpec::default());
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.tumor, b.tumor);
    }
}
