//! Every engine configuration against one independent oracle.
//!
//! The oracle is the benchmark harness's brute-force greedy, compiled into
//! this test as it stands (it reads matrices through `BitMatrix::get` only
//! and writes the objective and its tie-break out again from the paper), so
//! the configurations are not merely compared with each other: each panel
//! must equal the exhaustive search pick for pick.

#[allow(dead_code)]
#[path = "../benchmark/src/oracle.rs"]
mod oracle;

use multihit::core::bitmat::BitMatrix;
use multihit::core::greedy::{discover, Exclusion, GreedyConfig, SparseMode};
use oracle::Pick;

/// A cohort of independent mutations: a tumour sample carries a gene with
/// probability 1/2 or 1/3, a normal sample with 1/4 or 1/6 (by `seed`).
fn cohort(g: usize, n_tumor: usize, n_normal: usize, seed: u64) -> (BitMatrix, BitMatrix) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let (rate_t, rate_n) = (2 + seed % 2, 4 + 2 * (seed / 2 % 2));
    let mut tumor = BitMatrix::zeros(g, n_tumor);
    let mut normal = BitMatrix::zeros(g, n_normal);
    for gene in 0..g {
        for s in 0..n_tumor {
            tumor.set(gene, s, next() % rate_t == 0);
        }
        for s in 0..n_normal {
            normal.set(gene, s, next() % rate_n == 0);
        }
    }
    (tumor, normal)
}

/// The full product of the engine's switches: 384 configurations.
fn lattice() -> Vec<GreedyConfig> {
    let mut out = Vec::new();
    for prune in [false, true] {
        for frontier_k in [0, 1, 4, 64] {
            for kernelize in [false, true] {
                for sparse in [SparseMode::Off, SparseMode::On, SparseMode::Auto] {
                    for block_sweep in [false, true] {
                        for parallel in [false, true] {
                            for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
                                out.push(GreedyConfig {
                                    prune,
                                    frontier_k,
                                    kernelize,
                                    sparse,
                                    block_sweep,
                                    parallel,
                                    exclusion,
                                    ..GreedyConfig::default()
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// One cohort through every configuration.
fn check<const H: usize>(g: usize, n_tumor: usize, n_normal: usize, seed: u64) {
    let (tumor, normal) = cohort(g, n_tumor, n_normal, seed);
    let want = oracle::brute_greedy(&tumor, &normal, H, 0);
    let (wrong, uncovered) = oracle::replay(&tumor, &normal, &want);
    assert_eq!(
        wrong, 0,
        "H={H} G={g} seed={seed}: the oracle contradicts itself"
    );
    assert!(want.len() >= 2, "H={H} G={g} seed={seed}: a one-pick panel");
    for cfg in lattice() {
        let got = discover::<H>(&tumor, &normal, &cfg);
        let picks: Vec<Pick> = got
            .iterations
            .iter()
            .map(|it| Pick {
                genes: it.best.genes.to_vec(),
                tp: it.best.tp,
                tn: it.best.tn,
            })
            .collect();
        assert_eq!(picks, want, "H={H} G={g} seed={seed} {cfg:?}");
        assert_eq!(got.uncovered, uncovered, "H={H} G={g} seed={seed} {cfg:?}");
    }
}

// Cohorts of G = H + 3 … H + 10 genes, and for H >= 2 one wide enough that
// C(G, H) exceeds the work-stealing queue's minimum grain (1024), without
// which `parallel` never runs a second worker.

#[test]
fn one_hit_panels_match_brute_force() {
    // The only instantiation that never block-sweeps.
    check::<1>(4, 30, 10, 1);
    check::<1>(8, 90, 50, 2);
    check::<1>(11, 140, 90, 3);
}

#[test]
fn two_hit_panels_match_brute_force() {
    check::<2>(5, 40, 90, 4);
    check::<2>(12, 140, 30, 5);
    check::<2>(47, 70, 40, 6);
}

#[test]
fn three_hit_panels_match_brute_force() {
    check::<3>(6, 140, 10, 7);
    check::<3>(13, 60, 90, 9);
    check::<3>(20, 100, 50, 8);
}

#[test]
fn four_hit_panels_match_brute_force() {
    check::<4>(7, 30, 60, 11);
    check::<4>(14, 130, 20, 10);
    check::<4>(15, 80, 70, 12);
}
