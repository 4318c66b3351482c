//! Property-based tests over the core invariants: index-map bijectivity,
//! bit-matrix counting, reduction determinism, and greedy-scan agreement.

use multihit_core::bitmat::{BitMatrix, SkipIndex};
use multihit_core::combin::{
    binomial, rank_pair, rank_triple, rank_tuple, tri, unrank_pair, unrank_triple, unrank_tuple,
};
use multihit_core::frontier::rescore_combo;
use multihit_core::greedy::{
    best_combination_frontier, best_combination_stats, discover, ComboScanner, Exclusion,
    GreedyConfig, ScanStats, SparseMode,
};
use multihit_core::kernel;
use multihit_core::kernelize::kernelize;
use multihit_core::reduce::{block_reduce, gpu_reduce, top_k, tree_reduce};
use multihit_core::schemes::Scheme4;
use multihit_core::sweep::{levels_scheme4, total_area};
use multihit_core::weight::{score_combo, Alpha, Scored};
use proptest::prelude::*;

proptest! {
    #[test]
    fn pair_unrank_rank_roundtrip(lambda in 0u64..tri(100_000)) {
        let (i, j) = unrank_pair(lambda);
        prop_assert!(i < j);
        prop_assert_eq!(rank_pair(i, j), lambda);
    }

    #[test]
    fn triple_unrank_rank_roundtrip(lambda in 0u64..binomial(50_000, 3)) {
        let (i, j, k) = unrank_triple(lambda);
        prop_assert!(i < j && j < k);
        prop_assert_eq!(rank_triple(i, j, k), lambda);
    }

    #[test]
    fn quad_unrank_rank_roundtrip(lambda in 0u64..binomial(10_000, 4)) {
        let c = unrank_tuple::<4>(lambda);
        prop_assert!(c.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(rank_tuple(&c), lambda);
    }

    #[test]
    fn quint_unrank_rank_roundtrip(lambda in 0u64..binomial(2_000, 5)) {
        // h = 5: the paper's future-work hit count works through the same map.
        let c = unrank_tuple::<5>(lambda);
        prop_assert!(c.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(rank_tuple(&c), lambda);
    }

    #[test]
    fn unranking_is_monotone_in_colex(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        prop_assume!(a < b);
        let ca = unrank_tuple::<3>(a);
        let cb = unrank_tuple::<3>(b);
        let rev = |c: [u32; 3]| [c[2], c[1], c[0]];
        prop_assert!(rev(ca) < rev(cb));
    }

    #[test]
    fn binomial_pascal_property((n, k) in (2u64..500).prop_flat_map(|n| (Just(n), 1..n))) {
        let lhs = binomial(n, k);
        prop_assume!(lhs < u64::MAX / 2); // skip saturated values
        prop_assert_eq!(lhs, binomial(n - 1, k - 1) + binomial(n - 1, k));
    }
}

/// Strategy: a random small cohort as dense boolean rows.
fn cohort(
    max_genes: usize,
    max_samples: usize,
) -> impl Strategy<Value = (Vec<Vec<bool>>, Vec<Vec<bool>>)> {
    (4..=max_genes, 1..=max_samples, 1..=max_samples).prop_flat_map(|(g, nt, nn)| {
        (
            prop::collection::vec(prop::collection::vec(any::<bool>(), nt), g),
            prop::collection::vec(prop::collection::vec(any::<bool>(), nn), g),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_all_matches_naive_count((td, nd) in cohort(10, 80)) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        let g = t.n_genes() as u32;
        for lambda in 0..binomial(u64::from(g), 2) {
            let (i, j) = unrank_pair(lambda);
            let naive = (0..t.n_samples())
                .filter(|&s| td[i as usize][s] && td[j as usize][s])
                .count() as u32;
            prop_assert_eq!(t.count_all(&[i, j]), naive);
            let naive_n = (0..n.n_samples())
                .filter(|&s| nd[i as usize][s] && nd[j as usize][s])
                .count() as u32;
            prop_assert_eq!(n.count_all(&[i, j]), naive_n);
        }
    }

    #[test]
    fn splice_preserves_uncovered_columns((td, _) in cohort(8, 120), drop_mod in 2usize..7) {
        let t = BitMatrix::from_dense(&td);
        let mut keep = t.full_mask();
        let kept: Vec<usize> = (0..t.n_samples()).filter(|s| s % drop_mod != 0).collect();
        for s in 0..t.n_samples() {
            if s % drop_mod == 0 {
                keep[s / 64] &= !(1u64 << (s % 64));
            }
        }
        let sp = t.splice_columns(&keep);
        prop_assert_eq!(sp.n_samples(), kept.len());
        prop_assert!(sp.tail_is_clean());
        for g in 0..t.n_genes() {
            for (new_s, &old_s) in kept.iter().enumerate() {
                prop_assert_eq!(sp.get(g, new_s), t.get(g, old_s));
            }
        }
    }

    #[test]
    fn scanner_agrees_with_bruteforce_h3((td, nd) in cohort(9, 64)) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        let g = t.n_genes() as u64;
        prop_assume!(g >= 3);
        let mut expect = Scored::NEG_INFINITY;
        for l in 0..binomial(g, 3) {
            let genes = unrank_tuple::<3>(l);
            expect = expect.max_det(score_combo(&t, &n, &genes, Alpha::PAPER));
        }
        let cfg = GreedyConfig { parallel: false, ..GreedyConfig::default() };
        prop_assert_eq!(best_combination_stats::<3>(&t, &n, None, &cfg).0, expect);
    }

    #[test]
    fn chunked_scans_equal_whole_scan((td, nd) in cohort(9, 48), splits in 1usize..6) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        let g = t.n_genes() as u64;
        prop_assume!(g >= 3);
        let total = binomial(g, 3);
        let mut whole = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let expect = whole.scan(total);
        let chunk = total.div_ceil(splits as u64);
        let mut best = Scored::NEG_INFINITY;
        let mut start = 0u64;
        while start < total {
            let count = chunk.min(total - start);
            let mut sc = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, start);
            best = best.max_det(sc.scan(count));
            start += count;
        }
        prop_assert_eq!(best, expect);
    }
}

/// Serializes the tests that pin the process-wide kernel tier, so two of
/// them cannot interleave their `force` / `force(None)` sequences.
static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn force_lock() -> std::sync::MutexGuard<'static, ()> {
    FORCE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const TIERS: [kernel::Dispatch; 3] = [
    kernel::Dispatch::Scalar,
    kernel::Dispatch::Avx2,
    kernel::Dispatch::Avx512,
];

/// Widths checked on every case besides the random one: tail-only widths
/// below one 8-word AVX-512 lane, a whole lane, one past it, the 15- and
/// 16-word tumour rows of the benchmarks, and a long row.
const EDGE_WIDTHS: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64];

/// Strategy: three word pools to slice operands from, a random width, how
/// many words one operand runs past the others (min-length semantics), and
/// how many high bits of the final word are clear (a partial final word).
fn word_pools() -> impl Strategy<Value = (Vec<Vec<u64>>, usize, usize, u64)> {
    (
        prop::collection::vec(prop::collection::vec(any::<u64>(), 80), 3),
        0usize..72,
        0usize..4,
        0u32..64,
    )
        .prop_map(|(pools, width, skew, tail_bits)| {
            let tail = if tail_bits == 0 {
                u64::MAX
            } else {
                u64::MAX >> tail_bits
            };
            (pools, width, skew, tail)
        })
}

/// Compare every dispatched op against its `*_scalar` twin on operands of
/// width `w` cut from `pools`: `b` and `c` run `skew` words longer than
/// `a`, and `and_store_popcount`'s `dst` carries sentinel words past `w`
/// that must come back unchanged.
fn check_ops_at_width(
    tier: kernel::Dispatch,
    pools: &[Vec<u64>],
    w: usize,
    skew: usize,
    tail: u64,
) -> Result<(), String> {
    const SENTINEL: u64 = 0xA5A5_5A5A_DEAD_BEEF;
    let mut a = pools[0][..w].to_vec();
    // Emulate a partial final word the way BitMatrix stores one: the bits
    // past n_samples are zero.
    if let Some(last) = a.last_mut() {
        *last &= tail;
    }
    let b = &pools[1][..w + skew];
    let c = &pools[2][..w + skew];
    let at = format!("tier={} w={w} skew={skew}", tier.name());
    prop_assert!(
        kernel::popcount(&a) == kernel::popcount_scalar(&a),
        "popcount {at}"
    );
    prop_assert!(
        kernel::popcount(b) == kernel::popcount_scalar(b),
        "popcount {at}"
    );
    prop_assert!(
        kernel::and_popcount(&a, b) == kernel::and_popcount_scalar(&a, b)
            && kernel::and_popcount(b, &a) == kernel::and_popcount_scalar(b, &a),
        "and_popcount {at}"
    );
    prop_assert!(
        kernel::and3_popcount(b, c, &a) == kernel::and3_popcount_scalar(b, c, &a),
        "and3_popcount {at}"
    );
    let mut dst_v = vec![SENTINEL; w + skew + 3];
    let mut dst_s = dst_v.clone();
    let pop_v = kernel::and_store_popcount(&mut dst_v, &a, b);
    let pop_s = kernel::and_store_popcount_scalar(&mut dst_s, &a, b);
    prop_assert!(pop_v == pop_s && dst_v == dst_s, "and_store_popcount {at}");
    prop_assert!(
        dst_v[w..].iter().all(|&x| x == SENTINEL),
        "and_store_popcount wrote past n {at}"
    );
    for rows in [&[b][..], &[b, &a, c], &[b, c, &a, b, c]] {
        prop_assert!(
            kernel::and_rows_popcount(rows) == kernel::and_rows_popcount_scalar(rows),
            "and_rows_popcount rows={} {at}",
            rows.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every dispatch tier the host supports, pinned in turn, agrees with
    /// the scalar twins on all five word ops. A tier the host refuses is
    /// skipped and named once on stderr, so a log shows what ran.
    #[test]
    fn kernel_dispatch_matches_scalar((pools, width, skew, tail) in word_pools()) {
        static REPORT: std::sync::Once = std::sync::Once::new();
        let _guard = force_lock();
        let detected = {
            kernel::force(None);
            kernel::active()
        };
        REPORT.call_once(|| {
            let skipped: Vec<&str> =
                TIERS.iter().filter(|&&t| t > detected).map(|t| t.name()).collect();
            eprintln!("kernel tiers: detected {}, skipped {:?}", detected.name(), skipped);
        });
        for tier in TIERS {
            if !kernel::force(Some(tier)) {
                continue; // tier not supported on this host
            }
            for w in std::iter::once(width).chain(EDGE_WIDTHS) {
                let checked = check_ops_at_width(tier, &pools, w, skew, tail);
                if checked.is_err() {
                    kernel::force(None);
                }
                checked?;
            }
        }
        kernel::force(None);
    }

    #[test]
    fn kernel_pext_matches_scalar(x in any::<u64>(), mask in any::<u64>()) {
        prop_assert_eq!(kernel::pext(x, mask), kernel::pext_scalar(x, mask));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_scan_identical_to_reference((td, nd) in cohort(9, 64), masked in any::<bool>()) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        prop_assume!(t.n_genes() >= 3);
        let mask_store;
        let mask = if masked {
            let mut m = t.full_mask();
            // Deactivate every third sample.
            for s in (0..t.n_samples()).step_by(3) {
                m[s / 64] &= !(1u64 << (s % 64));
            }
            mask_store = m;
            Some(mask_store.as_slice())
        } else {
            None
        };
        let reference = GreedyConfig { parallel: false, prune: false, ..GreedyConfig::default() };
        let want = best_combination_stats::<3>(&t, &n, mask, &reference).0;
        for parallel in [false, true] {
            let cfg = GreedyConfig { parallel, prune: true, ..GreedyConfig::default() };
            let (got, stats) = best_combination_stats::<3>(&t, &n, mask, &cfg);
            prop_assert_eq!(got, want);
            prop_assert_eq!(stats.scored + stats.pruned_combos, binomial(t.n_genes() as u64, 3));
        }
    }

    #[test]
    fn frontier_discovery_identical_to_exhaustive((td, nd) in cohort(8, 48), parallel in any::<bool>()) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        prop_assume!(t.n_genes() >= 2);
        let reference = discover::<2>(
            &t,
            &n,
            &GreedyConfig { parallel: false, frontier_k: 0, ..GreedyConfig::default() },
        );
        for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
            // K = 1 can never strictly clear its own floor, so it exercises
            // the floor-miss fallback (full pruned rescan seeded by the
            // rescored frontier) on every iteration; K = 64 usually exceeds
            // C(g,2) here, making the frontier complete and every later
            // iteration a hit.
            for k in [1usize, 4, 64] {
                let got = discover::<2>(
                    &t,
                    &n,
                    &GreedyConfig { parallel, exclusion, frontier_k: k, ..GreedyConfig::default() },
                );
                prop_assert_eq!(&got.combinations, &reference.combinations);
                prop_assert_eq!(got.uncovered, reference.uncovered);
            }
        }
    }

    #[test]
    fn pruned_discovery_identical_across_exclusion_modes((td, nd) in cohort(8, 48)) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        prop_assume!(t.n_genes() >= 2);
        let reference = discover::<2>(
            &t,
            &n,
            &GreedyConfig { parallel: false, prune: false, ..GreedyConfig::default() },
        );
        for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
            let got = discover::<2>(
                &t,
                &n,
                &GreedyConfig { parallel: false, prune: true, exclusion, ..GreedyConfig::default() },
            );
            prop_assert_eq!(&got.combinations, &reference.combinations);
            prop_assert_eq!(got.uncovered, reference.uncovered);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reductions_are_blocking_invariant(
        scores in prop::collection::vec((0u64..1000, 0u32..50), 1..400),
        bs in 1usize..600,
    ) {
        let scored: Vec<Scored<2>> = scores
            .iter()
            .map(|&(s, g)| Scored { score: s, tp: 0, tn: 0, genes: [g, g + 1] })
            .collect();
        let flat = scored.iter().copied().fold(Scored::NEG_INFINITY, Scored::max_det);
        let (staged, _) = gpu_reduce(&scored, bs);
        prop_assert_eq!(staged, flat);
        // Double-blocking (blocks of blocks) also agrees.
        let lvl1 = block_reduce(&scored, bs);
        let lvl2 = block_reduce(&lvl1, 3);
        let (w, _) = (tree_reduce(lvl2).0, ());
        prop_assert_eq!(w, flat);
    }

    #[test]
    fn kernelized_discovery_identical_to_plain((td, nd) in cohort(8, 48)) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        prop_assume!(t.n_genes() >= 2);
        for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
            let reference = discover::<2>(
                &t,
                &n,
                &GreedyConfig { parallel: false, exclusion, ..GreedyConfig::default() },
            );
            let got = discover::<2>(
                &t,
                &n,
                &GreedyConfig { parallel: false, exclusion, kernelize: true, ..GreedyConfig::default() },
            );
            prop_assert_eq!(&got.combinations, &reference.combinations);
            prop_assert_eq!(got.uncovered, reference.uncovered);
        }
    }

    #[test]
    fn kernelize_unrank_roundtrips_and_rescores(
        (td, nd) in cohort(9, 40),
        lambda_seed in any::<u64>(),
    ) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        let (rt, rn, cert) = kernelize(&t, &n, 3);
        prop_assume!(cert.kept_genes() >= 3);
        let lambda = lambda_seed % binomial(cert.kept_genes() as u64, 3);
        let c_red = unrank_tuple::<3>(lambda);
        let c_orig = cert.unmap_combo(c_red);
        // The gene map is strictly increasing: a colex-unranked combination
        // stays sorted, and ranks stay ordered after un-mapping.
        prop_assert!(c_orig.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(rank_tuple(&c_orig) >= lambda);
        // Re-scoring the un-mapped combination on the ORIGINAL matrices
        // must agree with un-mapping the reduced-instance score.
        let s_red = score_combo(&rt, &rn, &c_red, Alpha::PAPER);
        let s_orig = score_combo(&t, &n, &c_orig, Alpha::PAPER);
        if s_red.tp > 0 {
            prop_assert_eq!(cert.unmap_scored(s_red, Alpha::PAPER), s_orig);
        } else {
            prop_assert_eq!(s_orig.tp, 0);
            prop_assert_eq!(s_orig.score, 0);
        }
    }

    #[test]
    fn max_det_total_order(
        a in (0u64..10, 0u32..6, 0u32..6),
        b in (0u64..10, 0u32..6, 0u32..6),
        c in (0u64..10, 0u32..6, 0u32..6),
    ) {
        let mk = |(s, g0, g1): (u64, u32, u32)| Scored::<2> {
            score: s, tp: 0, tn: 0, genes: [g0.min(g1), g0.min(g1) + 1 + g0.max(g1)],
        };
        let (x, y, z) = (mk(a), mk(b), mk(c));
        // Associativity and commutativity of the combiner.
        prop_assert_eq!(x.max_det(y), y.max_det(x));
        prop_assert_eq!(x.max_det(y).max_det(z), x.max_det(y.max_det(z)));
        // Idempotence.
        prop_assert_eq!(x.max_det(x), x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_scan_identical_to_dense(
        (td, nd) in cohort(10, 80),
        kinds in prop::collection::vec(0usize..4, 10),
        masked in any::<bool>(),
    ) {
        // Reshape each gene row by kind so the skip-list scan sees the full
        // density spectrum: 0 = dense as generated, 1 = sparsified (zero
        // words become common), 2 = all-zero, 3 = all-one.
        let shape = |rows: &[Vec<bool>]| -> Vec<Vec<bool>> {
            rows.iter()
                .enumerate()
                .map(|(g, row)| match kinds[g % kinds.len()] {
                    1 => row.iter().enumerate().map(|(s, &b)| b && s % 7 == 0).collect(),
                    2 => vec![false; row.len()],
                    3 => vec![true; row.len()],
                    _ => row.clone(),
                })
                .collect()
        };
        let t = BitMatrix::from_dense(&shape(&td));
        let n = BitMatrix::from_dense(&shape(&nd));
        prop_assume!(t.n_genes() >= 3);
        let mask_store;
        let mask = if masked {
            let mut m = t.full_mask();
            for s in (0..t.n_samples()).step_by(3) {
                m[s / 64] &= !(1u64 << (s % 64));
            }
            mask_store = m;
            Some(mask_store.as_slice())
        } else {
            None
        };
        let reference = best_combination_stats::<3>(
            &t,
            &n,
            mask,
            &GreedyConfig { parallel: false, sparse: SparseMode::Off, ..GreedyConfig::default() },
        ).0;
        for parallel in [false, true] {
            let cfg = GreedyConfig { parallel, sparse: SparseMode::On, ..GreedyConfig::default() };
            prop_assert_eq!(best_combination_stats::<3>(&t, &n, mask, &cfg).0, reference);
        }
    }
}

/// Strategy: a tie-dense cohort. With 8–24 tumour and 4–8 normal samples
/// most scores collide, which is where a wrong tie rule in the cut shows.
/// Tumour rows are half or three-quarters mutated.
fn tie_dense_cohort() -> impl Strategy<Value = (Vec<Vec<bool>>, Vec<Vec<bool>>)> {
    (6usize..=30, 8usize..=24, 4usize..=8, any::<bool>()).prop_flat_map(|(g, nt, nn, heavy)| {
        let bit = (any::<bool>(), any::<bool>()).prop_map(move |(a, b)| a || (heavy && b));
        (
            prop::collection::vec(prop::collection::vec(bit, nt), g),
            prop::collection::vec(prop::collection::vec(any::<bool>(), nn), g),
        )
    })
}

/// Every pruned scan of one hit count on one tie-dense cohort against
/// exhaustive references: excluded samples masked off (Mask) or spliced
/// out (BitSplice), sequential and parallel, dense and sparse, and the
/// top-K scans unseeded and seeded with a floor K combinations witness.
fn check_ties<const H: usize>(t: &BitMatrix, n: &BitMatrix, keep: &[u64]) -> Result<(), String> {
    let total = binomial(t.n_genes() as u64, H as u64);
    let all: Vec<Scored<H>> = (0..total)
        .map(|l| rescore_combo(t, n, Some(keep), &unrank_tuple::<H>(l), Alpha::PAPER))
        .collect();
    let tops = [1usize, 4, 64].map(|k| (k, top_k(&all, k)));
    let spliced = t.splice_columns(keep);
    for (exclusion, t, mask) in [("Mask", t, Some(keep)), ("BitSplice", &spliced, None)] {
        let reference = GreedyConfig {
            parallel: false,
            prune: false,
            ..GreedyConfig::default()
        };
        let want = best_combination_stats::<H>(t, n, mask, &reference).0;
        for parallel in [false, true] {
            for sparse in [SparseMode::Off, SparseMode::On] {
                let at = format!("H={H} {exclusion} parallel={parallel} {sparse:?}");
                let cfg = GreedyConfig {
                    parallel,
                    sparse,
                    ..GreedyConfig::default()
                };
                let (got, st) = best_combination_stats::<H>(t, n, mask, &cfg);
                prop_assert!(got == want, "{at}: {got:?} != {want:?}");
                prop_assert!(st.scored + st.pruned_combos == total, "{at}: {st:?}");
                for &(k, ref top) in &tops {
                    let witnessed = if top.len() == k { top[k - 1].score } else { 0 };
                    for seed in [0, witnessed] {
                        let cfg = GreedyConfig {
                            frontier_k: k,
                            ..cfg
                        };
                        let (best, st, fr) = best_combination_frontier::<H>(t, n, mask, &cfg, seed);
                        let at = format!("{at} k={k} seed={seed}");
                        prop_assert!(best == want, "{at}: {best:?} != {want:?}");
                        prop_assert!(fr.entries() == top.as_slice(), "{at}");
                        prop_assert!(st.scored + st.pruned_combos == total, "{at}: {st:?}");
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pruned scans walk genes in popcount order, not colex order, so a tie
    /// at the floor is cut only when the subtree is provably colex-later;
    /// any slip changes an argmax or a frontier here.
    #[test]
    fn pruned_scans_exact_under_ties((td, nd) in tie_dense_cohort()) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        let mut keep = t.full_mask();
        for s in (0..t.n_samples()).step_by(3) {
            keep[s / 64] &= !(1u64 << (s % 64));
        }
        check_ties::<1>(&t, &n, &keep)?;
        check_ties::<2>(&t, &n, &keep)?;
        check_ties::<3>(&t, &n, &keep)?;
        check_ties::<4>(&t, &n, &keep)?;
    }
}

/// Block-sweep vs single-step equivalence for one hit count: the level-0
/// sweep through the batch kernels must return the exact stepping result
/// (same score, same colex winner) for plain and pruned scans, dense and
/// sparse, at every sweep width — including widths that do not divide the
/// level-0 run length.
fn check_block_sweep<const H: usize>(
    t: &BitMatrix,
    n: &BitMatrix,
    mask: Option<&[u64]>,
    sparse: bool,
    widths: &[usize],
) -> Result<(), String> {
    let g = t.n_genes() as u64;
    let total = binomial(g, H as u64);
    let skip_t = SkipIndex::build(t);
    let skip_n = SkipIndex::build(n);
    let make = |start: u64| {
        if sparse {
            ComboScanner::<H>::with_skip(t, n, mask, Alpha::PAPER, start, (&skip_t, &skip_n))
        } else {
            ComboScanner::<H>::new(t, n, mask, Alpha::PAPER, start)
        }
    };
    let mut reference = make(0);
    reference.set_sweep_width(1);
    let want = reference.scan(total);
    for &width in widths {
        let mut sc = make(0);
        sc.set_sweep_width(width);
        prop_assert_eq!(sc.scan(total), want);
        if width > 1 {
            prop_assert!(
                sc.block_sweeps() > 0,
                "sweep never engaged at width {}",
                width
            );
        }
        // Pruned sweep: identical winner, and every combination accounted
        // for as either scored or pruned.
        let mut st = ScanStats::default();
        let mut sc = make(0);
        sc.set_sweep_width(width);
        let got = sc.scan_pruned(total, Scored::NEG_INFINITY, None, &mut st);
        prop_assert_eq!(got, want);
        prop_assert_eq!(st.scored + st.pruned_combos, total);
        // Split scan at a boundary the width does not divide: chunked
        // sweeps must still fold to the stepping result. (Skipped when the
        // space has a single combination — there is nothing to split.)
        if total >= 2 {
            let cut = (total / 2).max(1);
            let mut lo = make(0);
            lo.set_sweep_width(width);
            let mut hi = make(cut);
            hi.set_sweep_width(width);
            prop_assert_eq!(lo.scan(cut).max_det(hi.scan(total - cut)), want);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_sweep_identical_to_stepping(
        (td, nd) in cohort(9, 70),
        masked in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        let t = BitMatrix::from_dense(&td);
        let n = BitMatrix::from_dense(&nd);
        prop_assume!(t.n_genes() >= 4);
        let mask_store;
        let mask = if masked {
            let mut m = t.full_mask();
            for s in (0..t.n_samples()).step_by(3) {
                m[s / 64] &= !(1u64 << (s % 64));
            }
            mask_store = m;
            Some(mask_store.as_slice())
        } else {
            None
        };
        // Widths that divide typical level-0 runs and widths that do not,
        // plus the full SWEEP_BLOCK.
        let widths = [2usize, 3, 5, 16];
        check_block_sweep::<2>(&t, &n, mask, sparse, &widths)?;
        check_block_sweep::<3>(&t, &n, mask, sparse, &widths)?;
        check_block_sweep::<4>(&t, &n, mask, sparse, &widths)?;
    }
}

/// Strategy: a block of ragged rows plus a partial to AND them against —
/// the block-kernel operand shape.
fn row_block() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<u64>>, u64)> {
    (1usize..19, 1usize..=16, 0u32..64).prop_flat_map(|(len, rows, tail_bits)| {
        (
            prop::collection::vec(any::<u64>(), len),
            prop::collection::vec(prop::collection::vec(any::<u64>(), len), rows),
            Just(if tail_bits == 0 {
                u64::MAX
            } else {
                u64::MAX >> tail_bits
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every dispatch tier the host supports must agree with the scalar
    /// reference on the block kernels, on ragged lengths and partial final
    /// words. On hosts without AVX-512 (or AVX2) the `force` pin refuses and
    /// that tier is skipped gracefully — the remaining tiers still compare.
    #[test]
    fn dispatch_tiers_agree_on_block_kernels((mut partial, mut rows, tail) in row_block()) {
        let _guard = force_lock();
        if let Some(last) = partial.last_mut() {
            *last &= tail;
        }
        for row in &mut rows {
            if let Some(last) = row.last_mut() {
                *last &= tail;
            }
        }
        let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
        let mut want = vec![0u32; refs.len()];
        kernel::and_popcount_block_scalar(&partial, &refs, &mut want);
        let single_want = kernel::and_popcount_scalar(&partial, refs[0]);
        for tier in TIERS {
            if !kernel::force(Some(tier)) {
                continue; // tier not supported on this host
            }
            let mut got = vec![0u32; refs.len()];
            kernel::and_popcount_block(&partial, &refs, &mut got);
            prop_assert!(got == want, "block kernel diverged on {}", tier.name());
            prop_assert!(
                kernel::and_popcount(&partial, refs[0]) == single_want,
                "and_popcount diverged on {}",
                tier.name()
            );
        }
        kernel::force(None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A λ-slab of any scheme is a union of ascending, disjoint, maximal
    /// colex ranges (no two touch): together they hold exactly the slab's
    /// combinations, so their lengths sum to its scheduler area.
    #[test]
    fn slab_colex_ranges_tile_the_slab(
        g in 4u32..=14,
        scheme in 0usize..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let scheme = Scheme4::ALL[scheme];
        let threads = scheme.thread_count(g);
        let (a, b) = (a % (threads + 1), b % (threads + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut ranges = Vec::new();
        scheme.for_each_colex_range(lo, hi, g, |r| ranges.push(r));
        for r in &ranges {
            prop_assert!(r.start < r.end, "empty range {r:?}");
        }
        for w in ranges.windows(2) {
            prop_assert!(w[0].end < w[1].start, "{:?} then {:?}", w[0], w[1]);
        }
        let got: Vec<[u32; 4]> = ranges
            .iter()
            .flat_map(|r| r.clone())
            .map(unrank_tuple::<4>)
            .collect();
        let mut want = Vec::new();
        for lambda in lo..hi {
            scheme.for_each_combo(lambda, g, |c| want.push(c));
        }
        want.sort_by_key(rank_tuple);
        prop_assert!(got == want, "{} [{lo}, {hi}) of g={g}", scheme.name());
        let area: u64 = (lo..hi).map(|lambda| scheme.workload(lambda, g)).sum();
        prop_assert_eq!(got.len() as u64, area);
    }
}

/// `C(20000, 4)` ≈ 6.66e15 — far past `u32`, well inside `u64`. These pin
/// the G = 20,000 h = 4 boundary the scale-out roadmap targets: the combo
/// index maps, the workload formulas, and the scheme decomposition must all
/// stay exact there (see DESIGN.md §11 for the arithmetic-width audit).
#[test]
fn rank_unrank_survive_g20000_h4_boundary() {
    let g: u64 = 20_000;
    let total = binomial(g, 4);
    let expect: u128 = 20_000u128 * 19_999 * 19_998 * 19_997 / 24;
    assert_eq!(u128::from(total), expect);

    let last = unrank_tuple::<4>(total - 1);
    assert_eq!(last, [19_996, 19_997, 19_998, 19_999]);
    for lambda in [0, 1, total / 2, total - 2, total - 1] {
        let c = unrank_tuple::<4>(lambda);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
        assert!(u64::from(c[3]) < g);
        assert_eq!(rank_tuple(&c), lambda);
    }
}

#[test]
fn schemes_and_workloads_stay_exact_at_g20000() {
    let g: u32 = 20_000;
    let total = binomial(u64::from(g), 4);
    for scheme in [
        Scheme4::OneXThree,
        Scheme4::TwoXTwo,
        Scheme4::ThreeXOne,
        Scheme4::FourXOne,
    ] {
        assert_eq!(total_area(&levels_scheme4(scheme, g)), total);
    }
    // Workload formulas at the extreme thread indices: the first 2x2 thread
    // (pair {0,1}) owns tri(G-2) quads, the last owns zero; the last 3x1
    // thread runs an empty tail loop.
    assert_eq!(
        multihit_core::combin::workload_2x2(0, g),
        tri(u64::from(g) - 2)
    );
    let last_pair = binomial(u64::from(g), 2) - 1;
    assert_eq!(multihit_core::combin::workload_2x2(last_pair, g), 0);
    let last_triple = binomial(u64::from(g), 3) - 1;
    assert_eq!(multihit_core::combin::workload_3x1(last_triple, g), 0);
}
