//! Combinatorial ranking/unranking between a linear thread id `λ` and
//! strictly increasing gene tuples, in *colexicographic* order.
//!
//! These maps are the heart of the paper's idle-thread elimination
//! (contribution 2): instead of launching a `G×G` (or `G×G×G`) grid where
//! half (or five sixths) of the threads fall outside the upper-triangular
//! (upper-tetrahedral) region, every λ in `0..C(G,2)` (`0..C(G,3)`) names
//! exactly one valid tuple.
//!
//! Colex order ranks a tuple `i < j < k` as `C(k,3) + C(j,2) + C(i,1)`,
//! the classic combinatorial number system. The paper's Algorithm 1 and
//! Algorithm 3 give closed-form float inversions of the triangular and
//! tetrahedral ranks; we provide
//!
//! * exact integer unranking (float initial guess + integer fix-up), which is
//!   correct for every λ representable in `u64`;
//! * the paper's raw float formulas ([`unrank_pair_float`],
//!   [`unrank_triple_float`]), including the §III-F log/exp workaround for
//!   the 128-bit intermediate `sqrt(729λ² − 3)`, kept for fidelity and for
//!   the accuracy-domain study in the benches;
//! * generic `h`-tuple unranking ([`unrank_tuple`]) used by the `4x1` scheme
//!   and by the h ≥ 5 extension.

/// Number of distinct `k`-combinations of `n` items, saturating at `u64::MAX`.
///
/// Uses the multiplicative formula with intermediate division so that every
/// prefix product is exact (the running value is always a binomial itself).
#[must_use]
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for d in 1..=k {
        // acc = acc * (n - k + d) / d, exact because acc holds C(n-k+d-1, d-1)
        // and the product acc * (n-k+d) is divisible by d.
        let f = n - k + d;
        match acc.checked_mul(f) {
            Some(p) => acc = p / d,
            None => {
                // One wide step; the running value C(n-k+d, d) is
                // non-decreasing along this chain, so once it escapes u64 the
                // final binomial has too — saturate.
                let wide = (acc as u128) * (f as u128) / (d as u128);
                match u64::try_from(wide) {
                    Ok(v) => acc = v,
                    Err(_) => return u64::MAX,
                }
            }
        }
    }
    acc
}

/// `C(n,2)` as an exact `u64`. `n` up to `u32::MAX` never overflows.
#[inline]
#[must_use]
pub fn tri(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

/// `C(n,3)` as an exact `u64` (wide intermediate).
#[inline]
#[must_use]
pub fn tet(n: u64) -> u64 {
    if n < 3 {
        return 0;
    }
    let w = (n as u128) * ((n - 1) as u128) * ((n - 2) as u128) / 6;
    u64::try_from(w).expect("C(n,3) exceeds u64")
}

/// Colex rank of the pair `(i, j)` with `i < j`: `C(j,2) + i`.
#[inline]
#[must_use]
pub fn rank_pair(i: u32, j: u32) -> u64 {
    debug_assert!(i < j, "rank_pair requires i < j, got ({i}, {j})");
    tri(j as u64) + i as u64
}

/// Colex rank of the triple `(i, j, k)` with `i < j < k`:
/// `C(k,3) + C(j,2) + i`.
#[inline]
#[must_use]
pub fn rank_triple(i: u32, j: u32, k: u32) -> u64 {
    debug_assert!(i < j && j < k, "rank_triple requires i < j < k");
    tet(k as u64) + tri(j as u64) + i as u64
}

/// Exact inverse of [`rank_pair`]: the unique `(i, j)`, `i < j`, with
/// `C(j,2) + i == lambda`.
///
/// A float square root seeds `j`; one or two integer corrections make the
/// result exact for all `λ < C(2^32, 2)`.
#[inline]
#[must_use]
pub fn unrank_pair(lambda: u64) -> (u32, u32) {
    // j ≈ (1 + sqrt(1 + 8λ)) / 2 ; seed from f64 then fix up exactly.
    let mut j = ((1.0 + (1.0 + 8.0 * lambda as f64).sqrt()) / 2.0) as u64;
    // Guard the seed against catastrophic float error for huge λ.
    j = j.max(1);
    while tri(j) > lambda {
        j -= 1;
    }
    while tri(j + 1) <= lambda {
        j += 1;
    }
    let i = lambda - tri(j);
    debug_assert!(i < j);
    (i as u32, j as u32)
}

/// Exact inverse of [`rank_triple`]: the unique `(i, j, k)`, `i < j < k`,
/// with `C(k,3) + C(j,2) + i == lambda`.
///
/// ```
/// use multihit_core::combin::{rank_triple, unrank_triple};
/// assert_eq!(unrank_triple(0), (0, 1, 2));
/// let lambda = rank_triple(10, 70, 19_000);
/// assert_eq!(unrank_triple(lambda), (10, 70, 19_000));
/// ```
#[inline]
#[must_use]
pub fn unrank_triple(lambda: u64) -> (u32, u32, u32) {
    // Seed k from the real cube root of 6λ, then fix up exactly.
    let mut k = (6.0 * lambda as f64).cbrt() as u64 + 1;
    k = k.max(2);
    while tet(k) > lambda {
        k -= 1;
    }
    while tet(k + 1) <= lambda {
        k += 1;
    }
    let rem = lambda - tet(k);
    let (i, j) = unrank_pair(rem);
    debug_assert!((j as u64) < k);
    (i, j, k as u32)
}

/// First λ where [`unrank_pair_float`] diverges from the exact
/// [`unrank_pair`]: `C(2²⁷+1, 2) − 1 = 2⁵³ + 2²⁶ − 1`.
///
/// At this λ (the last pair of the `j = 2²⁷` block) the float seed
/// `sqrt(0.25 + 2λ)` loses the `+0.25` to rounding and tips `j` one too
/// high, after which the recovered `i = λ − C(j,2)` wraps. Every
/// `λ < UNRANK_PAIR_FLOAT_LIMIT` is bit-exact (verified by a boundary scan
/// over every `j` block: the computed float map is monotone in λ, so
/// checking both ends of each block covers the interior). The paper's
/// 3-hit runs at `G ≈ 20000` stay ~45 million times below this boundary.
const UNRANK_PAIR_FLOAT_LIMIT: u64 = (1 << 53) + (1 << 26) - 1;

/// First λ where [`unrank_triple_float`] diverges from the exact
/// [`unrank_triple`]: `C(9,3) = 84`.
///
/// This is *not* a float-rounding artifact at 2⁵³ scale — the closed-form
/// cube-root recovery of Algorithm 3 truncates the series for the depressed
/// cubic, so at range-boundary λ values (where the true root is an exact
/// integer) the formula lands just *below* the root and `floor` undershoots
/// `k` by one. λ = 84 = C(9,3) is the first such boundary it misses: the
/// formula yields `k_shifted = 6.9993… → 6` where the true value is 7,
/// producing the invalid tuple `(0, 8, 8)` instead of `(0, 1, 9)`. Interior
/// λ values keep matching far beyond this (the sampled 4-hit-domain test
/// passes), but correctness guarantees end here — which is why the gpusim
/// decode path falls back to the exact map from this λ on.
const UNRANK_TRIPLE_FLOAT_LIMIT: u64 = 84;

/// The paper's Algorithm 1 float formula for the triangular inverse, kept
/// verbatim (no integer fix-up). Bit-exact for every
/// `λ < UNRANK_PAIR_FLOAT_LIMIT = 2⁵³ + 2²⁶ − 1` — comfortably
/// covering the λ range of a 3-hit run at `G ≈ 20000` — and silently
/// corrupt past it (the recovered `i` wraps through `u64`). Exposed so the
/// benches can chart its accuracy domain against [`unrank_pair`]; runtime
/// callers use [`unrank_pair_fast`], which falls back to the exact map at
/// the boundary.
#[inline]
#[must_use]
pub fn unrank_pair_float(lambda: u64) -> (u32, u32) {
    let j = ((0.25 + 2.0 * lambda as f64).sqrt() + 0.5).floor() as u64;
    // Wrapping on purpose: past UNRANK_PAIR_FLOAT_LIMIT the float `j` can
    // overshoot, and the CUDA original's unsigned arithmetic wraps rather
    // than trapping. Keeping that behavior makes the corruption visible
    // (i ≈ u64::MAX) instead of a plausible-looking nearby tuple.
    let i = lambda.wrapping_sub(j.wrapping_mul(j.wrapping_sub(1)) / 2);
    (i as u32, j as u32)
}

/// GPU-path pair unranking: the paper's float formula inside its verified
/// accuracy domain (`λ < UNRANK_PAIR_FLOAT_LIMIT = 2⁵³ + 2²⁶ − 1`), the
/// exact integer map beyond it. Bit-identical to [`unrank_pair`] for **every** λ.
#[inline]
#[must_use]
pub fn unrank_pair_fast(lambda: u64) -> (u32, u32) {
    if lambda < UNRANK_PAIR_FLOAT_LIMIT {
        unrank_pair_float(lambda)
    } else {
        unrank_pair(lambda)
    }
}

/// GPU-path triple unranking: the paper's §III-F float formula inside its
/// verified accuracy domain (`1 ≤ λ < UNRANK_TRIPLE_FLOAT_LIMIT = 84`), the
/// exact integer map beyond it (and at λ = 0, where the log/exp trick is
/// undefined). Bit-identical to [`unrank_triple`] for **every** λ.
#[inline]
#[must_use]
pub fn unrank_triple_fast(lambda: u64) -> (u32, u32, u32) {
    if (1..UNRANK_TRIPLE_FLOAT_LIMIT).contains(&lambda) {
        unrank_triple_float(lambda)
    } else {
        unrank_triple(lambda)
    }
}

/// The paper's §III-F tetrahedral inverse: the intermediate
/// `A = sqrt(729λ² − 3)` needs 128-bit arithmetic on the GPU, so the paper
/// computes it through logarithms:
/// `A = exp(0.5·(ln(3λ) + ln(243λ − 1/λ)))`. We reproduce that exact
/// expression, then apply the closed-form cube-root recovery of `k`.
///
/// Like the CUDA original this is *approximate*: bit-exact only for
/// `1 ≤ λ < UNRANK_TRIPLE_FLOAT_LIMIT = 84` (the truncated cube-root
/// series undershoots `k` at range-boundary λ from C(9,3) on), and
/// silently corrupt past that. Callers needing exactness use
/// [`unrank_triple`]; the runtime decode path is [`unrank_triple_fast`].
/// Requires `lambda ≥ 1`.
#[inline]
#[must_use]
pub fn unrank_triple_float(lambda: u64) -> (u32, u32, u32) {
    assert!(lambda >= 1, "log/exp trick is undefined at λ = 0");
    let lf = lambda as f64;
    // A = sqrt(729λ² − 3) via logs: sqrt(3λ · (243λ − 1/λ)).
    let a = (0.5 * ((3.0 * lf).ln() + (243.0 * lf - 1.0 / lf).ln())).exp();
    // q = (A + 27λ)^(1/3); k = floor(q/3^(2/3)... ) per Algorithm 3.
    let q = (a + 27.0 * lf).cbrt();
    let k = (q / 9f64.cbrt() + 1.0 / (3.0 * q / 9f64.cbrt()) - 1.0).floor() as u64;
    // Note the paper folds the two 3-powers as (q/3²)^(1/3) + 1/(3q)^(1/3);
    // algebraically identical to the above.
    //
    // Wrapping on purpose: when the float `k` overshoots (possible past the
    // accuracy domain), `λ − tz` underflows. The CUDA original's unsigned
    // arithmetic wraps there; an earlier revision saturated via
    // `tz.min(lambda)`, which *hid* the underflow behind a plausible-looking
    // (0, 1, k+2) tuple. Wrapping keeps the out-of-domain corruption
    // visible, and within the domain the two are identical (tz ≤ λ always).
    let tz = k * (k + 1) * (k + 2) / 6;
    let rem = lambda.wrapping_sub(tz);
    let j = ((0.25 + 2.0 * rem as f64).sqrt() - 0.5).floor() as u64;
    let i = rem.wrapping_sub(j.wrapping_mul(j + 1) / 2);
    // Algorithm 3 indexes with i ≤ j ≤ k over a shifted tetrahedron; convert
    // to our strict colex convention (i < j < k).
    (i as u32, (j + 1) as u32, (k + 2) as u32)
}

/// Colex rank of a strictly increasing `H`-tuple: `Σ_t C(c_t, t+1)`.
#[must_use]
pub fn rank_tuple<const H: usize>(c: &[u32; H]) -> u64 {
    debug_assert!(
        c.windows(2).all(|w| w[0] < w[1]),
        "tuple must be strictly increasing"
    );
    let mut r = 0u64;
    for (t, &ct) in c.iter().enumerate() {
        r += binomial(ct as u64, t as u64 + 1);
    }
    r
}

/// Exact generic inverse of [`rank_tuple`] for any `H ≥ 1`: the combinatorial
/// number system unranking. `O(H log G)` via binary search per coordinate.
#[must_use]
pub fn unrank_tuple<const H: usize>(mut lambda: u64) -> [u32; H] {
    let mut out = [0u32; H];
    for t in (0..H).rev() {
        let kk = t as u64 + 1;
        // Largest c with C(c, t+1) <= lambda.
        let mut lo = t as u64; // C(t, t+1) = 0 <= lambda always
        let mut hi = lo + 2;
        while binomial(hi, kk) <= lambda {
            hi = hi.saturating_mul(2);
            if hi > u32::MAX as u64 + 2 {
                hi = u32::MAX as u64 + 2;
                break;
            }
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if binomial(mid, kk) <= lambda {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lambda -= binomial(lo, kk);
        out[t] = lo as u32;
    }
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    out
}

/// Iterator over all strictly increasing `H`-tuples drawn from `0..g`,
/// in colex order. The reference enumeration for tests and the sequential
/// CPU baseline.
pub fn tuples<const H: usize>(g: u32) -> impl Iterator<Item = [u32; H]> {
    let total = binomial(g as u64, H as u64);
    (0..total).map(unrank_tuple::<H>)
}

/// Workload (inner-loop trip count) of thread λ under the **2x2 scheme** for
/// 4-hit discovery: thread `(i,j)` enumerates pairs `k < l` from
/// `j+1..G`, i.e. `C(G−1−j, 2)` combinations (Algorithm 2).
#[inline]
#[must_use]
pub fn workload_2x2(lambda: u64, g: u32) -> u64 {
    let (_i, j) = unrank_pair(lambda);
    tri((g - 1 - j) as u64)
}

/// Workload of thread λ under the **3x1 scheme** for 4-hit discovery:
/// thread `(i,j,k)` runs `l` over `k+1..G`, i.e. `G−1−k` combinations
/// (Algorithm 3).
#[inline]
#[must_use]
pub fn workload_3x1(lambda: u64, g: u32) -> u64 {
    let (_i, _j, k) = unrank_triple(lambda);
    (g - 1 - k) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
        assert_eq!(binomial(20000, 2), 199_990_000);
        assert_eq!(binomial(20000, 3), 1_333_133_340_000);
        // Paper's M ≈ 7e15 for 4-hit at G ≈ 20000.
        assert_eq!(binomial(20000, 4), 6_664_666_849_995_000);
    }

    #[test]
    fn binomial_symmetry_small() {
        for n in 0..40u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn binomial_pascal_recurrence() {
        for n in 1..60u64 {
            for k in 1..n {
                assert_eq!(
                    binomial(n, k),
                    binomial(n - 1, k - 1) + binomial(n - 1, k),
                    "Pascal fails at n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn tri_tet_match_binomial() {
        for n in 0..2000u64 {
            assert_eq!(tri(n), binomial(n, 2));
            assert_eq!(tet(n), binomial(n, 3));
        }
    }

    #[test]
    fn pair_roundtrip_exhaustive_small() {
        let g = 200u32;
        let mut lambda = 0u64;
        for j in 1..g {
            for i in 0..j {
                assert_eq!(rank_pair(i, j), lambda);
                assert_eq!(unrank_pair(lambda), (i, j));
                lambda += 1;
            }
        }
        assert_eq!(lambda, binomial(g as u64, 2));
    }

    #[test]
    fn triple_roundtrip_exhaustive_small() {
        let g = 40u32;
        let mut lambda = 0u64;
        for k in 2..g {
            for j in 1..k {
                for i in 0..j {
                    assert_eq!(rank_triple(i, j, k), lambda);
                    assert_eq!(unrank_triple(lambda), (i, j, k));
                    lambda += 1;
                }
            }
        }
        assert_eq!(lambda, binomial(g as u64, 3));
    }

    #[test]
    fn pair_roundtrip_at_paper_scale() {
        // G = 19411 (BRCA): check boundary λ values around every 1000th j.
        let g = 19411u64;
        for j in (1..g).step_by(997) {
            for &i in &[0, j / 2, j - 1] {
                let l = tri(j) + i;
                assert_eq!(unrank_pair(l), (i as u32, j as u32));
            }
        }
        let last = binomial(g, 2) - 1;
        assert_eq!(unrank_pair(last), ((g - 2) as u32, (g - 1) as u32));
    }

    #[test]
    fn triple_roundtrip_at_paper_scale() {
        let g = 19411u64;
        for k in (2..g).step_by(1009) {
            let l = tet(k);
            assert_eq!(unrank_triple(l), (0, 1, k as u32));
            let l_end = tet(k + 1) - 1;
            assert_eq!(
                unrank_triple(l_end),
                ((k - 2) as u32, (k - 1) as u32, k as u32)
            );
        }
        let last = binomial(g, 3) - 1;
        assert_eq!(
            unrank_triple(last),
            ((g - 3) as u32, (g - 2) as u32, (g - 1) as u32)
        );
    }

    #[test]
    fn float_pair_matches_exact_in_3hit_domain() {
        // Paper used the float formula for 3-hit at G ≈ 20000: λ < C(20000, 2).
        let max = binomial(20000, 2);
        for l in (0..max).step_by(9_999_991).chain([max - 1]) {
            let exact = unrank_pair(l);
            let float = unrank_pair_float(l);
            assert_eq!(exact, float, "λ={l}");
        }
    }

    #[test]
    fn float_triple_matches_exact_at_sampled_interior_points() {
        // Interior λ values across the 4-hit domain keep matching (the
        // closed form only misses near range boundaries — the huge prime
        // stride here never lands on one). This is exactly the sampling
        // blind spot that let the λ = 84 boundary bug hide; the pinning
        // tests below cover the boundaries.
        let max = binomial(19411, 3);
        for l in (1..max).step_by(10_000_000_019).chain([max - 1]) {
            let exact = unrank_triple(l);
            let float = unrank_triple_float(l);
            assert_eq!(exact, float, "λ={l}");
        }
    }

    #[test]
    fn pair_float_limit_pins_first_divergence() {
        // One below the boundary: still bit-exact.
        let last_good = UNRANK_PAIR_FLOAT_LIMIT - 1;
        assert_eq!(unrank_pair_float(last_good), unrank_pair(last_good));
        // At the boundary (λ = C(2²⁷+1, 2) − 1, the last pair of the
        // j = 2²⁷ block): the float seed tips j one too high and the
        // recovered i wraps.
        assert_eq!(UNRANK_PAIR_FLOAT_LIMIT, tri(134_217_729) - 1);
        let exact = unrank_pair(UNRANK_PAIR_FLOAT_LIMIT);
        let float = unrank_pair_float(UNRANK_PAIR_FLOAT_LIMIT);
        assert_eq!(exact, (134_217_727, 134_217_728));
        assert_ne!(
            float, exact,
            "float formula no longer diverges at the documented boundary"
        );
        // Dense sweep well below the boundary plus every j-block boundary
        // near it: the computed float map is monotone in λ, so block
        // endpoints witness the interior.
        for j in (1u64..2000).chain(134_217_700..134_217_729) {
            for l in [tri(j), tri(j + 1) - 1] {
                if l < UNRANK_PAIR_FLOAT_LIMIT {
                    assert_eq!(unrank_pair_float(l), unrank_pair(l), "λ={l}");
                }
            }
        }
    }

    #[test]
    fn triple_float_limit_pins_first_divergence() {
        // Exhaustive below the boundary: every λ in [1, 84) is bit-exact.
        for l in 1..UNRANK_TRIPLE_FLOAT_LIMIT {
            assert_eq!(unrank_triple_float(l), unrank_triple(l), "λ={l}");
        }
        // At λ = 84 = C(9,3) the truncated cube-root series undershoots k:
        // the formula produces the *invalid* tuple (0, 8, 8) where the
        // exact map gives (0, 1, 9).
        assert_eq!(UNRANK_TRIPLE_FLOAT_LIMIT, tet(9));
        assert_eq!(unrank_triple(84), (0, 1, 9));
        let float = unrank_triple_float(84);
        assert_ne!(
            float,
            (0, 1, 9),
            "float formula no longer diverges at the documented boundary"
        );
        assert_eq!(float, (0, 8, 8));
    }

    #[test]
    fn fast_unranking_is_exact_everywhere() {
        // Inside the float domains, at the boundaries, and far beyond:
        // the hybrid decode is bit-identical to the exact maps.
        for l in (0..10_000).chain([
            UNRANK_TRIPLE_FLOAT_LIMIT - 1,
            UNRANK_TRIPLE_FLOAT_LIMIT,
            UNRANK_TRIPLE_FLOAT_LIMIT + 1,
            binomial(19411, 3) - 1,
            UNRANK_PAIR_FLOAT_LIMIT - 1,
            UNRANK_PAIR_FLOAT_LIMIT,
            UNRANK_PAIR_FLOAT_LIMIT + 1,
            u64::from(u32::MAX) * 1000,
        ]) {
            assert_eq!(unrank_pair_fast(l), unrank_pair(l), "pair λ={l}");
            assert_eq!(unrank_triple_fast(l), unrank_triple(l), "triple λ={l}");
        }
    }

    #[test]
    fn generic_tuple_matches_specialized() {
        for l in 0..binomial(30, 2) {
            let [i, j] = unrank_tuple::<2>(l);
            assert_eq!((i, j), unrank_pair(l));
        }
        for l in 0..binomial(20, 3) {
            let [i, j, k] = unrank_tuple::<3>(l);
            assert_eq!((i, j, k), unrank_triple(l));
        }
    }

    #[test]
    fn quad_tuple_roundtrip() {
        let g = 16u32;
        let mut lambda = 0u64;
        for l4 in 3..g {
            for k in 2..l4 {
                for j in 1..k {
                    for i in 0..j {
                        let c = [i, j, k, l4];
                        assert_eq!(rank_tuple(&c), lambda);
                        assert_eq!(unrank_tuple::<4>(lambda), c);
                        lambda += 1;
                    }
                }
            }
        }
        assert_eq!(lambda, binomial(g as u64, 4));
    }

    #[test]
    fn tuples_iterator_is_colex_sorted_and_complete() {
        let got: Vec<[u32; 3]> = tuples::<3>(9).collect();
        assert_eq!(got.len() as u64, binomial(9, 3));
        for w in got.windows(2) {
            let (a, b) = (w[0], w[1]);
            let rev_a = [a[2], a[1], a[0]];
            let rev_b = [b[2], b[1], b[0]];
            assert!(rev_a < rev_b, "colex order violated: {a:?} !< {b:?}");
        }
    }

    #[test]
    fn workload_totals_match_combination_counts() {
        // Σ over threads of the per-thread workload must equal C(G,4) for the
        // 4-hit schemes.
        let g = 30u32;
        let total_2x2: u64 = (0..binomial(g as u64, 2)).map(|l| workload_2x2(l, g)).sum();
        assert_eq!(total_2x2, binomial(g as u64, 4));
        let total_3x1: u64 = (0..binomial(g as u64, 3)).map(|l| workload_3x1(l, g)).sum();
        assert_eq!(total_3x1, binomial(g as u64, 4));
    }

    #[test]
    fn workload_spread_first_vs_last() {
        // Fig 2: the 2x2 spread between first and last thread is C(G-2, 2);
        // the 3x1 spread is G-3 (first thread: k=2 → G-3; last: k=G-1 → 0).
        let g = 10u32;
        assert_eq!(
            workload_2x2(0, g) - workload_2x2(binomial(10, 2) - 1, g),
            tri(8)
        );
        assert_eq!(workload_3x1(0, g), (g - 3) as u64);
        assert_eq!(workload_3x1(binomial(10, 3) - 1, g), 0);
    }
}
