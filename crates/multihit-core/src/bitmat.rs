//! Compressed binary gene×sample mutation matrices.
//!
//! The algorithm's input is a pair of binary matrices (tumor, normal) where
//! entry `(g, s)` is 1 iff sample `s` carries a protein-altering mutation in
//! gene `g`. Following the paper (§II-C), 64 samples are packed into one
//! `u64` word so that counting the samples mutated in **all** genes of a
//! combination is a handful of bitwise `AND`s plus popcounts — a 32×
//! memory reduction and far fewer arithmetic ops than a byte matrix.
//!
//! The matrix also implements **BitSplicing** (§III-D): physically removing
//! covered sample columns between greedy iterations so later iterations touch
//! fewer words.
//!
//! All counting bottoms out in [`crate::kernel`], which runtime-dispatches
//! to AVX2/POPCNT (and BMI2 `PEXT` for splicing) on `x86_64` with a portable
//! unrolled fallback; results are bit-identical either way.

use crate::kernel;

/// Bits per packed word.
const WORD_BITS: usize = 64;

/// A dense, row-major, bit-packed gene×sample matrix.
///
/// Rows are genes; columns are samples. All rows share the same number of
/// words; bits at column positions `>= n_samples` (the tail of the last
/// word) are kept at zero as an invariant, so popcounts never over-count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    n_genes: usize,
    n_samples: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix of the given shape.
    #[must_use]
    pub fn zeros(n_genes: usize, n_samples: usize) -> Self {
        let words_per_row = n_samples.div_ceil(WORD_BITS);
        BitMatrix {
            n_genes,
            n_samples,
            words_per_row,
            data: vec![0; n_genes * words_per_row],
        }
    }

    /// Build from per-gene sample index lists (`rows[g]` = mutated samples).
    ///
    /// # Panics
    /// Panics if any sample index is out of range.
    #[must_use]
    pub fn from_rows(n_genes: usize, n_samples: usize, rows: &[Vec<usize>]) -> Self {
        assert_eq!(rows.len(), n_genes, "one index list per gene required");
        let mut m = Self::zeros(n_genes, n_samples);
        for (g, samples) in rows.iter().enumerate() {
            for &s in samples {
                m.set(g, s, true);
            }
        }
        m
    }

    /// Build from a dense boolean matrix (`dense[g][s]`).
    #[must_use]
    pub fn from_dense(dense: &[Vec<bool>]) -> Self {
        let n_genes = dense.len();
        let n_samples = dense.first().map_or(0, Vec::len);
        let mut m = Self::zeros(n_genes, n_samples);
        for (g, row) in dense.iter().enumerate() {
            assert_eq!(row.len(), n_samples, "ragged dense matrix");
            for (s, &v) in row.iter().enumerate() {
                if v {
                    m.set(g, s, true);
                }
            }
        }
        m
    }

    /// Number of genes (rows).
    #[inline]
    #[must_use]
    pub fn n_genes(&self) -> usize {
        self.n_genes
    }

    /// Number of samples (columns).
    #[inline]
    #[must_use]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Packed words per gene row.
    #[inline]
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Total heap bytes held by the packed data.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u64>()
    }

    /// The packed words of gene `g`'s row.
    #[inline]
    #[must_use]
    pub fn row(&self, g: usize) -> &[u64] {
        let off = g * self.words_per_row;
        &self.data[off..off + self.words_per_row]
    }

    /// The contiguous packed words of gene rows `[lo, hi)`.
    ///
    /// Rows are stored row-major with no padding, so a block of consecutive
    /// genes is one contiguous slab — the block-sweep scan hands the
    /// *upcoming* block's slab to [`kernel::prefetch_words`] while the
    /// current block is being scored, keeping the row stream one block ahead
    /// of the ALU (the paper's MemOpt row prefetching).
    #[inline]
    #[must_use]
    pub fn rows_slab(&self, lo: usize, hi: usize) -> &[u64] {
        debug_assert!(lo <= hi && hi <= self.n_genes);
        &self.data[lo * self.words_per_row..hi * self.words_per_row]
    }

    /// Read entry `(g, s)`.
    #[inline]
    #[must_use]
    pub fn get(&self, g: usize, s: usize) -> bool {
        assert!(s < self.n_samples, "sample {s} out of range");
        let w = self.data[g * self.words_per_row + s / WORD_BITS];
        (w >> (s % WORD_BITS)) & 1 == 1
    }

    /// Write entry `(g, s)`.
    pub fn set(&mut self, g: usize, s: usize, v: bool) {
        assert!(g < self.n_genes, "gene {g} out of range");
        assert!(s < self.n_samples, "sample {s} out of range");
        let idx = g * self.words_per_row + s / WORD_BITS;
        let bit = 1u64 << (s % WORD_BITS);
        if v {
            self.data[idx] |= bit;
        } else {
            self.data[idx] &= !bit;
        }
    }

    /// Number of mutated samples in gene `g`'s row.
    #[must_use]
    pub fn row_popcount(&self, g: usize) -> u32 {
        kernel::popcount(self.row(g))
    }

    /// Count samples mutated in **all** the given genes (popcount of the
    /// AND of their rows). This is `TP` on the tumor matrix; on the normal
    /// matrix, `TN = n_samples − count_all`.
    ///
    /// ```
    /// use multihit_core::bitmat::BitMatrix;
    /// let m = BitMatrix::from_rows(3, 5, &[vec![0, 1, 4], vec![1, 4], vec![4]]);
    /// assert_eq!(m.count_all(&[0, 1]), 2); // samples 1 and 4
    /// assert_eq!(m.count_all(&[0, 1, 2]), 1); // sample 4 only
    /// ```
    #[must_use]
    pub fn count_all<const H: usize>(&self, genes: &[u32; H]) -> u32 {
        let rows: [&[u64]; H] = std::array::from_fn(|t| self.row(genes[t] as usize));
        kernel::and_rows_popcount(&rows)
    }

    /// The column mask (one bit per sample, packed) of samples mutated in all
    /// the given genes — the set of tumor samples a combination *covers*.
    #[must_use]
    pub fn cover_mask<const H: usize>(&self, genes: &[u32; H]) -> Vec<u64> {
        let rows: [&[u64]; H] = std::array::from_fn(|t| self.row(genes[t] as usize));
        (0..self.words_per_row)
            .map(|w| rows.iter().fold(u64::MAX, |acc, r| acc & r[w]))
            .collect()
    }

    /// Population count of a packed column mask.
    #[must_use]
    pub fn mask_popcount(mask: &[u64]) -> u32 {
        kernel::popcount(mask)
    }

    /// **BitSplicing** (§III-D): return a new matrix containing only the
    /// columns whose bit in `keep` is set. Column order is preserved. With
    /// every 64 columns removed, each later AND chain shrinks by one word.
    ///
    /// # Panics
    /// Panics if `keep` has fewer words than a row.
    #[must_use]
    pub fn splice_columns(&self, keep: &[u64]) -> BitMatrix {
        assert!(keep.len() >= self.words_per_row, "keep mask too short");
        // Normalize the mask to in-range columns, then compact each row a
        // word at a time with PEXT: the surviving bits of `row[w] & keep[w]`
        // stream into a little bit-buffer that spills full output words.
        let mut keep = keep[..self.words_per_row].to_vec();
        Self::trim_mask_tail(&mut keep, self.n_samples);
        let kept_count: usize = kernel::popcount(&keep) as usize;
        let mut out = BitMatrix::zeros(self.n_genes, kept_count);
        for g in 0..self.n_genes {
            let row = self.row(g);
            let off = g * out.words_per_row;
            let mut dst = off;
            let mut buf = 0u64;
            let mut fill = 0u32; // bits currently in `buf`
            for (w, &k) in keep.iter().enumerate() {
                let take = k.count_ones();
                if take == 0 {
                    continue;
                }
                let bits = kernel::pext(row[w], k);
                buf |= bits << fill;
                if fill + take >= 64 {
                    out.data[dst] = buf;
                    dst += 1;
                    let consumed = 64 - fill;
                    // `consumed` can be 64 only when fill == 0 and take == 64,
                    // in which case there is nothing left over.
                    buf = if consumed == 64 { 0 } else { bits >> consumed };
                    fill = fill + take - 64;
                } else {
                    fill += take;
                }
            }
            if fill > 0 {
                out.data[dst] = buf;
            }
        }
        debug_assert!(out.tail_is_clean());
        out
    }

    /// Number of 64-bit words a [`BitMatrix::splice_columns`] call with this
    /// `keep` mask writes: the spliced matrix's full backing store. The
    /// metric behind the Fig 5 splice-traffic accounting.
    ///
    /// # Panics
    /// Panics if `keep` has fewer words than a row.
    #[must_use]
    pub fn splice_words_written(&self, keep: &[u64]) -> u64 {
        assert!(keep.len() >= self.words_per_row, "keep mask too short");
        let kept = keep[..self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        (self.n_genes * kept.div_ceil(WORD_BITS)) as u64
    }

    /// A full-ones keep-mask for this matrix's column count (tail bits zero).
    #[must_use]
    pub fn full_mask(&self) -> Vec<u64> {
        let mut m = vec![u64::MAX; self.words_per_row];
        Self::trim_mask_tail(&mut m, self.n_samples);
        m
    }

    /// Zero all bits at positions `>= n_samples` in the last word of `mask`.
    pub fn trim_mask_tail(mask: &mut [u64], n_samples: usize) {
        if mask.is_empty() {
            return;
        }
        let rem = n_samples % WORD_BITS;
        if rem != 0 {
            let last = n_samples / WORD_BITS;
            mask[last] &= (1u64 << rem) - 1;
            for w in mask.iter_mut().skip(last + 1) {
                *w = 0;
            }
        }
    }

    /// Verify the zero-tail invariant (used by tests and debug assertions).
    #[must_use]
    pub fn tail_is_clean(&self) -> bool {
        let rem = self.n_samples % WORD_BITS;
        if rem == 0 || self.words_per_row == 0 {
            return true;
        }
        let bad = !((1u64 << rem) - 1);
        (0..self.n_genes).all(|g| self.row(g)[self.words_per_row - 1] & bad == 0)
    }

    /// Iterate the sample indices set in a packed mask.
    pub fn mask_indices(mask: &[u64], n_samples: usize) -> impl Iterator<Item = usize> + '_ {
        (0..n_samples).filter(move |&s| (mask[s / WORD_BITS] >> (s % WORD_BITS)) & 1 == 1)
    }

    /// A new matrix holding only the given rows, in the given order.
    /// Whole-word copies; sample columns are untouched.
    ///
    /// # Panics
    /// Panics if any row index is out of range.
    #[must_use]
    pub fn select_rows(&self, rows: &[u32]) -> BitMatrix {
        let mut out = BitMatrix::zeros(rows.len(), self.n_samples);
        for (dst, &g) in rows.iter().enumerate() {
            let src = self.row(g as usize);
            let off = dst * out.words_per_row;
            out.data[off..off + out.words_per_row].copy_from_slice(src);
        }
        out
    }
}

/// Per-gene skip lists over the all-zero 64-bit words of a [`BitMatrix`].
///
/// Real mutation matrices are overwhelmingly zeros: at TCGA-like rates most
/// genes are mutated in well under 1% of samples, so most packed words of a
/// row are 0 and contribute nothing to any AND chain or popcount. A
/// `SkipIndex` records, per gene, the sorted indices of the row's *nonzero*
/// words; sparse scan paths seed their compact partial ANDs from this list
/// and never touch the zero words at all. Results are bit-identical to the
/// dense scan by construction.
///
/// The index is derived data: build it once per scan over an immutable
/// matrix (splicing invalidates it).
#[derive(Clone, Debug)]
pub struct SkipIndex {
    /// `rows[g]` = sorted indices of gene `g`'s nonzero words.
    rows: Vec<Vec<u32>>,
    /// Total nonzero words across all rows.
    nonzero_words: u64,
    /// Total words across all rows (genes × words_per_row).
    total_words: u64,
}

impl SkipIndex {
    /// Scan `m` and record every gene's nonzero-word positions.
    #[must_use]
    pub fn build(m: &BitMatrix) -> SkipIndex {
        let mut rows = Vec::with_capacity(m.n_genes());
        let mut nonzero_words = 0u64;
        for g in 0..m.n_genes() {
            let idx: Vec<u32> = m
                .row(g)
                .iter()
                .enumerate()
                .filter(|(_, &w)| w != 0)
                .map(|(i, _)| i as u32)
                .collect();
            nonzero_words += idx.len() as u64;
            rows.push(idx);
        }
        SkipIndex {
            rows,
            nonzero_words,
            total_words: (m.n_genes() * m.words_per_row()) as u64,
        }
    }

    /// Sorted nonzero-word indices of gene `g`'s row.
    #[inline]
    #[must_use]
    pub fn row(&self, g: usize) -> &[u32] {
        &self.rows[g]
    }

    /// Fraction of packed words that are all-zero (what the sparse scan
    /// skips when seeding from a single row).
    #[must_use]
    pub fn zero_word_fraction(&self) -> f64 {
        if self.total_words == 0 {
            0.0
        } else {
            1.0 - self.nonzero_words as f64 / self.total_words as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> BitMatrix {
        // 3 genes, 70 samples (spans two words).
        let rows = vec![
            vec![0, 1, 2, 63, 64, 69],
            vec![1, 2, 3, 64, 65],
            vec![2, 63, 64, 69],
        ];
        BitMatrix::from_rows(3, 70, &rows)
    }

    #[test]
    fn shape_and_packing() {
        let m = sample_matrix();
        assert_eq!(m.n_genes(), 3);
        assert_eq!(m.n_samples(), 70);
        assert_eq!(m.words_per_row(), 2);
        assert_eq!(m.packed_bytes(), 3 * 2 * 8);
        assert!(m.tail_is_clean());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = BitMatrix::zeros(2, 130);
        assert!(!m.get(1, 129));
        m.set(1, 129, true);
        assert!(m.get(1, 129));
        m.set(1, 129, false);
        assert!(!m.get(1, 129));
        assert!(m.tail_is_clean());
    }

    #[test]
    fn row_popcounts() {
        let m = sample_matrix();
        assert_eq!(m.row_popcount(0), 6);
        assert_eq!(m.row_popcount(1), 5);
        assert_eq!(m.row_popcount(2), 4);
    }

    #[test]
    fn count_all_pairs_and_triples() {
        let m = sample_matrix();
        // genes 0 & 1 share samples {1, 2, 64}.
        assert_eq!(m.count_all(&[0, 1]), 3);
        // genes 0 & 2 share {2, 63, 64, 69}.
        assert_eq!(m.count_all(&[0, 2]), 4);
        // all three share {2, 64}.
        assert_eq!(m.count_all(&[0, 1, 2]), 2);
        // single-gene degenerate case equals the row popcount.
        assert_eq!(m.count_all(&[1]), 5);
    }

    #[test]
    fn cover_mask_matches_count() {
        let m = sample_matrix();
        let mask = m.cover_mask(&[0, 1, 2]);
        assert_eq!(BitMatrix::mask_popcount(&mask), 2);
        let idx: Vec<usize> = BitMatrix::mask_indices(&mask, 70).collect();
        assert_eq!(idx, vec![2, 64]);
    }

    #[test]
    fn splice_removes_covered_columns() {
        let m = sample_matrix();
        // Remove the columns covered by (0,1,2): samples 2 and 64.
        let cov = m.cover_mask(&[0, 1, 2]);
        let mut keep = m.full_mask();
        for (k, c) in keep.iter_mut().zip(cov.iter()) {
            *k &= !c;
        }
        let s = m.splice_columns(&keep);
        assert_eq!(s.n_samples(), 68);
        assert!(s.tail_is_clean());
        // Nothing is shared by all three genes any more.
        assert_eq!(s.count_all(&[0, 1, 2]), 0);
        // Gene 0 lost exactly its two covered samples.
        assert_eq!(s.row_popcount(0), 4);
        // Column order is preserved: old sample 3 (gene 1) is new sample 2.
        assert!(s.get(1, 2));
    }

    #[test]
    fn splice_word_boundary_shrink() {
        // 65 samples; dropping two crosses back under one word.
        let mut m = BitMatrix::zeros(1, 65);
        m.set(0, 0, true);
        m.set(0, 64, true);
        let mut keep = m.full_mask();
        keep[0] &= !0b10; // drop sample 1
        keep[1] = 0; // drop sample 64
        let s = m.splice_columns(&keep);
        assert_eq!(s.n_samples(), 63);
        assert_eq!(s.words_per_row(), 1);
        assert_eq!(s.row_popcount(0), 1);
        assert!(s.get(0, 0));
    }

    #[test]
    fn full_mask_tail_trimmed() {
        let m = BitMatrix::zeros(1, 70);
        let f = m.full_mask();
        assert_eq!(BitMatrix::mask_popcount(&f), 70);
    }

    #[test]
    fn from_dense_agrees_with_from_rows() {
        let rows = vec![vec![0, 5], vec![1]];
        let a = BitMatrix::from_rows(2, 8, &rows);
        let dense = vec![
            vec![true, false, false, false, false, true, false, false],
            vec![false, true, false, false, false, false, false, false],
        ];
        let b = BitMatrix::from_dense(&dense);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sample 70 out of range")]
    fn oob_get_panics() {
        let m = sample_matrix();
        let _ = m.get(0, 70);
    }

    #[test]
    fn select_rows_copies_whole_rows() {
        let m = sample_matrix();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.n_genes(), 2);
        assert_eq!(s.n_samples(), 70);
        assert_eq!(s.row(0), m.row(2));
        assert_eq!(s.row(1), m.row(0));
        assert!(s.tail_is_clean());
    }

    #[test]
    fn skip_index_finds_nonzero_words() {
        let mut m = BitMatrix::zeros(3, 200); // 4 words per row
        m.set(0, 0, true);
        m.set(0, 130, true); // words 0 and 2
        m.set(2, 70, true); // word 1
        let idx = SkipIndex::build(&m);
        assert_eq!(idx.row(0), &[0, 2]);
        assert_eq!(idx.row(1), &[] as &[u32]);
        assert_eq!(idx.row(2), &[1]);
        let frac = idx.zero_word_fraction();
        assert!((frac - 9.0 / 12.0).abs() < 1e-12, "frac {frac}");
    }

    #[test]
    fn compression_ratio_is_32x_vs_u32_matrix() {
        // The paper reports 32× memory reduction versus the uncompressed
        // representation (one 32-bit int per entry): 64 samples/word = 8B
        // per 64 entries vs 256B.
        let m = BitMatrix::zeros(100, 6400);
        let uncompressed = 100 * 6400 * 4;
        assert_eq!(uncompressed / m.packed_bytes(), 32);
    }
}
