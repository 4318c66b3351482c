//! Independent answers the engine's output is compared with. Nothing here
//! calls the engine: matrices are read through `BitMatrix::get` only, and the
//! objective and its tie-break are written out again from the paper.

use multihit_core::bitmat::BitMatrix;

/// One greedy pick: the genes, the uncovered tumours they newly cover, and
/// the normals that do not carry all of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pick {
    pub genes: Vec<u32>,
    pub tp: u32,
    pub tn: u32,
}

/// `10·F·(Nt+Nn)` at the paper's α = 0.1: `TP + 10·TN`, and 0 for a
/// combination that covers no remaining tumour (set cover never picks one).
fn score(tp: u32, tn: u32) -> u64 {
    if tp == 0 {
        0
    } else {
        u64::from(tp) + 10 * u64::from(tn)
    }
}

/// Replay a reported panel sample by sample: each pick's TP must be the
/// tumours that carry all its genes and that no earlier pick covered, its TN
/// the normals that lack at least one. Returns the number of picks whose
/// reported counts are wrong, and the tumours left uncovered at the end.
pub fn replay(tumor: &BitMatrix, normal: &BitMatrix, picks: &[Pick]) -> (usize, u32) {
    let mut uncovered = vec![true; tumor.n_samples()];
    let mut wrong = 0;
    for p in picks {
        let carries = |m: &BitMatrix, s: usize| p.genes.iter().all(|&g| m.get(g as usize, s));
        let mut tp = 0;
        for (s, open) in uncovered.iter_mut().enumerate() {
            if *open && carries(tumor, s) {
                *open = false;
                tp += 1;
            }
        }
        let tn = (0..normal.n_samples())
            .filter(|&s| !carries(normal, s))
            .count() as u32;
        if (tp, tn) != (p.tp, p.tn) {
            wrong += 1;
        }
    }
    (wrong, uncovered.iter().filter(|&&u| u).count() as u32)
}

/// Rows repacked 64 samples to a word, bit by bit through `get`.
fn pack(m: &BitMatrix) -> Vec<Vec<u64>> {
    (0..m.n_genes())
        .map(|g| {
            let mut row = vec![0u64; m.n_samples().div_ceil(64)];
            for s in (0..m.n_samples()).filter(|&s| m.get(g, s)) {
                row[s / 64] |= 1 << (s % 64);
            }
            row
        })
        .collect()
}

fn and(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x & y).collect()
}

fn and_count(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// Ties go to the combination that comes first in colexicographic order:
/// compare the highest gene, then the next highest, smaller wins.
fn colex_before(a: &[u32], b: &[u32]) -> bool {
    a.iter().rev().lt(b.iter().rev())
}

struct Search<'a> {
    tumor: &'a [Vec<u64>],
    normal: &'a [Vec<u64>],
    n_normal: u32,
    chosen: Vec<u32>,
    best: Option<(u64, Pick)>,
}

impl Search<'_> {
    /// Extend `chosen` by `left` more genes, all numbered from `from` up.
    fn extend(&mut self, left: usize, from: usize, acc_t: &[u64], acc_n: &[u64]) {
        for g in from..self.tumor.len() {
            self.chosen.push(g as u32);
            if left == 1 {
                let tp = and_count(acc_t, &self.tumor[g]);
                let tn = self.n_normal - and_count(acc_n, &self.normal[g]);
                let s = score(tp, tn);
                let wins = match &self.best {
                    None => true,
                    Some((bs, b)) => s > *bs || (s == *bs && colex_before(&self.chosen, &b.genes)),
                };
                if wins {
                    self.best = Some((
                        s,
                        Pick {
                            genes: self.chosen.clone(),
                            tp,
                            tn,
                        },
                    ));
                }
            } else {
                let (t, n) = (and(acc_t, &self.tumor[g]), and(acc_n, &self.normal[g]));
                self.extend(left - 1, g + 1, &t, &n);
            }
            self.chosen.pop();
        }
    }
}

/// Greedy weighted set cover by exhaustive search: at most `max_picks`
/// picks (0 = until every tumour is covered or nothing covers any more),
/// each the best-scoring `h`-gene combination over the uncovered tumours.
pub fn brute_greedy(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    h: usize,
    max_picks: usize,
) -> Vec<Pick> {
    let (rows_t, rows_n) = (pack(tumor), pack(normal));
    let mut open = vec![u64::MAX; tumor.n_samples().div_ceil(64)];
    if let (Some(last), r @ 1..) = (open.last_mut(), tumor.n_samples() % 64) {
        *last = (1 << r) - 1;
    }
    let all_normal = vec![u64::MAX; normal.n_samples().div_ceil(64)];
    let mut picks = Vec::new();
    while max_picks == 0 || picks.len() < max_picks {
        let mut search = Search {
            tumor: &rows_t,
            normal: &rows_n,
            n_normal: normal.n_samples() as u32,
            chosen: Vec::with_capacity(h),
            best: None,
        };
        search.extend(h, 0, &open, &all_normal);
        match search.best {
            Some((_, pick)) if pick.tp > 0 => {
                // The open tumours carrying every picked gene are now covered.
                let mut cover = open.clone();
                for &g in &pick.genes {
                    cover = and(&cover, &rows_t[g as usize]);
                }
                for (o, c) in open.iter_mut().zip(&cover) {
                    *o &= !c;
                }
                picks.push(pick);
            }
            _ => break,
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six genes, five tumours, four normals, worked by hand for h = 2.
    ///
    /// tumour rows: g0 {0,1,2}  g1 {0,1,2,3}  g2 {3,4}  g3 {3,4}  g4 {0}  g5 {}
    /// normal rows: g0 {0}      g1 {0,1}      g2 {}     g3 {2}    g4 {}   g5 {0,1,2,3}
    fn six_genes() -> (BitMatrix, BitMatrix) {
        let tumor = BitMatrix::from_rows(
            6,
            5,
            &[
                vec![0, 1, 2],
                vec![0, 1, 2, 3],
                vec![3, 4],
                vec![3, 4],
                vec![0],
                vec![],
            ],
        );
        let normal = BitMatrix::from_rows(
            6,
            4,
            &[
                vec![0],
                vec![0, 1],
                vec![],
                vec![2],
                vec![],
                vec![0, 1, 2, 3],
            ],
        );
        (tumor, normal)
    }

    #[test]
    fn brute_force_matches_the_hand_computed_case() {
        let (tumor, normal) = six_genes();
        // Pick 1: {0,1} covers tumours 0,1,2 (TP 3); only normal 0 carries
        // both, TN 3 → 3 + 30 = 33. {2,3} covers 3,4 (TP 2), no normal
        // carries both, TN 4 → 2 + 40 = 42, which wins. Every other pair
        // covers at most one tumour: at best 1 + 40 = 41.
        // Pick 2 (tumours 0,1,2 left): {0,1} → 33; {0,4} and {1,4} cover
        // tumour 0 with TN 4 → 41 each; colex order puts {0,4} first.
        // Pick 3 (tumours 1,2 left): {0,1} → 2 + 30 = 32, nothing else
        // covers either. Then everything is covered.
        let picks = brute_greedy(&tumor, &normal, 2, 0);
        let want = [(vec![2, 3], 2, 4), (vec![0, 4], 1, 4), (vec![0, 1], 2, 3)];
        assert_eq!(picks.len(), 3);
        for (p, (genes, tp, tn)) in picks.iter().zip(want) {
            assert_eq!((&p.genes, p.tp, p.tn), (&genes, tp, tn));
        }
        assert_eq!(brute_greedy(&tumor, &normal, 2, 1).len(), 1);
        assert_eq!(replay(&tumor, &normal, &picks), (0, 0));
    }

    #[test]
    fn replay_flags_wrong_counts_and_reports_the_uncovered() {
        let (tumor, normal) = six_genes();
        let mut picks = brute_greedy(&tumor, &normal, 2, 2);
        assert_eq!(replay(&tumor, &normal, &picks), (0, 2));
        picks[1].tp += 1;
        assert_eq!(replay(&tumor, &normal, &picks), (1, 2));
    }

    #[test]
    fn ties_break_towards_the_colex_smaller_combination() {
        assert!(colex_before(&[0, 4], &[1, 4]));
        assert!(colex_before(&[2, 3], &[0, 4]));
        assert!(!colex_before(&[1, 4], &[1, 4]));
    }

    #[test]
    fn the_search_stops_when_nothing_covers_a_remaining_tumour() {
        let tumor = BitMatrix::from_rows(3, 2, &[vec![0], vec![0], vec![]]);
        let normal = BitMatrix::from_rows(3, 1, &[vec![], vec![], vec![]]);
        let picks = brute_greedy(&tumor, &normal, 2, 0);
        assert_eq!(picks.len(), 1);
        assert_eq!(replay(&tumor, &normal, &picks), (0, 1));
    }
}
