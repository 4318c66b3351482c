//! Panel digests committed under `golden/`: one line per greedy iteration,
//! `iteration<TAB>gene ids<TAB>TP<TAB>TN`, taken at cohort seed 2021.

use crate::oracle::Pick;
use std::fmt::Write as _;

pub fn to_text(picks: &[Pick]) -> String {
    let mut out = String::new();
    for (i, p) in picks.iter().enumerate() {
        let genes: Vec<String> = p.genes.iter().map(u32::to_string).collect();
        writeln!(out, "{i}\t{}\t{}\t{}", genes.join(","), p.tp, p.tn).expect("write to String");
    }
    out
}

/// The digest committed for `workload`, if there is one.
pub fn committed(workload: &str) -> Option<&'static str> {
    match workload {
        "brca_h3" => Some(include_str!("../golden/brca_h3.tsv")),
        "luad_h4" => Some(include_str!("../golden/luad_h4.tsv")),
        "scan_exhaustive_h3" => Some(include_str!("../golden/scan_exhaustive_h3.tsv")),
        "cluster_acc_h4" => Some(include_str!("../golden/cluster_acc_h4.tsv")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_text_is_one_line_per_pick() {
        let picks = [
            Pick {
                genes: vec![3, 17, 40],
                tp: 61,
                tn: 329,
            },
            Pick {
                genes: vec![1, 2, 9],
                tp: 7,
                tn: 300,
            },
        ];
        assert_eq!(to_text(&picks), "0\t3,17,40\t61\t329\n1\t1,2,9\t7\t300\n");
    }

    #[test]
    fn every_search_workload_has_a_digest() {
        for w in ["brca_h3", "luad_h4", "scan_exhaustive_h3", "cluster_acc_h4"] {
            assert!(committed(w).is_some_and(|t| !t.is_empty()), "{w}");
        }
        assert!(committed("serve_hit").is_none());
    }
}
