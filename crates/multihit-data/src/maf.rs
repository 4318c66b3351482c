//! Minimal Mutation Annotation Format (MAF) I/O and summarization.
//!
//! The paper's pipeline downloads TCGA MAF files (Mutect2 calls) and
//! summarizes them into binary gene×sample matrices (§III-G). This module
//! implements the same funnel for our synthetic cohorts: a writer that emits
//! the subset of MAF columns the summarizer needs, a tolerant tab-separated
//! parser, and the summarizer itself. Round-tripping a cohort through MAF
//! text and back yields the original matrices (tested), so the algorithm's
//! input path matches the paper's end to end.
//!
//! A parsed record borrows its gene symbol and sample barcode from the MAF
//! text, so parsing allocates one `String` per record (the variant class)
//! and dropping the records frees no per-field heap. The parser walks each
//! line's fields only up to the last column it needs: real TCGA MAFs carry
//! 100+ columns, and the four it reads need not come first.

use multihit_core::bitmat::BitMatrix;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One MAF record (the fields the summarizer consumes). The gene symbol and
/// barcode borrow from the text [`parse_maf`] read them from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MafRecord<'a> {
    /// Gene symbol (`Hugo_Symbol`).
    pub hugo_symbol: Cow<'a, str>,
    /// Sample barcode (`Tumor_Sample_Barcode`).
    pub sample_barcode: Cow<'a, str>,
    /// Variant classification (e.g. `Missense_Mutation`, `Silent`).
    pub variant_classification: String,
    /// 1-based protein position, when applicable.
    pub protein_position: Option<u32>,
}

/// Variant classes counted as protein-altering by the summarizer; `Silent`
/// and intronic classes are ignored, mirroring standard driver analyses.
const PROTEIN_ALTERING: [&str; 7] = [
    "Missense_Mutation",
    "Nonsense_Mutation",
    "Frame_Shift_Del",
    "Frame_Shift_Ins",
    "In_Frame_Del",
    "In_Frame_Ins",
    "Splice_Site",
];

/// Is this classification protein-altering?
#[must_use]
pub fn is_protein_altering(class: &str) -> bool {
    PROTEIN_ALTERING.contains(&class)
}

const HEADER: &str = "Hugo_Symbol\tTumor_Sample_Barcode\tVariant_Classification\tProtein_position";

/// Serialize records to MAF text (header + one TSV line per record).
#[must_use]
pub fn write_maf(records: &[MafRecord<'_>]) -> String {
    let mut out = String::with_capacity(records.len() * 48 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for r in records {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            r.hugo_symbol,
            r.sample_barcode,
            r.variant_classification,
            r.protein_position
                .map_or_else(|| ".".to_string(), |p| p.to_string()),
        );
    }
    out
}

/// Errors from MAF parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum MafError {
    /// The header line is missing or lacks a required column.
    BadHeader(String),
    /// A data line has too few columns.
    ShortLine {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for MafError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MafError::BadHeader(c) => write!(f, "MAF header missing column {c}"),
            MafError::ShortLine { line } => write!(f, "MAF line {line} has too few columns"),
        }
    }
}

impl std::error::Error for MafError {}

/// Parse MAF text. Column order is taken from the header (TCGA MAFs carry
/// 100+ columns; we locate the four we need). Lines starting with `#` are
/// comments. Unparsable protein positions become `None`.
pub fn parse_maf(text: &str) -> Result<Vec<MafRecord<'_>>, MafError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.starts_with('#'));
    let (_, header) = lines
        .next()
        .ok_or_else(|| MafError::BadHeader("Hugo_Symbol".into()))?;
    let cols: Vec<&str> = header.split('\t').collect();
    let find = |name: &str| -> Result<usize, MafError> {
        cols.iter()
            .position(|c| *c == name)
            .ok_or_else(|| MafError::BadHeader(name.into()))
    };
    let wanted = [
        find("Hugo_Symbol")?,
        find("Tumor_Sample_Barcode")?,
        find("Variant_Classification")?,
        find("Protein_position")?,
    ];
    // Column → which wanted field it holds, up to the last wanted column.
    let mut slot_of = vec![None; wanted.iter().max().map_or(0, |&c| c + 1)];
    for (k, &c) in wanted.iter().enumerate() {
        slot_of[c] = Some(k);
    }

    let mut out = Vec::new();
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let mut got = [""; 4];
        let mut seen = 0;
        for (field, slot) in line.split('\t').zip(&slot_of) {
            if let Some(k) = *slot {
                got[k] = field;
            }
            seen += 1;
        }
        if seen < slot_of.len() {
            return Err(MafError::ShortLine { line: idx + 1 });
        }
        let [sym, bar, cls, pos] = got;
        out.push(MafRecord {
            hugo_symbol: Cow::Borrowed(sym),
            sample_barcode: Cow::Borrowed(bar),
            variant_classification: cls.to_string(),
            protein_position: pos.split('/').next().and_then(|p| p.parse().ok()),
        });
    }
    Ok(out)
}

/// Result of summarizing MAF records against a fixed gene universe.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Binary gene×sample matrix over protein-altering records.
    pub matrix: BitMatrix,
    /// Sample barcodes in column order.
    pub samples: Vec<String>,
    /// Records whose gene symbol was not in the universe.
    pub unknown_genes: usize,
    /// Records skipped as non-protein-altering.
    pub silent_skipped: usize,
}

/// Summarize records into a gene×sample bit matrix.
///
/// `gene_index` maps symbol → row. Samples are assigned columns in first-seen
/// order (deterministic given record order).
#[must_use]
pub fn summarize(records: &[MafRecord<'_>], gene_index: &HashMap<String, usize>) -> Summary {
    let mut samples: Vec<String> = Vec::new();
    let mut sample_index: HashMap<&str, usize> = HashMap::new();
    let mut cells: Vec<(usize, usize)> = Vec::new();
    let mut unknown_genes = 0usize;
    let mut silent_skipped = 0usize;

    for r in records {
        if !is_protein_altering(&r.variant_classification) {
            silent_skipped += 1;
            continue;
        }
        let Some(&g) = gene_index.get(r.hugo_symbol.as_ref()) else {
            unknown_genes += 1;
            continue;
        };
        let s = *sample_index
            .entry(r.sample_barcode.as_ref())
            .or_insert_with(|| {
                samples.push(r.sample_barcode.to_string());
                samples.len() - 1
            });
        cells.push((g, s));
    }

    let mut matrix = BitMatrix::zeros(gene_index.len(), samples.len());
    for (g, s) in cells {
        matrix.set(g, s, true);
    }
    Summary {
        matrix,
        samples,
        unknown_genes,
        silent_skipped,
    }
}

/// Emit a cohort's tumor matrix as MAF records (one record per set bit),
/// with deterministic barcodes `{prefix}-{s:04}`. Positions, when a
/// position profile is supplied per gene, come from the profile; otherwise
/// position 1 is used. Gene symbols borrow from `gene_names`.
#[must_use]
pub fn matrix_to_records<'a>(
    matrix: &BitMatrix,
    gene_names: &'a [String],
    barcode_prefix: &str,
) -> Vec<MafRecord<'a>> {
    let mut out = Vec::new();
    for s in 0..matrix.n_samples() {
        for (g, name) in gene_names.iter().enumerate() {
            if matrix.get(g, s) {
                out.push(MafRecord {
                    hugo_symbol: Cow::Borrowed(name),
                    sample_barcode: Cow::Owned(format!("{barcode_prefix}-{s:04}")),
                    variant_classification: "Missense_Mutation".to_string(),
                    protein_position: Some(1),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(names: &[&str]) -> HashMap<String, usize> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), i))
            .collect()
    }

    #[test]
    fn roundtrip_write_parse() {
        let recs = vec![
            MafRecord {
                hugo_symbol: "IDH1".into(),
                sample_barcode: "TCGA-01".into(),
                variant_classification: "Missense_Mutation".into(),
                protein_position: Some(132),
            },
            MafRecord {
                hugo_symbol: "MUC6".into(),
                sample_barcode: "TCGA-02".into(),
                variant_classification: "Silent".into(),
                protein_position: None,
            },
        ];
        let text = write_maf(&recs);
        let back = parse_maf(&text).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn parser_tolerates_comments_and_column_order() {
        let text = "#version 2.4\nTumor_Sample_Barcode\tHugo_Symbol\tProtein_position\tVariant_Classification\nS1\tTP53\t273\tMissense_Mutation\n";
        let r = parse_maf(text).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].hugo_symbol, "TP53");
        assert_eq!(r[0].protein_position, Some(273));
    }

    #[test]
    fn parser_handles_slash_positions() {
        // TCGA writes positions as "132/414".
        let text = format!("{HEADER}\nIDH1\tS1\tMissense_Mutation\t132/414\n");
        let r = parse_maf(&text).unwrap();
        assert_eq!(r[0].protein_position, Some(132));
    }

    #[test]
    fn parser_rejects_missing_column() {
        let err = parse_maf("Hugo_Symbol\tTumor_Sample_Barcode\nX\tY\n").unwrap_err();
        assert_eq!(err, MafError::BadHeader("Variant_Classification".into()));
    }

    #[test]
    fn parser_rejects_short_line() {
        let text = format!("{HEADER}\nIDH1\tS1\n");
        let err = parse_maf(&text).unwrap_err();
        assert!(matches!(err, MafError::ShortLine { .. }));
    }

    #[test]
    fn summarize_skips_silent_and_unknown() {
        let gi = universe(&["A", "B"]);
        let recs = vec![
            MafRecord {
                hugo_symbol: "A".into(),
                sample_barcode: "S1".into(),
                variant_classification: "Missense_Mutation".into(),
                protein_position: None,
            },
            MafRecord {
                hugo_symbol: "A".into(),
                sample_barcode: "S1".into(),
                variant_classification: "Silent".into(),
                protein_position: None,
            },
            MafRecord {
                hugo_symbol: "ZZZ".into(),
                sample_barcode: "S2".into(),
                variant_classification: "Nonsense_Mutation".into(),
                protein_position: None,
            },
        ];
        let s = summarize(&recs, &gi);
        assert_eq!(s.silent_skipped, 1);
        assert_eq!(s.unknown_genes, 1);
        assert_eq!(s.samples, vec!["S1".to_string()]);
        assert!(s.matrix.get(0, 0));
        assert!(!s.matrix.get(1, 0));
    }

    #[test]
    fn duplicate_mutations_collapse_to_one_bit() {
        let gi = universe(&["A"]);
        let rec = MafRecord {
            hugo_symbol: "A".into(),
            sample_barcode: "S1".into(),
            variant_classification: "Missense_Mutation".into(),
            protein_position: Some(5),
        };
        let s = summarize(&[rec.clone(), rec], &gi);
        assert_eq!(s.matrix.row_popcount(0), 1);
    }

    #[test]
    fn cohort_roundtrips_through_maf() {
        use crate::synth::{gene_symbols, generate, CohortSpec};
        let cohort = generate(&CohortSpec {
            n_genes: 20,
            n_tumor: 30,
            ..Default::default()
        });
        let names = gene_symbols(&cohort);
        let recs = matrix_to_records(&cohort.tumor, &names, "TCGA-T");
        let text = write_maf(&recs);
        let parsed = parse_maf(&text).unwrap();
        let gi: HashMap<String, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let summary = summarize(&parsed, &gi);
        // Samples with zero mutations never appear in a MAF; compare only
        // non-empty columns, which keep their relative order.
        let nonempty: Vec<usize> = (0..cohort.tumor.n_samples())
            .filter(|&s| (0..20).any(|g| cohort.tumor.get(g, s)))
            .collect();
        assert_eq!(summary.samples.len(), nonempty.len());
        for (new_s, &old_s) in nonempty.iter().enumerate() {
            for g in 0..20 {
                assert_eq!(summary.matrix.get(g, new_s), cohort.tumor.get(g, old_s));
            }
        }
    }

    /// `records` as a 120-column MAF: the four columns the parser reads sit
    /// at scattered positions, every other column carries filler.
    fn write_wide(records: &[MafRecord<'_>]) -> String {
        const WIDTH: usize = 120;
        const AT: [(usize, &str); 4] = [
            (97, "Hugo_Symbol"),
            (5, "Tumor_Sample_Barcode"),
            (63, "Variant_Classification"),
            (118, "Protein_position"),
        ];
        let row = |cell: &dyn Fn(usize) -> String| -> String {
            (0..WIDTH).map(cell).collect::<Vec<_>>().join("\t")
        };
        let named = |c: usize| AT.iter().position(|&(at, _)| at == c);
        let mut out = row(&|c| named(c).map_or(format!("Col_{c}"), |k| AT[k].1.to_string()));
        out.push('\n');
        for r in records {
            let pos = r
                .protein_position
                .map_or(".".to_string(), |p| p.to_string());
            let fields = [
                &*r.hugo_symbol,
                &*r.sample_barcode,
                &r.variant_classification,
                &pos,
            ];
            out += &row(&|c| named(c).map_or(format!("x{c}"), |k| fields[k].to_string()));
            out.push('\n');
        }
        out
    }

    #[test]
    fn wide_maf_reads_like_the_narrow_one() {
        use crate::synth::{gene_symbols, generate, CohortSpec};
        let cohort = generate(&CohortSpec {
            n_genes: 20,
            n_tumor: 30,
            ..Default::default()
        });
        let names = gene_symbols(&cohort);
        // Every third record gets a silent twin in a sample of its own, so
        // the silent lines would add columns if they were counted.
        let mut recs = Vec::new();
        for (i, r) in matrix_to_records(&cohort.tumor, &names, "T")
            .into_iter()
            .enumerate()
        {
            if i % 3 == 0 {
                recs.push(MafRecord {
                    sample_barcode: Cow::Owned(format!("SILENT-{i}")),
                    variant_classification: "Silent".into(),
                    ..r.clone()
                });
            }
            recs.push(r);
        }
        let gi: HashMap<String, usize> = names.iter().cloned().zip(0..).collect();
        let narrow_text = write_maf(&recs);
        let wide_text = write_wide(&recs);
        let narrow = summarize(&parse_maf(&narrow_text).unwrap(), &gi);
        let wide = summarize(&parse_maf(&wide_text).unwrap(), &gi);
        assert_eq!(parse_maf(&wide_text).unwrap(), recs);
        assert_eq!(wide.matrix, narrow.matrix);
        assert_eq!(wide.samples, narrow.samples);
        assert_eq!(wide.silent_skipped, narrow.silent_skipped);
        assert!(narrow.silent_skipped > 0);

        // A line cut short after a comment line: both report the line's
        // number in the file, comments counted.
        let cut = |text: &str, keep: usize| {
            let mut lines: Vec<String> = text.lines().take(3).map(str::to_string).collect();
            lines.insert(0, "#version 2.4".into());
            lines.push("#a comment".into());
            let last = text.lines().nth(3).unwrap();
            lines.push(last.split('\t').take(keep).collect::<Vec<_>>().join("\t"));
            parse_maf(&lines.join("\n")).unwrap_err()
        };
        assert_eq!(cut(&narrow_text, 3), MafError::ShortLine { line: 6 });
        assert_eq!(cut(&wide_text, 118), MafError::ShortLine { line: 6 });
        assert_eq!(cut(&wide_text, 64), MafError::ShortLine { line: 6 });
    }
}
