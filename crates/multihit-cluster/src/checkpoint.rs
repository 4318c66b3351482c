//! Checkpoint/restart for long discovery runs.
//!
//! §IV-A notes Summit caps small allocations at 2 hours — production runs
//! of an iterative algorithm must survive allocation boundaries. A
//! checkpoint captures everything the greedy loop needs to resume:
//! the combinations already chosen and the covered-tumor mask (the spliced
//! matrix is reconstructed from the original input plus the mask, so the
//! checkpoint stays tiny — tens of bytes per iteration, not gigabytes of
//! matrix). The functional cluster driver writes them and resumes from
//! them ([`crate::driver::distributed_discover4_checkpointed`]).
//!
//! The format is a versioned, line-oriented text file: portable, diffable,
//! and parsable without extra dependencies. A CRC-32 trailer covers the
//! whole body, so torn writes and silent media corruption are detected at
//! resume instead of resuming from garbage. [`CheckpointStore`] adds the
//! durable on-disk protocol: write-to-temp + rename atomicity, a `.bak` of
//! the previous good checkpoint, and automatic fallback to it when the
//! primary file is corrupt.

use crate::fault::{crc32, CheckpointFault, FaultState};
use multihit_core::bitmat::BitMatrix;
use multihit_core::obs::Obs;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Resumable state of a 4-hit discovery run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Gene universe size (validated on resume).
    pub n_genes: usize,
    /// Original tumor sample count (validated on resume).
    pub n_tumor: usize,
    /// Combinations chosen so far, in order.
    pub chosen: Vec<[u32; 4]>,
    /// Packed mask of still-uncovered tumor columns (original indexing).
    pub uncovered_mask: Vec<u64>,
}

/// The format version: 2 added the CRC-32 trailer, and files without one
/// are rejected.
const CHECKPOINT_VERSION: u32 = 2;

impl Checkpoint {
    /// A fresh checkpoint for an input cohort (nothing chosen yet).
    #[must_use]
    pub fn fresh(tumor: &BitMatrix) -> Self {
        Checkpoint {
            n_genes: tumor.n_genes(),
            n_tumor: tumor.n_samples(),
            chosen: Vec::new(),
            uncovered_mask: tumor.full_mask(),
        }
    }

    /// Uncovered tumor samples remaining.
    #[must_use]
    pub fn remaining(&self) -> u32 {
        BitMatrix::mask_popcount(&self.uncovered_mask)
    }

    /// Serialize to the text format, ending in a `crc` trailer line: CRC-32
    /// over every byte before it.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "multihit-checkpoint\tv{CHECKPOINT_VERSION}");
        let _ = writeln!(out, "genes\t{}", self.n_genes);
        let _ = writeln!(out, "tumors\t{}", self.n_tumor);
        let _ = writeln!(out, "mask\t{}", hex_words(&self.uncovered_mask));
        for c in &self.chosen {
            let _ = writeln!(out, "combo\t{}\t{}\t{}\t{}", c[0], c[1], c[2], c[3]);
        }
        let _ = writeln!(out, "crc\t{:08x}", crc32(out.as_bytes()));
        out
    }

    /// Parse the text format, verifying the CRC trailer. Also rejects
    /// duplicate header records, out-of-range gene ids, and a mask whose
    /// length disagrees with the tumor count — corruption that slips past
    /// the CRC must not resume into a silently wrong run.
    ///
    /// # Errors
    /// Returns a message naming the offending line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        // Split off the trailer first: everything before it is the body the
        // CRC covers.
        let (body, crc_hex) = match text.rfind("\ncrc\t") {
            Some(pos) => (&text[..pos + 1], Some(text[pos + 5..].trim_end())),
            None => (text, None),
        };
        let mut lines = body.lines();
        let head = lines.next().ok_or("empty checkpoint")?;
        let version: u32 = head
            .strip_prefix("multihit-checkpoint\tv")
            .and_then(|v| v.parse().ok())
            .ok_or("bad checkpoint header")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let hex = crc_hex.ok_or("missing crc trailer")?;
        let stated =
            u32::from_str_radix(hex, 16).map_err(|_| format!("bad crc trailer {hex:?}"))?;
        let actual = crc32(body.as_bytes());
        if stated != actual {
            return Err(format!(
                "crc mismatch: file says {stated:08x}, content is {actual:08x}"
            ));
        }
        let mut n_genes: Option<usize> = None;
        let mut n_tumor: Option<usize> = None;
        let mut uncovered_mask: Option<Vec<u64>> = None;
        let mut chosen: Vec<[u32; 4]> = Vec::new();
        for (idx, line) in lines.enumerate() {
            let err = |what: &str| format!("line {}: {what}", idx + 2);
            let mut f = line.split('\t');
            match f.next() {
                Some(key @ ("genes" | "tumors")) => {
                    let slot = if key == "genes" {
                        &mut n_genes
                    } else {
                        &mut n_tumor
                    };
                    if slot.is_some() {
                        return Err(err(&format!("duplicate {key} record")));
                    }
                    let value = f.next().and_then(|v| v.parse().ok());
                    *slot = Some(value.ok_or_else(|| err(&format!("bad {key}")))?);
                }
                Some("mask") => {
                    if uncovered_mask.is_some() {
                        return Err(err("duplicate mask record"));
                    }
                    uncovered_mask =
                        Some(parse_hex_words(f.next().unwrap_or("")).map_err(|e| err(&e))?);
                }
                Some("combo") => {
                    let mut c = [0u32; 4];
                    for slot in &mut c {
                        *slot = f
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad combo"))?;
                    }
                    chosen.push(c);
                }
                Some("") | None => continue,
                Some(other) => return Err(err(&format!("unknown record {other}"))),
            }
        }
        let n_genes = n_genes.ok_or("missing genes record")?;
        let n_tumor = n_tumor.ok_or("missing tumors record")?;
        let uncovered_mask = uncovered_mask.ok_or("missing mask record")?;
        let expect_words = n_tumor.div_ceil(64);
        if uncovered_mask.len() != expect_words {
            return Err(format!(
                "mask has {} words, {n_tumor} tumors need {expect_words}",
                uncovered_mask.len()
            ));
        }
        for (i, c) in chosen.iter().enumerate() {
            if let Some(&g) = c.iter().find(|&&g| g as usize >= n_genes) {
                return Err(format!(
                    "combo {i} has gene id {g} outside the {n_genes}-gene universe"
                ));
            }
        }
        Ok(Checkpoint {
            n_genes,
            n_tumor,
            chosen,
            uncovered_mask,
        })
    }

    /// Validate that this checkpoint belongs to the given input cohort.
    ///
    /// # Errors
    /// Returns a mismatch description.
    pub fn validate(&self, tumor: &BitMatrix) -> Result<(), String> {
        if self.n_genes != tumor.n_genes() {
            return Err(format!(
                "checkpoint has {} genes, input has {}",
                self.n_genes,
                tumor.n_genes()
            ));
        }
        if self.n_tumor != tumor.n_samples() {
            return Err(format!(
                "checkpoint has {} tumor samples, input has {}",
                self.n_tumor,
                tumor.n_samples()
            ));
        }
        Ok(())
    }
}

/// Durable on-disk checkpoint storage.
///
/// Saves are atomic: the text is written to `<path>.tmp` and renamed over
/// `<path>`, so a crash mid-write never destroys the previous checkpoint;
/// the previous good file is additionally kept as `<path>.bak`. They are
/// durable when [`CheckpointStore::save`] returns: the `.bak` copy and the
/// temporary file are synced before the rename, and (on Unix) the
/// directory after it, so a power loss keeps this save or the one before
/// it, never a file that was renamed but never written. Loads
/// verify the format CRC and fall back to the `.bak` automatically when the
/// primary file is corrupt, emitting a `recovery` obs point — production
/// resume loses at most one iteration of progress, which the greedy loop
/// recomputes identically.
pub struct CheckpointStore {
    path: PathBuf,
    obs: Obs,
}

impl CheckpointStore {
    /// A store rooted at `path`. The directory must exist.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, obs: &Obs) -> Self {
        CheckpointStore {
            path: path.into(),
            obs: obs.clone(),
        }
    }

    fn sibling(&self, ext: &str) -> PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(ext);
        PathBuf::from(os)
    }

    /// Atomically persist `ckpt`, rotating the previous good file to
    /// `.bak`. `faults` lets an armed plan damage the file *after* the
    /// writer believes the save durable (torn write / media corruption) —
    /// exactly what the CRC + fallback protocol must survive.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, ckpt: &Checkpoint, faults: Option<&FaultState>) -> std::io::Result<()> {
        let tmp = self.sibling(".tmp");
        if self.path.exists() {
            let bak = self.sibling(".bak");
            fs::copy(&self.path, &bak)?;
            fs::OpenOptions::new().write(true).open(&bak)?.sync_all()?;
        }
        let mut file = fs::File::create(&tmp)?;
        file.write_all(ckpt.to_text().as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &self.path)?;
        // The rename is durable once the directory entry is on disk.
        #[cfg(unix)]
        {
            let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
            fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        if let Some(f) = faults {
            match f.on_checkpoint_save() {
                CheckpointFault::None => {}
                CheckpointFault::Truncate => {
                    let bytes = fs::read(&self.path)?;
                    fs::write(&self.path, &bytes[..bytes.len() / 2])?;
                }
                CheckpointFault::Bitflip(word) => {
                    let mut bytes = fs::read(&self.path)?;
                    if !bytes.is_empty() {
                        let bit = word as usize % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        fs::write(&self.path, &bytes)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Load the newest good checkpoint: the primary file if it parses and
    /// its CRC checks out, else the `.bak` (recorded as a `recovery` point
    /// with kind `ckpt_fallback`).
    ///
    /// # Errors
    /// Returns a message when neither file yields a valid checkpoint.
    pub fn load(&self) -> Result<Checkpoint, String> {
        let primary = fs::read_to_string(&self.path)
            .map_err(|e| format!("read {}: {e}", self.path.display()))
            .and_then(|t| Checkpoint::from_text(&t));
        let err = match primary {
            Ok(c) => return Ok(c),
            Err(e) => e,
        };
        let bak = self.sibling(".bak");
        let fallback = fs::read_to_string(&bak)
            .map_err(|e| format!("read {}: {e}", bak.display()))
            .and_then(|t| Checkpoint::from_text(&t))
            .map_err(|bak_err| {
                format!("primary checkpoint invalid ({err}); backup invalid too ({bak_err})")
            })?;
        if self.obs.is_enabled() {
            self.obs.point(
                "recovery",
                &[
                    ("kind", "ckpt_fallback".into()),
                    ("error", err.as_str().into()),
                ],
            );
        }
        Ok(fallback)
    }
}

fn hex_words(words: &[u64]) -> String {
    words
        .iter()
        .map(|w| format!("{w:016x}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_hex_words(s: &str) -> Result<Vec<u64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|w| u64::from_str_radix(w, 16).map_err(|_| format!("bad mask word {w}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{distributed_discover4_checkpointed, distributed_discover4_ft};
    use crate::driver::{DistributedConfig, FtDistResult};
    use crate::fault::{FaultPlan, FaultState, FtParams};
    use crate::topology::ClusterShape;
    use multihit_core::obs::RunReport;

    fn lcg_matrices(g: usize, nt: usize, nn: usize, seed: u64) -> (BitMatrix, BitMatrix) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut t = BitMatrix::zeros(g, nt);
        let mut n = BitMatrix::zeros(g, nn);
        for gene in 0..g {
            for s in 0..nt {
                if next() % 2 == 0 {
                    t.set(gene, s, true);
                }
            }
            for s in 0..nn {
                if next() % 5 == 0 {
                    n.set(gene, s, true);
                }
            }
        }
        (t, n)
    }

    #[test]
    fn text_roundtrip() {
        let (t, _) = lcg_matrices(10, 130, 10, 1);
        let mut c = Checkpoint::fresh(&t);
        c.chosen.push([1, 4, 7, 9]);
        c.uncovered_mask[0] = 0xDEADBEEF;
        let back = Checkpoint::from_text(&c.to_text()).unwrap();
        assert_eq!(back, c);
    }

    /// `body` with a valid CRC trailer, so only its content can be the
    /// reason a parse rejects it.
    fn with_crc(body: &str) -> String {
        format!("{body}crc\t{:08x}\n", crc32(body.as_bytes()))
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text(&with_crc("multihit-checkpoint\tv9\n")).is_err());
        assert!(Checkpoint::from_text(&with_crc("multihit-checkpoint\tv2\nbogus\t3\n")).is_err());
        let missing_mask = with_crc("multihit-checkpoint\tv2\ngenes\t5\ntumors\t10\n");
        assert!(Checkpoint::from_text(&missing_mask)
            .unwrap_err()
            .contains("mask"));
    }

    /// A small valid v2 checkpoint to corrupt in the tests below.
    fn sample_text() -> String {
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        c.chosen.push([0, 3, 6, 9]);
        c.to_text()
    }

    #[test]
    fn parse_rejects_truncation() {
        let text = sample_text();
        for frac in [1, 2, 3] {
            let cut = &text[..text.len() * frac / 4];
            assert!(
                Checkpoint::from_text(cut).is_err(),
                "survived cut to {frac}/4"
            );
        }
    }

    #[test]
    fn no_single_bitflip_parses_to_a_different_checkpoint() {
        // The CRC can't make every flip a parse error (flipping the case of
        // a trailer hex digit is a no-op), but no flip may ever parse into
        // a checkpoint that differs from the original — that would be the
        // silent corruption the format exists to stop.
        let text = sample_text();
        let original = Checkpoint::from_text(&text).unwrap();
        let mut bytes = text.as_bytes().to_vec();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Some(parsed) = String::from_utf8(bytes.clone())
                .ok()
                .and_then(|s| Checkpoint::from_text(&s).ok())
            {
                assert_eq!(parsed, original, "bit {bit} flip silently corrupted");
            }
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn parse_rejects_bad_hex_mask() {
        let text = sample_text().replace("mask\t", "mask\tzz");
        assert!(Checkpoint::from_text(&text).is_err());
    }

    #[test]
    fn parse_rejects_duplicate_headers() {
        // Rebuild with a duplicate record and a fresh CRC so only the
        // duplication (not the checksum) can be the rejection reason.
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let c = Checkpoint::fresh(&t);
        for record in ["genes\t10\n", "tumors\t70\n"] {
            let mut body: String = c
                .to_text()
                .lines()
                .filter(|l| !l.starts_with("crc\t"))
                .map(|l| format!("{l}\n"))
                .collect();
            body.push_str(record);
            let err = Checkpoint::from_text(&with_crc(&body)).unwrap_err();
            assert!(err.contains("duplicate"), "{record:?}: {err}");
        }
    }

    #[test]
    fn parse_rejects_out_of_range_gene_ids() {
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        c.chosen.push([0, 3, 6, 10]); // gene 10 in a 10-gene universe
        let err = Checkpoint::from_text(&c.to_text()).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn parse_rejects_wrong_mask_length() {
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        c.uncovered_mask.push(0); // 70 tumors need 2 words, not 3
        let err = Checkpoint::from_text(&c.to_text()).unwrap_err();
        assert!(err.contains("words"), "{err}");
    }

    #[test]
    fn parse_rejects_legacy_v1_without_crc() {
        // Nothing writes v1, and a file without a trailer cannot show that
        // it is whole.
        let text = sample_text();
        let body = &text[..text.rfind("crc\t").unwrap()];
        let err = Checkpoint::from_text(body).unwrap_err();
        assert!(err.contains("missing crc"), "{err}");
        let v1 = body.replace("\tv2\n", "\tv1\n");
        let err = Checkpoint::from_text(&v1).unwrap_err();
        assert!(err.contains("version 1"), "{err}");
    }

    fn temp_store_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("multihit-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.ckpt")
    }

    #[test]
    fn store_round_trips_atomically() {
        let path = temp_store_path("roundtrip");
        let obs = Obs::disabled();
        let store = CheckpointStore::new(&path, &obs);
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        store.save(&c, None).unwrap();
        assert_eq!(store.load().unwrap(), c);
        c.chosen.push([1, 2, 3, 4]);
        let st = FaultState::new(FaultPlan::none(), &obs);
        store.save(&c, Some(&st)).unwrap();
        assert_eq!(store.load().unwrap(), c);
        // The temporary file was renamed away; only the checkpoint and the
        // backup of the previous save remain.
        let mut left: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["run.ckpt", "run.ckpt.bak"]);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn store_falls_back_to_backup_on_corruption() {
        for (tag, spec) in [("trunc", "ckpt-truncate=1"), ("flip", "ckpt-bitflip=1")] {
            let path = temp_store_path(tag);
            let obs = Obs::enabled();
            let store = CheckpointStore::new(&path, &obs);
            let st = FaultState::new(FaultPlan::parse(spec, 9).unwrap(), &obs);
            let (t, _) = lcg_matrices(10, 70, 10, 2);
            let mut good = Checkpoint::fresh(&t);
            store.save(&good, Some(&st)).unwrap(); // save 0: intact
            good.chosen.push([1, 2, 3, 4]);
            store.save(&good, Some(&st)).unwrap(); // save 1: damaged on disk
            let loaded = store.load().unwrap();
            // The damaged save is rejected; resume restarts from save 0.
            assert_eq!(loaded.chosen.len(), 0, "{spec}");
            assert_eq!(st.fired().len(), 1, "{spec}");
            let events = obs.events();
            assert!(
                events
                    .iter()
                    .any(|e| e.name == "recovery" && e.str("kind") == Some("ckpt_fallback")),
                "{spec}: no fallback recovery point"
            );
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn store_survives_compound_corruption_plans() {
        // Satellite (c): both checkpoint fault kinds armed in ONE plan.
        // Each damaged save is individually survived via the `.bak` as long
        // as a good save lands in between (the rotation keeps exactly one
        // generation of history).
        let path = temp_store_path("compound");
        let obs = Obs::enabled();
        let store = CheckpointStore::new(&path, &obs);
        let st = FaultState::new(
            FaultPlan::parse("ckpt-truncate=1, ckpt-bitflip=3", 9).unwrap(),
            &obs,
        );
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        store.save(&c, Some(&st)).unwrap(); // save 0: intact
        c.chosen.push([1, 2, 3, 4]);
        store.save(&c, Some(&st)).unwrap(); // save 1: truncated on disk
        assert_eq!(store.load().unwrap().chosen.len(), 0, "fell back to save 0");
        c.chosen.push([2, 3, 4, 5]);
        store.save(&c, Some(&st)).unwrap(); // save 2: intact again
        assert_eq!(store.load().unwrap().chosen.len(), 2);
        c.chosen.push([3, 4, 5, 6]);
        store.save(&c, Some(&st)).unwrap(); // save 3: bit-flipped on disk
        assert_eq!(store.load().unwrap().chosen.len(), 2, "fell back to save 2");
        assert_eq!(st.fired().len(), 2, "both fault kinds fired in one plan");
        assert_eq!(RunReport::from_events(&obs.events()).ckpt_fallbacks(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn consecutive_damaged_saves_fail_loudly_not_silently() {
        // The protocol keeps one generation of history: two damaged saves
        // in a row leave both the primary and the `.bak` corrupt, and load
        // must report that — never resume from garbage.
        let path = temp_store_path("double");
        let obs = Obs::disabled();
        let store = CheckpointStore::new(&path, &obs);
        let st = FaultState::new(
            FaultPlan::parse("ckpt-truncate=1, ckpt-bitflip=2", 9).unwrap(),
            &obs,
        );
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        store.save(&c, Some(&st)).unwrap(); // save 0: intact
        c.chosen.push([1, 2, 3, 4]);
        store.save(&c, Some(&st)).unwrap(); // save 1: truncated
        c.chosen.push([2, 3, 4, 5]);
        store.save(&c, Some(&st)).unwrap(); // save 2: rotates the damaged
                                            // save 1 into `.bak`, then flips
        let err = store.load().unwrap_err();
        assert!(
            err.contains("backup invalid too"),
            "double corruption must name both failures: {err}"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn restore_across_a_membership_epoch_change() {
        // A checkpoint written BEFORE a membership epoch change resumes to
        // the same answer the churned cluster produced. The checkpoint
        // format is roster-free by design (combinations + uncovered mask),
        // so a resume never depends on which ranks were alive when it was
        // written.
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let cfg = DistributedConfig {
            max_combinations: 3,
            ..cluster(4, false)
        };
        // Churned run: rank 2 dies at iteration 0, a replacement joins at
        // the iteration-1 barrier — one membership epoch.
        let plan = FaultPlan::parse("rank-kill=2@0, rank-join=2-1", 7).unwrap();
        let faults = FaultState::new(plan, &Obs::disabled());
        let ft = distributed_discover4_ft(
            &t,
            &n,
            &cfg,
            Some(&faults),
            FtParams::fast_test(),
            &Obs::disabled(),
        );
        assert_eq!(ft.recovery.membership_epochs, 1);
        assert!(
            ft.result.combinations.len() >= 2,
            "need iterations on both sides"
        );

        // The checkpoint as the epoch-0 roster would have written it after
        // the first combination — before the join existed.
        let mut ck = Checkpoint::fresh(&t);
        let first = ft.result.combinations[0];
        let cov = t.cover_mask(&first);
        for (m, c) in ck.uncovered_mask.iter_mut().zip(cov.iter()) {
            *m &= !c;
        }
        ck.chosen.push(first);
        // Persist + reload through the store (process restart), then let
        // the fault-free driver resume from it.
        let path = temp_store_path("epoch");
        let store = CheckpointStore::new(&path, &Obs::disabled());
        store.save(&ck, None).unwrap();
        let resumed = store.load().unwrap();
        let done = resume(&t, &n, &cfg, None, &store, resumed).unwrap();
        assert_eq!(done.result.combinations, ft.result.combinations);
        assert_eq!(done.result.uncovered, ft.result.uncovered);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    /// `nodes` ranks of two GPUs each, run to full cover.
    fn cluster(nodes: usize, kernelize: bool) -> DistributedConfig {
        DistributedConfig {
            shape: ClusterShape {
                nodes,
                gpus_per_node: 2,
            },
            kernelize,
            ..DistributedConfig::default()
        }
    }

    fn resume(
        t: &BitMatrix,
        n: &BitMatrix,
        cfg: &DistributedConfig,
        faults: Option<&FaultState>,
        store: &CheckpointStore,
        ckpt: Checkpoint,
    ) -> Result<FtDistResult, String> {
        let obs = Obs::disabled();
        distributed_discover4_checkpointed(
            t,
            n,
            cfg,
            faults,
            FtParams::fast_test(),
            &obs,
            store,
            ckpt,
        )
    }

    #[test]
    fn resume_after_k_picks_equals_uninterrupted_run() {
        // A cohort with a zero tumor row and a duplicated one, so that
        // kernelization removes genes.
        let (mut t, n) = lcg_matrices(13, 90, 60, 29);
        for s in 0..90 {
            t.set(11, s, false);
            t.set(12, s, t.get(0, s));
        }
        let k = 2;
        for nodes in [1, 4] {
            for kernelize in [false, true] {
                for bitflip in [false, true] {
                    let ctx = format!("{nodes} ranks, kernelize {kernelize}, bitflip {bitflip}");
                    let cfg = cluster(nodes, kernelize);
                    let whole = distributed_discover4_ft(
                        &t,
                        &n,
                        &cfg,
                        None,
                        FtParams::fast_test(),
                        &Obs::disabled(),
                    )
                    .result;
                    assert!(whole.combinations.len() > k + 1, "{ctx}: fixture too easy");

                    // The first allocation stops after k picks: saves 0..=k,
                    // and `ckpt-bitflip=k` damages the last one.
                    let path = temp_store_path(&format!("resume-{nodes}-{kernelize}-{bitflip}"));
                    let obs = Obs::enabled();
                    let store = CheckpointStore::new(&path, &obs);
                    let plan = if bitflip {
                        format!("ckpt-bitflip={k}")
                    } else {
                        String::new()
                    };
                    let faults = FaultState::new(FaultPlan::parse(&plan, 9).unwrap(), &obs);
                    let capped = DistributedConfig {
                        max_combinations: k,
                        ..cfg
                    };
                    let first = distributed_discover4_checkpointed(
                        &t,
                        &n,
                        &capped,
                        Some(&faults),
                        FtParams::fast_test(),
                        &obs,
                        &store,
                        Checkpoint::fresh(&t),
                    )
                    .unwrap();
                    assert_eq!(first.result.combinations, whole.combinations[..k], "{ctx}");
                    let saves: Vec<_> = obs
                        .events()
                        .iter()
                        .filter(|e| e.name == "checkpoint")
                        .map(|e| e.u64("iter").unwrap())
                        .collect();
                    assert_eq!(saves, (0..=k as u64).collect::<Vec<_>>(), "{ctx}");

                    // The next allocation loads what the first one saved:
                    // the damaged save falls back to `.bak`, one pick short.
                    let loaded = store.load().unwrap();
                    let redo = usize::from(bitflip);
                    assert_eq!(loaded.chosen.len(), k - redo, "{ctx}");
                    let report = RunReport::from_events(&obs.events());
                    assert_eq!(report.ckpt_fallbacks(), redo as u64, "{ctx}");
                    let done = resume(&t, &n, &cfg, None, &store, loaded).unwrap();
                    assert_eq!(done.result.combinations, whole.combinations, "{ctx}");
                    assert_eq!(done.result.uncovered, whole.uncovered, "{ctx}");
                    let tail = &whole.iterations[k - redo..];
                    assert_eq!(done.result.iterations.len(), tail.len(), "{ctx}");
                    for (a, b) in done.result.iterations.iter().zip(tail) {
                        assert_eq!((a.best, a.remaining), (b.best, b.remaining), "{ctx}");
                    }
                    // The resumed run's own last save holds the whole panel.
                    assert_eq!(store.load().unwrap().chosen, whole.combinations, "{ctx}");
                    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
                }
            }
        }
    }

    #[test]
    fn resume_stops_at_once_when_the_cap_is_reached() {
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let path = temp_store_path("capped");
        let store = CheckpointStore::new(&path, &Obs::disabled());
        let mut ck = Checkpoint::fresh(&t);
        ck.chosen.push([0, 1, 2, 3]);
        let cfg = DistributedConfig {
            max_combinations: 1,
            ..cluster(2, false)
        };
        let done = resume(&t, &n, &cfg, None, &store, ck.clone()).unwrap();
        assert_eq!(done.result.combinations, ck.chosen);
        assert_eq!(done.result.uncovered, ck.remaining());
        assert!(done.result.iterations.is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn resume_rejects_another_cohorts_checkpoint() {
        let (t, n) = lcg_matrices(9, 80, 40, 7);
        let path = temp_store_path("cohort");
        let store = CheckpointStore::new(&path, &Obs::disabled());
        for (g, nt) in [(11, 80), (9, 81)] {
            let (other, _) = lcg_matrices(g, nt, 40, 8);
            let err = resume(
                &t,
                &n,
                &cluster(2, false),
                None,
                &store,
                Checkpoint::fresh(&other),
            )
            .unwrap_err();
            assert!(err.contains("checkpoint has"), "{err}");
        }
        assert!(!path.exists(), "nothing is saved for a foreign cohort");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_is_small() {
        // Tens of bytes per iteration + one mask: ~n_tumor/8 bytes, not the
        // matrix's n_genes × n_tumor / 8.
        let (t, _) = lcg_matrices(500, 960, 10, 3);
        let c = Checkpoint::fresh(&t);
        let text = c.to_text();
        assert!(text.len() < 400, "checkpoint {} bytes", text.len());
    }
}
