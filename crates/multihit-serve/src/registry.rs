//! The model registry: discovered panels, indexed for serving, published
//! in immutable hot-swappable generations.
//!
//! A *panel* is one discovery run's output — the hit combinations of a
//! cohort (`ResultsFile` TSV, the paper's supporting-information tables) —
//! compiled into the form the hot path needs: a dense gene-id universe
//! (only genes that appear in some combination matter for classification),
//! a name→id index for request translation, and a [`ComboClassifier`] over
//! those ids. Each [`ModelRegistry`] is built once and then never mutated;
//! *replacing* the registry is how freshly discovered panels reach a live
//! server, closing the discover→serve loop without dropping traffic:
//!
//! * [`SharedRegistry`] — a hand-rolled epoch-based arc-swap. Writers
//!   publish a new immutable generation ([`SharedRegistry::swap`]) and
//!   bump an atomic epoch; the previous generation is retained for one
//!   epoch so in-flight binary requests packed against it still resolve.
//! * [`RegistryReader`] — a per-thread cached view. The hot path costs
//!   one relaxed atomic load per use ([`RegistryReader::current`]); only
//!   the first use after a swap touches the publisher's mutex. Readers
//!   therefore never block each other and never block the writer for
//!   longer than one `Arc` clone.
//!
//! Memory reclamation is the `Arc` refcount: a retired generation is
//! freed when the last reader cache and in-flight job drop it — the
//! "grace period" of a classical epoch scheme without the bookkeeping.

use multihit_data::classify::ComboClassifier;
use multihit_data::results::ResultsFile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One compiled panel.
#[derive(Clone, Debug)]
pub struct Panel {
    /// Dense id within its registry (position in insertion order) — what
    /// binary-frame requests carry instead of the name.
    pub id: u32,
    /// Registry name (the cohort label of the results file).
    pub name: String,
    /// Hits per combination as discovered.
    pub hits: usize,
    /// Gene symbols of the panel universe, id order.
    pub gene_names: Vec<String>,
    /// Symbol → dense id over [`Self::gene_names`].
    pub gene_index: BTreeMap<String, u32>,
    /// The classifier, in dense-id space.
    pub classifier: ComboClassifier,
}

impl Panel {
    /// Compile a results file into a servable panel.
    ///
    /// # Errors
    /// Rejects results with no combinations (nothing to serve).
    fn from_results(results: &ResultsFile) -> Result<Panel, String> {
        if results.rows.is_empty() {
            return Err(format!("panel {:?} has no combinations", results.cohort));
        }
        let mut gene_index = BTreeMap::new();
        let mut gene_names = Vec::new();
        let mut combinations = Vec::with_capacity(results.rows.len());
        for row in &results.rows {
            let mut combo = Vec::with_capacity(row.genes.len());
            for g in &row.genes {
                let id = *gene_index.entry(g.clone()).or_insert_with(|| {
                    gene_names.push(g.clone());
                    u32::try_from(gene_names.len() - 1).expect("gene universe fits u32")
                });
                combo.push(id);
            }
            if combo.is_empty() {
                return Err(format!(
                    "panel {:?} row {} has an empty combination",
                    results.cohort, row.iteration
                ));
            }
            combinations.push(combo);
        }
        Ok(Panel {
            id: 0, // assigned by ModelRegistry::insert_results
            name: results.cohort.clone(),
            hits: results.hits,
            gene_names,
            gene_index,
            classifier: ComboClassifier { combinations },
        })
    }

    /// Genes in the panel universe.
    #[must_use]
    pub fn n_genes(&self) -> usize {
        self.gene_names.len()
    }

    /// Packed words per signature for this universe.
    #[must_use]
    pub fn signature_words(&self) -> usize {
        self.n_genes().div_ceil(64)
    }

    /// Pack a request's gene symbols into the panel-universe bit signature.
    /// Symbols outside the universe are ignored — they cannot participate
    /// in any combination, so they cannot change the verdict.
    #[must_use]
    pub fn signature(&self, genes: &[String]) -> Vec<u64> {
        let mut sig = vec![0u64; self.signature_words()];
        for g in genes {
            if let Some(&id) = self.gene_index.get(g) {
                sig[id as usize / 64] |= 1 << (id % 64);
            }
        }
        sig
    }

    /// Scalar reference classification of one signature (the ground truth
    /// the batched path must reproduce bit-for-bit).
    #[must_use]
    pub fn classify_signature(&self, sig: &[u64]) -> bool {
        self.classifier.combinations.iter().any(|c| {
            c.iter()
                .all(|&g| (sig[g as usize / 64] >> (g % 64)) & 1 == 1)
        })
    }
}

/// The immutable set of panels one registry generation answers for.
#[derive(Clone, Debug, Default)]
pub struct ModelRegistry {
    panels: BTreeMap<String, Arc<Panel>>,
    by_id: Vec<Arc<Panel>>,
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Register one results file under its cohort name. The panel's dense
    /// id is its insertion position.
    ///
    /// # Errors
    /// Rejects empty panels and duplicate names.
    pub fn insert_results(&mut self, results: &ResultsFile) -> Result<(), String> {
        let mut panel = Panel::from_results(results)?;
        if self.panels.contains_key(&panel.name) {
            return Err(format!("duplicate panel {:?}", panel.name));
        }
        panel.id = u32::try_from(self.by_id.len()).expect("panel count fits u32");
        let panel = Arc::new(panel);
        self.panels.insert(panel.name.clone(), Arc::clone(&panel));
        self.by_id.push(panel);
        Ok(())
    }

    /// Compile a registry from in-memory results-TSV texts — the payload
    /// of a publish control frame (see [`crate::frame`]). All-or-nothing:
    /// any malformed or duplicate panel rejects the whole snapshot, so a
    /// live server never swaps in a partially-compiled generation.
    ///
    /// # Errors
    /// Names the offending panel index and the parse/compile failure, or
    /// rejects an empty snapshot.
    pub fn from_tsv_texts(texts: &[String]) -> Result<ModelRegistry, String> {
        if texts.is_empty() {
            return Err("publish snapshot carries no panels".to_string());
        }
        let mut reg = ModelRegistry::new();
        for (i, text) in texts.iter().enumerate() {
            let results =
                ResultsFile::from_tsv(text).map_err(|e| format!("panel {i}: parsing: {e}"))?;
            reg.insert_results(&results)
                .map_err(|e| format!("panel {i}: {e}"))?;
        }
        Ok(reg)
    }

    /// Load every `*.tsv` results file in a directory.
    ///
    /// # Errors
    /// Propagates I/O and parse failures, naming the offending file.
    pub fn load_dir(dir: &std::path::Path) -> Result<ModelRegistry, String> {
        let mut reg = ModelRegistry::new();
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tsv"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let results = ResultsFile::from_tsv(&text)
                .map_err(|e| format!("parsing {}: {e}", path.display()))?;
            reg.insert_results(&results)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if reg.is_empty() {
            return Err(format!("no .tsv results files in {}", dir.display()));
        }
        Ok(reg)
    }

    /// Look up a panel by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Panel>> {
        self.panels.get(name).cloned()
    }

    /// Look up a panel by dense id (the binary-protocol model reference).
    #[must_use]
    pub fn get_by_id(&self, id: u32) -> Option<&Arc<Panel>> {
        self.by_id.get(id as usize)
    }

    /// Panel names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.panels.keys().map(String::as_str).collect()
    }

    /// Number of panels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.panels.len()
    }

    /// Whether the registry has no panels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.panels.is_empty()
    }
}

/// One published registry generation.
#[derive(Debug)]
pub struct VersionedRegistry {
    /// Generation number, 1-based and strictly increasing per swap.
    pub version: u64,
    /// The immutable panel set of this generation.
    pub registry: ModelRegistry,
}

/// The hand-rolled epoch-based arc-swap publishing registry generations.
///
/// The epoch is [`SharedRegistry::version`]; readers validate their cached
/// `Arc` against it with one atomic load and only touch the mutex on the
/// first use after a swap. The writer holds the mutex just long enough to
/// replace two `Arc`s, so a swap never stalls behind traffic.
pub struct SharedRegistry {
    version: AtomicU64,
    slots: Mutex<Slots>,
}

struct Slots {
    current: Arc<VersionedRegistry>,
    /// The immediately preceding generation, retained so binary requests
    /// packed against it mid-swap still resolve (answered *under that
    /// generation*, never silently re-interpreted against the new one).
    previous: Option<Arc<VersionedRegistry>>,
}

impl SharedRegistry {
    /// Publish `registry` as generation 1.
    #[must_use]
    pub fn new(registry: ModelRegistry) -> Arc<SharedRegistry> {
        Arc::new(SharedRegistry {
            version: AtomicU64::new(1),
            slots: Mutex::new(Slots {
                current: Arc::new(VersionedRegistry {
                    version: 1,
                    registry,
                }),
                previous: None,
            }),
        })
    }

    /// The current epoch (generation number).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clone out the current generation (cold path; hot paths go through a
    /// [`RegistryReader`]).
    #[must_use]
    pub fn load(&self) -> Arc<VersionedRegistry> {
        Arc::clone(&self.slots.lock().expect("registry poisoned").current)
    }

    /// Publish a new generation; returns its version. The displaced
    /// generation stays resolvable for exactly one more swap.
    pub fn swap(&self, registry: ModelRegistry) -> u64 {
        let mut slots = self.slots.lock().expect("registry poisoned");
        let version = slots.current.version + 1;
        let fresh = Arc::new(VersionedRegistry { version, registry });
        slots.previous = Some(std::mem::replace(&mut slots.current, fresh));
        // Publish the epoch only after both slots are consistent.
        self.version.store(version, Ordering::Release);
        version
    }

    /// A reader caching the current generation.
    #[must_use]
    pub fn reader(self: &Arc<SharedRegistry>) -> RegistryReader {
        let slots = self.slots.lock().expect("registry poisoned");
        RegistryReader {
            cached: Arc::clone(&slots.current),
            cached_previous: slots.previous.clone(),
            shared: Arc::clone(self),
        }
    }
}

/// A per-thread cached view of a [`SharedRegistry`]: the `registry.load()`
/// each batch performs. Validation is one atomic compare; refresh after a
/// swap is one brief mutex acquisition.
pub struct RegistryReader {
    cached: Arc<VersionedRegistry>,
    cached_previous: Option<Arc<VersionedRegistry>>,
    shared: Arc<SharedRegistry>,
}

impl RegistryReader {
    fn refresh_if_stale(&mut self) {
        if self.shared.version() != self.cached.version {
            let slots = self.shared.slots.lock().expect("registry poisoned");
            self.cached = Arc::clone(&slots.current);
            self.cached_previous = slots.previous.clone();
        }
    }

    /// The current generation.
    pub fn current(&mut self) -> &Arc<VersionedRegistry> {
        self.refresh_if_stale();
        &self.cached
    }

    /// Resolve a request's generation number: the current generation, the
    /// one it displaced (grace period for in-flight requests packed
    /// against the old universe), or `None` if the caller is two or more
    /// swaps behind.
    pub fn resolve_version(&mut self, version: u64) -> Option<&Arc<VersionedRegistry>> {
        self.refresh_if_stale();
        if self.cached.version == version {
            Some(&self.cached)
        } else {
            self.cached_previous
                .as_ref()
                .filter(|p| p.version == version)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_data::results::ResultRow;

    fn results(cohort: &str, combos: &[&[&str]]) -> ResultsFile {
        ResultsFile {
            cohort: cohort.to_string(),
            hits: combos.first().map_or(0, |c| c.len()),
            rows: combos
                .iter()
                .enumerate()
                .map(|(i, genes)| ResultRow {
                    iteration: i,
                    genes: genes.iter().map(ToString::to_string).collect(),
                    f: 0.5,
                    tp: 1,
                    tn: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn panel_compiles_dense_universe() {
        let rf = results("X", &[&["TP53", "KRAS"], &["KRAS", "EGFR"]]);
        let p = Panel::from_results(&rf).unwrap();
        assert_eq!(p.n_genes(), 3); // KRAS deduplicated
        assert_eq!(p.classifier.combinations.len(), 2);
        // Ids are assignment-ordered and consistent between index and names.
        for (name, &id) in &p.gene_index {
            assert_eq!(&p.gene_names[id as usize], name);
        }
    }

    #[test]
    fn signature_ignores_unknown_genes() {
        let rf = results("X", &[&["A", "B"]]);
        let p = Panel::from_results(&rf).unwrap();
        let sig = p.signature(&["B".to_string(), "ZZZ".to_string(), "A".to_string()]);
        assert!(p.classify_signature(&sig));
        let partial = p.signature(&["A".to_string(), "ZZZ".to_string()]);
        assert!(!p.classify_signature(&partial));
    }

    #[test]
    fn registry_rejects_duplicates_and_empties() {
        let mut reg = ModelRegistry::new();
        reg.insert_results(&results("X", &[&["A"]])).unwrap();
        assert!(reg.insert_results(&results("X", &[&["B"]])).is_err());
        assert!(reg.insert_results(&results("Y", &[])).is_err());
        assert_eq!(reg.names(), vec!["X"]);
        assert!(reg.get("X").is_some());
        assert!(reg.get("Z").is_none());
    }

    #[test]
    fn dense_ids_follow_insertion_order() {
        let mut reg = ModelRegistry::new();
        reg.insert_results(&results("B", &[&["A"]])).unwrap();
        reg.insert_results(&results("A", &[&["B"]])).unwrap();
        assert_eq!(reg.get("B").unwrap().id, 0);
        assert_eq!(reg.get("A").unwrap().id, 1);
        assert_eq!(reg.get_by_id(0).unwrap().name, "B");
        assert_eq!(reg.get_by_id(1).unwrap().name, "A");
        assert!(reg.get_by_id(2).is_none());
    }

    #[test]
    fn swap_publishes_and_retains_one_generation() {
        let mut v1 = ModelRegistry::new();
        v1.insert_results(&results("X", &[&["A"]])).unwrap();
        let shared = SharedRegistry::new(v1);
        let mut reader = shared.reader();
        assert_eq!(reader.current().version, 1);
        assert!(reader.resolve_version(1).is_some());
        assert!(reader.resolve_version(2).is_none());

        let mut v2 = ModelRegistry::new();
        v2.insert_results(&results("X", &[&["A", "B"]])).unwrap();
        assert_eq!(shared.swap(v2), 2);

        // A stale reader refreshes on first use; both generations resolve.
        assert_eq!(reader.current().version, 2);
        assert_eq!(reader.resolve_version(1).unwrap().version, 1);
        assert_eq!(reader.resolve_version(2).unwrap().version, 2);

        // One more swap retires generation 1 entirely.
        let mut v3 = ModelRegistry::new();
        v3.insert_results(&results("X", &[&["C"]])).unwrap();
        assert_eq!(shared.swap(v3), 3);
        assert!(reader.resolve_version(1).is_none());
        assert_eq!(reader.resolve_version(2).unwrap().version, 2);
        assert_eq!(reader.resolve_version(3).unwrap().version, 3);
    }

    #[test]
    fn readers_never_observe_a_torn_generation() {
        // Hammer swap from one thread while readers validate that the
        // version stamp always matches the registry contents it travels
        // with (each generation's panel count encodes its version parity).
        let mut v1 = ModelRegistry::new();
        v1.insert_results(&results("X", &[&["A"]])).unwrap();
        let shared = SharedRegistry::new(v1);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let shared2 = Arc::clone(&shared);
            let stop = &stop;
            s.spawn(move || {
                for i in 0..200u64 {
                    let mut reg = ModelRegistry::new();
                    let combos: Vec<&[&str]> = if i % 2 == 0 {
                        vec![&["A"], &["B"]]
                    } else {
                        vec![&["A"]]
                    };
                    reg.insert_results(&results("X", &combos)).unwrap();
                    shared2.swap(reg);
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            for _ in 0..2 {
                let mut reader = shared.reader();
                s.spawn(move || {
                    let mut last = 0;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let cur = reader.current();
                        // Versions move forward only, and the generation's
                        // contents agree with its stamp.
                        assert!(cur.version >= last, "epoch went backwards");
                        last = cur.version;
                        let panels = cur.registry.get("X").unwrap();
                        let want = if cur.version == 1 || cur.version.is_multiple_of(2) {
                            // v1 seeds 1 combo; swap i produces version i+2
                            // with 2 combos when i is even.
                            if cur.version == 1 {
                                1
                            } else {
                                2
                            }
                        } else {
                            1
                        };
                        assert_eq!(
                            panels.classifier.combinations.len(),
                            want,
                            "torn read at version {}",
                            cur.version
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn load_dir_reads_tsv_files() {
        let dir = std::env::temp_dir().join(format!("mh-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.tsv"), results("A", &[&["G1", "G2"]]).to_tsv()).unwrap();
        std::fs::write(dir.join("b.tsv"), results("B", &[&["G3"]]).to_tsv()).unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a results file").unwrap();
        let reg = ModelRegistry::load_dir(&dir).unwrap();
        assert_eq!(reg.names(), vec!["A", "B"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
