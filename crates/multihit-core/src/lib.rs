//! # multihit-core
//!
//! The core algorithm of *"Scaling Out a Combinatorial Algorithm for
//! Discovering Carcinogenic Gene Combinations to Thousands of GPUs"*
//! (Dash et al., IPDPS 2021): an approximate weighted-set-cover search for
//! multi-hit (2–4+ gene) combinations that are frequent in tumor samples and
//! rare in normals.
//!
//! The crate provides, dependency-light and deterministic:
//!
//! * [`bitmat`] — compressed binary gene×sample matrices (64 samples per
//!   word) with column splicing;
//! * [`combin`] — exact λ ↔ tuple index maps (triangular, tetrahedral,
//!   general `H`-simplex) plus the paper's float formulas;
//! * [`weight`] — the `F = (α·TP + TN)/(Nt + Nn)` objective with exact
//!   integer, reduction-order-independent comparison;
//! * [`kernel`] — fused AND+popcount primitives, runtime-dispatched to
//!   AVX2/POPCNT on `x86_64` with a portable unrolled scalar fallback;
//! * [`par`] — the work-stealing λ-cursor and scoped worker pool the scan
//!   and the simulators schedule onto;
//! * [`schemes`] — the `1x3`/`2x2`/`3x1`/`4x1` parallelization schemes;
//! * [`sweep`] — the `O(G)` workload-level decomposition schedulers use;
//! * [`memopt`] — the MemOpt1/MemOpt2/BitSplicing kernel ablation;
//! * [`reduce`] — the two-kernel, multi-stage max-reduction;
//! * [`frontier`] — the persistent top-K frontier behind the exact
//!   lazy-greedy (Minoux) skip of later full scans;
//! * [`greedy`] — the full greedy discovery loop with an incremental
//!   partial-AND scanner;
//! * [`kernelize`] — exact instance reduction (dominated/useless genes,
//!   removable sample columns) with a certificate mapping reduced results
//!   back to original indices;
//! * [`obs`] — dependency-free observability: spans, points, a JSON-lines
//!   event stream, and the [`obs::RunReport`] aggregate consumers build
//!   from it.
//!
//! ## Quick start
//!
//! ```
//! use multihit_core::bitmat::BitMatrix;
//! use multihit_core::greedy::{discover, GreedyConfig};
//!
//! // 4 genes; tumors 0..2 carry mutations in genes {0,1}.
//! let tumor = BitMatrix::from_rows(4, 3, &[vec![0, 1, 2], vec![0, 1, 2], vec![], vec![]]);
//! let normal = BitMatrix::from_rows(4, 2, &[vec![0], vec![], vec![1], vec![]]);
//! let result = discover::<2>(&tumor, &normal, &GreedyConfig::default());
//! assert_eq!(result.combinations, vec![[0, 1]]);
//! assert_eq!(result.uncovered, 0);
//! ```

pub mod bitmat;
pub mod combin;
pub mod frontier;
pub mod greedy;
pub mod kernel;
pub mod kernelize;
pub mod memopt;
pub mod obs;
pub mod par;
pub mod reduce;
pub mod schemes;
pub mod sweep;
pub mod weight;

pub use bitmat::{BitMatrix, SkipIndex};
pub use greedy::{discover, GreedyConfig, GreedyResult, SparseMode};
pub use kernelize::{kernelize, ReductionCert, ReductionStats};
pub use obs::{FaultReport, Obs, RecoveryReport, RunReport};
pub use weight::{Alpha, Combo, Scored};
