//! # multihit-gpusim
//!
//! A V100-like GPU substrate for the multihit reproduction: the paper ran on
//! real Summit GPUs; this crate substitutes (a) a **functional executor**
//! ([`exec`]) that runs the `maxF`/`parallelReduceMax` kernel pair literally
//! over a simulated thread grid — same λ-maps, same prefetching, same
//! block/tree reduction, bit-identical winners — and (b) a **structural cost
//! model** ([`cost`]) that converts the kernel's own traffic/op counts
//! ([`profile`]) into time and NVPROF-style counters ([`counters`]).
//!
//! The model's device constants are fixed once in
//! [`device::GpuSpec::v100_summit`]; no experiment retunes them (DESIGN.md,
//! calibration note). Paper-scale launches (10¹² threads) are profiled in
//! `O(G)` via the workload-level decomposition; small launches are executed
//! functionally and their audited profiles are asserted against the analytic
//! ones in tests.

pub mod cachesim;
pub mod cost;
pub mod counters;
pub mod device;
pub mod exec;
mod launch;
pub mod profile;

pub use cost::{CostModel, GpuCost, StallBreakdown};
pub use counters::{run_metrics, GpuRunMetrics};
pub use device::{GpuSpec, NodeSpec};
pub use launch::LaunchConfig;
pub use profile::{profile_range4, WorkProfile};
