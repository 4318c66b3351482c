//! Kernel launch geometry: threads → blocks → waves.
//!
//! The paper launches the `maxF` kernel with 512-thread blocks (§III-E);
//! a V100 schedules blocks onto 80 SMs, up to four 512-thread blocks
//! resident per SM (2048 threads), so a launch executes in *waves* of
//! `80 × 4` blocks. This module does that arithmetic — exec uses it for
//! block bookkeeping, the cost model for occupancy, and the tests pin the
//! paper's numbers (e.g. `C(G,3)` threads per iteration ⇒ billions of
//! blocks across the fleet).

use crate::device::GpuSpec;

/// The geometry of one kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Threads requested.
    pub threads: u64,
    /// Threads per block.
    pub block_size: u32,
    /// Blocks in the grid (`ceil(threads / block_size)`).
    pub grid_blocks: u64,
    /// Blocks resident on the device at once.
    pub resident_blocks: u32,
    /// Full waves of resident blocks (`ceil(grid / resident)`).
    pub waves: u64,
}

impl LaunchConfig {
    /// Plan a launch of `threads` threads on `spec` with its default block
    /// size.
    ///
    /// # Panics
    /// Panics if the device block size is zero.
    #[must_use]
    pub fn plan(spec: &GpuSpec, threads: u64) -> Self {
        Self::plan_with_block(spec, threads, spec.block_size)
    }

    /// Plan with an explicit block size.
    #[must_use]
    fn plan_with_block(spec: &GpuSpec, threads: u64, block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let grid_blocks = threads.div_ceil(u64::from(block_size));
        let blocks_per_sm = (spec.max_threads_per_sm / block_size).max(1);
        let resident_blocks = spec.sm_count * blocks_per_sm;
        let waves = grid_blocks.div_ceil(u64::from(resident_blocks));
        LaunchConfig {
            threads,
            block_size,
            grid_blocks,
            resident_blocks,
            waves,
        }
    }

    /// Device occupancy of the launch's steady state (1.0 when at least one
    /// full wave exists).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let resident_threads = u64::from(self.resident_blocks) * u64::from(self.block_size);
        (self.threads as f64 / resident_threads as f64).min(1.0)
    }

    /// The per-block records the `maxF` kernel writes (one per block,
    /// §III-E) — i.e. `grid_blocks`.
    #[must_use]
    pub fn block_records(&self) -> u64 {
        self.grid_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_core::combin::binomial;

    #[test]
    fn v100_geometry() {
        let spec = GpuSpec::v100_summit();
        let lc = LaunchConfig::plan(&spec, 1_000_000);
        assert_eq!(lc.block_size, 512);
        assert_eq!(lc.grid_blocks, 1954);
        assert_eq!(lc.resident_blocks, 80 * 4);
        assert_eq!(lc.waves, 7); // ceil(1954 / 320)
        assert!((lc.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_launch_underoccupies() {
        let spec = GpuSpec::v100_summit();
        let lc = LaunchConfig::plan(&spec, 10_000);
        assert_eq!(lc.waves, 1);
        assert!(lc.occupancy() < 0.1);
    }

    #[test]
    fn paper_scale_block_records() {
        // BRCA 3x1: C(19411, 3) threads ⇒ the per-block list of §III-E.
        let spec = GpuSpec::v100_summit();
        let threads = binomial(19411, 3);
        let lc = LaunchConfig::plan(&spec, threads);
        assert_eq!(lc.block_records(), threads.div_ceil(512));
        // ~2.38e9 block records fleet-wide → 47.6 GB at 20 B each.
        let bytes = lc.block_records() * 20;
        assert!(
            (bytes as f64 / 47.6e9 - 1.0).abs() < 0.02,
            "bytes = {bytes}"
        );
    }

    #[test]
    fn exotic_block_sizes() {
        let spec = GpuSpec::v100_summit();
        let lc = LaunchConfig::plan_with_block(&spec, 1000, 33);
        assert_eq!(lc.grid_blocks, 31);
        // Residency floors at one block per SM even for giant blocks.
        let big = LaunchConfig::plan_with_block(&spec, 1 << 20, 4096);
        assert_eq!(big.resident_blocks, 80);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        let spec = GpuSpec::v100_summit();
        let _ = LaunchConfig::plan_with_block(&spec, 10, 0);
    }
}
