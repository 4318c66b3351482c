//! Layer probes shared by several workloads: what this host can do at best
//! (`host.*`), and `core::kernel`'s primitives timed call by call.

use crate::inputs::Rng;
use crate::measure::ns_per_call;
use crate::metrics::Layers;
use crate::speed::{self, Tier};
use multihit_core::kernel::{self, Dispatch};
use std::fs;
use std::hint::black_box;
use std::time::Instant;

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn random_words(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Size of the largest cache `cpu0` reports, bytes.
fn last_level_cache_bytes() -> Option<usize> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let size = fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => (size.strip_suffix('M')?, 1024 * 1024),
        };
        Some(digits.parse::<usize>().ok()? * scale)
    })
    .max()
}

fn mem_available_bytes() -> Option<usize> {
    let info = fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    Some(
        line.split_ascii_whitespace()
            .nth(1)?
            .parse::<usize>()
            .ok()?
            * 1024,
    )
}

/// `host.*`: the ceilings. They move nothing; the other layers are read
/// against them.
pub fn host(l: &mut Layers) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    l.set("host.threads", threads as f64);

    // AND+popcount over two operands that together fill 16 KiB of L1.
    let mut seed = 1;
    let a: [u64; speed::CEILING_WORDS] = speed::words(&mut seed);
    let b: [u64; speed::CEILING_WORDS] = speed::words(&mut seed);
    let tier = Tier::detect();
    let ns = ns_per_call(7, 2000, |_| {
        speed::and_popcount_at(tier, black_box(&a), black_box(&b))
    });
    l.set(
        "host.and_popcount_words_per_ns",
        speed::CEILING_WORDS as f64 / ns,
    );

    // memcpy between buffers of four times the last-level cache each (a
    // quarter of the free memory at most, so a small sandbox still runs).
    let llc = last_level_cache_bytes().unwrap_or(32 << 20);
    let room = mem_available_bytes().map_or(usize::MAX, |m| m / 4);
    let len = (4 * llc).min(room);
    let src = vec![1u8; len];
    let mut dst = vec![2u8; len];
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        best = best.min(start.elapsed().as_secs_f64());
        black_box(&mut dst);
    }
    l.set("host.llc_mb", mib(llc));
    l.set("host.memcpy_buf_mb", mib(len));
    l.set("host.memcpy_gb_s", len as f64 / best / 1e9);
}

/// Row widths the kernel probes run at: BRCA's 15 tumour words, and 64.
const W_ROW: usize = 15;
const W_WIDE: usize = 64;

/// `kernel.*`: the dispatched primitives, ns per call, operands L1-resident.
pub fn kernel(l: &mut Layers) {
    let tier = kernel::active();
    let rank = [Dispatch::Scalar, Dispatch::Avx2, Dispatch::Avx512]
        .iter()
        .position(|&d| d == tier)
        .expect("a known tier");
    l.set("kernel.dispatch_tier", rank as f64);

    let mut rng = Rng::new(2);
    let rows: Vec<Vec<u64>> = (0..64).map(|_| random_words(&mut rng, W_ROW)).collect();
    let wide: Vec<Vec<u64>> = (0..16).map(|_| random_words(&mut rng, W_WIDE)).collect();
    let calls = 200_000;
    let pair = |set: &[Vec<u64>], i: usize| {
        kernel::and_popcount(&set[i % set.len()], &set[(i + 1) % set.len()])
    };
    l.set(
        "kernel.and_popcount_w15_ns",
        ns_per_call(5, calls, |i| pair(&rows, i)),
    );
    l.set(
        "kernel.and_popcount_w64_ns",
        ns_per_call(5, calls, |i| pair(&wide, i)),
    );
    let mut dst = vec![0u64; W_ROW];
    l.set(
        "kernel.and_store_popcount_w15_ns",
        ns_per_call(5, calls, |i| {
            kernel::and_store_popcount(&mut dst, &rows[i % 64], &rows[(i + 1) % 64])
        }),
    );

    // One level-0 sweep step: 16 candidate rows against a fixed partial.
    let partial = &rows[0];
    let blocks: Vec<[&[u64]; kernel::SWEEP_BLOCK]> = (1..rows.len() - kernel::SWEEP_BLOCK)
        .map(|at| std::array::from_fn(|r| rows[at + r].as_slice()))
        .collect();
    let mut out = [0u32; kernel::SWEEP_BLOCK];
    let block_ns = ns_per_call(5, calls / 8, |i| {
        kernel::and_popcount_block(partial, &blocks[i % blocks.len()], &mut out);
        out[0]
    });
    l.set("kernel.block16_w15_ns", block_ns);
    let words_per_ns = (kernel::SWEEP_BLOCK * W_ROW) as f64 / block_ns;
    l.set("kernel.block_words_per_ns", words_per_ns);
    l.set(
        "kernel.ceiling_frac",
        words_per_ns / l.get("host.and_popcount_words_per_ns"),
    );
}
