//! Fig 5 ablation as a Criterion bench: the 3-hit scan under each prefetch
//! level, and full greedy runs with and without BitSplicing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multihit_core::greedy::{discover, Exclusion, GreedyConfig};
use multihit_core::memopt::{scan_3hit, MemOptLevel};
use multihit_core::weight::Alpha;
use multihit_data::synth::{generate, CohortSpec};

fn cohort(g: usize) -> (multihit_core::BitMatrix, multihit_core::BitMatrix) {
    let c = generate(&CohortSpec {
        n_genes: g,
        n_tumor: 911,
        n_normal: 329,
        n_driver_combos: 6,
        hits_per_combo: 3,
        driver_penetrance: 0.9,
        passenger_rate_tumor: 0.02,
        passenger_rate_normal: 0.008,
        seed: 51,
    });
    (c.tumor, c.normal)
}

fn bench_prefetch_levels(c: &mut Criterion) {
    let (t, n) = cohort(120);
    let mut g = c.benchmark_group("fig5_scan_3hit_g120");
    g.sample_size(20);
    for level in MemOptLevel::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(level.name()),
            &level,
            |b, &lv| b.iter(|| scan_3hit(&t, &n, Alpha::PAPER, lv).best),
        );
    }
    g.finish();
}

fn bench_bitsplicing(c: &mut Criterion) {
    let (t, n) = cohort(60);
    let mut g = c.benchmark_group("fig5_greedy_exclusion_g60");
    g.sample_size(10);
    for (name, excl) in [
        ("mask", Exclusion::Mask),
        ("bitsplice", Exclusion::BitSplice),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                discover::<3>(
                    &t,
                    &n,
                    &GreedyConfig {
                        exclusion: excl,
                        parallel: false,
                        max_combinations: 5,
                        ..GreedyConfig::default()
                    },
                )
                .combinations
                .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_prefetch_levels, bench_bitsplicing);
criterion_main!(benches);
