//! How fast the host runs *while* a body runs.
//!
//! This host slows down by tens of percent for milliseconds to minutes at a
//! time (see the README's noise section), and none of it says anything about
//! the code under test. [`Samplers`] keeps one sampler thread on each CPU
//! the bodies may use. A sampler sleeps, wakes every few
//! milliseconds, times a fixed probe of the harness's own and goes back to
//! sleep; the scheduler lets the freshly woken thread in ahead of the busy
//! one, so the probe sees the core in the state the body sees it in. The
//! work a body gets done is its time multiplied by the mean speed over its
//! duration, so the mean of the sampled speeds, against the probe's speed on
//! an undisturbed core, converts the body's time to that reference speed.
//!
//! Nothing here calls the program under test: the probe is compiled for the
//! instruction set the harness itself detects.

use crate::affinity;
use crate::procstat::thread_cpu_seconds;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The plain AND+popcount loop the host's ceiling is measured with.
/// Inlined into one wrapper per instruction-set tier, so the compiler may use
/// that tier's instructions and nothing cleverer.
#[inline(always)]
fn and_popcount_plain(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt,bmi2")]
fn and_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
    and_popcount_plain(a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt,bmi2,avx512f,avx512vpopcntdq")]
fn and_popcount_avx512(a: &[u64], b: &[u64]) -> u64 {
    and_popcount_plain(a, b)
}

/// Rows of the speed probe and words in each: the width of a BRCA-shaped
/// tumour row.
const ROWS: usize = 64;
const ROW_WORDS: usize = 15;
type Row = [u64; ROW_WORDS];

/// One pass of the speed probe: a fixed row ANDed with each of [`ROWS`]
/// rows, the largest popcount kept. Short rows, a reduction and a compare
/// per row: the shape of a scan's inner loop, which a long streaming loop
/// is not (such a loop loses more to a busy sibling thread than any body
/// here does, see the README).
#[inline(always)]
fn rows_pass_plain(fixed: &Row, rows: &[Row; ROWS]) -> u64 {
    rows.iter()
        .map(|r| and_popcount_plain(fixed, r))
        .max()
        .unwrap_or(0)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt,bmi2")]
fn rows_pass_avx2(fixed: &Row, rows: &[Row; ROWS]) -> u64 {
    rows_pass_plain(fixed, rows)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt,bmi2,avx512f,avx512vpopcntdq")]
fn rows_pass_avx512(fixed: &Row, rows: &[Row; ROWS]) -> u64 {
    rows_pass_plain(fixed, rows)
}

/// The widest instruction set the running CPU offers the plain loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Scalar,
    Avx2,
    Avx512,
}

impl Tier {
    pub fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("popcnt")
                && is_x86_feature_detected!("bmi2");
            if avx2
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vpopcntdq")
            {
                return Tier::Avx512;
            }
            if avx2 {
                return Tier::Avx2;
            }
        }
        Tier::Scalar
    }
}

/// `popcount(a & b)` by the harness's own loop, compiled for `tier`.
pub fn and_popcount_at(tier: Tier, a: &[u64], b: &[u64]) -> u64 {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Tier::detect` returns this tier only after detecting
        // avx2, popcnt and bmi2 on the running CPU.
        Tier::Avx2 => unsafe { and_popcount_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, plus avx512f and avx512vpopcntdq for this tier.
        Tier::Avx512 => unsafe { and_popcount_avx512(a, b) },
        _ => and_popcount_plain(a, b),
    }
}

fn rows_pass_at(tier: Tier, fixed: &Row, rows: &[Row; ROWS]) -> u64 {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `and_popcount_at`.
        Tier::Avx2 => unsafe { rows_pass_avx2(fixed, rows) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `and_popcount_at`.
        Tier::Avx512 => unsafe { rows_pass_avx512(fixed, rows) },
        _ => rows_pass_plain(fixed, rows),
    }
}

/// Words in each operand of the ceiling loop: two of them fill 16 KiB.
pub const CEILING_WORDS: usize = 1024;

/// `N` pseudo-random words from `seed`.
pub fn words<const N: usize>(seed: &mut u64) -> [u64; N] {
    [(); N].map(|()| {
        *seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        *seed ^ (*seed >> 29)
    })
}

/// Passes in one sample: about 60 µs on an undisturbed core.
const PASSES: usize = 320;

/// Sleep between two samples. With the probe that is 2% of the CPU, and 12
/// samples in the shortest set-up body (50 ms).
const GAP: Duration = Duration::from_millis(4);

/// The time of one pass that a speed of 1 stands for: the reference speed
/// reported times are converted to. The cores of the host this benchmark was
/// sized on read 1.27, 0.95 or 0.72 of it, whichever level they are at.
const PASS_REFERENCE_NS: f64 = 178.0;

/// Host speed right now, 1 at the reference speed: reference time ÷ time of
/// [`PASSES`] passes over 8 KiB of L1.
fn speed_sample(tier: Tier, fixed: &Row, rows: &[Row; ROWS]) -> f64 {
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..PASSES {
        sum = sum.wrapping_add(rows_pass_at(tier, black_box(fixed), black_box(rows)));
    }
    black_box(sum);
    PASS_REFERENCE_NS * PASSES as f64 / start.elapsed().as_nanos() as f64
}

/// What the samplers saw while a body ran.
#[derive(Clone, Copy, Debug)]
pub struct Watched {
    /// Samples taken, all CPUs together.
    pub samples: usize,
    /// Mean host speed over the samples, 1 at the reference speed; a probe
    /// that was itself interrupted reads a speed near 0 and moves the mean
    /// by its share of the samples at most. 1 if the body was over before
    /// the first sample.
    pub speed: f64,
    /// CPU seconds the samplers used, to be taken off the process's.
    pub sampler_cpu_s: f64,
}

/// Running totals of all samplers.
#[derive(Clone, Copy, Default)]
struct Totals {
    samples: usize,
    speed_sum: f64,
    cpu_s: f64,
}

struct Shared {
    stop: AtomicBool,
    totals: Mutex<Totals>,
}

/// One sampler thread on each of a set of CPUs, for the length of a run.
/// They are started once and not per body: a thread that starts or ends
/// allocates and frees, and such blocks landing between a body's own moved
/// its peak resident set by 10%.
pub struct Samplers {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Samplers {
    pub fn start(cpus: &[usize]) -> Samplers {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            totals: Mutex::new(Totals::default()),
        });
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    affinity::pin(&[cpu]);
                    let tier = Tier::detect();
                    let mut seed = 1;
                    let fixed: Row = words(&mut seed);
                    let rows: [Row; ROWS] = [(); ROWS].map(|()| words(&mut seed));
                    let mut cpu_before = thread_cpu_seconds();
                    // `Relaxed`: the flag publishes nothing but itself.
                    while !shared.stop.load(Ordering::Relaxed) {
                        std::thread::sleep(GAP);
                        let speed = speed_sample(tier, &fixed, &rows);
                        let cpu_now = thread_cpu_seconds();
                        let mut totals = shared.totals.lock().expect("no holder panics");
                        totals.samples += 1;
                        totals.speed_sum += speed;
                        totals.cpu_s += cpu_now - cpu_before;
                        cpu_before = cpu_now;
                    }
                })
            })
            .collect();
        Samplers { shared, threads }
    }

    fn totals(&self) -> Totals {
        *self.shared.totals.lock().expect("no holder panics")
    }

    /// Run `body` on the calling thread, which the caller has restricted to
    /// the samplers' CPUs, and say what they saw meanwhile.
    pub fn watch<T>(&self, body: impl FnOnce() -> T) -> (T, Watched) {
        let before = self.totals();
        let out = body();
        let after = self.totals();
        let samples = after.samples - before.samples;
        let speed = if samples == 0 {
            1.0
        } else {
            (after.speed_sum - before.speed_sum) / samples as f64
        };
        let watched = Watched {
            samples,
            speed,
            sampler_cpu_s: after.cpu_s - before.cpu_s,
        };
        (out, watched)
    }
}

impl Drop for Samplers {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A sampler that panicked has nothing left to report.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tier_this_cpu_has_counts_the_same_bits() {
        let mut seed = 7;
        let (a, b): ([u64; 100], [u64; 100]) = (words(&mut seed), words(&mut seed));
        let want: u64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum();
        assert_eq!(and_popcount_at(Tier::Scalar, &a, &b), want);
        assert_eq!(and_popcount_at(Tier::detect(), &a, &b), want);

        let fixed: Row = words(&mut seed);
        let rows: [Row; ROWS] = [(); ROWS].map(|()| words(&mut seed));
        let want = rows
            .iter()
            .map(|r| and_popcount_at(Tier::Scalar, &fixed, r))
            .max();
        assert_eq!(Some(rows_pass_at(Tier::detect(), &fixed, &rows)), want);
    }

    #[test]
    fn a_watched_body_is_sampled_on_every_cpu_given() {
        let cpus = affinity::allowed();
        let samplers = Samplers::start(&cpus);
        let (out, watched) = samplers.watch(|| {
            std::thread::sleep(Duration::from_millis(100));
            42
        });
        assert_eq!(out, 42);
        // An unoptimized probe takes milliseconds.
        assert!(watched.samples >= 3 * cpus.len(), "{watched:?}");
        assert!(watched.speed > 0.0);
        assert!(watched.sampler_cpu_s > 0.0);
    }

    #[test]
    fn a_body_shorter_than_the_gap_reads_speed_one() {
        let samplers = Samplers::start(&[]);
        let (_, watched) = samplers.watch(|| ());
        assert_eq!(watched.samples, 0);
        assert_eq!(watched.speed, 1.0);
    }
}
