//! Timing: wall and CPU clocks around a call, and a best-of timer for calls
//! too short to time one at a time.

use crate::procstat::cpu_seconds;
use std::hint::black_box;
use std::time::Instant;

/// Time `f`: wall seconds, process CPU seconds, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, f64, T) {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    (wall, cpu_seconds() - cpu, out)
}

/// Wall seconds of `f`, result dropped after the clock stops.
pub fn wall_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Nanoseconds per call of `f`, as the best of `batches` batches of `calls`
/// calls each. `f` gets the call index so it can walk over varied operands.
pub fn ns_per_call<T>(batches: usize, calls: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for i in 0..calls {
            black_box(f(black_box(i)));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}
