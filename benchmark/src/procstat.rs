//! Process accounting: CPU time from the process CPU-time clock, peak
//! resident set from `/proc/self/status`.

use std::fs;

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on
/// Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    /// glibc: give the free memory the allocator holds back to the kernel.
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_MMAP_THRESHOLD` of glibc's `<malloc.h>`, and the value it starts at.
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: i32 = -3;
#[cfg(target_env = "gnu")]
const MMAP_THRESHOLD_AT_START: i32 = 128 * 1024;

/// Keep glibc's allocator as a fresh process has it. Left alone, it raises
/// its mmap threshold each time a larger mapped block is freed (up to 32 MiB),
/// so that from the second repetition on, vectors that grow by doubling are
/// copied inside the heap instead of remapped, and the peak resident set
/// climbs for four or five repetitions (`cluster_acc_h4`: 105, 137, 158,
/// 180, 212 MiB). A user's process loads its cohort once, with the threshold
/// where it starts; setting it explicitly switches the adaptation off, and
/// every repetition then allocates the way that process does.
pub fn keep_allocator_fresh() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` takes two integers; called before any other thread
    // exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_AT_START);
    }
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn clock_seconds(clock_id: i32) -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a writable `timespec`; both callers pass a clock id
    // every Linux kernel knows.
    let rc = unsafe { clock_gettime(clock_id, &mut now) };
    assert_eq!(rc, 0, "clock_gettime({clock_id})");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// User + system CPU seconds this process (all threads, live and joined)
/// has used so far, at the clock's nanosecond resolution; `/proc/self/stat`
/// counts in 10 ms ticks, several percent of the shorter timed bodies.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Reset the kernel's peak-RSS mark to the current resident set, so that
/// `VmHWM` afterwards covers one repetition of the program under test and
/// not the generation of its inputs or the repetitions before. A sandbox may
/// refuse the write; the mark then stays the process-wide one, and the
/// caller is told so.
pub fn reset_peak_rss() -> bool {
    // What earlier repetitions freed and the allocator kept would otherwise
    // count as resident, by an amount that depends on how the frees happened
    // to interleave: the mark crept upwards from one repetition to the next.
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointer and may be called at any time.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        // Other tests run on other threads of this process and only add.
        let start = cpu_seconds();
        let clock = std::time::Instant::now();
        let mut x = 1u64;
        while clock.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let worked = cpu_seconds() - start;
        assert!(worked > 0.01, "{worked} s of CPU for 30 ms of spinning");
        assert!(thread_cpu_seconds() <= cpu_seconds());
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
