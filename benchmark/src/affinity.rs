//! Thread placement: which CPUs a workload's bodies run on.
//!
//! Every workload's bodies run on CPUs the harness picks, so that the
//! host-speed samplers of [`crate::speed`] can sit on the same ones:
//! one CPU for the single-threaded workloads, two for the two rank threads,
//! and one for the serve workloads' client and shard together. Left to the
//! scheduler, those two end up on one core in some repetitions (they take
//! turns: 0.7 s for a million cached answers, CPU time equal to wall time)
//! and on two cores in others (they contend for the queue and the metrics
//! lock: 1.2–1.5 s as a rule, 0.5 s when the convoy happens not to form; CPU
//! time twice the wall time). Which of these a repetition gets is not in the
//! benchmark's hands, and they are up to a factor of three apart. What is
//! measured on one CPU is the CPU cost per request of both sides; contention
//! between cores is not, and on this host could not be told from noise.

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending. Empty if the kernel
/// would not say.
pub fn allowed() -> Vec<usize> {
    let mut set = [0u64; SET_WORDS];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread — and the threads it spawns from now on — to
/// `cpus`. Returns whether the kernel accepted it; a refusal (or an empty
/// list) leaves the placement to the scheduler.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set = [0u64; SET_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < SET_WORDS * 64) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) } == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_and_restores_the_allowed_set() {
        let before = allowed();
        assert!(!before.is_empty());
        let last = *before.last().expect("one CPU at least");
        // A spawned thread inherits the mask of the thread that spawns it.
        let inherited = std::thread::scope(|s| {
            assert!(pin(&[last]));
            let seen = s.spawn(allowed).join().expect("thread ran");
            assert!(pin(&before));
            seen
        });
        assert_eq!(inherited, vec![last]);
        assert_eq!(allowed(), before);
        assert!(!pin(&[]));
    }
}
