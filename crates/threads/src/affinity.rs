//! Host CPU binding for the process-wide team's workers.
//!
//! Left to the scheduler, the [`crate::global_team`] workers are often
//! stacked on one CPU while another idles, and they keep that placement
//! for seconds, so the same sweep runs up to ~1.6x slower in some
//! processes than in others. Binding worker `i` to the `i`-th CPU this
//! process may run on removes that mode. Linux only; elsewhere, and when
//! the kernel refuses, threads stay unbound.

/// Words of the affinity mask: 1024 CPUs, the size of glibc's `cpu_set_t`.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The host CPUs the calling thread may run on, ascending; empty when
/// unknown.
#[cfg(target_os = "linux")]
pub(crate) fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, which is
    // exactly that large; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Bind the calling thread to host CPU `cpu`; `false` if refused.
#[cfg(target_os = "linux")]
pub(crate) fn bind_current_thread(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `mask`, which is exactly
    // that large; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn bind_current_thread(_cpu: usize) -> bool {
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_bound_thread_runs_on_its_cpu_only() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "the calling thread may run somewhere");
        let last = *cpus.last().unwrap();
        let seen =
            std::thread::spawn(move || (bind_current_thread(last), allowed_cpus())).join().unwrap();
        assert_eq!(seen, (true, vec![last]));
        assert_eq!(allowed_cpus(), cpus, "binding another thread leaves this one alone");
    }
}
