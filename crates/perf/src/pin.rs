//! Which CPU each of the benchmark's threads runs on.
//!
//! A control-path RPC to a memory node is two thread hand-offs, and a
//! recovery makes three of them in a row. Left to the scheduler, the
//! memory nodes' control threads settle — for a whole run — either on
//! the CPU of the thread that calls them (a hand-off is a context
//! switch) or on the other one (a hand-off is an inter-processor
//! interrupt to a halted virtual CPU, several times the cost): the same
//! commit measured 98 µs or 123 µs for a recovery depending on which,
//! and the pipeline's check refused the benchmark for it. So the main
//! thread — which builds every cluster, whose control threads inherit
//! its mask, and which runs the recovery rounds — stays on the last
//! allowed CPU, and coordinator thread `i` on the `i`-th, where it is not
//! migrated in mid-window either.
//!
//! Linux only; elsewhere, or when the mask cannot be read, nothing is
//! pinned and the numbers are as steady as the host's scheduler.

use std::sync::OnceLock;

/// `cpu_set_t` of glibc and musl: 1024 bits.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn read_mask() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn bind(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread. A refusal leaves the thread unpinned,
    // which is the state it was in.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn read_mask() -> Option<[u64; MASK_WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn bind(_cpu: usize) {}

/// The CPUs the process was allowed when it first asked, lowest first.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mask = read_mask().unwrap_or([0; MASK_WORDS]);
        (0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    })
}

/// CPUs the process may use — what `available_parallelism` said before
/// [`home`] narrowed the main thread's mask to one.
pub fn cpus() -> usize {
    match allowed().len() {
        0 => std::thread::available_parallelism().map_or(0, |n| n.get()),
        n => n,
    }
}

/// Keep the calling thread, and every thread it spawns that does not
/// choose for itself, on the last allowed CPU.
pub fn home() {
    if let Some(&cpu) = allowed().last() {
        bind(cpu);
    }
}

/// Keep the calling thread on the `i`-th allowed CPU (wrapping).
pub fn worker(i: usize) {
    let cpus = allowed();
    if !cpus.is_empty() {
        bind(cpus[i % cpus.len()]);
    }
}
