//! Process resource usage through `getrusage(2)`: CPU seconds and peak
//! resident memory. The standard library has no wrapper and the build has
//! no `libc` crate, so the one foreign call is declared here.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn usage() -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `Rusage` whose layout matches the
    // kernel's `struct rusage` on Linux (two timevals and fourteen longs);
    // getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    u
}

/// User plus system CPU seconds this process has used so far, all threads.
pub fn cpu_seconds() -> f64 {
    let u = usage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    usage().ru_maxrss as f64 / 1024.0
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// A cpu_set_t: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable 128-byte buffer and the size
    // passed is its size in bytes; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpus: Vec<usize> = (0..mask.len() * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err("sched_getaffinity returned no CPU".into());
    }
    Ok(cpus)
}

/// Confine the calling thread, and every thread it starts from now on, to
/// `cpu`, so the host reports one CPU of available parallelism.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is outside a cpu_set_t"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte buffer and the size passed is its
    // size in bytes; pid 0 is the calling thread, and the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(())
}
