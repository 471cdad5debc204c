//! What the operating system knows about this process: CPU time, peak
//! resident memory, bytes under a directory, and the machine's shape.

use std::path::Path;

/// `struct timespec` on every 64-bit Linux target.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the operating system (glibc's
/// `malloc_trim`). Called between jobs, untimed: glibc otherwise keeps
/// what earlier jobs freed in whichever arenas their threads happened to
/// use, and a job's peak memory then depends on the jobs before it.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; its return value only says whether memory
    // was released.
    unsafe { malloc_trim(0) };
}

/// CPU seconds (user + system, every thread) this process has consumed.
///
/// The same quantity `getrusage(RUSAGE_SELF)` reports as
/// `ru_utime + ru_stime`, read at nanosecond instead of tick resolution.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout value and the
    // clock id is a constant every Linux kernel since 2.6.12 accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Restarts the kernel's peak-RSS watermark for this process at its
/// current RSS (`echo 5 > /proc/self/clear_refs`, Linux ≥ 4.0), so that
/// the next [`peak_rss_mb`] reads the peak since this call. Returns
/// whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU seconds the hypervisor gave to other guests while a virtual CPU
/// of this machine was runnable (the `steal` column of `/proc/stat`,
/// summed over CPUs; ticks of 10 ms). 0 on a kernel that does not report
/// it.
pub fn steal_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Total size of the regular files under `dir` (0 when it is absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
