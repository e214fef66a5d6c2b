//! The process facts the benchmark reads: CPU time of the process or of the
//! calling thread, and peak resident memory.

use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system time) of
/// two `i64` each, then fourteen `long` counters.
type RUsage = [i64; 18];

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

extern "C" {
    /// `getrusage(2)`, from the libc that `std` already links.
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User plus system CPU time, at microsecond resolution (the clock-tick
/// fields of `/proc/self/stat` hold the same time in 10 ms steps).
fn cpu(who: i32) -> Duration {
    let mut usage: RUsage = [0; 18];
    // SAFETY: `usage` is a live, exclusively borrowed buffer the size and
    // alignment of `struct rusage` on 64-bit Linux, which `getrusage` fills
    // and does not retain.
    if unsafe { getrusage(who, &mut usage) } != 0 {
        return Duration::ZERO;
    }
    let micros = |sec: i64, usec: i64| (sec.max(0) as u64) * 1_000_000 + usec.max(0) as u64;
    Duration::from_micros(micros(usage[0], usage[1]) + micros(usage[2], usage[3]))
}

/// CPU time of the whole process, threads that have exited included.
pub fn process_cpu() -> Duration {
    cpu(RUSAGE_SELF)
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu(RUSAGE_THREAD)
}

/// Peak resident set size (`VmHWM` in `/proc/self/status`) in MiB, or 0
/// when unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (process, thread) = (process_cpu(), thread_cpu());
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu() >= thread + Duration::from_millis(15));
        assert!(process_cpu() >= process + Duration::from_millis(15));
        assert!(process_cpu() >= thread_cpu());
        assert!(peak_rss_mb() > 0.0);
    }
}
