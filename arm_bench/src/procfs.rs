//! What the kernel says about this process: CPU time, peak memory, threads.
//!
//! CPU time comes from `schedstat` (nanoseconds on-CPU per thread) rather
//! than `stat` (10 ms ticks): a 3 s window on the open-loop workload burns
//! about 2 s of CPU, and the generator thread a tenth of that, so ticks
//! would quantise the per-task figure by several percent.

use std::fs;

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// Nanoseconds all live threads of the process have spent on a CPU.
///
/// A thread that exited between two samples takes its time with it, so
/// callers sample only across intervals in which no thread ends (the
/// measurement windows: clusters are built before and torn down after).
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| schedstat_ns(&format!("{}/schedstat", t.path().display())))
        .sum()
}

/// On-CPU nanoseconds of the live thread named `name` (as in its `comm`),
/// 0 if there is none. Peer threads are named `netpeer-<id>` by the runtime;
/// this is how the harness reads one peer's CPU from outside.
pub fn named_thread_cpu_ns(name: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .find(|t| fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == name))
        .map_or(0, |t| {
            schedstat_ns(&format!("{}/schedstat", t.path().display()))
        })
}

fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") / 1024.0
}

/// Threads alive in the process (`Threads:`).
pub fn thread_count() -> f64 {
    status_field("Threads:")
}

fn status_field(name: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(name))?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}
