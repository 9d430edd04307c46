//! Host and process probes read from `/proc`: core count, load average,
//! steal time, process CPU time, minor page faults, peak RSS and per-thread CPU time.
//! Every probe degrades to zero where `/proc` is unavailable.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_SECOND: f64 = 100.0;

/// A snapshot of the process's cumulative CPU time and minor faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// User + system CPU of every thread the process ever ran, in ms.
    pub cpu_ms: f64,
    /// Minor page faults so far.
    pub minor_faults: u64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`.
    pub fn now() -> ProcStat {
        let Ok(text) = fs::read_to_string("/proc/self/stat") else {
            return ProcStat::default();
        };
        // Fields after the parenthesised command name start at field 3
        // (state); minflt is field 10, utime 14, stime 15.
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let field = |n: usize| f.get(n - 3).copied().unwrap_or(0);
        ProcStat {
            cpu_ms: (field(14) + field(15)) as f64 * 1000.0 / TICKS_PER_SECOND,
            minor_faults: field(10),
        }
    }
}

/// On-CPU time of the calling thread in ms, from
/// `/proc/thread-self/schedstat` (nanosecond resolution).
pub fn thread_cpu_ms() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The 1/5/15-minute load averages, as `/proc/loadavg` prints them.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Cumulative `(steal, total)` CPU ticks of the whole machine, from the
/// `cpu` line of `/proc/stat`. Steal is time the hypervisor ran something
/// else while this machine's CPUs had work.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(text) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let f: Vec<u64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user and nice.
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// Wall time of a fixed single-threaded integer loop, in ms: a probe of
/// the host's current CPU speed, printed beside each run so that a run on
/// a slowed-down host shows as such rather than as a program change.
pub fn calibration_ms() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
